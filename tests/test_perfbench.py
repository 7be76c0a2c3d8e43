"""The benchmark drives this checkout's engine, some of it through engine
internals (`perfbench/layers.py` calls `sandbox.spawn`): an engine change
that breaks the benchmark fails here."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def test_traced_churn_run_is_correct():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
