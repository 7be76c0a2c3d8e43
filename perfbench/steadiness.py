"""Two interleaved sets of runs of one commit, then compare.py on them.

    python3 perfbench/steadiness.py --runs 10 --out .bench-out/steady

Run i of every workload uses seed BASE_SEED + i on both sides, and the side
that goes first alternates with i. Since both sets run the same code,
compare.py should call every metric unchanged; its spreads show how far a
metric moves between runs of the same code. Exits 1 if any run exits with
another code than 0 or compare.py finds a failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_SEED = 1000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench-out" / "steady")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"a": args.out / "a", "b": args.out / "b"}
    failures = 0
    for i in range(args.runs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for workload in workloads:
            for side in order:
                command = [*bench["command"], "--workload", workload,
                           "--seed", str(BASE_SEED + i),
                           "--seconds", str(bench["run_seconds"]), "--trace", "0",
                           "--out", str(sides[side])]
                done = subprocess.run([sys.executable, *command[1:]], cwd=ROOT,
                                      capture_output=True, text=True)
                last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
                print(f"run {i} {workload} {side}: exit {done.returncode} {last[:160]}",
                      flush=True)
                failures += done.returncode != 0
    compared = subprocess.run([sys.executable, str(ROOT / "perfbench" / "compare.py"),
                               str(sides["a"]), str(sides["b"])]).returncode
    if failures:
        print(f"{failures} runs exited with another code than 0")
    return 1 if failures or compared else 0


if __name__ == "__main__":
    sys.exit(main())
