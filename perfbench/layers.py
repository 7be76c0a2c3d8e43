"""Per-layer timings of single public calls, taken in traced runs only.

Files go to a scratch state dir beside the live one, never into it: the
daemon would ingest or quarantine them.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from engine import MARKER, Paths, engine_env
from hydra import sandbox
from hydra.client import read_log_frames
from hydra.model import (
    ContainerRecord,
    ContainerSpec,
    ContainerState,
    ExitReport,
    ProcessIdentity,
    SupervisionMode,
)
from hydra.protocol import (
    FRAME_STDOUT,
    dump_record,
    encode_frame,
    load_record,
    read_exit_report,
    resolve_layout,
    write_exit_report,
)
from measure import Recorder

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import {modules}; "
    "print((time.perf_counter() - t) * 1e3)"
)
_CHUNK = 65536  # the monitor's pump read size


def measure_layers(paths: Paths, rec: Recorder, blob: bytes, live: ProcessIdentity) -> None:
    layout = resolve_layout(paths.scratch / "layer")
    _imports(paths, rec)
    _spawn(paths, rec)
    for _ in range(200):
        with rec.time("sandbox.is_alive_us", "sandbox.is_alive", "layers", scale=1e-3):
            sandbox.is_alive(live)
    spec = ContainerSpec(command=("sleep", "3600"), env=(f"{MARKER}={paths.state}",))
    now = time.time_ns() // 1_000_000
    for n in range(50):
        cid = f"{n:016x}"
        record = ContainerRecord(
            id=cid, spec=spec, mode=SupervisionMode.DECOUPLED,
            state=ContainerState.exited(code=n % 256),
            monitor=ProcessIdentity(1 + n, 1), container=ProcessIdentity(2 + n, 1),
            created_at=now, started_at=now, finished_at=now,
        )
        with rec.time("protocol.dump_record_ms", "protocol.dump_record", "layers"):
            record_path = dump_record(layout, record)
        with rec.time("protocol.write_exit_report_ms", "protocol.write_exit_report", "layers"):
            exit_path = write_exit_report(layout, ExitReport(cid, n % 256, None, now))
    for _ in range(200):
        with rec.time("protocol.load_record_us", "protocol.load_record", "layers", scale=1e-3):
            load_record(record_path)
        with rec.time("protocol.read_exit_report_us", "protocol.read_exit_report", "layers",
                      scale=1e-3):
            read_exit_report(exit_path)
        with rec.time("model.record_roundtrip_us", "model.record_roundtrip", "layers",
                      scale=1e-3):
            ContainerRecord.from_dict(record.to_dict())
    log_path = layout.logs_dir / "blob.log"
    with open(log_path, "wb") as fh:
        for offset in range(0, len(blob), _CHUNK):
            fh.write(encode_frame(FRAME_STDOUT, blob[offset:offset + _CHUNK]))
    for _ in range(3):
        began = time.perf_counter_ns()
        with rec.time(None, "client.read_log_frames", "layers"):
            got = sum(len(payload) for _, payload in read_log_frames(log_path))
        rec.add("client.read_log_frames_mb_per_s",
                got / 1e6 / ((time.perf_counter_ns() - began) / 1e9))


def _imports(paths: Paths, rec: Recorder) -> None:
    """A fresh interpreter importing the daemon's entry path, then the monitor."""
    for key, modules in (("daemon.import_ms", "hydra.cli, hydra.daemon"),
                         ("monitor.import_ms", "hydra.monitor")):
        for _ in range(5):
            out = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE.format(modules=modules)],
                env=engine_env(paths), capture_output=True, text=True, check=True,
            )
            rec.add(key, float(out.stdout))


def _spawn(paths: Paths, rec: Recorder) -> None:
    """sandbox.spawn of the churn command, with this process as the parent."""
    spec = ContainerSpec(command=("sleep", "3600"), env=(f"{MARKER}={paths.state}",))
    for _ in range(10):
        with rec.time("sandbox.spawn_ms", "sandbox.spawn", "layers"):
            handle = sandbox.spawn(spec)
        os.killpg(handle.pgid, signal.SIGKILL)
        os.waitpid(handle.container.pid, 0)
        handle.close_stdio()
