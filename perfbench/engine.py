"""The engine under test, driven from outside.

The daemon is started as `python -m hydra daemon start --foreground` with
the checkout's src on PYTHONPATH, in the default decoupled mode, and is
reached only through hydra.client. Every process of a run (daemon,
monitors, containers, exec helpers) carries MARKER in its environment, so
leftovers of an interrupted run can be found and killed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import procfs
from hydra.client import DaemonClient, TransportError
from hydra.protocol import StateDirLayout, resolve_layout

MARKER = "HYDRA_PERFBENCH_STATE"
# sun_path holds 107 bytes; the longest socket is containers/<16 hex>/monitor.sock.
_SUN_PATH_MAX = 107
_MONITOR_SOCK_SUFFIX = len("/containers/0123456789abcdef/monitor.sock")


@dataclass(frozen=True)
class Paths:
    """Where a run keeps its files, all under <checkout>/.bench-out."""

    checkout: Path

    @property
    def out(self) -> Path:
        return self.checkout / ".bench-out"

    @property
    def state(self) -> Path:
        return self.out / "s"

    @property
    def scratch(self) -> Path:
        return self.out / "scratch"

    @property
    def src(self) -> Path:
        return self.checkout / "src"

    def check_socket_room(self) -> None:
        if len(str(self.state)) + _MONITOR_SOCK_SUFFIX > _SUN_PATH_MAX:
            raise SystemExit(
                f"checkout path {self.checkout} is too long for the engine's "
                f"Unix sockets (state dir {self.state})"
            )


def engine_env(paths: Paths) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(paths.src), env.get("PYTHONPATH", "")) if p
    )
    env[MARKER] = str(paths.state)
    return env


def stray_pids(paths: Paths) -> list[int]:
    return procfs.marked(MARKER, str(paths.state))


def wipe_state(paths: Paths) -> int:
    """Kill what an earlier run left under the state dir, then remove it.

    Returns how many processes were killed.
    """
    leftovers = stray_pids(paths)
    procfs.kill_all(leftovers)
    shutil.rmtree(paths.state, ignore_errors=True)
    return len(leftovers)


class Daemon:
    """One `hydra daemon start --foreground` process and a client for it."""

    def __init__(self, paths: Paths):
        self.paths = paths
        self.layout: StateDirLayout = resolve_layout(paths.state)
        self.client = DaemonClient(self.layout)
        self.proc: subprocess.Popen[bytes] | None = None
        self.requests = 0

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def request(self, op: str, *, timeout: float = 30.0, **fields: Any) -> dict[str, Any]:
        reply = self.client.request(op, timeout=timeout, **fields)
        self.requests += 1
        return reply

    def start(self, timeout_s: float = 30.0) -> dict[str, Any]:
        """Start the daemon; returns its first status with restore_ms set."""
        with open(self.layout.root / "daemon.log", "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "hydra", "--state-dir", str(self.layout.root),
                 "daemon", "start", "--foreground"],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                env=engine_env(self.paths), start_new_session=True,
            )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}; "
                                   f"see {self.layout.root}/daemon.log")
            try:
                status = self.request("status", timeout=5.0)
            except TransportError:
                time.sleep(0.002)
                continue
            # The socket serves while startup reboots are still in flight;
            # restore_ms is set once they are done.
            if status["restore_ms"] is not None:
                return status
            time.sleep(0.002)
        raise RuntimeError(f"daemon not serving within {timeout_s}s")

    def kill(self) -> None:
        """SIGKILL, as a crash would, and reap."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc = None

    def shutdown(self, timeout_s: float = 15.0) -> None:
        if self.proc is None:
            return
        try:
            self.request("shutdown", timeout=5.0)
            self.proc.wait(timeout=timeout_s)
        except (TransportError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def read_record(self, container_id: str) -> dict[str, Any]:
        """The record file as plain JSON (not through hydra's decoder)."""
        with open(self.layout.record_path(container_id)) as fh:
            return json.load(fh)
