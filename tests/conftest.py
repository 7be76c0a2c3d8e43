"""Process-level fixtures: throwaway engines on short-lived state dirs.

Engines run as real subprocesses (the same entry point users get) so crash
and adoption scenarios exercise true process-tree behavior. Teardown kills
anything the engine supervised, zombie-aware, so one failing test cannot
starve the rest of the suite of pids.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Callable, Iterator

import pytest

import hydra
from hydra import sandbox
from hydra.model import ProcessIdentity

from .support import Engine


def proc_state(pid: int) -> str | None:
    """Single-letter process state, or None if the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    # comm may contain spaces/parens; the state letter follows the last ')'.
    return chr(data[data.rindex(b")") + 2])


def pid_alive(pid: int | None) -> bool:
    """True for a live process; zombies and reaped pids count as dead."""
    if not pid:
        return False
    state = proc_state(int(pid))
    return state is not None and state not in ("Z", "X")


def wait_for(
    predicate: Callable[[], bool], *, timeout_s: float = 10.0, interval_s: float = 0.02
) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def group_pids(pgid: int) -> list[int]:
    """Every live pid whose process group is pgid."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        fields = data[data.rindex(b")") + 2 :].split()
        if int(fields[2]) == pgid:  # pgrp is the third field after state
            pids.append(int(entry))
    return pids


@pytest.fixture
def make_engine() -> Iterator[Callable[..., Engine]]:
    """Factory for started engines; everything is torn down afterwards."""
    engines: list[Engine] = []

    def factory(mode: str = "decoupled", **kwargs) -> Engine:
        engine = Engine(mode, **kwargs)
        engines.append(engine)
        engine.start()
        return engine

    yield factory
    for engine in engines:
        engine.cleanup()


@pytest.fixture
def engine(make_engine) -> Engine:
    return make_engine("decoupled")


@pytest.fixture
def state_root() -> Iterator[str]:
    # Short: the monitor socket path must fit in sun_path.
    root = tempfile.mkdtemp(prefix="hyb", dir="/tmp")
    yield root
    shutil.rmtree(root, ignore_errors=True)


def hydra_env(state_dir: str) -> dict[str, str]:
    """The environment of a hydra subprocess: the hydra these tests import,
    found from any cwd, with state_dir as $HYDRA_STATE_DIR."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hydra.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, HYDRA_STATE_DIR=state_dir, PYTHONPATH=path)


def run_cli(
    *args: str,
    state_dir: str,
    timeout_s: float = 30.0,
    stdin: bytes | None = None,
    cwd: str | None = None,
) -> subprocess.CompletedProcess:
    """Invoke the command line exactly as a user would, with the hydra these
    tests import, from any cwd."""
    return subprocess.run(
        [sys.executable, "-m", "hydra", *args],
        env=hydra_env(state_dir),
        input=stdin,
        capture_output=True,
        timeout=timeout_s,
        cwd=cwd,
    )


def kill_group_silently(pgid: int | None) -> None:
    if not pgid:
        return
    try:
        os.killpg(int(pgid), signal.SIGKILL)
    except OSError:
        pass


def kill_silently(pid: int | None) -> None:
    """For processes that are not group leaders (monitors usually are not)."""
    if not pid:
        return
    try:
        os.kill(int(pid), signal.SIGKILL)
    except OSError:
        pass


@pytest.fixture
def sleepers():
    """Live process pairs standing in for a monitor and its container, each
    the leader of its own group."""
    procs: list[subprocess.Popen] = []

    def pair() -> tuple[ProcessIdentity, ProcessIdentity]:
        for _ in range(2):
            procs.append(subprocess.Popen(["sleep", "600"], start_new_session=True))
        monitor, container = (sandbox.identity_of(p.pid) for p in procs[-2:])
        assert monitor is not None and container is not None
        return monitor, container

    yield pair
    for proc in procs:
        proc.kill()
        proc.wait()
