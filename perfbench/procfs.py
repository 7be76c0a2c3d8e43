"""Independent /proc readers.

The correctness checks compare the engine's answers against these, so they
deliberately do not reuse hydra.sandbox's parser.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass


@dataclass(frozen=True)
class Stat:
    state: str
    pgrp: int
    start_ticks: int


def stat(pid: int) -> Stat | None:
    """Fields of /proc/<pid>/stat, or None if the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    # comm may hold spaces and parentheses; fields restart after the last ')'.
    fields = raw[raw.rindex(b")") + 2 :].split()
    return Stat(
        state=fields[0].decode(),
        pgrp=int(fields[2]),
        start_ticks=int(fields[19]),
    )


def live(pid: int) -> Stat | None:
    """Like stat(), but a zombie counts as gone."""
    row = stat(pid)
    return row if row is not None and row.state not in ("Z", "X") else None


def _pids() -> list[int]:
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]


def group_alive(pgid: int) -> bool:
    """True while any non-zombie process belongs to process group pgid."""
    for pid in _pids():
        row = live(pid)
        if row is not None and row.pgrp == pgid:
            return True
    return False


def cpu_ms(pid: int) -> float:
    """CPU time pid has run, in ms, from the nanosecond counter in
    /proc/<pid>/schedstat (0 if gone)."""
    try:
        with open(f"/proc/{pid}/schedstat") as fh:
            return int(fh.read().split()[0]) / 1e6
    except (OSError, ValueError, IndexError):
        return 0.0


def threads(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError(f"no Threads line for pid {pid}")


def memory_kb(pid: int) -> tuple[int, int]:
    """(PSS, private) in kB from /proc/<pid>/smaps_rollup."""
    pss = private = 0
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key == "Pss":
                pss = int(rest.split()[0])
            elif key in ("Private_Clean", "Private_Dirty"):
                private += int(rest.split()[0])
    return pss, private


def marked(variable: str, value: str) -> list[int]:
    """Live pids (other than this one) whose environment holds variable=value."""
    needle = f"{variable}={value}".encode()
    found = []
    for pid in _pids():
        if pid == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as fh:
                env = fh.read().split(b"\0")
        except OSError:
            continue
        if needle in env and live(pid) is not None:
            found.append(pid)
    return found


def kill_all(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
