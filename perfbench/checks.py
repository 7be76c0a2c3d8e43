"""Correctness checks that fail a run.

Each check compares what the engine said or did against a value the
benchmark computed itself (a seeded token, its own tally, its own /proc
reading) or against a property the design must have. None compares with a
stored copy of earlier output. selftest.py feeds every check a corrupted
input and expects it to be rejected.
"""

from __future__ import annotations

import signal
from typing import Any

SIGTERM = int(signal.SIGTERM)
# Frame tags as the wire format fixes them, not imported from hydra.protocol,
# so that a changed engine constant fails a check instead of moving with it.
FRAME_STDOUT = 1
FRAME_EXIT_NOTICE = 3


class CheckFailed(Exception):
    """A correctness check rejected what the engine produced."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def parse_exit_line(payload: bytes) -> tuple[str, str, int]:
    """(id, kind, value) of an exit line `<id> code|signal <n> <ms>\\n`."""
    fields = payload.decode("utf-8", "replace").rstrip("\n").split(" ")
    _require(len(fields) == 4, f"exit line {payload!r} does not have 4 fields")
    _require(fields[1] in ("code", "signal"), f"exit line {payload!r} has no kind")
    _require(fields[2].isdigit(), f"exit line {payload!r} has no value")
    return fields[0], fields[1], int(fields[2])


def exec_result(frames: list[tuple[int, bytes]], token: str, code: int) -> None:
    """Exec stdout is the seeded token and the exit notice, last, has the seeded code."""
    _require(bool(frames) and frames[-1][0] == FRAME_EXIT_NOTICE,
             "exec stream did not end with an exit notice")
    _require(all(tag != FRAME_EXIT_NOTICE for tag, _ in frames[:-1]),
             "exec stream has an exit notice before its end")
    stdout = b"".join(p for tag, p in frames if tag == FRAME_STDOUT)
    _require(stdout == token.encode(), f"exec stdout {stdout[:40]!r} != token {token!r}")
    _, kind, value = parse_exit_line(frames[-1][1])
    _require((kind, value) == ("code", code), f"exec exited {kind} {value}, seeded code {code}")


def stopped_by_sigterm(reply: dict[str, Any]) -> None:
    """A stopped container ended Exited by signal 15, with a known status."""
    _require(reply.get("term_signal") == SIGTERM and reply.get("exit_code") is None,
             f"stop ended with code {reply.get('exit_code')} signal {reply.get('term_signal')}")
    _require(reply.get("exit_unknown") is False, "stop ended with exit_unknown set")


def run_identity(reply_pid: int, record: dict[str, Any], proc_ticks: int | None) -> None:
    """The run reply's pid is the recorded container, with /proc's start time."""
    container = record.get("container") or {}
    _require(record.get("state", {}).get("kind") == "running",
             f"record of a fresh run is {record.get('state')}")
    _require(container.get("pid") == reply_pid,
             f"run replied pid {reply_pid}, record holds {container.get('pid')}")
    _require(proc_ticks is not None, f"pid {reply_pid} is not alive in /proc")
    _require(container.get("start_ticks") == proc_ticks,
             f"record start_ticks {container.get('start_ticks')} != /proc {proc_ticks}")


def group_gone(pgid: int, alive: bool) -> None:
    _require(not alive, f"process group {pgid} still has live members")


def removed(leftovers: list[str]) -> None:
    """rm left no record, exit file or log behind."""
    _require(not leftovers, f"rm left {leftovers}")


def resident_kept(
    expected: tuple[int, int], restarts: int, seen: tuple[int, int] | None,
    record: dict[str, Any],
) -> None:
    """Across a daemon restart a resident keeps its identity and restart count."""
    _require(seen == expected, f"resident's monitor answers as {seen}, expected {expected}")
    held = record.get("container") or {}
    _require((held.get("pid"), held.get("start_ticks")) == expected,
             f"resident record holds {held}, expected {expected}")
    _require(record.get("restart_count") == restarts,
             f"resident restart_count {record.get('restart_count')} != {restarts}")


def settled_kept(reply: dict[str, Any], code: int) -> None:
    """A settled container still reports the exit code it was written with."""
    _require(reply.get("exit_code") == code and reply.get("term_signal") is None,
             f"settled container reports {reply.get('exit_code')}/{reply.get('term_signal')},"
             f" seeded code {code}")
    _require(reply.get("exit_unknown") is False, "settled container has exit_unknown set")


def rebooted(
    old: tuple[int, int], new: tuple[int, int], restarts_before: int,
    record: dict[str, Any], old_group_alive: bool,
) -> None:
    """A monitor-killed container comes back new, counted once, old group gone."""
    _require(new != old, f"container kept identity {old} after its monitor was killed")
    held = record.get("container") or {}
    _require((held.get("pid"), held.get("start_ticks")) == new,
             f"record holds {held}, monitor answers {new}")
    _require(record.get("restart_count") == restarts_before + 1,
             f"restart_count {record.get('restart_count')} != {restarts_before + 1}")
    _require(not old_group_alive, f"old process group {old[0]} survived the reboot")


def blob_equal(digest: str, size: int, want_digest: str, want_size: int, what: str) -> None:
    _require(size == want_size, f"{what}: {size} bytes, blob has {want_size}")
    _require(digest == want_digest, f"{what}: sha256 differs from the seeded blob")


def only_stdout(stray_tags: list[int], what: str) -> None:
    _require(not stray_tags, f"{what}: unexpected frame tags {stray_tags}")


def notice_last(tail: list[tuple[int, bytes]]) -> None:
    """After the blob, the attach stream carries only the SIGTERM exit notice."""
    _require(len(tail) == 1 and tail[0][0] == FRAME_EXIT_NOTICE,
             f"attach stream ended with tags {[tag for tag, _ in tail]}, not one exit notice")
    _, kind, value = parse_exit_line(tail[0][1])
    _require((kind, value) == ("signal", SIGTERM), f"exit notice says {kind} {value}")


def status_counts(counts: dict[str, int], tally: dict[str, int]) -> None:
    """The daemon's status counts equal the benchmark's own tally."""
    seen = {k: v for k, v in counts.items() if v}
    want = {k: v for k, v in tally.items() if v}
    _require(seen == want, f"status counts {seen} != tally {want}")


def one_thread(n: int) -> None:
    _require(n == 1, f"decoupled daemon runs {n} OS threads")
