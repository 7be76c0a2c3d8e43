"""Feed every correctness check one good and one corrupted output.

    python3 perfbench/selftest.py

A check that accepts the corrupted output, or rejects the good one, makes
this exit 1. Needs no engine and starts no process.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Any, Callable

import checks

EXEC_OK = [(1, b"a1b2"), (1, b"c3"), (3, b"0123456789abcdef code 7 1700000000000\n")]
STOPPED = {"exit_code": None, "term_signal": 15, "exit_unknown": False}
RECORD = {"state": {"kind": "running"}, "container": {"pid": 40, "start_ticks": 900},
          "restart_count": 2}
NOTICE = [(3, b"0123456789abcdef signal 15 1700000000000\n")]
DIGEST = hashlib.sha256(b"blob").hexdigest()

# (check, good arguments, corrupted arguments)
CASES: list[tuple[Callable[..., None], tuple[Any, ...], tuple[Any, ...]]] = [
    (checks.exec_result, (EXEC_OK, "a1b2c3", 7), (EXEC_OK, "a1b2c4", 7)),
    (checks.exec_result, (EXEC_OK, "a1b2c3", 7), (EXEC_OK, "a1b2c3", 8)),
    (checks.exec_result, (EXEC_OK, "a1b2c3", 7), (EXEC_OK[:-1], "a1b2c3", 7)),
    (checks.exec_result, (EXEC_OK, "a1b2c3", 7), (EXEC_OK[::-1], "a1b2c3", 7)),
    (checks.stopped_by_sigterm, (STOPPED,), ({**STOPPED, "term_signal": 9},)),
    (checks.stopped_by_sigterm, (STOPPED,), ({**STOPPED, "exit_unknown": True},)),
    (checks.stopped_by_sigterm, (STOPPED,),
     ({**STOPPED, "exit_code": 0, "term_signal": None},)),
    (checks.run_identity, (40, RECORD, 900), (40, RECORD, 901)),
    (checks.run_identity, (40, RECORD, 900), (41, RECORD, 900)),
    (checks.run_identity, (40, RECORD, 900), (40, RECORD, None)),
    (checks.run_identity, (40, RECORD, 900),
     (40, {**RECORD, "state": {"kind": "created"}}, 900)),
    (checks.group_gone, (40, False), (40, True)),
    (checks.removed, ([],), (["logs/0123456789abcdef.log"],)),
    (checks.resident_kept, ((40, 900), 2, (40, 900), RECORD), ((40, 900), 2, (40, 901), RECORD)),
    (checks.resident_kept, ((40, 900), 2, (40, 900), RECORD), ((40, 900), 1, (40, 900), RECORD)),
    (checks.resident_kept, ((40, 900), 2, (40, 900), RECORD), ((40, 900), 2, None, RECORD)),
    (checks.resident_kept, ((40, 900), 2, (40, 900), RECORD),
     ((40, 900), 2, (40, 900), {**RECORD, "container": {"pid": 40, "start_ticks": 901}})),
    (checks.settled_kept, ({"exit_code": 3, "term_signal": None, "exit_unknown": False}, 3),
     ({"exit_code": 4, "term_signal": None, "exit_unknown": False}, 3)),
    (checks.settled_kept, ({"exit_code": 3, "term_signal": None, "exit_unknown": False}, 3),
     ({"exit_code": 3, "term_signal": None, "exit_unknown": True}, 3)),
    (checks.rebooted, ((39, 800), (40, 900), 1, RECORD, False),
     ((40, 900), (40, 900), 1, RECORD, False)),
    (checks.rebooted, ((39, 800), (40, 900), 1, RECORD, False),
     ((39, 800), (40, 900), 2, RECORD, False)),
    (checks.rebooted, ((39, 800), (40, 900), 1, RECORD, False),
     ((39, 800), (40, 900), 1, RECORD, True)),
    (checks.blob_equal, (DIGEST, 4, DIGEST, 4, "t"), (DIGEST[::-1], 4, DIGEST, 4, "t")),
    (checks.blob_equal, (DIGEST, 4, DIGEST, 4, "t"), (DIGEST, 3, DIGEST, 4, "t")),
    (checks.only_stdout, ([], "t"), ([2], "t")),
    (checks.notice_last, (NOTICE,), ([(1, b"x"), *NOTICE],)),
    (checks.notice_last, (NOTICE,), ([(3, b"0123456789abcdef code 0 1\n")],)),
    (checks.notice_last, (NOTICE,), ([],)),
    (checks.status_counts, ({"running": 2, "exited": 4000, "lost": 0}, {"running": 2, "exited": 4000}),
     ({"running": 2, "exited": 3999}, {"running": 2, "exited": 4000})),
    (checks.status_counts, ({"running": 2}, {"running": 2, "exited": 0}),
     ({"running": 2, "lost": 1}, {"running": 2, "exited": 0})),
    (checks.one_thread, (1,), (2,)),
]


def main() -> int:
    bad = 0
    for check, good, corrupted in CASES:
        try:
            check(*good)
        except checks.CheckFailed as exc:
            print(f"FAIL {check.__name__}: rejected good input: {exc}")
            bad += 1
        try:
            check(*corrupted)
        except checks.CheckFailed as exc:
            print(f"ok   {check.__name__}: rejected corrupted input ({exc})")
        else:
            print(f"FAIL {check.__name__}: accepted corrupted input {corrupted!r}")
            bad += 1
    print(f"{len(CASES) - bad}/{len(CASES)} cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
