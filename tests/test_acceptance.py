"""Acceptance gate: one test per claim the engine makes, one printed line each.

Each test prints `ACCEPTANCE <n>: PASS/FAIL - <what was checked>` directly to
the terminal (bypassing capture) so a full run reads as a checklist. The
bounds are the contract; they are asserted, never tuned to the machine.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hydra.model import ExitReport
from hydra.protocol import (
    FRAME_EXIT_NOTICE,
    FRAME_STDOUT,
    FrameDecoder,
    decode_exit_line,
    encode_exit_report,
    encode_frame,
    read_exit_report,
    resolve_layout,
    write_exit_report,
)

from .conftest import group_pids, pid_alive, proc_state, wait_for
from .support import Engine, make_random_report


@contextlib.contextmanager
def criterion(capsys, n: int, title: str, notes: list[str]):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        detail = f" ({'; '.join(notes)})" if notes else ""
        with capsys.disabled():
            print(f"\nACCEPTANCE {n}: {verdict} - {title}{detail}", flush=True)


def identity_map(engine) -> dict[str, tuple[int, int]]:
    return {row["id"]: (row["pid"], row["start_ticks"]) for row in engine.ps()}


def count_survivors(engine, before: dict[str, tuple[int, int]]) -> int:
    survived = 0
    for row in engine.ps():
        if (
            row["state"] == "running"
            and (row["pid"], row["start_ticks"]) == before.get(row["id"])
            and row["restart_count"] == 0
        ):
            survived += 1
    return survived


def await_running(engine, want: int, *, timeout_s: float = 25.0) -> None:
    assert wait_for(
        lambda: sum(1 for r in engine.ps() if r["state"] == "running") >= want,
        timeout_s=timeout_s,
    )


# -- the desk experiments behind criteria 3, 5 and 6 ------------------------------

_RESPONDER_SRC = (
    "import socket\n"
    "s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)\n"
    "s.bind(('127.0.0.1', {port}))\n"
    "while True:\n"
    "    data, addr = s.recvfrom(64)\n"
    "    s.sendto(data, addr)\n"
)

_PROBER_SRC = (
    "import socket, time\n"
    "s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)\n"
    "s.settimeout(0.05)\n"
    "end = time.monotonic() + {duration}\n"
    "last = None\n"
    "max_gap = 0.0\n"
    "while time.monotonic() < end:\n"
    "    t0 = time.monotonic()\n"
    "    try:\n"
    "        s.sendto(b'x', ('127.0.0.1', {port}))\n"
    "        s.recvfrom(64)\n"
    "        now = time.monotonic()\n"
    "        if last is not None and now - last > max_gap:\n"
    "            max_gap = now - last\n"
    "        last = now\n"
    "    except OSError:\n"
    "        pass\n"
    "    time.sleep(max(0.0, 0.01 - (time.monotonic() - t0)))\n"
    "if last is None:\n"
    "    max_gap = {duration}\n"
    "else:\n"
    "    max_gap = max(max_gap, time.monotonic() - last)\n"
    "print(int(max_gap * 1000))\n"
)


def _free_udp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _await_responder(port: int, *, timeout_s: float = 10.0) -> None:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.settimeout(0.05)
    deadline = time.monotonic() + timeout_s
    try:
        while time.monotonic() < deadline:
            with contextlib.suppress(OSError):
                probe.sendto(b"up?", ("127.0.0.1", port))
                probe.recvfrom(64)
                return
            time.sleep(0.01)
    finally:
        probe.close()
    raise RuntimeError("echo responder never answered")


def _upgrade_outage_ms(mode: str, duration_s: float = 4.0) -> int:
    """Longest echo gap while the engine is stopped and started mid-window.

    The responder answers every request at once; a 10 ms prober records the
    largest spacing between consecutive answers (a responder that never
    comes back counts the rest of the window).
    """
    engine = Engine(mode)
    try:
        engine.start()
        port = _free_udp_port()
        engine.run([sys.executable, "-u", "-c", _RESPONDER_SRC.format(port=port)])
        _await_responder(port)
        prober = subprocess.Popen(
            [sys.executable, "-u", "-c", _PROBER_SRC.format(port=port, duration=duration_s)],
            stdout=subprocess.PIPE,
        )
        time.sleep(duration_s / 3)
        engine.stop()  # same binary; a version bump would look identical
        engine.start()
        out, _ = prober.communicate(timeout=duration_s + 30)
        return int(out.split()[0])
    finally:
        engine.cleanup()


def _spawn_overheads_ms(trials: int = 50) -> dict[str, float]:
    """Median per-trial run-to-Running latency of each mode less coupled's.

    One engine per mode, all alive at once, each trial round-robining
    through them: machine-load drift then hits every mode alike and the
    per-trial deltas stay paired.
    """
    modes = ("coupled", "lazy", "decoupled")  # baseline first
    command = ["sh", "-c", "sleep 0; exit 0"]
    samples: dict[str, list[float]] = {mode: [] for mode in modes}
    engines = {mode: Engine(mode) for mode in modes}
    try:
        for engine in engines.values():
            engine.start()
        for _ in range(trials):
            for mode in modes:
                t0 = time.monotonic()
                engines[mode].run(command)
                samples[mode].append((time.monotonic() - t0) * 1000.0)
    finally:
        for engine in engines.values():
            engine.cleanup()
    return {
        mode: statistics.median(v - b for v, b in zip(samples[mode], samples["coupled"]))
        for mode in modes[1:]
    }


def _read_status(pid: int) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key, _, value = line.partition(":")
        fields[key] = value.strip()
    return fields


def _fleet_growth(mode: str, max_n: int = 100, step: int = 25) -> list[tuple[int, int]]:
    """Launch idle containers up to max_n; the engine's (threads, RSS bytes)
    after the first launch, every step-th and the last."""
    samples = []
    engine = Engine(mode)
    try:
        engine.start()
        for n in range(1, max_n + 1):
            engine.run(["sleep", "1000000"])
            if n == 1 or n % step == 0 or n == max_n:
                status = _read_status(engine.proc.pid)
                rss = int(status["VmRSS"].split()[0]) * 1024  # reported as "<n> kB"
                samples.append((int(status["Threads"]), rss))
    finally:
        engine.cleanup()
    return samples


def test_criterion_01_survival_under_daemon_crash(capsys, make_engine):
    notes: list[str] = []
    with criterion(
        capsys, 1, "containers survive a daemon SIGKILL in decoupled and lazy, none in coupled", notes
    ):
        t0 = time.monotonic()
        for mode, expect in (("decoupled", 10), ("lazy", 10), ("coupled", 0)):
            engine = make_engine(mode)
            for _ in range(10):
                engine.run(["sleep", "600"])
            before = identity_map(engine)
            engine.kill()
            engine.start()
            if mode == "coupled":
                await_running(engine, 10)  # reboots, not survivors
            survived = count_survivors(engine, before)
            notes.append(f"{mode} {survived}/10")
            assert survived == expect, f"{mode}: {survived}/10 survived, want {expect}"
        elapsed = time.monotonic() - t0
        notes.append(f"{elapsed:.1f}s")
        assert elapsed < 30.0


def test_criterion_02_exit_status_across_downtime(capsys, make_engine):
    notes: list[str] = []
    with criterion(
        capsys, 2, "an exit that happens while the daemon is down is reported after restart", notes
    ):
        t0 = time.monotonic()
        engine = make_engine("decoupled")
        reply = engine.run(["sh", "-c", "sleep 0.8; exit 7"])
        engine.kill()
        assert wait_for(lambda: not pid_alive(reply["pid"]), timeout_s=10.0)
        time.sleep(0.3)  # exit file lands with no daemon to notify
        engine.start()
        done = engine.client.request("wait", id=reply["id"])
        notes.append(f"wait returned {done['exit_code']}")
        assert done["exit_code"] == 7
        assert not done["exit_unknown"]
        elapsed = time.monotonic() - t0
        notes.append(f"{elapsed:.1f}s")
        assert elapsed < 15.0


def test_criterion_03_upgrade_outage_ordering(capsys):
    notes: list[str] = []
    with criterion(
        capsys, 3, "a 10 ms echo workload barely notices a decoupled upgrade, coupled 10x worse", notes
    ):
        decoupled = _upgrade_outage_ms("decoupled")
        coupled = _upgrade_outage_ms("coupled")
        notes.append(f"decoupled {decoupled:.0f} ms, coupled {coupled:.0f} ms")
        assert decoupled < 100.0
        assert coupled >= 10.0 * decoupled


def test_criterion_04_daemon_restore_speed(capsys, make_engine):
    notes: list[str] = []
    with criterion(
        capsys, 4, "reconciling 10 running containers takes under 500 ms", notes
    ):
        engine = make_engine("decoupled")
        for _ in range(10):
            engine.run(["sleep", "600"])
        engine.kill()
        engine.start()
        restore_ms = engine.status()["restore_ms"]
        notes.append(f"measured {restore_ms:.1f} ms; reference point 40 ms")
        assert restore_ms < 500.0


def test_criterion_05_spawn_overhead_ordering(capsys):
    notes: list[str] = []
    with criterion(
        capsys, 5, "lazy spawn overhead <= decoupled overhead, decoupled under 300 ms", notes
    ):
        overheads = _spawn_overheads_ms()
        lazy, decoupled = overheads["lazy"], overheads["decoupled"]
        notes.append(f"median deltas: lazy {lazy:+.2f} ms, decoupled {decoupled:+.2f} ms")
        assert lazy <= decoupled
        assert decoupled < 300.0


def test_criterion_06_no_per_container_daemon_bloat(capsys):
    notes: list[str] = []
    with criterion(
        capsys, 6, "decoupled daemon stays flat from 1 to 100 idle containers, coupled grows", notes
    ):
        d_threads, d_rss = zip(*_fleet_growth("decoupled"))
        growth = d_rss[-1] - d_rss[0]
        notes.append(
            f"decoupled threads {sorted(set(d_threads))}, rss +{growth / 1e6:.1f} MB"
        )
        assert len(set(d_threads)) == 1
        assert growth < 10 * 1024 * 1024

        c_threads, c_rss = zip(*_fleet_growth("coupled"))
        notes.append(f"coupled threads {c_threads[0]:.0f}->{c_threads[-1]:.0f}")
        assert all(a < b for a, b in zip(c_threads, c_threads[1:]))
        assert all(a < b for a, b in zip(c_rss, c_rss[1:]))


def test_criterion_07_monitor_crash_recovery(capsys, make_engine):
    notes: list[str] = []
    with criterion(
        capsys, 7, "a SIGKILLed monitor leads to a container reboot within 4 s", notes
    ):
        engine = make_engine("decoupled")
        reply = engine.run(["sleep", "600"])

        def rebooted() -> bool:
            row = next(r for r in engine.ps() if r["id"] == reply["id"])
            return (
                row["state"] == "running"
                and row["restart_count"] == 1
                and row["pid"] not in (None, reply["pid"])  # relaunch landed
            )

        t0 = time.monotonic()
        os.kill(reply["monitor_pid"], signal.SIGKILL)
        assert wait_for(rebooted, timeout_s=6.0, interval_s=0.05)
        elapsed = time.monotonic() - t0
        notes.append(f"rebooted after {elapsed:.2f}s (bound 4s)")
        assert elapsed <= 4.0


def test_criterion_08_signal_coalescing(capsys, make_engine):
    notes: list[str] = []
    with criterion(
        capsys, 8, "50 simultaneous exits all land with their own exit codes", notes
    ):
        t0 = time.monotonic()
        engine = make_engine("decoupled")
        gate = engine.layout.root / "go"
        assigned: dict[str, int] = {}
        for i in range(50):
            code = i + 1  # distinct, nonzero, well under the 8-bit cap
            reply = engine.run(
                ["sh", "-c", f"while [ ! -e {gate} ]; do sleep 0.05; done; exit {code}"]
            )
            assigned[reply["id"]] = code
        gate.touch()  # every container sees this within one 50 ms beat
        correct = 0
        for container_id, code in assigned.items():
            done = engine.client.request("wait", id=container_id, timeout=30.0)
            if done["exit_code"] == code and not done["exit_unknown"]:
                correct += 1
        elapsed = time.monotonic() - t0
        notes.append(f"{correct}/50 correct in {elapsed:.1f}s")
        assert correct == 50
        assert elapsed < 60.0


def test_criterion_09_protocol_golden_bytes(capsys, tmp_path):
    notes: list[str] = []
    with criterion(
        capsys, 9, "exit lines and frames match frozen bytes; 1000-case round-trips hold", notes
    ):
        by_code = ExitReport(
            container_id="aabbccddeeff0011",
            exit_code=0,
            term_signal=None,
            finished_at=1700000000000,
        )
        assert (
            encode_exit_report(by_code) == "aabbccddeeff0011 code 0 1700000000000\n"
        )
        by_signal = ExitReport(
            container_id="aabbccddeeff0011",
            exit_code=None,
            term_signal=9,
            finished_at=1700000000000,
        )
        assert (
            encode_exit_report(by_signal)
            == "aabbccddeeff0011 signal 9 1700000000000\n"
        )

        layout = resolve_layout(tmp_path / "state")
        first = write_exit_report(layout, by_code)
        bytes_once = first.read_bytes()
        write_exit_report(layout, by_code)
        assert first.read_bytes() == bytes_once  # rewrite is byte-identical
        assert read_exit_report(first) == by_code

        assert encode_frame(FRAME_STDOUT, b"hi") == b"\x01\x00\x00\x00\x02hi"
        assert encode_frame(FRAME_EXIT_NOTICE, b"") == b"\x03\x00\x00\x00\x00"
        assert len(encode_frame(FRAME_EXIT_NOTICE, b"")) == 5

        rng = random.Random(0xACCE97)
        for _ in range(1000):
            report = make_random_report(rng)
            assert decode_exit_line(encode_exit_report(report)) == report

        total_frames = 0
        while total_frames < 1000:
            frames = [
                (rng.randint(0, 3), rng.randbytes(rng.randint(0, 512)))
                for _ in range(rng.randint(1, 100))
            ]
            blob = b"".join(encode_frame(tag, data) for tag, data in frames)
            decoded: list[tuple[int, bytes]] = []
            decoder = FrameDecoder()
            for offset in range(0, len(blob), 7):  # ragged chunks
                decoded.extend(decoder.feed(blob[offset : offset + 7]))
            assert decoded == frames
            total_frames += len(frames)
        notes.append(f"{total_frames} frames and 1000 exit lines round-tripped")


def test_criterion_10_lifecycle_semantics(capsys, make_engine):
    notes: list[str] = []
    with criterion(
        capsys, 10, "pause freezes the whole group, unpause resumes, stop escalates on time", notes
    ):
        engine = make_engine("decoupled")
        reply = engine.run(["sh", "-c", "sleep 300 & sleep 300 & wait"])
        assert wait_for(lambda: len(group_pids(reply["pid"])) >= 3)
        members = group_pids(reply["pid"])

        engine.client.request("pause", id=reply["id"])
        assert wait_for(
            lambda: all(proc_state(pid) == "T" for pid in members)
        )
        notes.append(f"{len(members)} group members froze")

        engine.client.request("unpause", id=reply["id"])
        assert wait_for(
            lambda: all(proc_state(pid) in ("S", "R") for pid in members)
        )

        stubborn = engine.client.request(
            "run",
            timeout=30.0,
            spec={
                "command": ["sh", "-c", 'trap "" TERM; while :; do sleep 0.1; done'],
                "stop_grace_ms": 500,
            },
        )
        time.sleep(0.3)  # let the trap land before stopping
        t0 = time.monotonic()
        engine.client.request("stop", id=stubborn["id"])
        done = engine.client.request("wait", id=stubborn["id"], timeout=15.0)
        elapsed = time.monotonic() - t0
        notes.append(f"kill landed at {elapsed * 1000:.0f} ms (target 500 +/- 200)")
        assert done["term_signal"] == 9
        assert done["exit_code"] is None
        assert 0.3 <= elapsed <= 0.7
