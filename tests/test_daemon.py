"""Daemon op surface plus crash and recovery behavior, per supervision mode."""

from __future__ import annotations

import json
import os
import signal
import socket
import time

import pytest

from hydra.client import RequestFailed
from hydra.model import ExitReport, now_ms
from hydra.protocol import MAX_MESSAGE_BYTES, write_exit_report

from .conftest import kill_group_silently, pid_alive, proc_state, run_cli, wait_for


def one_row(engine, container_id: str) -> dict:
    rows = [r for r in engine.ps() if r["id"] == container_id]
    assert len(rows) == 1, f"{container_id} not in ps: {engine.ps()!r}"
    return rows[0]


def run_traced(engine, script: str, **spec_extra) -> dict:
    """Run a shell script that marks readiness on stdout; returns run reply."""
    reply = engine.client.request(
        "run",
        timeout=30.0,
        spec={"command": ["sh", "-c", f"echo ready; {script}"], **spec_extra},
    )
    log = engine.layout.log_path(reply["id"])
    assert wait_for(lambda: log.exists() and b"ready\n" in log.read_bytes())
    return reply


def wait_rebooted(engine, reply: dict) -> dict:
    """The container's row once its relaunch after a monitor loss landed."""

    def landed() -> bool:
        row = one_row(engine, reply["id"])
        return row["restart_count"] == 1 and row["pid"] not in (None, reply["pid"])

    assert wait_for(landed, timeout_s=15.0)
    return one_row(engine, reply["id"])


# -- op surface -----------------------------------------------------------------


def test_run_reply_and_ps_row(engine):
    reply = engine.run(["sleep", "60"])
    assert set(reply) >= {"id", "pid", "monitor_pid", "monitor_sock"}
    row = one_row(engine, reply["id"])
    assert row["state"] == "running"
    assert row["pid"] == reply["pid"]
    assert row["monitor_pid"] == reply["monitor_pid"]
    assert row["restart_count"] == 0
    assert row["command"] == ["sleep", "60"]
    assert row["mode"] == "decoupled"
    assert pid_alive(row["pid"]) and pid_alive(row["monitor_pid"])


def test_run_rejects_bad_requests(engine):
    # A spec is checked, never coerced: none of these may leave a record.
    for spec in (
        {"command": []},
        {"command": "true"},
        {"command": [5]},
        {"command": ["true"], "env": "A=1"},
        {"command": ["true"], "env": [5]},
        {"command": ["true"], "working_dir": 5},
        {"command": ["true"], "restart_on_monitor_loss": "no"},
        {"command": ["true"], "stop_grace_ms": 1.5},
        {"command": ["true"], "stop_grace_ms": True},
    ):
        with pytest.raises(RequestFailed) as info:
            engine.client.request("run", spec=spec)
        assert info.value.code == "invalid_spec", spec
    assert engine.ps() == []

    with pytest.raises(RequestFailed) as info:
        engine.client.request("run", spec={"command": ["sleep", "9"]}, id="NOT VALID")
    assert info.value.code == "invalid_id"

    taken = engine.run(["sleep", "60"])["id"]
    with pytest.raises(RequestFailed) as info:
        engine.run(["sleep", "60"], container_id=taken)
    assert info.value.code == "id_in_use"

    # A malformed field is the client's error, and the container is left
    # as it was: a negative grace does not skip the SIGTERM grace.
    for op, fields in (
        ("signal", {"signum": "x"}),
        ("signal", {"signum": True}),
        ("signal", {"signum": 0}),
        ("stop", {"grace_ms": "x"}),
        ("stop", {"grace_ms": -5}),
        ("restart", {"grace_ms": "x"}),
        ("restart", {"grace_ms": 1.5}),
    ):
        with pytest.raises(RequestFailed) as info:
            engine.client.request(op, id=taken, timeout=10.0, **fields)
        assert info.value.code == "invalid_request", (op, fields)
    assert one_row(engine, taken)["state"] == "running"


def test_spawn_failure_recorded_as_exit(engine):
    with pytest.raises(RequestFailed) as info:
        engine.run(["/no/such/binary"])
    assert info.value.code == "spawn_error"
    rows = engine.ps()
    assert rows[0]["state"] == "exited"
    assert rows[0]["exit_code"] not in (None, 0)


def test_wait_returns_code_and_signal(engine):
    by_code = engine.run(["sh", "-c", "exit 9"])
    done = engine.client.request("wait", id=by_code["id"])
    assert done["exit_code"] == 9 and done["term_signal"] is None
    assert not done["exit_unknown"]

    by_signal = engine.run(["sleep", "60"])
    engine.client.request("kill", id=by_signal["id"])
    done = engine.client.request("wait", id=by_signal["id"])
    assert done["exit_code"] is None and done["term_signal"] == 9


def test_wait_unknown_id(engine):
    with pytest.raises(RequestFailed) as info:
        engine.client.request("wait", id="feedfacefeedface")
    assert info.value.code == "not_found"


def test_unknown_op(engine):
    with pytest.raises(RequestFailed) as info:
        engine.client.request("frobnicate")
    assert info.value.code == "unknown_op"


def test_pause_freezes_unpause_resumes(engine):
    reply = engine.run(["sleep", "60"])
    engine.client.request("pause", id=reply["id"])
    assert one_row(engine, reply["id"])["state"] == "paused"
    assert proc_state(reply["pid"]) == "T"

    with pytest.raises(RequestFailed) as info:  # no double pause
        engine.client.request("pause", id=reply["id"])
    assert info.value.code == "invalid_state"

    engine.client.request("unpause", id=reply["id"])
    assert one_row(engine, reply["id"])["state"] == "running"
    assert wait_for(lambda: proc_state(reply["pid"]) in ("S", "R"))


def test_stop_honors_term_handler(engine):
    reply = run_traced(engine, 'trap "exit 0" TERM; while true; do sleep 0.2; done')
    engine.client.request("stop", id=reply["id"])
    done = engine.client.request("wait", id=reply["id"], timeout=15.0)
    assert done["exit_code"] == 0 and done["term_signal"] is None


def test_stop_escalates_after_grace(engine):
    reply = run_traced(
        engine,
        'trap "" TERM; while true; do sleep 0.2; done',
        stop_grace_ms=300,
    )
    t0 = time.monotonic()
    engine.client.request("stop", id=reply["id"])
    done = engine.client.request("wait", id=reply["id"], timeout=15.0)
    assert done["term_signal"] == 9  # the group ignored TERM; KILL followed
    assert time.monotonic() - t0 >= 0.25


def test_stop_grace_zero_kills_at_once(engine):
    reply = run_traced(engine, 'trap "" TERM; while true; do sleep 0.2; done')
    t0 = time.monotonic()
    engine.client.request("stop", id=reply["id"], grace_ms=0)
    done = engine.client.request("wait", id=reply["id"], timeout=15.0)
    assert done["term_signal"] == 9
    assert time.monotonic() - t0 < 2.0  # not the 10 s spec default


def test_signal_delivers_to_group(engine):
    reply = run_traced(engine, 'trap "exit 42" USR1; while true; do sleep 0.2; done')
    delivered = engine.client.request(
        "signal", id=reply["id"], signum=int(signal.SIGUSR1)
    )
    assert delivered["delivered"] is True
    done = engine.client.request("wait", id=reply["id"], timeout=15.0)
    assert done["exit_code"] == 42


def test_restart_runs_fresh_process(engine):
    reply = engine.run(["sleep", "60"])
    engine.client.request("restart", id=reply["id"], timeout=30.0)
    row = one_row(engine, reply["id"])
    assert row["state"] == "running"
    assert row["pid"] != reply["pid"]
    assert row["restart_count"] == 1


def test_kill_idempotent_once_exited(engine):
    reply = engine.run(["true"])
    engine.client.request("wait", id=reply["id"])
    again = engine.client.request("kill", id=reply["id"])
    assert again["already"] == "exited"


def test_rm_refuses_running_then_removes(engine):
    reply = engine.run(["sleep", "60"])
    with pytest.raises(RequestFailed) as info:
        engine.client.request("rm", id=reply["id"])
    assert info.value.code == "rm_running"

    engine.client.request("kill", id=reply["id"])
    engine.client.request("wait", id=reply["id"])
    engine.client.request("rm", id=reply["id"])
    assert all(row["id"] != reply["id"] for row in engine.ps())
    assert not engine.layout.record_path(reply["id"]).exists()
    assert not engine.layout.container_dir(reply["id"]).exists()


def test_start_relaunches_exited_container(engine):
    reply = engine.run(["sh", "-c", "exit 3"])
    engine.client.request("wait", id=reply["id"])
    started = engine.client.request("start", id=reply["id"], timeout=30.0)
    assert started["id"] == reply["id"]
    assert started["pid"] != reply["pid"]
    done = engine.client.request("wait", id=reply["id"])
    assert done["exit_code"] == 3


def test_run_accepts_request_over_stream_default(engine):
    big = "x" * 70_000  # above asyncio's 64 KiB default line limit
    reply = engine.client.request(
        "run",
        timeout=30.0,
        spec={"command": ["sh", "-c", 'test "${#BIG}" = 70000'], "env": [f"BIG={big}"]},
    )
    done = engine.client.request("wait", id=reply["id"])
    assert done["exit_code"] == 0


def test_oversized_request_line_is_bad_message(engine):
    line = b'{"op":"status","pad":"' + b"x" * MAX_MESSAGE_BYTES + b'"}\n'
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10.0)
        sock.connect(str(engine.layout.daemon_sock))
        try:
            sock.sendall(line)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the daemon may answer and close before taking it all
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(65536)
            assert chunk, "daemon closed without a reply"
            reply += chunk
    assert json.loads(reply)["error"] == "bad_message"
    assert engine.status()["ok"]  # and it keeps serving


def test_status_counts_containers(engine):
    engine.run(["sleep", "60"])
    exited = engine.run(["true"])
    engine.client.request("wait", id=exited["id"])
    status = engine.status()
    assert status["pid"] == engine.proc.pid
    assert status["mode"] == "decoupled"
    assert status["restore_ms"] >= 0
    assert status["containers"] == {"running": 1, "exited": 1}


def test_top_lists_group_processes(engine):
    reply = engine.run(["sh", "-c", "sleep 60 & sleep 60 & wait"])
    assert wait_for(
        lambda: len(engine.client.request("top", id=reply["id"])["processes"]) >= 3
    )
    rows = engine.client.request("top", id=reply["id"])["processes"]
    assert any(row["pid"] == reply["pid"] for row in rows)
    assert all(row["rss_bytes"] >= 0 for row in rows)


def test_stats_samples_usage(engine):
    reply = engine.run(["sleep", "60"])
    stats = engine.client.request("stats", id=reply["id"], timeout=15.0)
    assert stats["rss_bytes"] > 0
    assert stats["processes"] >= 1
    assert stats["cpu_percent"] >= 0.0


# -- crash recovery, by mode ------------------------------------------------------


def test_decoupled_container_survives_daemon_crash(engine):
    reply = engine.run(["sleep", "600"])
    before = one_row(engine, reply["id"])
    engine.kill()
    assert pid_alive(before["pid"])  # no daemon anywhere, still running
    assert pid_alive(before["monitor_pid"])
    engine.start()
    after = one_row(engine, reply["id"])
    assert after["state"] == "running"
    assert (after["pid"], after["start_ticks"]) == (
        before["pid"],
        before["start_ticks"],
    )
    assert after["restart_count"] == 0


def test_lazy_container_survives_daemon_crash(make_engine):
    engine = make_engine("lazy")
    reply = engine.run(["sleep", "600"])
    before = one_row(engine, reply["id"])
    engine.kill()
    assert pid_alive(before["pid"])
    engine.start()
    after = one_row(engine, reply["id"])
    assert after["state"] == "running"
    assert (after["pid"], after["start_ticks"]) == (
        before["pid"],
        before["start_ticks"],
    )


def test_coupled_crash_reboots_container(make_engine):
    engine = make_engine("coupled")
    reply = engine.run(["sleep", "600"])
    before = one_row(engine, reply["id"])
    engine.kill()
    engine.start()
    assert wait_for(lambda: one_row(engine, reply["id"])["state"] == "running")
    after = one_row(engine, reply["id"])
    assert (after["pid"], after["start_ticks"]) != (
        before["pid"],
        before["start_ticks"],
    )
    assert after["restart_count"] == 1
    assert not pid_alive(before["pid"])


def test_exit_status_survives_daemon_downtime(engine):
    reply = engine.run(["sh", "-c", "sleep 0.8; exit 7"])
    engine.kill()
    assert wait_for(lambda: not pid_alive(reply["pid"]), timeout_s=10.0)
    time.sleep(0.3)  # let the monitor finish writing the exit file
    engine.start()
    done = engine.client.request("wait", id=reply["id"])
    assert done["exit_code"] == 7
    assert not done["exit_unknown"]


def test_unknown_exit_file_quarantined_at_start(engine):
    engine.kill()
    stray = write_exit_report(
        engine.layout,
        ExitReport(
            container_id="feedfacefeedface", exit_code=0, term_signal=None,
            finished_at=now_ms(),
        ),
    )
    engine.start()
    assert not stray.exists()
    assert stray.with_name(stray.name + ".unknown").exists()


def test_pause_state_survives_daemon_crash(engine):
    reply = engine.run(["sleep", "600"])
    engine.client.request("pause", id=reply["id"])
    engine.kill()
    engine.start()
    row = one_row(engine, reply["id"])
    assert row["state"] == "paused"
    assert proc_state(row["pid"]) == "T"
    engine.client.request("unpause", id=reply["id"])
    assert one_row(engine, reply["id"])["state"] == "running"


def test_vanished_container_marked_exit_unknown(engine):
    reply = engine.run(["sleep", "600"])
    row = one_row(engine, reply["id"])
    engine.kill()
    # kill monitor first so no exit file can be written, then the container
    os.kill(row["monitor_pid"], signal.SIGKILL)
    assert wait_for(lambda: not pid_alive(row["monitor_pid"]))
    os.killpg(row["pid"], signal.SIGKILL)
    assert wait_for(lambda: not pid_alive(row["pid"]))
    engine.start()
    after = one_row(engine, reply["id"])
    assert after["state"] == "exited"
    assert after["exit_unknown"] is True
    assert after["term_signal"] == 9


# -- monitor loss while the daemon lives -------------------------------------------


def test_monitor_loss_reboots_container(engine):
    reply = engine.run(["sleep", "600"])
    os.kill(reply["monitor_pid"], signal.SIGKILL)
    assert wait_rebooted(engine, reply)["state"] == "running"
    assert not pid_alive(reply["pid"])  # the orphaned group was put down


def test_monitor_loss_without_restart_kills(engine):
    reply = engine.client.request(
        "run",
        timeout=30.0,
        spec={"command": ["sleep", "600"], "restart_on_monitor_loss": False},
    )
    os.kill(reply["monitor_pid"], signal.SIGKILL)
    assert wait_for(
        lambda: one_row(engine, reply["id"])["state"] == "exited", timeout_s=15.0
    )
    row = one_row(engine, reply["id"])
    assert row["exit_unknown"] is True
    assert not pid_alive(reply["pid"])


# -- daemon exclusivity -------------------------------------------------------------


def test_second_daemon_refused(engine):
    import subprocess
    import sys

    probe = subprocess.run(
        [
            sys.executable,
            "-m",
            "hydra",
            "--state-dir",
            str(engine.layout.root),
            "daemon",
            "start",
            "--foreground",
        ],
        capture_output=True,
        timeout=30,
    )
    assert probe.returncode == 1
    assert b"another daemon holds" in probe.stderr


def test_monitor_loss_while_stopping_waits_for_grace(engine):
    reply = run_traced(
        engine, 'trap "" TERM; while true; do sleep 0.2; done', stop_grace_ms=1000
    )
    t0 = time.monotonic()
    engine.client.request("stop", id=reply["id"])
    os.kill(reply["monitor_pid"], signal.SIGKILL)
    done = engine.client.request("wait", id=reply["id"], timeout=15.0)
    assert time.monotonic() - t0 >= 0.9  # the grace timer, not the monitor loss
    assert done["term_signal"] == 9 and done["exit_unknown"] is True
    assert done["restart_count"] == 0
    assert not pid_alive(reply["pid"])


def test_monitor_loss_while_paused_reboots_after_unpause(engine):
    # Orphaning a stopped group sends it SIGHUP; this one survives that.
    reply = engine.client.request(
        "run",
        timeout=30.0,
        spec={"command": ["sh", "-c", 'trap "" HUP; echo ready; exec sleep 600']},
    )
    log = engine.layout.log_path(reply["id"])
    assert wait_for(lambda: log.exists() and b"ready\n" in log.read_bytes())
    engine.client.request("pause", id=reply["id"])
    os.kill(reply["monitor_pid"], signal.SIGKILL)
    assert wait_for(lambda: not pid_alive(reply["monitor_pid"]))
    time.sleep(0.5)
    row = one_row(engine, reply["id"])
    assert row["state"] == "paused" and row["restart_count"] == 0

    engine.client.request("unpause", id=reply["id"])
    assert wait_rebooted(engine, reply)["state"] == "running"
    assert wait_for(lambda: not pid_alive(reply["pid"]))


def test_monitor_loss_killing_paused_group_settles(engine):
    reply = engine.run(["sleep", "600"])
    engine.client.request("pause", id=reply["id"])
    os.kill(reply["monitor_pid"], signal.SIGKILL)  # orphaned and stopped: SIGHUP
    assert wait_for(lambda: one_row(engine, reply["id"])["state"] == "exited")
    row = one_row(engine, reply["id"])
    assert row["exit_unknown"] is True and row["restart_count"] == 0


def test_exit_file_settles_on_monitor_death_without_doorbell(engine):
    reply = engine.run(["sleep", "600"])
    # A monitor that dies between its exit-file write and its doorbell.
    os.kill(reply["monitor_pid"], signal.SIGSTOP)
    kill_group_silently(reply["pid"])
    write_exit_report(
        engine.layout,
        ExitReport(
            container_id=reply["id"], exit_code=42, term_signal=None, finished_at=now_ms()
        ),
    )
    os.kill(reply["monitor_pid"], signal.SIGKILL)
    done = engine.client.request("wait", id=reply["id"], timeout=15.0)
    assert done["exit_code"] == 42 and done["exit_unknown"] is False
    assert done["restart_count"] == 0


def zombie_children(pid: int) -> list[int]:
    """The children of pid's main thread that have died unreaped."""
    return [child for child in children(pid) if proc_state(child) == "Z"]


def children(pid: int) -> list[int]:
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return [int(child) for child in fh.read().split()]


def test_lazy_daemon_reaps_its_monitors(make_engine):
    engine = make_engine("lazy")
    daemon = engine.proc.pid
    # Ended by rm.
    reply = engine.run(["true"])
    assert reply["monitor_pid"] in children(daemon)
    engine.client.request("wait", id=reply["id"], timeout=15.0)
    engine.client.request("rm", id=reply["id"])
    assert wait_for(lambda: reply["monitor_pid"] not in children(daemon), timeout_s=2.0)
    # Ended by its own grace running out.
    reply = engine.run(["true"])
    engine.client.request("wait", id=reply["id"], timeout=15.0)
    assert wait_for(lambda: not pid_alive(reply["monitor_pid"]), timeout_s=10.0)
    assert wait_for(lambda: not zombie_children(daemon), timeout_s=2.0)
    assert reply["monitor_pid"] not in children(daemon)


@pytest.mark.parametrize("mode", ["decoupled", "lazy"])
def test_engine_started_with_sigchld_ignored_works(make_engine, mode):
    # An ignored SIGCHLD survives exec: the kernel would reap every child.
    engine = make_engine(
        mode, preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    )
    state_dir = str(engine.layout.root)
    assert run_cli("run", "--", "sh", "-c", "exit 3", state_dir=state_dir).returncode == 3
    reply = engine.run(["sleep", "600"])
    execed = run_cli(
        "exec", reply["id"], "--", "sh", "-c", "exit 7", state_dir=state_dir
    )
    assert execed.returncode == 7
    engine.client.request("stop", id=reply["id"])
    done = engine.client.request("wait", id=reply["id"], timeout=15.0)
    assert done["term_signal"] == signal.SIGTERM


def _fds_return_to_baseline(engine, per_container: int) -> None:
    def open_fds() -> int:
        return len(os.listdir(f"/proc/{engine.proc.pid}/fd"))

    def steady_fds(hold_s: float = 0.2) -> int:
        # The connection of the status request that ended Engine.start may
        # still be closing in the daemon.
        last, since = open_fds(), time.monotonic()
        while time.monotonic() - since < hold_s:
            time.sleep(0.02)
            now = open_fds()
            if now != last:
                last, since = now, time.monotonic()
        return last

    baseline = steady_fds()
    for _ in range(10):
        reply = engine.run(["sleep", "60"])
        assert wait_for(lambda: open_fds() == baseline + per_container)
        engine.client.request("stop", id=reply["id"])
        engine.client.request("wait", id=reply["id"], timeout=15.0)
        engine.client.request("rm", id=reply["id"])

    reply = engine.run(["sleep", "600"])
    os.kill(reply["monitor_pid"], signal.SIGKILL)
    wait_rebooted(engine, reply)
    engine.client.request("kill", id=reply["id"])
    engine.client.request("wait", id=reply["id"], timeout=15.0)
    engine.client.request("rm", id=reply["id"])
    assert wait_for(lambda: open_fds() == baseline), (open_fds(), baseline)


def test_daemon_fds_return_to_baseline(engine):
    _fds_return_to_baseline(engine, 1)  # the supervision watch on the monitor


def test_lazy_daemon_fds_return_to_baseline(make_engine):
    # The monitor is the daemon's child: a reap watch besides the supervision one.
    _fds_return_to_baseline(make_engine("lazy"), 2)
