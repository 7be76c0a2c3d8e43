"""Monitor socket behavior: attach, logs, wait, exec, against live engines."""

from __future__ import annotations

import gc
import threading
import time
import warnings

import pytest

from hydra.client import (
    MonitorStream,
    RequestFailed,
    exit_code_from_notice,
    read_log_frames,
)
from hydra.protocol import FRAME_EXIT_NOTICE, FRAME_STDERR, FRAME_STDOUT
from hydra.sandbox import namespaces_supported

from .conftest import pid_alive, wait_for


def collect_until_exit(stream: MonitorStream, *, timeout: float = 20.0):
    """All frames up to and including the exit notice."""
    got: list[tuple[int, bytes]] = []
    for tag, payload in stream.frames(timeout=timeout):
        got.append((tag, payload))
        if tag == FRAME_EXIT_NOTICE:
            break
    return got


def stream_bytes(frames, tag: int) -> bytes:
    return b"".join(payload for t, payload in frames if t == tag)


def exit_payload(frames) -> bytes:
    notices = [payload for t, payload in frames if t == FRAME_EXIT_NOTICE]
    assert notices, f"no exit notice in {frames!r}"
    return notices[-1]


def log_contains(engine, container_id: str, needle: bytes) -> bool:
    path = engine.layout.log_path(container_id)
    try:
        return needle in path.read_bytes()
    except OSError:
        return False


def log_size(engine, container_id: str) -> int:
    try:
        return engine.layout.log_path(container_id).stat().st_size
    except OSError:
        return 0


def private_dirty_kb(pid: int) -> int:
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("Private_Dirty:"):
                return int(line.split()[1])
    raise AssertionError(f"no Private_Dirty for {pid}")


def test_ping_reports_identity(engine):
    reply = engine.run(["sleep", "30"])
    with MonitorStream(reply["monitor_sock"], {"op": "ping"}) as stream:
        assert stream.reply["id"] == reply["id"]
        assert stream.reply["exited"] is False
        assert stream.reply["container"]["pid"] == reply["pid"]


def test_attach_round_trips_stdin_to_stdout(engine):
    reply = engine.run(["cat"])
    with MonitorStream(reply["monitor_sock"], {"op": "attach"}) as stream:
        stream.send_stdin(b"first line\n")
        stream.send_stdin(b"\x00\xffbinary too\n")
        got = b""
        for tag, payload in stream.frames(timeout=10.0):
            if tag == FRAME_STDOUT:
                got += payload
            if got.endswith(b"binary too\n"):
                break
        assert got == b"first line\n\x00\xffbinary too\n"
        # half-close: cat sees stdin EOF, exits 0, notice comes back
        stream.close_write()
        frames = collect_until_exit(stream)
        assert exit_code_from_notice(exit_payload(frames)) == 0


def test_attach_keeps_stdout_and_stderr_apart(engine):
    reply = engine.run(["sh", "-c", "read x; echo ok-out; echo ok-err >&2"])
    with MonitorStream(reply["monitor_sock"], {"op": "attach"}) as stream:
        stream.send_stdin(b"go\n")
        frames = collect_until_exit(stream)
    assert stream_bytes(frames, FRAME_STDOUT) == b"ok-out\n"
    assert stream_bytes(frames, FRAME_STDERR) == b"ok-err\n"
    assert exit_code_from_notice(exit_payload(frames)) == 0


def test_attach_with_replay_recovers_earlier_output(engine):
    reply = engine.run(["sh", "-c", "echo early; sleep 30"])
    assert wait_for(lambda: log_contains(engine, reply["id"], b"early\n"))
    with MonitorStream(
        reply["monitor_sock"], {"op": "attach", "replay": True}
    ) as stream:
        engine.client.request("kill", id=reply["id"])
        frames = collect_until_exit(stream)
    assert b"early\n" in stream_bytes(frames, FRAME_STDOUT)
    assert exit_code_from_notice(exit_payload(frames)) == 137  # 128 + SIGKILL


def test_plain_attach_is_live_only(engine):
    reply = engine.run(["sh", "-c", "echo early; sleep 30"])
    assert wait_for(lambda: log_contains(engine, reply["id"], b"early\n"))
    with MonitorStream(reply["monitor_sock"], {"op": "attach"}) as stream:
        frames = list(stream.frames(timeout=0.5))
    assert stream_bytes(frames, FRAME_STDOUT) == b""


def test_logs_without_follow_ends_after_snapshot(engine):
    reply = engine.run(["sh", "-c", "echo one; sleep 30"])
    assert wait_for(lambda: log_contains(engine, reply["id"], b"one\n"))
    with MonitorStream(reply["monitor_sock"], {"op": "logs"}) as stream:
        frames = list(stream.frames(timeout=10.0))
    assert stream_bytes(frames, FRAME_STDOUT) == b"one\n"
    assert not any(tag == FRAME_EXIT_NOTICE for tag, _ in frames)


def test_logs_follow_streams_snapshot_then_live(engine):
    reply = engine.run(["sh", "-c", "echo one; sleep 0.4; echo two; exit 4"])
    assert wait_for(lambda: log_contains(engine, reply["id"], b"one\n"))
    with MonitorStream(
        reply["monitor_sock"], {"op": "logs", "follow": True}
    ) as stream:
        frames = collect_until_exit(stream)
    out = stream_bytes(frames, FRAME_STDOUT)
    assert out == b"one\ntwo\n"
    assert exit_code_from_notice(exit_payload(frames)) == 4


def test_logs_follow_gets_the_notice_while_output_drains(engine):
    # The background sleep holds stdout open past the exit, so the notice
    # goes out only once the drain after exit has timed out.
    reply = engine.run(["sh", "-c", "echo one; sleep 3 & sleep 0.4; echo two; exit 4"])
    assert wait_for(lambda: log_contains(engine, reply["id"], b"one\n"))
    with MonitorStream(
        reply["monitor_sock"], {"op": "logs", "follow": True}
    ) as stream:
        frames = collect_until_exit(stream)
    assert stream_bytes(frames, FRAME_STDOUT) == b"one\ntwo\n"
    assert exit_code_from_notice(exit_payload(frames)) == 4


def test_half_closed_attach_gets_the_notice_while_output_drains(engine):
    reply = engine.run(["sh", "-c", "read x; sleep 3 & sleep 0.3; echo two; exit 4"])
    with MonitorStream(reply["monitor_sock"], {"op": "attach"}) as stream:
        stream.send_stdin(b"go\n")
        stream.close_write()
        frames = collect_until_exit(stream)
    assert stream_bytes(frames, FRAME_STDOUT) == b"two\n"
    assert exit_code_from_notice(exit_payload(frames)) == 4


def test_stalled_clients_do_not_grow_the_monitor(engine):
    """A slow client falls behind in the log file, not in the monitor's heap."""
    size = 64 << 20
    reply = engine.run(["sh", "-c", f"read x; head -c {size} /dev/zero; sleep 60"])
    sock = reply["monitor_sock"]
    with MonitorStream(sock, {"op": "attach"}) as attach, MonitorStream(
        sock, {"op": "logs", "follow": True}
    ):
        before_kb = private_dirty_kb(reply["monitor_pid"])
        attach.send_stdin(b"go\n")
        # Neither client reads while the container writes it all.
        assert wait_for(lambda: log_size(engine, reply["id"]) > size, timeout_s=60.0)
        time.sleep(0.2)
        grown_mb = (private_dirty_kb(reply["monitor_pid"]) - before_kb) / 1024
    assert grown_mb < 16, f"monitor grew {grown_mb:.0f} MB behind two stalled clients"


def test_streams_joining_mid_output_get_every_line_once(engine):
    count = 2000
    script = (
        "i=0; while [ $i -lt %d ]; do printf '%%05d %%0200d\\n' $i 0; "
        "i=$((i+1)); [ $((i %% 100)) -eq 0 ] && sleep 0.02; done; exit 0" % count
    )
    reply = engine.run(["sh", "-c", script])
    assert wait_for(lambda: log_contains(engine, reply["id"], b"00300 "))
    sock = reply["monitor_sock"]
    with MonitorStream(sock, {"op": "logs", "follow": True}) as logs, MonitorStream(
        sock, {"op": "attach", "replay": True}
    ) as attach:
        streams = [collect_until_exit(logs), collect_until_exit(attach)]
    expected = b"".join(b"%05d %s\n" % (i, b"0" * 200) for i in range(count))
    for frames in streams:
        assert stream_bytes(frames, FRAME_STDOUT) == expected
        assert frames[-1][0] == FRAME_EXIT_NOTICE
        assert exit_code_from_notice(exit_payload(frames)) == 0


def test_follow_reads_only_its_own_incarnation(engine):
    """A start inside the after-exit grace appends to the same log; a slow
    follower of the first monitor gets the first output and notice only."""
    size = 4 << 20
    mark = engine.layout.root / "second"
    script = (
        f"if [ -e {mark} ]; then echo second; exit 5; fi; "
        f"touch {mark}; head -c {size} /dev/zero; exit 3"
    )
    reply = engine.client.request(
        "run", timeout=30.0, spec={"command": ["sh", "-c", script]}
    )
    # The follower reads nothing until both incarnations have exited.
    with MonitorStream(reply["monitor_sock"], {"op": "logs", "follow": True}) as stream:
        assert engine.client.request("wait", id=reply["id"], timeout=15.0)["exit_code"] == 3
        engine.client.request("start", id=reply["id"], timeout=30.0)
        assert engine.client.request("wait", id=reply["id"], timeout=15.0)["exit_code"] == 5
        assert log_contains(engine, reply["id"], b"second\n")
        frames = collect_until_exit(stream)
    assert stream_bytes(frames, FRAME_STDOUT) == bytes(size)
    assert exit_code_from_notice(exit_payload(frames)) == 3


def test_malformed_exec_gets_a_reply(engine):
    reply = engine.run(["sleep", "60"])
    sock = reply["monitor_sock"]
    for fields in (
        {"command": 5},
        {"command": "true"},
        {"command": [1]},
        {"command": ["true"], "env": 7},
        {"command": ["true"], "env": ["NOVALUE"]},
    ):
        with pytest.raises(RequestFailed) as info:
            MonitorStream(sock, {"op": "exec", **fields})
        assert info.value.code == "bad_command", fields
    with MonitorStream(sock, {"op": "exec", "command": ["true"]}) as stream:
        assert exit_code_from_notice(exit_payload(collect_until_exit(stream))) == 0


def test_refused_request_leaves_no_socket_open(engine):
    sock = engine.run(["sleep", "60"])["monitor_sock"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(RequestFailed):
            MonitorStream(sock, {"op": "no_such_op"})
        gc.collect()
    assert not [w for w in caught if "unclosed" in str(w.message)]


def test_wait_reports_exit_code(engine):
    reply = engine.run(["sh", "-c", "sleep 0.3; exit 5"])
    with MonitorStream(
        reply["monitor_sock"], {"op": "wait"}, timeout=20.0
    ) as stream:
        assert stream.reply["exit_code"] == 5
        assert stream.reply["term_signal"] is None


def test_wait_and_ping_answer_after_exit(engine):
    # A client that learned of the socket before the exit may dial in after it.
    reply = engine.run(["sh", "-c", "exit 5"])
    engine.client.request("wait", id=reply["id"], timeout=15.0)
    time.sleep(0.3)  # well inside the monitor's 2 s shutdown grace
    with MonitorStream(reply["monitor_sock"], {"op": "wait"}, timeout=5.0) as stream:
        assert stream.reply["exit_code"] == 5
    with MonitorStream(reply["monitor_sock"], {"op": "ping"}, timeout=5.0) as stream:
        assert stream.reply["exited"] is True


def test_rm_ends_the_grace(engine):
    reply = engine.run(["sh", "-c", "exit 0"])
    engine.client.request("wait", id=reply["id"], timeout=15.0)
    assert pid_alive(reply["monitor_pid"])  # still answering late clients
    engine.client.request("rm", id=reply["id"])
    assert not pid_alive(reply["monitor_pid"])


def test_wait_reports_signal_death(engine):
    reply = engine.run(["sleep", "60"])
    timer = threading.Timer(
        0.3, lambda: engine.client.request("kill", id=reply["id"])
    )
    timer.start()
    try:
        with MonitorStream(
            reply["monitor_sock"], {"op": "wait"}, timeout=20.0
        ) as stream:
            assert stream.reply["exit_code"] is None
            assert stream.reply["term_signal"] == 9
    finally:
        timer.cancel()


def test_exec_runs_alongside_container(engine):
    reply = engine.run(["sleep", "60"])
    with MonitorStream(
        reply["monitor_sock"],
        {"op": "exec", "command": ["sh", "-c", "echo hi-from-exec; exit 7"]},
    ) as stream:
        assert stream.reply["pid"] > 0
        frames = collect_until_exit(stream)
    assert stream_bytes(frames, FRAME_STDOUT) == b"hi-from-exec\n"
    assert exit_code_from_notice(exit_payload(frames)) == 7
    # the exec child must not disturb the container itself
    rows = engine.ps()
    assert rows[0]["state"] == "running"
    assert rows[0]["pid"] == reply["pid"]


def test_exec_feeds_stdin(engine):
    reply = engine.run(["sleep", "60"])
    with MonitorStream(
        reply["monitor_sock"], {"op": "exec", "command": ["cat"]}
    ) as stream:
        stream.send_stdin(b"through exec\n")
        stream.close_write()
        frames = collect_until_exit(stream)
    assert stream_bytes(frames, FRAME_STDOUT) == b"through exec\n"
    assert exit_code_from_notice(exit_payload(frames)) == 0


def test_exec_joins_container_process_group(engine):
    reply = engine.run(["sleep", "60"])
    with MonitorStream(
        reply["monitor_sock"],
        {"op": "exec", "command": ["sh", "-c", "ps -o pgid= -p $$"]},
    ) as stream:
        frames = collect_until_exit(stream)
    pgid = int(stream_bytes(frames, FRAME_STDOUT).strip())
    assert pgid == reply["pid"]


def test_exec_rejected_once_exited(engine):
    reply = engine.run(["true"])
    engine.client.request("wait", id=reply["id"])
    with pytest.raises(RequestFailed) as info:
        engine.client.request("exec", id=reply["id"])
    assert info.value.code == "not_running"


@pytest.mark.skipif(not namespaces_supported(), reason="host denies namespace creation")
def test_exec_into_isolated_container_leaves_the_monitor_serving(engine):
    """The namespace relay that exec forks holds no pipe end, so the monitor
    serves on while an exec runs and an exec's output flows past the pipe
    buffer."""
    reply = engine.client.request(
        "run", timeout=30.0, spec={"command": ["sleep", "60"], "isolation": "namespaces"}
    )
    sock = reply["monitor_sock"]
    frames: list[tuple[int, bytes]] = []

    def run_exec() -> None:
        with MonitorStream(sock, {"op": "exec", "command": ["sleep", "2"]}, timeout=10.0) as stream:
            frames.extend(collect_until_exit(stream))

    worker = threading.Thread(target=run_exec)
    worker.start()
    time.sleep(0.3)  # the exec is under way
    t0 = time.monotonic()
    with MonitorStream(sock, {"op": "ping"}, timeout=10.0) as ping:
        assert ping.reply["ok"]
    ping_s = time.monotonic() - t0
    worker.join(timeout=20.0)
    assert not worker.is_alive()
    assert exit_code_from_notice(exit_payload(frames)) == 0
    assert ping_s < 1.0, f"ping took {ping_s:.2f}s during an exec"

    with MonitorStream(
        sock, {"op": "exec", "command": ["head", "-c", "300000", "/dev/zero"]}, timeout=10.0
    ) as stream:
        frames = collect_until_exit(stream)
    assert stream_bytes(frames, FRAME_STDOUT) == bytes(300000)
    assert exit_code_from_notice(exit_payload(frames)) == 0


def test_fast_exit_output_lands_in_log(engine):
    reply = engine.run(["sh", "-c", "echo gone; exit 3"])
    done = engine.client.request("wait", id=reply["id"])
    assert done["exit_code"] == 3
    frames = list(read_log_frames(engine.layout.log_path(reply["id"])))
    assert stream_bytes(frames, FRAME_STDOUT) == b"gone\n"


def test_monitor_socket_removed_after_exit(engine):
    reply = engine.run(["true"])
    engine.client.request("wait", id=reply["id"])
    sock = engine.layout.monitor_sock(reply["id"])
    assert wait_for(lambda: not sock.exists())
