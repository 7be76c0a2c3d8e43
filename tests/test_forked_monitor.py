"""Monitors forked from the daemon: inherited state, naming, and launches that
meet a daemon stop.

The in-process tests host the daemon on this test's own event loop, so a
monkeypatch reaches the monitors it forks.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import threading
import time

import pytest

from hydra import sandbox
from hydra.client import TransportError
from hydra.daemon import ApiError
from hydra.model import StateKind
from hydra.monitor import MONITOR_COMM_PREFIX, Monitor
from hydra.protocol import encode_message, load_record, resolve_layout

from .conftest import pid_alive, wait_for
from .support import Engine, host, request, stop_and_kill, until


def fd_links(pid: int) -> list[str]:
    links = []
    for name in os.listdir(f"/proc/{pid}/fd"):
        with contextlib.suppress(OSError):  # closed while listing
            links.append(os.readlink(f"/proc/{pid}/fd/{name}"))
    return links


def sockets(pid: int) -> set[str]:
    return {link for link in fd_links(pid) if link.startswith("socket:")}


def pidfd_targets(pid: int) -> list[int]:
    """The pid each pidfd that pid holds names, from its fdinfo."""
    targets = []
    for name in os.listdir(f"/proc/{pid}/fd"):
        with contextlib.suppress(OSError):
            if os.readlink(f"/proc/{pid}/fd/{name}") == "anon_inode:[pidfd]":
                with open(f"/proc/{pid}/fdinfo/{name}") as fh:
                    (line,) = [l for l in fh if l.startswith("Pid:")]
                targets.append(int(line.split()[1]))
    return targets


# -- against a daemon process -------------------------------------------------


@pytest.mark.parametrize("mode", ["decoupled", "lazy"])
def test_monitor_holds_none_of_the_daemons_fds(make_engine, mode):
    engine = make_engine(mode)
    engine.run(["sleep", "600"])  # the daemon now holds a pidfd on its monitor
    reply = engine.run(["sleep", "600"])
    links = fd_links(reply["monitor_pid"])
    # Its one pidfd is its own, for reaping its container.
    assert pidfd_targets(reply["monitor_pid"]) == [reply["pid"]]
    assert links.count("anon_inode:[eventpoll]") == 1  # its own event loop's
    assert str(engine.layout.lock_file) not in links
    assert not sockets(reply["monitor_pid"]) & sockets(engine.proc.pid)


def handles_sigchld(pid: int) -> bool:
    """Whether pid catches or ignores SIGCHLD, by its /proc status masks."""
    with open(f"/proc/{pid}/status") as fh:
        masks = [
            int(line.split()[1], 16)
            for line in fh
            if line.startswith(("SigCgt:", "SigIgn:"))
        ]
    assert len(masks) == 2
    return any(mask >> (signal.SIGCHLD - 1) & 1 for mask in masks)


@pytest.mark.parametrize("mode", ["decoupled", "lazy"])
def test_no_engine_process_handles_sigchld(make_engine, mode):
    # Children are waited for one pidfd each; nothing reaps by signal.
    engine = make_engine(mode)
    reply = engine.run(["sleep", "600"])
    assert not handles_sigchld(engine.proc.pid)
    assert not handles_sigchld(reply["monitor_pid"])


@pytest.mark.parametrize("mode", ["decoupled", "lazy"])
def test_blocked_wait_fails_fast_when_daemon_dies(make_engine, mode):
    engine = make_engine(mode)
    first = engine.run(["sleep", "600"])
    before = sockets(engine.proc.pid)
    outcome: dict = {}

    def wait() -> None:
        try:
            engine.client.request("wait", id=first["id"], timeout=30.0)
        except TransportError as exc:
            outcome["error"] = exc

    waiter = threading.Thread(target=wait, daemon=True)
    waiter.start()
    assert wait_for(lambda: sockets(engine.proc.pid) - before)  # the wait is accepted
    engine.run(["sleep", "600"])  # a monitor forked while that connection is open
    engine.kill()
    t0 = time.monotonic()
    waiter.join(timeout=5.0)
    assert not waiter.is_alive(), "wait still blocked on a dead daemon"
    assert time.monotonic() - t0 < 2.0
    assert isinstance(outcome.get("error"), TransportError)


def test_client_vanishing_mid_stream_leaves_monitor_up(engine):
    # The monitor keeps the interpreter's ignored SIGPIPE: its next write to
    # a gone client raises instead of killing it.
    reply = engine.run(["sh", "-c", "while true; do echo tick; sleep 0.01; done"])
    for _ in range(3):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(reply["monitor_sock"])
            sock.sendall(encode_message({"op": "logs", "follow": True}))
            sock.recv(4096)
        time.sleep(0.2)
    assert pid_alive(reply["monitor_pid"])


def test_monitor_comm_names_its_container(engine):
    reply = engine.run(["sleep", "600"])
    with open(f"/proc/{reply['monitor_pid']}/comm") as fh:
        assert fh.read().rstrip("\n") == f"{MONITOR_COMM_PREFIX}{reply['id']}"[:15]


# -- against a daemon on this test's loop ---------------------------------------


def test_daemon_stop_lets_launch_in_flight_land(state_root, monkeypatch):
    handshake = Monitor._handshake

    async def late_handshake(self):
        await asyncio.sleep(1.0)
        await handshake(self)

    monkeypatch.setattr(Monitor, "_handshake", late_handshake)  # forked monitors inherit it
    container_id = "00000000000000aa"

    async def scenario() -> None:
        daemon, serving = await host(state_root)
        run = asyncio.create_task(
            request(daemon, "run", id=container_id, spec={"command": ["sleep", "600"]})
        )
        await until(lambda: container_id in daemon._pending_launch)
        await request(daemon, "shutdown")
        await asyncio.wait_for(serving, 30.0)
        with contextlib.suppress(Exception):  # the reply may be cut by the stop
            await run

    engine = Engine("decoupled", state_root=state_root)
    try:
        asyncio.run(scenario())
        record = load_record(resolve_layout(state_root).record_path(container_id))
        assert record.state.kind is StateKind.RUNNING
        assert record.container is not None and sandbox.is_alive(record.container)
        engine.start()  # the next daemon adopts the container
        (row,) = engine.ps()
        assert row["state"] == "running" and row["pid"] == record.container.pid
        assert row["restart_count"] == 0
    finally:
        engine.cleanup()


def test_waiters_leave_with_their_awaiters(state_root):
    async def scenario() -> None:
        daemon, serving = await host(state_root)
        try:
            reply = await request(daemon, "run", spec={"command": ["sleep", "600"]})
            container_id = reply["id"]

            # A wait whose client hangs up.
            _, writer = await asyncio.open_unix_connection(str(daemon.layout.daemon_sock))
            writer.write(encode_message({"op": "wait", "id": container_id}))
            await until(lambda: container_id in daemon._waiters)
            writer.close()
            await until(lambda: container_id not in daemon._waiters)

            # An exit await that times out.
            with pytest.raises(ApiError) as info:
                await daemon._await_exit(daemon.records[container_id], timeout_s=0.05)
            assert info.value.code == "stop_timeout"
            assert container_id not in daemon._waiters

            # A wait that stays sees the exit.
            waiting = asyncio.create_task(request(daemon, "wait", id=container_id))
            await until(lambda: container_id in daemon._waiters)
            await request(daemon, "kill", id=container_id)
            done = await asyncio.wait_for(waiting, 15.0)
            assert done["term_signal"] == signal.SIGKILL
            assert container_id not in daemon._waiters
            await until(lambda: not pid_alive(reply["monitor_pid"]))
        finally:
            await stop_and_kill(daemon, serving)

    asyncio.run(scenario())
