"""The supervision decision, checked over every combination of its facts, and
the reconcile and handshake cases it settles, against a daemon on this test's
loop.

The exhaustive checks play each decision's steps against a model of the
record and its processes, so they need no process at all.
"""

from __future__ import annotations

import asyncio
import itertools
import pytest

import hydra.daemon
from hydra import sandbox
from hydra.daemon import ExitFact, Facts, Proc, Step, decide
from hydra.model import (
    ContainerRecord,
    ContainerSpec,
    ContainerState,
    ProcessIdentity,
    StateKind,
    SupervisionMode,
    validate_transition,
)
from hydra.monitor import Monitor
from hydra.protocol import dump_record, load_record, resolve_layout

from .support import Engine, dead_pid_base, host, request, serve_once, stop_and_kill, until

ALIVE = (Proc.RUNNING, Proc.STOPPED)
LIVE = (StateKind.CREATED, StateKind.RUNNING, StateKind.PAUSED, StateKind.STOPPING)
CHANGES = {
    Step.SETTLE, Step.QUARANTINE, Step.LOSE, Step.SETTLE_UNKNOWN, Step.REBOOT,
    Step.MARK_RUNNING, Step.MARK_PAUSED,
}
KILLS = {Step.SETTLE_UNKNOWN, Step.REBOOT}


def play(facts: Facts, steps: tuple[Step, ...]):
    """Apply steps to a model of the record and its processes; returns the
    state transitions they make and the facts a next decision would see."""
    state, world, moves = ContainerState(facts.kind), facts, []
    settled = (
        ContainerState.exited(code=3)
        if facts.exit is ExitFact.CODE
        else ContainerState.exited(signal=15)
    )
    for step in steps:
        new = {
            Step.SETTLE: settled,
            Step.SETTLE_UNKNOWN: ContainerState.exited(signal=9),
            Step.LOSE: ContainerState.lost(),
            Step.MARK_RUNNING: ContainerState.running(),
            Step.MARK_PAUSED: ContainerState.paused(),
        }.get(step)
        if step is Step.QUARANTINE:
            world = world._replace(exit=ExitFact.ABSENT)
        if step is Step.REBOOT:
            # The relaunch clears the exit file and lands a fresh monitor
            # and container; a Created record goes Running as it lands.
            new = ContainerState.running()
            world = world._replace(exit=ExitFact.ABSENT, monitor=Proc.RUNNING, container=Proc.RUNNING)
        if new is not None and new != state:
            moves.append((state, new))
            state = new
    return moves, world._replace(kind=state.kind)


def every_case():
    kinds = [kind for kind in StateKind if kind is not StateKind.EXITED]
    flags = (False, True)
    for values in itertools.product(kinds, ExitFact, Proc, Proc, flags, flags, flags):
        facts = Facts(*values)
        steps = decide(facts)
        moves, after = play(facts, steps)
        yield facts, steps, moves, after


CASES = list(every_case())


def test_every_combination_of_facts_is_decided():
    assert len(CASES) == 5 * 4 * 4 * 4 * 2 * 2 * 2
    assert len({facts for facts, *_ in CASES}) == len(CASES)


@pytest.mark.parametrize("found", [ExitFact.CODE, ExitFact.SIGNAL])
def test_a_valid_exit_file_always_settles_and_never_reboots(found):
    for facts, steps, moves, after in CASES:
        if facts.exit is found:
            assert Step.SETTLE in steps and Step.REBOOT not in steps, facts
            assert after.kind is StateKind.EXITED, facts
            assert not KILLS & set(steps), facts


def test_every_transition_is_legal():
    for facts, steps, moves, after in CASES:
        for old, new in moves:
            assert validate_transition(old, new), (facts, steps, old, new)


def test_no_live_record_is_left_unwatched():
    for facts, steps, moves, after in CASES:
        if Step.WATCH_MONITOR in steps:
            assert facts.monitor in ALIVE, facts
        if Step.WATCH_CONTAINER in steps:
            assert facts.container in ALIVE, facts
        if after.kind in LIVE:
            assert {
                Step.WATCH_MONITOR, Step.WATCH_CONTAINER, Step.REBOOT, Step.AWAIT_HANDSHAKE
            } & set(steps), facts
        # A stop's kill timer dies with the daemon that armed it.
        stopping = after.kind is StateKind.STOPPING
        assert (Step.REARM_GRACE in steps) == (stopping and facts.at_start), facts


def test_a_handshake_wait_ends():
    for facts, steps, moves, after in CASES:
        if Step.AWAIT_HANDSHAKE in steps:
            assert steps == (Step.AWAIT_HANDSHAKE,) and after.kind is StateKind.CREATED
            # Once the wait is over, the same facts decided as a watch.
            assert decide(after._replace(at_start=False)) == (Step.LOSE,), facts


def test_decoupled_and_lazy_keep_what_lives():
    for facts, steps, moves, after in CASES:
        if facts.coupled:
            continue
        if Step.REBOOT in steps:
            assert facts.kind not in (StateKind.PAUSED, StateKind.STOPPING), facts
        if facts.monitor in ALIVE:
            assert not KILLS & set(steps), facts
        if facts.at_start and Step.LOSE in steps:
            # A start loses nothing but what a corrupt exit file leaves.
            assert facts.exit is ExitFact.CORRUPT, facts


def test_an_adopted_record_follows_its_group():
    for facts, steps, moves, after in CASES:
        if after.monitor in ALIVE and after.kind in (StateKind.RUNNING, StateKind.PAUSED):
            if after.container is Proc.RUNNING:
                assert after.kind is StateKind.RUNNING, facts
            if after.container is Proc.STOPPED:
                assert after.kind is StateKind.PAUSED, facts


def test_a_lost_monitor_reboots_or_kills_by_the_spec():
    for facts, steps, moves, after in CASES:
        if Step.REBOOT in steps and not (facts.coupled and facts.at_start):
            assert facts.restart, facts
        if Step.REBOOT in steps:
            assert facts.kind is not StateKind.STOPPING, facts  # a stop was asked for
        orphaned = facts.monitor not in ALIVE and facts.container in ALIVE
        if orphaned and facts.kind is StateKind.RUNNING and facts.exit is ExitFact.ABSENT:
            if not (facts.coupled and facts.at_start):
                assert steps == ((Step.REBOOT,) if facts.restart else (Step.SETTLE_UNKNOWN,))


def test_a_coupled_start_keeps_nothing_that_ran():
    for facts, steps, moves, after in CASES:
        no_status = facts.exit in (ExitFact.ABSENT, ExitFact.CORRUPT)
        if facts.coupled and facts.at_start and no_status and facts.kind in LIVE:
            gone = after.kind in (StateKind.EXITED, StateKind.LOST)
            assert gone or Step.REBOOT in steps, facts


def test_deciding_again_changes_nothing():
    for facts, steps, moves, after in CASES:
        if after.kind is StateKind.EXITED:
            continue  # settled: it leaves the registry
        # A coupled start reboots by design; what it leaves is then watched.
        again = decide(after._replace(at_start=facts.at_start and not facts.coupled))
        assert not CHANGES & set(again), (facts, steps, again)


# -- against a daemon on this test's loop -------------------------------------

ID = "00000000000000c1"


def record_on_disk(state_root: str, kind: StateKind, monitor=None, container=None):
    record = ContainerRecord(
        id=ID, spec=ContainerSpec(command=("sleep", "600")),
        mode=SupervisionMode.DECOUPLED, state=ContainerState(kind),
        monitor=monitor, container=container, created_at=1000,
    )
    dump_record(resolve_layout(state_root), record)


def late(handshake):
    """A monitor handshake sent a second late; forked monitors inherit it."""
    async def delayed(self):
        await asyncio.sleep(1.0)
        await handshake(self)

    return delayed


def dead_pair() -> tuple[ProcessIdentity, ProcessIdentity]:
    dead = dead_pid_base()
    return ProcessIdentity(dead, 1), ProcessIdentity(dead + 1, 1)


def test_created_record_adopts_a_late_handshake(state_root, sleepers):
    # The daemon died between its fork and the monitor's handshake.
    record_on_disk(state_root, StateKind.CREATED)
    monitor, container = sleepers()

    async def body(daemon):
        assert daemon.records[ID].state.kind is StateKind.CREATED
        reply = await request(
            daemon, "launched", id=ID, token="from-a-dead-daemon",
            monitor=monitor.to_dict(), container=container.to_dict(),
        )
        assert reply == {"ok": True}
        return daemon.records[ID]

    record = serve_once(state_root, body)
    assert record.state.kind is StateKind.RUNNING
    assert (record.monitor, record.container) == (monitor, container)
    assert sandbox.is_alive(container)


def test_launch_cut_by_a_daemon_crash_is_adopted_by_the_next(state_root, monkeypatch):
    monkeypatch.setattr(Monitor, "_handshake", late(Monitor._handshake))

    async def scenario():
        daemon, serving = await host(state_root)
        run = asyncio.create_task(
            request(daemon, "run", id=ID, spec={"command": ["sleep", "600"]})
        )
        await until(lambda: ID in daemon._pending_launch)
        serving.cancel()  # gone before the handshake: the record stays Created
        await asyncio.gather(serving, run, return_exceptions=True)
        daemon, serving = await host(state_root)
        try:
            await until(lambda: daemon.records[ID].state.kind is not StateKind.CREATED)
            return daemon.records[ID]
        finally:
            await stop_and_kill(daemon, serving)

    engine = Engine("decoupled", state_root=state_root)  # its cleanup reaps what is left
    try:
        record = asyncio.run(scenario())
        assert record.state.kind is StateKind.RUNNING and record.restart_count == 0
        assert record.container is not None
    finally:
        engine.cleanup()


def test_created_record_without_handshake_ends_lost(state_root, monkeypatch):
    monkeypatch.setattr(hydra.daemon, "_HANDSHAKE_TIMEOUT_MS", 200)
    record_on_disk(state_root, StateKind.CREATED)

    async def body(daemon):
        assert daemon.records[ID].state.kind is StateKind.CREATED
        await until(lambda: daemon.records[ID].state.kind is StateKind.LOST)

    serve_once(state_root, body)


def test_coupled_created_record_is_lost_at_once(state_root):
    record_on_disk(state_root, StateKind.CREATED)

    async def body(daemon):
        return daemon.records[ID].state.kind

    assert serve_once(state_root, body, mode="coupled") is StateKind.LOST


def test_handshake_with_a_wrong_token_is_scavenged(state_root, monkeypatch, sleepers):
    monkeypatch.setattr(Monitor, "_handshake", late(Monitor._handshake))
    monitor, impostor = sleepers()

    async def scenario():
        daemon, serving = await host(state_root)
        try:
            run = asyncio.create_task(
                request(daemon, "run", id=ID, spec={"command": ["sleep", "600"]})
            )
            await until(lambda: ID in daemon._pending_launch)
            reply = await request(
                daemon, "launched", id=ID, token="not-the-launch-token",
                monitor=monitor.to_dict(), container=impostor.to_dict(),
            )
            ran = await asyncio.wait_for(run, 30.0)
            return reply, ran, daemon.records[ID]
        finally:
            await stop_and_kill(daemon, serving)

    reply, ran, record = asyncio.run(scenario())
    assert reply == {"ok": False, "error": "unwanted"}
    assert not sandbox.is_alive(impostor)
    assert record.monitor is not None and record.monitor.pid == ran["monitor_pid"]
    assert record.container is not None and record.container.pid == ran["pid"]


def test_kill_spares_the_reused_pid_of_a_lost_record(state_root, sleepers):
    # Lost for a corrupt exit file: its group died, and its pid now names
    # another group's leader, started later.
    _, bystander = sleepers()
    reused = ProcessIdentity(bystander.pid, bystander.start_ticks + 1)
    record_on_disk(state_root, StateKind.LOST, dead_pair()[0], reused)

    async def body(daemon):
        return await request(daemon, "kill", id=ID)

    assert serve_once(state_root, body)["ok"]
    assert sandbox.is_alive(bystander)


@pytest.mark.parametrize("kind", [StateKind.STOPPING, StateKind.PAUSED])
def test_corrupt_exit_file_settles_a_dead_record_at_start(state_root, kind):
    layout = resolve_layout(state_root)
    record_on_disk(state_root, kind, *dead_pair())
    exit_path = layout.exit_path(ID)
    exit_path.write_bytes(b"not an exit line\n")

    async def body(daemon):
        return ID in daemon.records

    assert serve_once(state_root, body) is False
    record = load_record(layout.record_path(ID))
    assert record.state == ContainerState.exited(signal=9)
    assert record.exit_unknown
    assert not exit_path.exists()
    assert exit_path.with_name(exit_path.name + ".corrupt").exists()
