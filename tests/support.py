"""Shared test helpers: random model-value generators, process hygiene, and
a daemon hosted on the test's own event loop."""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import signal
import time

from hydra import sandbox
from hydra.daemon import Daemon, DaemonConfig

from hydra.model import (
    ContainerRecord,
    ContainerSpec,
    ContainerState,
    ExitReport,
    Isolation,
    ProcessIdentity,
    StateKind,
    SupervisionMode,
    new_container_id,
)
from hydra.protocol import StateDirLayout, decode_message, dump_record, encode_message

WORDS = ["sleep", "cat", "echo", "true", "sh", "env", "tail", "yes"]


def make_random_report(rng: random.Random) -> ExitReport:
    container_id = new_container_id(rng.getrandbits(64))
    if rng.random() < 0.5:
        code, sig = rng.randint(0, 255), None
    else:
        code, sig = None, rng.randint(1, 64)
    return ExitReport(
        container_id=container_id,
        exit_code=code,
        term_signal=sig,
        finished_at=rng.randint(0, 2**53),
    )


def make_random_spec(rng: random.Random) -> ContainerSpec:
    command = ["/bin/" + rng.choice(WORDS)] + [
        rng.choice(WORDS) for _ in range(rng.randint(0, 3))
    ]
    env = tuple(f"K{i}={rng.randint(0, 999)}" for i in range(rng.randint(0, 3)))
    return ContainerSpec(
        command=tuple(command),
        env=env,
        working_dir=rng.choice([None, "/tmp", "/"]),
        isolation=rng.choice([Isolation.NONE, Isolation.NAMESPACES]),
        restart_on_monitor_loss=rng.random() < 0.5,
        stop_grace_ms=rng.randint(0, 60_000),
    )


def make_random_state(rng: random.Random) -> ContainerState:
    kind = rng.choice(list(StateKind))
    if kind is StateKind.EXITED:
        if rng.random() < 0.5:
            return ContainerState.exited(code=rng.randint(0, 255))
        return ContainerState.exited(signal=rng.randint(1, 64))
    return ContainerState(kind)


def make_random_identity(rng: random.Random) -> ProcessIdentity:
    return ProcessIdentity(pid=rng.randint(1, 4_000_000), start_ticks=rng.randint(0, 2**40))


def make_random_record(rng: random.Random) -> ContainerRecord:
    state = make_random_state(rng)
    record = ContainerRecord(
        id=new_container_id(rng.getrandbits(64)),
        spec=make_random_spec(rng),
        mode=rng.choice(list(SupervisionMode)),
        state=state,
        monitor=make_random_identity(rng) if rng.random() < 0.7 else None,
        container=make_random_identity(rng) if rng.random() < 0.7 else None,
        created_at=rng.randint(0, 2**53),
        started_at=rng.choice([None, rng.randint(0, 2**53)]),
        finished_at=rng.randint(0, 2**53),
        restart_count=rng.randint(0, 9),
        exit_unknown=rng.random() < 0.2,
    )
    # keep the generated record consistent with its own invariants
    if record.state.kind is StateKind.RUNNING and record.container is None:
        record.container = make_random_identity(rng)
    return record


def dead_pid_base() -> int:
    """Pids above pid_max are never live, so these identities stay dead."""
    with open("/proc/sys/kernel/pid_max") as fh:
        return int(fh.read()) + 1


def write_settled(layout: StateDirLayout, count: int) -> dict[str, int]:
    """count Exited records with dead identities; returns id -> exit code."""
    spec = ContainerSpec(command=("true",))
    dead = dead_pid_base()
    codes = {}
    for n in range(count):
        container_id = f"{n:016x}"
        codes[container_id] = n % 256
        dump_record(layout, ContainerRecord(
            id=container_id, spec=spec, mode=SupervisionMode.DECOUPLED,
            state=ContainerState.exited(code=n % 256),
            monitor=ProcessIdentity(dead + 2 * n, 1),
            container=ProcessIdentity(dead + 2 * n + 1, 1),
            created_at=1000, started_at=1100, finished_at=2000 + n,
        ))
    return codes


def kill_silently(pid: int, sig: int = signal.SIGKILL) -> None:
    try:
        os.kill(pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def killpg_silently(pgid: int, sig: int = signal.SIGKILL) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


# -- a daemon on this test's loop ------------------------------------------------


async def request(daemon: Daemon, op: str, **fields) -> dict:
    reader, writer = await asyncio.open_unix_connection(str(daemon.layout.daemon_sock))
    try:
        writer.write(encode_message({"op": op, **fields}))
        return decode_message(await asyncio.wait_for(reader.readline(), 30.0))
    finally:
        writer.close()


async def until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        await asyncio.sleep(0.01)


async def host(state_root: str) -> tuple[Daemon, asyncio.Task]:
    """A daemon serving on this loop, and the task that runs it."""
    daemon = Daemon(DaemonConfig(state_root=state_root))
    ready = asyncio.Event()
    serving = asyncio.create_task(daemon.serve(ready=ready))
    await asyncio.wait_for(ready.wait(), 15.0)
    return daemon, serving


async def stop(daemon: Daemon, serving: asyncio.Task) -> None:
    await request(daemon, "shutdown")
    await asyncio.wait_for(serving, 30.0)


async def stop_and_kill(daemon: Daemon, serving: asyncio.Task) -> None:
    await stop(daemon, serving)
    # Monitors first: a killed monitor rings no doorbell at this process.
    for record in daemon.records.values():
        for identity in (record.monitor, record.container):
            if identity is not None and sandbox.is_alive(identity):
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(identity.pid, signal.SIGKILL)
