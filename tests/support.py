"""Shared test helpers: random model-value generators, process hygiene, a
daemon hosted on the test's own event loop, and a daemon process driven over
its socket."""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from pathlib import Path

from hydra import sandbox
from hydra.cli import _list_containers
from hydra.client import DaemonClient, RequestFailed, TransportError
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
from hydra.protocol import (
    RecordFormatError,
    StateDirLayout,
    decode_message,
    dump_record,
    encode_message,
    load_record,
    resolve_layout,
)

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


async def host(state_root: str, mode: str = "decoupled") -> tuple[Daemon, asyncio.Task]:
    """A daemon serving on this loop, and the task that runs it."""
    daemon = Daemon(DaemonConfig(state_root=state_root, mode=SupervisionMode(mode)))
    ready = asyncio.Event()
    serving = asyncio.create_task(daemon.serve(ready=ready))
    await asyncio.wait_for(ready.wait(), 15.0)
    return daemon, serving


async def stop(daemon: Daemon, serving: asyncio.Task) -> None:
    await request(daemon, "shutdown")
    await asyncio.wait_for(serving, 30.0)


def serve_once(state_root: str, body=None, mode: str = "decoupled"):
    """Start a daemon on state_root, run body(daemon) against it, stop it."""
    async def scenario():
        daemon, serving = await host(state_root, mode)
        try:
            return await body(daemon) if body is not None else None
        finally:
            await stop(daemon, serving)

    return asyncio.run(scenario())


async def stop_and_kill(daemon: Daemon, serving: asyncio.Task) -> None:
    await stop(daemon, serving)
    # Monitors first: a killed monitor rings no doorbell at this process.
    for record in daemon.records.values():
        for identity in (record.monitor, record.container):
            if identity is not None and sandbox.is_alive(identity):
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(identity.pid, signal.SIGKILL)


# -- a daemon process ------------------------------------------------------------


class Engine:
    """One engine process on a private state dir, driven over its socket."""

    def __init__(
        self,
        mode: str,
        *,
        state_root: str | Path | None = None,
        preexec_fn: Callable[[], None] | None = None,
    ):
        # Keep the root short: the daemon socket path must fit in sun_path.
        root = state_root or tempfile.mkdtemp(prefix="hyb", dir="/tmp")
        self.layout: StateDirLayout = resolve_layout(root)
        self.mode = mode
        self.preexec_fn = preexec_fn  # runs in the engine process before exec
        self.client = DaemonClient(self.layout)
        self.proc: subprocess.Popen[bytes] | None = None
        self._log_fh = open(self.layout.root / "engine.log", "ab")

    def start(self, *, timeout_s: float = 15.0) -> None:
        """Start the engine and wait until its startup reboots are done."""
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "hydra", "--state-dir", str(self.layout.root),
                "--mode", self.mode, "daemon", "start", "--foreground",
            ],
            stdin=subprocess.DEVNULL,
            stdout=self._log_fh,
            stderr=self._log_fh,
            start_new_session=True,
            preexec_fn=self.preexec_fn,
        )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"engine exited with {self.proc.returncode}; "
                    f"see {self.layout.root}/engine.log"
                )
            with contextlib.suppress(TransportError, RequestFailed):
                # The socket answers while startup reboots are still in
                # flight; restore_ms turns non-None once they are done.
                if self.client.request("status", timeout=2.0)["restore_ms"] is not None:
                    return
            time.sleep(0.01)
        raise RuntimeError(f"engine not ready within {timeout_s}s")

    def kill(self) -> None:
        """SIGKILL, as a crash would."""
        assert self.proc is not None
        with contextlib.suppress(ProcessLookupError):
            self.proc.kill()
        self.proc.wait()
        self.proc = None

    def stop(self, *, timeout_s: float = 10.0) -> None:
        """Graceful stop through the shutdown op."""
        assert self.proc is not None
        with contextlib.suppress(TransportError, RequestFailed):
            self.client.request("shutdown", timeout=5.0)
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def status(self) -> dict:
        return self.client.request("status", timeout=10.0)

    def ps(self) -> list[dict]:
        """Every container, paged as the CLI pages them."""
        return _list_containers(self.client)["containers"]

    def run(self, command: list[str], *, container_id: str | None = None) -> dict:
        fields: dict = {"spec": {"command": command}}
        if container_id is not None:
            fields["id"] = container_id
        return self.client.request("run", timeout=30.0, **fields)

    def cleanup(self) -> None:
        """Stop the engine, kill every process its records name, drop the state dir.

        The records are read from disk after the stop: a graceful stop lets
        launches in flight land first, so their processes are named too.
        """
        if self.proc is not None:
            self.stop()
        for entry in self.layout.containers_dir.glob("*/record.json"):
            with contextlib.suppress(RecordFormatError, OSError):
                record = load_record(entry)
                for identity in (record.container, record.monitor):
                    if identity is not None and sandbox.is_alive(identity):
                        killpg_silently(identity.pid)
                        kill_silently(identity.pid)
        self._log_fh.close()
        shutil.rmtree(self.layout.root, ignore_errors=True)
