"""The engine process: container registry, monitor launcher, exit ingester.

One daemon owns one state directory (enforced by a lock file). It persists
every record mutation to disk before answering, so a crash of the process
at any point loses nothing (a power loss can: records are not fsynced): the
next daemon rebuilds the registry from record files, exit files, and
live-process identity checks (reconciliation). In decoupled and lazy modes
no container process depends on the daemon being alive.

Settled (Exited) records can no longer change, so the registry holds only
the records that can: a settled record is its file on disk, read on demand,
plus a line of the settled index that lets a restart skip reading it. The
index may be stale but never wrong: each line names the identity (inode,
mtime, size) of the record file it was made from, and a restart trusts it
only while that file is still the one on disk.

Everything runs on one asyncio loop in one OS thread. Exit notification
arrives as a signal; asyncio delivers it via its self-pipe, so the handler
body runs on the loop and only sets an event. Container exits are ingested
from exit files, never from waiting on child processes, which is what keeps
the thread count flat no matter how many containers run (coupled mode
deliberately breaks this with one waiter thread per container to emulate
the classic engines it stands in for). Each live container also holds one
pidfd on the loop, for its monitor: a monitor writes its exit file before
it exits, so the pidfd event is a second doorbell for every exit and the
first news of a monitor that died without one. The daemon's own children
(the restore scan, a launch's first fork, which in lazy and coupled modes
is the monitor) are each reaped through a pidfd of their own, opened right
after the fork; no SIGCHLD handler runs.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import enum
import fcntl
import gc
import logging
import os
import signal
import stat
import sys
import threading
import time
from pathlib import Path
from typing import Any, NamedTuple

from . import sandbox
from .model import (
    ContainerRecord,
    ContainerSpec,
    ContainerState,
    HydraError,
    IllegalTransition,
    InvalidSpec,
    ProcessIdentity,
    StateKind,
    SupervisionMode,
    Value,
    is_container_id,
    new_container_id,
    now_ms,
)
from .monitor import (
    drain_until_eof,
    fork_monitor,
    read_spawn_failure,
    reap,
)
from .protocol import (
    EXIT_NOTIFY,
    MAX_MESSAGE_BYTES,
    ExitFormatError,
    MessageFormatError,
    RecordFormatError,
    StateDirLayout,
    atomic_write_bytes,
    decode_message,
    dump_record,
    encode_message,
    load_record,
    read_exit_report,
    read_pid_file,
    read_settled_index,
    resolve_layout,
    settled_identity,
    settled_line,
    state_root,
    write_pid_file,
)

__all__ = [
    "WAITER_CONTEXT_BYTES",
    "DaemonConfig",
    "AlreadyRunning",
    "ApiError",
    "Daemon",
    "run",
]

log = logging.getLogger("hydra.daemon")

# How long a launch, or a shutdown landing launches, waits for Launched.
_HANDSHAKE_TIMEOUT_MS = 5000
# Per-container ballast held by each coupled-mode waiter thread, standing in
# for the per-container runtime bookkeeping of the engines that mode emulates.
WAITER_CONTEXT_BYTES = 65536

_LIVE_KINDS = (StateKind.RUNNING, StateKind.PAUSED, StateKind.STOPPING)


class DaemonConfig(Value):
    __slots__ = ("state_root", "mode")
    state_root: str
    mode: SupervisionMode

    def __init__(self, state_root: str, mode: SupervisionMode = SupervisionMode.DECOUPLED):
        self._init(state_root, SupervisionMode(mode))


class AlreadyRunning(HydraError):
    """Another live daemon holds this state directory's lock."""


class ApiError(HydraError):
    """A request failed in a way the client should see as a typed error."""

    def __init__(self, code: str, detail: str = "", *, exit_code: int | None = None):
        super().__init__(detail or code)
        self.code = code
        self.detail = detail
        # For spawn failures: the status the monitor bootstrap died with,
        # recorded as the container's exit code.
        self.exit_code = exit_code


# -- the supervision decision ---------------------------------------------------

ExitFact = enum.Enum("ExitFact", "ABSENT CODE SIGNAL CORRUPT")  # CORRUPT: or another id's
Proc = enum.Enum("Proc", "NONE RUNNING STOPPED DEAD")  # NONE: no identity; STOPPED: state T
_ALIVE = (Proc.RUNNING, Proc.STOPPED)


class Step(str, enum.Enum):
    SETTLE = "settle"  # Exited with the exit file's status
    QUARANTINE = "quarantine"  # set the corrupt exit file aside
    LOSE = "lose"
    SETTLE_UNKNOWN = "settle_unknown"  # kill what lives; Exited(SIGKILL), exit_unknown
    REBOOT = "reboot"  # kill what lives; Running with no identities, relaunched
    MARK_RUNNING = "mark_running"
    MARK_PAUSED = "mark_paused"
    REARM_GRACE = "rearm_grace"  # the stop's kill timer, lost with the last daemon
    WATCH_MONITOR = "watch_monitor"  # whose death decides again
    WATCH_CONTAINER = "watch_container"
    AWAIT_HANDSHAKE = "await_handshake"  # adopted if it lands in time, else decided again


class Facts(NamedTuple):
    kind: StateKind  # never Exited: settled records leave the registry
    exit: ExitFact
    monitor: Proc
    container: Proc
    coupled: bool
    restart: bool  # the spec's restart_on_monitor_loss
    at_start: bool  # reconcile, rather than a watch or a handshake


def decide(facts: Facts) -> tuple[Step, ...]:
    """What to do with a record, in order: every fate decision for a record
    in the registry is made here, from facts the daemon gathers from the
    exit file and /proc, and the daemon only applies the steps.

    The exit file is the truth. A decoupled or lazy start adopts every live
    container and loses none, and deciding again after the steps changes
    nothing. A coupled start kills whatever ran and reboots what was not
    stopping, the baseline that mode emulates."""
    kind = facts.kind
    if facts.exit is ExitFact.CORRUPT:
        if kind in (StateKind.CREATED, StateKind.RUNNING):
            return (Step.QUARANTINE, Step.LOSE)  # no truth to settle with
        return (Step.QUARANTINE, *decide(facts._replace(exit=ExitFact.ABSENT)))
    if facts.exit is not ExitFact.ABSENT:
        # A code exit of a Paused record proves its group was resumed out
        # of band and ran to completion; it takes the legal path.
        if kind is StateKind.PAUSED and facts.exit is ExitFact.CODE:
            return (Step.MARK_RUNNING, Step.SETTLE)
        return (Step.SETTLE,)
    if kind is StateKind.LOST:
        return ()
    if kind is StateKind.CREATED:
        # Its launch's handshake never landed; a monitor whose launching
        # daemon died first keeps retrying it.
        return (Step.AWAIT_HANDSHAKE,) if facts.at_start and not facts.coupled else (Step.LOSE,)
    if facts.coupled and facts.at_start:
        return (Step.SETTLE_UNKNOWN if kind is StateKind.STOPPING else Step.REBOOT,)
    grace = (Step.REARM_GRACE,) if kind is StateKind.STOPPING and facts.at_start else ()
    if facts.monitor in _ALIVE:
        # Adopted: the record follows its group's /proc state, and the
        # monitor's exit file will settle it.
        if kind is StateKind.RUNNING and facts.container is Proc.STOPPED:
            return (Step.MARK_PAUSED, Step.WATCH_MONITOR)
        if kind is StateKind.PAUSED and facts.container is Proc.RUNNING:
            return (Step.MARK_RUNNING, Step.WATCH_MONITOR)
        return (*grace, Step.WATCH_MONITOR)
    # The monitor is gone without an exit file.
    if facts.container not in _ALIVE:
        return (Step.SETTLE_UNKNOWN,)
    if kind is StateKind.RUNNING:
        return (Step.REBOOT if facts.restart else Step.SETTLE_UNKNOWN,)
    # Stopping: the grace timer owns the group's fate. Paused: the commit of
    # an unpause decides again. Until then the group's death settles it.
    return (*grace, Step.WATCH_CONTAINER)


def _probe(identity: ProcessIdentity | None) -> Proc:
    if identity is None:
        return Proc.NONE
    state = sandbox.state_of(identity)
    if state is None:
        return Proc.DEAD
    return Proc.STOPPED if state == "T" else Proc.RUNNING


class Daemon:
    def __init__(self, config: DaemonConfig):
        self.config = config
        self.layout = resolve_layout(config.state_root)
        self.identity = sandbox.current_identity()
        # Every record that can still change. An Exited one leaves for disk:
        # settled_count says how many there are.
        self.records: dict[str, ContainerRecord] = {}
        self.settled_count = 0
        self._index_fd: int | None = None
        self.restore_ms: float | None = None
        self.serving_since_ms: int | None = None
        self._lock_fd: int | None = None
        self._waiters: dict[str, list[asyncio.Future[ContainerRecord]]] = {}
        # container id -> (launch token, future for the Launched handshake)
        self._pending_launch: dict[str, tuple[str, asyncio.Future[dict[str, Any]]]] = {}
        self._no_launch_pending = asyncio.Event()
        self._no_launch_pending.set()
        self._coupled_release: dict[str, threading.Event] = {}
        # container id -> the process whose death runs the record's
        # supervision check, and a pidfd on it
        self._watches: dict[str, tuple[ProcessIdentity, int]] = {}
        self._bg_tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._shutdown: asyncio.Event | None = None
        self._exit_wake: asyncio.Event | None = None

    # -- lifecycle ------------------------------------------------------------

    async def serve(self, *, ready: asyncio.Event | None = None) -> None:
        """Run until a shutdown signal or the shutdown op arrives.

        Raises AlreadyRunning if another live daemon holds the state dir.
        """
        loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._exit_wake = asyncio.Event()
        server: asyncio.AbstractServer | None = None
        loop_tasks: list[asyncio.Task] = []

        restore_t0 = time.perf_counter()
        # Each child is reaped through its own pidfd. An ignored SIGCHLD,
        # inherited from whoever started this process, would have the
        # kernel reap them first and leave nothing to wait for.
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        self._acquire_lock()
        try:
            # Reconcile. A copy: settling a record takes it out of self.records.
            self._restore_registry()
            reboots = [r for r in list(self.records.values()) if self._supervise(r, at_start=True)]

            # Handlers go in before the pid file is (re)written: a monitor
            # that reads the fresh pid must never signal a handlerless
            # process (an unhandled real-time signal is fatal).
            loop.add_signal_handler(EXIT_NOTIFY, self._exit_wake.set)
            loop.add_signal_handler(signal.SIGTERM, self._shutdown.set)
            loop.add_signal_handler(signal.SIGINT, self._shutdown.set)
            write_pid_file(self.layout.daemon_pid, self.identity)

            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.layout.daemon_sock)
            server = await asyncio.start_unix_server(
                self._on_connection,
                path=str(self.layout.daemon_sock),
                limit=MAX_MESSAGE_BYTES,
            )
            os.chmod(self.layout.daemon_sock, 0o600)

            for record in reboots:
                await self._relaunch(record)
            self.restore_ms = (time.perf_counter() - restore_t0) * 1000.0

            loop_tasks.append(asyncio.create_task(self._ingest_loop()))
            self.serving_since_ms = now_ms()
            log.info(
                "serving %s mode=%s restore_ms=%.1f records=%d",
                self.layout.root,
                self.config.mode.value,
                self.restore_ms,
                len(self.records) + self.settled_count,
            )
            if ready is not None:
                ready.set()

            await self._shutdown.wait()

            log.info("shutting down")
            await self._land_launches()
            if self.config.mode is SupervisionMode.COUPLED:
                # Containers die with the daemon. Records stay as they are on
                # disk, so the next start sees them running and reboots them.
                for record in self.records.values():
                    if record.state.kind in _LIVE_KINDS:
                        self._kill_supervision(record)
        finally:
            try:
                await self._teardown(loop, server, loop_tasks)
            finally:
                if self._index_fd is not None:
                    os.close(self._index_fd)
                    self._index_fd = None
                self._release_lock()

    async def _land_launches(self) -> None:
        """Let launches in flight finish, bounded by the handshake timeout.

        A launch cancelled mid-handshake would leave its container running
        under a record that never learned its identities, where no command
        reaches it; landed, the record commits them and the next daemon
        adopts the container. The server keeps serving meanwhile, since the
        handshakes arrive over it.
        """
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                self._no_launch_pending.wait(),
                timeout=_HANDSHAKE_TIMEOUT_MS / 1000.0,
            )

    async def _teardown(
        self,
        loop: asyncio.AbstractEventLoop,
        server: asyncio.AbstractServer | None,
        loop_tasks: list[asyncio.Task],
    ) -> None:
        """Stop serving; safe against partial startup and cancellation."""
        # Before the first await: coupled shutdown has just killed every
        # monitor, and those records must stay on disk as they are.
        for container_id in list(self._watches):
            self._unwatch(container_id)
        if server is not None:
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
        doomed = [*loop_tasks, *self._bg_tasks, *self._conn_tasks]
        for task in doomed:
            task.cancel()
        if doomed:
            await asyncio.gather(*doomed, return_exceptions=True)
        for sig in (EXIT_NOTIFY, signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(ValueError, RuntimeError):
                loop.remove_signal_handler(sig)
        if server is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.layout.daemon_sock)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.layout.daemon_pid)

    def _acquire_lock(self) -> None:
        fd = os.open(self.layout.lock_file, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            # POSIX record lock: dies with this process and is not inherited
            # across fork, so monitor launches can never pin a dead daemon's
            # lock and block the next daemon.
            fcntl.lockf(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            owner = ""
            try:
                identity = read_pid_file(self.layout.daemon_pid)
                owner = f" (pid {identity.pid})"
            except Exception:
                pass
            raise AlreadyRunning(
                f"another daemon holds {self.layout.root}{owner}"
            ) from None
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode())
        self._lock_fd = fd

    def _release_lock(self) -> None:
        if self._lock_fd is not None:
            with contextlib.suppress(OSError):
                os.close(self._lock_fd)
            self._lock_fd = None

    # -- reconciliation ---------------------------------------------------------

    def _restore_registry(self) -> None:
        """Load the records that can change and open the settled index.

        A settled record whose index line names its record file as it is on
        disk costs one stat. Every other record is loaded and checked as a
        record file always is, and an Exited one is indexed again.
        """
        self.records.clear()
        load, trusted = self._scan_in_child()
        fresh: list[str] = []  # index lines the file lacks
        for name in load:
            path = f"{self.layout.containers_dir}/{name}/record.json"
            record = self._read_record(name, path)
            if record is None:
                continue
            if record.state.kind is StateKind.EXITED:
                fresh.append(settled_line(name, os.stat(path)))
            else:
                self.records[name] = record
        self.settled_count = trusted + len(fresh)
        self._index_fd = os.open(
            self.layout.settled_index,
            os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_CLOEXEC,
            0o600,
        )
        self._append_index("".join(fresh))

    def _scan_in_child(self) -> tuple[list[str], int]:
        """_scan, run in a forked child that reports back over a pipe.

        The scan makes a few objects per settled record. Freed, they would
        still leave their pages dirty in this heap, which every monitor
        forked from it inherits; the child takes them with it.
        """
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(rfd)
                load, trusted = self._scan()
                with open(wfd, "wb") as out:
                    out.write(encode_message({"load": load, "trusted": trusted}))
            except Exception:
                log.exception("state dir scan failed")
            finally:
                os._exit(0)
        reap(pid)  # off the restart path, once the loop runs
        os.close(wfd)
        # Read to EOF, which comes once the child has written.
        with open(rfd, "rb") as pipe:
            data = pipe.read()
        try:
            reply = decode_message(data)
            return list(reply["load"]), int(reply["trusted"])
        except (MessageFormatError, KeyError, TypeError, ValueError):
            raise HydraError(f"state dir scan of {self.layout.root} failed") from None

    def _scan(self) -> tuple[list[str], int]:
        """Find the record files to load; returns their ids, in order, and
        how many settled records the index vouches for.

        The index is rewritten when it is missing or corrupt, or when it
        holds more dead lines (ids gone, files replaced since) than trusted
        ones. Exit files of ids without a record file are quarantined.
        """
        index = read_settled_index(self.layout.settled_index)
        identities, index_lines = index if index is not None else ({}, 0)
        containers = str(self.layout.containers_dir)
        listed: set[str] = set()
        load: list[str] = []
        lines: list[str] = []  # the trusted lines
        for name in os.listdir(containers):
            path = f"{containers}/{name}/record.json"
            try:
                st = os.stat(path)
            except OSError:
                continue
            if not stat.S_ISREG(st.st_mode):
                continue
            listed.add(name)
            if identities.get(name) == settled_identity(st):
                lines.append(settled_line(name, st))
            else:
                load.append(name)
        if index is None or index_lines - len(lines) > len(lines):
            atomic_write_bytes(self.layout.settled_index, "".join(lines).encode())
        with contextlib.suppress(OSError):
            for name in os.listdir(self.layout.exits_dir):
                container_id = name.removesuffix(".exit")
                if name.endswith(".exit") and container_id not in listed:
                    log.warning("exit file for unknown container %s", container_id)
                    self._quarantine(self.layout.exits_dir / name, "unknown")
        return sorted(load), len(lines)

    def _read_record(self, container_id: str, path: str) -> ContainerRecord | None:
        """Load and check one record file; a corrupt one is quarantined."""
        try:
            record = load_record(path)
            if record.id != container_id:
                raise RecordFormatError(
                    f"record id {record.id!r} does not match directory {container_id!r}"
                )
        except RecordFormatError as exc:
            log.warning("quarantining %s: %s", path, exc)
            self._quarantine(Path(path), "corrupt")
            return None
        return record

    def _load_settled(self, container_id: str) -> ContainerRecord | None:
        """A settled record, read from its file; None if there is none."""
        if not is_container_id(container_id):
            return None
        try:
            record = self._read_record(
                container_id, str(self.layout.record_path(container_id))
            )
        except OSError:
            return None
        if record is None:  # quarantined: no longer on disk
            self.settled_count -= 1
        elif record.state.kind is StateKind.EXITED:
            return record
        return None

    def _kill_supervision(self, record: ContainerRecord) -> None:
        """SIGKILL the monitor first (so no exit file appears), then the group."""
        if record.monitor is not None and sandbox.is_alive(record.monitor):
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(record.monitor.pid, signal.SIGKILL)
        if record.container is not None and sandbox.is_alive(record.container):
            sandbox.signal_group(record.container.pid, signal.SIGKILL)

    # -- persistence ------------------------------------------------------------

    def _commit(self, record: ContainerRecord) -> None:
        """Persist record and file it. An Exited one leaves the registry and
        is indexed; any other keeps its watch: one iff the record is live,
        on its monitor unless the last supervision check chose otherwise."""
        path = dump_record(self.layout, record)
        if record.state.kind is StateKind.EXITED:
            self._unwatch(record.id)
            if self.records.pop(record.id, None) is not None:
                self.settled_count += 1
            self._append_index(settled_line(record.id, os.stat(path)))
            return
        self.records[record.id] = record
        watch = self._watches.get(record.id)
        if record.state.kind not in _LIVE_KINDS:
            self._unwatch(record.id)
        elif record.monitor is not None and (watch is None or watch[0] != record.monitor):
            self._watch(record.id, record.monitor)

    def _finish(
        self,
        record: ContainerRecord,
        state: ContainerState,
        *,
        at_ms: int | None = None,
        unknown: bool = False,
    ) -> None:
        """Move a record to Exited, persist, and wake everything waiting."""
        record.advance(state, at_ms=at_ms)
        record.exit_unknown = unknown
        self._commit(record)
        for future in self._waiters.pop(record.id, []):
            if not future.done():
                future.set_result(record)
        release = self._coupled_release.pop(record.id, None)
        if release is not None:
            release.set()

    def _append_index(self, lines: str) -> None:
        # Not fsynced, as record files are not: a lost line costs the next
        # start one record load.
        if lines and self._index_fd is not None:
            with contextlib.suppress(OSError):
                os.write(self._index_fd, lines.encode())

    def _quarantine(self, path: Path, reason: str) -> None:
        with contextlib.suppress(OSError):
            os.replace(path, path.with_name(f"{path.name}.{reason}"))

    # -- exit ingestion -----------------------------------------------------------

    async def _ingest_loop(self) -> None:
        assert self._exit_wake is not None
        while True:
            self._ingest_exits()
            await self._exit_wake.wait()
            self._exit_wake.clear()

    def _ingest_exits(self) -> None:
        """Settle every not-yet-Exited record whose exit file is present.

        The doorbell signal coalesces under load, so one wake must always
        process everything present. Settled records are not in the registry,
        so a wake scales with the records still to settle, not the history.
        """
        for record in list(self.records.values()):
            if self.layout.exit_path(record.id).is_file() and self._supervise(record):
                self._spawn(self._relaunch(record))

    # -- supervision ----------------------------------------------------------------

    def _supervise(self, record: ContainerRecord, *, at_start: bool = False) -> bool:
        """Gather a record's facts, decide, and apply the steps; True means
        reboot it: the record stays Running with no identities, and the
        caller relaunches it. Runs for every record at reconcile, and for a
        record whose watch fires, whose exit file appears or whose late
        handshake lands."""
        # Probed before the exit file is read: a monitor dead by then has
        # written any exit file it ever will.
        monitor, container = _probe(record.monitor), _probe(record.container)
        path = self.layout.exit_path(record.id)
        try:
            report = read_exit_report(path)
            if report.container_id != record.id:
                raise ExitFormatError(f"exit file {path.name} reports id {report.container_id}")
            found = ExitFact.CODE if report.exit_code is not None else ExitFact.SIGNAL
        except FileNotFoundError:
            found = ExitFact.ABSENT
        except (ExitFormatError, OSError) as exc:
            log.warning("quarantining %s: %s", path, exc)
            found = ExitFact.CORRUPT
        coupled = self.config.mode is SupervisionMode.COUPLED
        restart = record.spec.restart_on_monitor_loss
        facts = Facts(record.state.kind, found, monitor, container, coupled, restart, at_start)
        for step in decide(facts):
            if step is Step.SETTLE:
                self._finish(record, report.state(), at_ms=report.finished_at)
            elif step is Step.QUARANTINE:
                self._quarantine(path, "corrupt")
            elif step is Step.LOSE:
                self._lose(record)
            elif step is Step.MARK_RUNNING or step is Step.MARK_PAUSED:
                running = step is Step.MARK_RUNNING
                record.advance(ContainerState.running() if running else ContainerState.paused())
                self._commit(record)
            elif step is Step.REARM_GRACE:
                self._arm_grace_timer(record.id, record.spec.stop_grace_ms)
            elif step is Step.WATCH_MONITOR or step is Step.WATCH_CONTAINER:
                watched = record.monitor if step is Step.WATCH_MONITOR else record.container
                self._watch(record.id, watched)
            elif step is Step.AWAIT_HANDSHAKE:
                self._spawn(self._await_handshake(record))
            else:  # SETTLE_UNKNOWN or REBOOT: what still lives dies first
                if container in _ALIVE and not (coupled and at_start):
                    what = "rebooting container" if step is Step.REBOOT else "killing (restart disabled)"
                    log.warning("monitor lost for %s; %s", record.id, what)
                self._kill_supervision(record)
                if step is Step.SETTLE_UNKNOWN:
                    self._finish(record, ContainerState.exited(signal=int(signal.SIGKILL)), unknown=True)
                    continue
                if record.state.kind is StateKind.PAUSED:
                    record.advance(ContainerState.running())
                record.restart_count += 1
                record.monitor = record.container = None
                return True
        return False

    async def _await_handshake(self, record: ContainerRecord) -> None:
        """Give a Created record's monitor the handshake timeout to report
        in (see _op_launched), then decide again."""
        await asyncio.sleep(_HANDSHAKE_TIMEOUT_MS / 1000.0)
        # Not a later launch of the same record, after it went Lost.
        if record.state.kind is StateKind.CREATED and record.id not in self._pending_launch:
            self._supervise(record)

    def _watch(self, container_id: str, identity: ProcessIdentity) -> None:
        """Make the record's one watch wait on identity's process: its death
        runs the supervision check (at once if it is already gone)."""
        self._unwatch(container_id)
        with contextlib.suppress(ProcessLookupError):
            fd = os.pidfd_open(identity.pid)
            # Checked after the open, so a reused pid cannot slip in.
            if sandbox.is_alive(identity):
                self._watches[container_id] = (identity, fd)
                asyncio.get_running_loop().add_reader(fd, self._fire, container_id)
                return
            os.close(fd)
        self._fire(container_id)

    def _unwatch(self, container_id: str) -> None:
        watch = self._watches.pop(container_id, None)
        if watch is not None:
            asyncio.get_running_loop().remove_reader(watch[1])
            os.close(watch[1])

    def _fire(self, container_id: str) -> None:
        # A pidfd stays readable once its process is dead: drop it first.
        self._unwatch(container_id)
        self._spawn(self._check(container_id))

    async def _check(self, container_id: str) -> None:
        record = self.records.get(container_id)
        # A live record without a monitor has a relaunch queued or in flight.
        if record is None or record.state.kind not in _LIVE_KINDS or record.monitor is None:
            return
        if self._supervise(record):
            await self._relaunch(record)

    def _spawn(self, coro: Any) -> None:
        task = asyncio.create_task(coro)
        self._bg_tasks.add(task)
        task.add_done_callback(self._bg_tasks.discard)

    async def _relaunch(self, record: ContainerRecord) -> None:
        """Launch a fresh supervision tree for a record; failing, it goes Lost."""
        outcome = await self._launch(record)
        if outcome is not None:
            log.warning("relaunch of %s failed: %s", record.id, outcome.detail)
            self._lose(record)

    def _lose(self, record: ContainerRecord) -> None:
        """Mark record Lost where the state machine allows it."""
        try:
            record.advance(ContainerState.lost())
        except IllegalTransition:
            return
        self._commit(record)
        self._wake_lost(record)

    def _wake_lost(self, record: ContainerRecord) -> None:
        """A Lost record may never exit; fail its waiters honestly."""
        for future in self._waiters.pop(record.id, []):
            if not future.done():
                future.set_exception(ApiError("lost", f"{record.id} is lost"))

    # -- launching ---------------------------------------------------------------

    async def _launch(self, record: ContainerRecord) -> ApiError | None:
        """Fork a monitor for record and wait for its Launched handshake.

        On success: identities recorded, Created records advanced to
        Running, record persisted; returns None. On failure: returns the
        ApiError; the caller decides the record's fate (fresh runs report
        the spawn status, relaunches go Lost).
        """
        loop = asyncio.get_running_loop()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.layout.exit_path(record.id))
        token = os.urandom(8).hex()
        launched: asyncio.Future[dict[str, Any]] = loop.create_future()
        self._pending_launch[record.id] = (token, launched)
        self._no_launch_pending.clear()
        err_fd: int | None = None
        try:
            child_pid, err_fd = fork_monitor(
                record.id, self.layout, self.config.mode, record.spec, token
            )
            # Reaps the direct child whenever it dies, after this returns
            # too: P1 in decoupled mode, the monitor itself otherwise.
            forked = reap(child_pid)
            done, _ = await asyncio.wait(
                {launched, forked},
                timeout=_HANDSHAKE_TIMEOUT_MS / 1000.0,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if launched in done:
                self._land(record, launched.result())
                return None
            if forked in done:
                status = forked.result()
                detail = read_spawn_failure(err_fd) or "monitor died at launch"
                code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else 126
                return ApiError("spawn_error", detail, exit_code=code or 126)
            # Timeout: the forked child is still out there; kill the direct
            # child (harmless post-handshake in decoupled mode, where it is
            # already gone) and let a late handshake be scavenged.
            with contextlib.suppress(ProcessLookupError):
                os.kill(child_pid, signal.SIGKILL)
            return ApiError(
                "handshake_timeout",
                f"monitor for {record.id} did not report within "
                f"{_HANDSHAKE_TIMEOUT_MS} ms",
            )
        finally:
            self._pending_launch.pop(record.id, None)
            if not self._pending_launch:
                self._no_launch_pending.set()
            if err_fd is not None:
                os.close(err_fd)

    def _land(self, record: ContainerRecord, message: dict[str, Any]) -> None:
        """Commit the identities a launch's handshake reports."""
        record.monitor = ProcessIdentity.from_dict(message["monitor"])
        record.container = ProcessIdentity.from_dict(message["container"])
        record.started_at = now_ms()
        if record.state.kind is StateKind.CREATED:
            record.advance(ContainerState.running())
        self._commit(record)
        self._start_coupled_waiter(record.id)

    def _start_coupled_waiter(self, container_id: str) -> None:
        """Coupled emulation: one blocking wait-thread per running container,
        holding per-container context, exactly the per-container daemon cost
        the other modes exist to avoid."""
        if self.config.mode is not SupervisionMode.COUPLED:
            return
        if container_id in self._coupled_release:
            return
        release = threading.Event()
        self._coupled_release[container_id] = release
        context = bytearray(os.urandom(WAITER_CONTEXT_BYTES))

        def wait_for_exit(held: bytearray = context) -> None:
            release.wait()
            del held

        thread = threading.Thread(
            target=wait_for_exit, name=f"wait-{container_id[:8]}", daemon=True
        )
        thread.start()

    # -- request dispatch ----------------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.create_task(self._serve_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = decode_message(await reader.readline())
            except (MessageFormatError, ValueError) as exc:  # ValueError: over the limit
                await self._reply(writer, {"ok": False, "error": "bad_message", "detail": str(exc)})
                return
            op = str(request.get("op", ""))
            handler = getattr(self, f"_op_{op}", None)
            if handler is None or op.startswith("_"):
                await self._reply(writer, {"ok": False, "error": "unknown_op", "detail": op})
                return
            try:
                # wait parks until an exit; its client hanging up ends it too
                response = await (
                    handler(request, reader) if op == "wait" else handler(request)
                )
            except ApiError as exc:
                response = {"ok": False, "error": exc.code, "detail": exc.detail}
            except (InvalidSpec, IllegalTransition) as exc:
                response = {"ok": False, "error": "invalid_request", "detail": str(exc)}
            except Exception:
                log.exception("op %s failed", op)
                response = {"ok": False, "error": "internal", "detail": op}
            await self._reply(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if not writer.is_closing():
                writer.close()

    async def _reply(self, writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
        writer.write(encode_message(payload))
        with contextlib.suppress(ConnectionError):
            await writer.drain()

    def _get(self, request: dict[str, Any]) -> ContainerRecord:
        container_id = str(request.get("id", ""))
        record = self.records.get(container_id) or self._load_settled(container_id)
        if record is None:
            raise ApiError("not_found", f"no container {container_id!r}")
        return record

    def _settled(self, request: dict[str, Any]) -> ContainerRecord:
        """Like _get, but refuses records whose launch is still in flight;
        until the handshake lands there is no process group to act on."""
        record = self._get(request)
        if record.id in self._pending_launch:
            raise ApiError(
                "launch_in_flight", f"{record.id} is still being launched"
            )
        return record

    def _summary(self, record: ContainerRecord) -> dict[str, Any]:
        return {
            "id": record.id,
            "state": record.state.kind.value,
            "exit_code": record.state.exit_code,
            "term_signal": record.state.term_signal,
            "exit_unknown": record.exit_unknown,
            "pid": record.container.pid if record.container else None,
            "start_ticks": record.container.start_ticks if record.container else None,
            "monitor_pid": record.monitor.pid if record.monitor else None,
            "restart_count": record.restart_count,
            "command": list(record.spec.command),
            "mode": record.mode.value,
            "created_at": record.created_at,
            "started_at": record.started_at,
            "finished_at": record.finished_at,
        }

    # -- ops: lifecycle -------------------------------------------------------------

    async def _op_run(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            spec = ContainerSpec.from_dict(request.get("spec") or {})
        except (InvalidSpec, KeyError, TypeError, ValueError) as exc:
            raise ApiError("invalid_spec", str(exc)) from None
        container_id = request.get("id") or new_container_id()
        if not is_container_id(container_id):
            raise ApiError("invalid_id", f"{container_id!r} is not a container id")
        if container_id in self.records or self.layout.record_path(container_id).exists():
            raise ApiError("id_in_use", container_id)
        record = ContainerRecord(
            id=container_id,
            spec=spec,
            mode=self.config.mode,
            created_at=now_ms(),
        )
        self._commit(record)
        return await self._launch_or_settle(record)

    async def _launch_or_settle(self, record: ContainerRecord) -> dict[str, Any]:
        """Launch a Created record and build the run reply; on failure the
        record settles (a spawn failure as its exit, anything else Lost)
        and the failure is raised."""
        failure = await self._launch(record)
        if failure is not None:
            if failure.code == "spawn_error":
                self._finish(record, ContainerState.exited(code=failure.exit_code or 126))
            else:
                self._lose(record)
            raise failure
        assert record.container is not None and record.monitor is not None
        return {
            "ok": True,
            "id": record.id,
            "pid": record.container.pid,
            "monitor_pid": record.monitor.pid,
            "monitor_sock": str(self.layout.monitor_sock(record.id)),
        }

    async def _op_start(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._settled(request)
        if record.state.kind not in (StateKind.EXITED, StateKind.LOST):
            raise ApiError(
                "invalid_state", f"{record.id} is {record.state.kind.value}"
            )
        if record.id not in self.records:
            self.settled_count -= 1  # a settled record comes back
        record.reset_for_relaunch()
        self._commit(record)
        return await self._launch_or_settle(record)

    async def _op_restart(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._settled(request)
        grace_ms = self._grace_ms(request, record)
        if record.state.kind is StateKind.PAUSED:
            # a fully stopped group ignores SIGTERM; resume it first
            self._signal_record(record, signal.SIGCONT)
            record.advance(ContainerState.running())
            self._commit(record)
        if record.state.kind is StateKind.RUNNING:
            self._begin_stop(record, grace_ms)
        if record.state.kind is StateKind.STOPPING:
            await self._await_exit(record, timeout_s=grace_ms / 1000.0 + 10.0)
        return await self._op_start({"op": "start", "id": record.id})

    async def _op_stop(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._settled(request)
        grace_ms = self._grace_ms(request, record)
        kind = record.state.kind
        if kind is StateKind.EXITED:
            return {"ok": True, "id": record.id, "already": "exited"}
        if kind is StateKind.STOPPING:
            self._signal_record(record, signal.SIGTERM)
            return {"ok": True, "id": record.id, "already": "stopping"}
        if kind is not StateKind.RUNNING:
            raise ApiError("invalid_state", f"{record.id} is {kind.value}")
        self._begin_stop(record, grace_ms)
        return {"ok": True, "id": record.id}

    @staticmethod
    def _grace_ms(request: dict[str, Any], record: ContainerRecord) -> int:
        grace_ms = request.get("grace_ms")  # 0 is a valid grace: kill at once
        if grace_ms is None:
            return record.spec.stop_grace_ms
        if type(grace_ms) is not int or grace_ms < 0:
            raise ApiError("invalid_request", f"grace_ms must be an integer >= 0, got {grace_ms!r}")
        return grace_ms

    def _begin_stop(self, record: ContainerRecord, grace_ms: int) -> None:
        record.advance(ContainerState.stopping())
        self._commit(record)
        self._signal_record(record, signal.SIGTERM)
        self._arm_grace_timer(record.id, grace_ms)

    def _arm_grace_timer(self, container_id: str, grace_ms: int) -> None:
        async def enforce() -> None:
            await asyncio.sleep(grace_ms / 1000.0)
            record = self.records.get(container_id)
            if record is not None and record.state.kind is StateKind.STOPPING:
                if record.container is not None and sandbox.is_alive(record.container):
                    sandbox.signal_group(record.container.pid, signal.SIGKILL)

        self._spawn(enforce())

    async def _op_kill(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._settled(request)
        kind = record.state.kind
        if kind is StateKind.EXITED:
            return {"ok": True, "id": record.id, "already": "exited"}
        if kind is not StateKind.CREATED and record.container is not None:
            # A group that is gone may have its pid reused: a Lost record's,
            # for one, went Lost over a corrupt exit file.
            if sandbox.is_alive(record.container):
                sandbox.signal_group(record.container.pid, signal.SIGKILL)
            return {"ok": True, "id": record.id}
        raise ApiError("invalid_state", f"{record.id} is {kind.value}")

    async def _op_pause(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._settled(request)
        if record.state.kind is not StateKind.RUNNING:
            raise ApiError("invalid_state", f"{record.id} is {record.state.kind.value}")
        self._signal_record(record, signal.SIGSTOP)
        record.advance(ContainerState.paused())
        self._commit(record)
        return {"ok": True, "id": record.id}

    async def _op_unpause(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._settled(request)
        if record.state.kind is not StateKind.PAUSED:
            raise ApiError("invalid_state", f"{record.id} is {record.state.kind.value}")
        self._signal_record(record, signal.SIGCONT)
        record.advance(ContainerState.running())
        self._commit(record)
        return {"ok": True, "id": record.id}

    async def _op_signal(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._settled(request)
        if record.state.kind not in _LIVE_KINDS:
            raise ApiError("invalid_state", f"{record.id} is {record.state.kind.value}")
        signum = request.get("signum")
        if type(signum) is not int or not 0 < signum < signal.NSIG:
            raise ApiError("invalid_request", f"bad signal number {signum!r}")
        delivered = (
            sandbox.signal_group(record.container.pid, signum)
            if record.container is not None
            else False
        )
        return {"ok": True, "id": record.id, "delivered": delivered}

    def _signal_record(self, record: ContainerRecord, signum: int) -> None:
        if record.container is None:
            raise ApiError("signal_failure", f"{record.id} has no process group")
        sandbox.signal_group(record.container.pid, signum)

    async def _op_rm(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._settled(request)
        if record.state.kind not in (StateKind.EXITED, StateKind.LOST):
            raise ApiError("rm_running", f"{record.id} is {record.state.kind.value}")
        # A settled id's index line is left behind: without its record file
        # it is dead, and the next rewrite drops it.
        if self.records.pop(record.id, None) is None:
            self.settled_count -= 1
        self._wake_lost(record)
        for path in (
            self.layout.exit_path(record.id),
            self.layout.log_path(record.id),
            self.layout.record_path(record.id),
            self.layout.monitor_sock(record.id),
        ):
            with contextlib.suppress(OSError):
                os.unlink(path)
        with contextlib.suppress(OSError):
            os.rmdir(self.layout.container_dir(record.id))
        # Last: the id is free again by now, and a run reusing it keeps what
        # it makes meanwhile.
        if record.state.kind is StateKind.EXITED and record.monitor is not None:
            await self._end_grace(record.monitor)
        return {"ok": True, "id": record.id}

    async def _end_grace(self, monitor: ProcessIdentity) -> None:
        """Kill an exited container's monitor if it is still answering late
        clients, and wait until it is gone: rm leaves no process behind."""
        loop = asyncio.get_running_loop()
        with contextlib.suppress(ProcessLookupError):
            fd = os.pidfd_open(monitor.pid)
            try:
                # Checked after the open, so a reused pid cannot slip in.
                if sandbox.is_alive(monitor):
                    signal.pidfd_send_signal(fd, signal.SIGKILL)
                    gone = loop.create_future()
                    loop.add_reader(fd, lambda: gone.done() or gone.set_result(None))
                    try:
                        await asyncio.wait_for(gone, timeout=1.0)
                    except asyncio.TimeoutError:
                        log.warning("monitor %d outlived its SIGKILL", monitor.pid)
                    finally:
                        loop.remove_reader(fd)
            finally:
                os.close(fd)

    # -- ops: observation --------------------------------------------------------

    async def _op_ps(self, request: dict[str, Any]) -> dict[str, Any]:
        """Every container's summary, in id order, settled ones read from
        their record files. With `limit`, one page of at most that many
        containers, starting after the id `after`; its `next` names the id
        to continue after, None on the last page."""
        limit = request.get("limit")
        if limit is not None and (type(limit) is not int or limit <= 0):
            raise ApiError("invalid_request", f"limit must be a positive integer, got {limit!r}")
        ids = sorted(self.records.keys() | set(os.listdir(self.layout.containers_dir)))
        after = request.get("after")
        if after is not None:
            ids = ids[bisect.bisect_right(ids, str(after)) :]
        page = ids if limit is None else ids[:limit]
        rows = []
        for container_id in page:
            record = self.records.get(container_id) or self._load_settled(container_id)
            if record is not None:
                rows.append(self._summary(record))
        reply: dict[str, Any] = {"ok": True, "containers": rows}
        if limit is not None:
            reply["next"] = page[-1] if len(page) < len(ids) else None
        return reply

    async def _op_status(self, request: dict[str, Any]) -> dict[str, Any]:
        counts: dict[str, int] = {}
        for record in self.records.values():
            counts[record.state.kind.value] = counts.get(record.state.kind.value, 0) + 1
        if self.settled_count:
            counts[StateKind.EXITED.value] = self.settled_count
        return {
            "ok": True,
            "pid": self.identity.pid,
            "mode": self.config.mode.value,
            "state_dir": str(self.layout.root),
            # None while startup reboots are still in flight (the socket
            # serves early because relaunch handshakes arrive over it).
            "restore_ms": self.restore_ms,
            "uptime_ms": (
                now_ms() - self.serving_since_ms if self.serving_since_ms else 0
            ),
            "containers": counts,
        }

    async def _op_wait(
        self, request: dict[str, Any], reader: asyncio.StreamReader
    ) -> dict[str, Any]:
        record = self._get(request)
        if record.state.kind is not StateKind.EXITED:
            hangup = asyncio.create_task(drain_until_eof(reader))
            try:
                exited = await self._exited(record, until=hangup)
            finally:
                hangup.cancel()
            if exited is None:
                raise ConnectionError("client hung up")
            record = exited
        return {
            "ok": True,
            "id": record.id,
            "exit_code": record.state.exit_code,
            "term_signal": record.state.term_signal,
            "exit_unknown": record.exit_unknown,
            "finished_at": record.finished_at,
            "restart_count": record.restart_count,
        }

    def _live_record(self, request: dict[str, Any]) -> ContainerRecord:
        record = self._settled(request)
        if record.state.kind not in _LIVE_KINDS or record.container is None:
            raise ApiError("not_running", f"{record.id} is {record.state.kind.value}")
        return record

    async def _op_top(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._live_record(request)
        assert record.container is not None
        sample = sandbox.sample_proc(record.container.pid)
        return {
            "ok": True,
            "id": record.id,
            "sampled_at": sample.sampled_at,
            "processes": [
                {
                    "pid": row.pid,
                    "ppid": row.ppid,
                    "command": row.command,
                    "cpu_ticks": row.cpu_ticks,
                    "rss_bytes": row.rss_bytes,
                }
                for row in sample.rows
            ],
        }

    async def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._live_record(request)
        assert record.container is not None
        pid = record.container.pid
        first = sandbox.sample_proc(pid)
        await asyncio.sleep(0.5)
        second = sandbox.sample_proc(pid)
        ticks0 = sum(row.cpu_ticks for row in first.rows)
        ticks1 = sum(row.cpu_ticks for row in second.rows)
        elapsed_s = max((second.sampled_at - first.sampled_at) / 1000.0, 1e-3)
        clk_tck = os.sysconf("SC_CLK_TCK")
        cpu_percent = max(ticks1 - ticks0, 0) / clk_tck / elapsed_s * 100.0
        return {
            "ok": True,
            "id": record.id,
            "cpu_percent": round(cpu_percent, 2),
            "rss_bytes": sum(row.rss_bytes for row in second.rows),
            "processes": len(second.rows),
            "sampled_at": [first.sampled_at, second.sampled_at],
        }

    async def _op_logs(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._get(request)
        if record.monitor is not None and sandbox.is_alive(record.monitor):
            return {
                "ok": True,
                "id": record.id,
                "route": "monitor",
                "monitor_sock": str(self.layout.monitor_sock(record.id)),
            }
        return {
            "ok": True,
            "id": record.id,
            "route": "file",
            "log_path": str(self.layout.log_path(record.id)),
        }

    async def _op_attach(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._live_record(request)
        self._require_monitor(record)
        return {
            "ok": True,
            "id": record.id,
            "monitor_sock": str(self.layout.monitor_sock(record.id)),
        }

    async def _op_exec(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._get(request)
        if record.state.kind is not StateKind.RUNNING:
            raise ApiError("not_running", f"{record.id} is {record.state.kind.value}")
        self._require_monitor(record)
        return {
            "ok": True,
            "id": record.id,
            "monitor_sock": str(self.layout.monitor_sock(record.id)),
        }

    def _require_monitor(self, record: ContainerRecord) -> None:
        if record.monitor is None or not sandbox.is_alive(record.monitor):
            raise ApiError(
                "not_running", f"monitor for {record.id} is not available"
            )

    # -- ops: daemon control -------------------------------------------------------

    async def _op_launched(self, request: dict[str, Any]) -> dict[str, Any]:
        container_id = str(request.get("id", ""))
        pending = self._pending_launch.get(container_id)
        record = self.records.get(container_id)
        if pending is not None:
            token, future = pending
            # The token keeps a stale monitor (an earlier attempt for the
            # same id) from being mistaken for the launch in flight.
            if request.get("token") == token and not future.done():
                future.set_result(request)
                return {"ok": True}
        elif record is not None and record.state.kind is StateKind.CREATED:
            # The launching daemon died before its handshake wait; adopt,
            # and decide at once in case the monitor is already gone.
            self._land(record, request)
            await self._check(container_id)
            return {"ok": True}
        # Unwanted: a mismatched token, a written-off launch (Lost), an unknown id.
        # Kill what just reported in; its exit file settles any Lost record.
        log.warning("scavenging unwanted launch for %s", container_id or "<no id>")
        try:
            container = ProcessIdentity.from_dict(request["container"])
        except Exception:
            return {"ok": False, "error": "unknown_id"}
        if sandbox.is_alive(container):
            sandbox.signal_group(container.pid, signal.SIGKILL)
        return {"ok": False, "error": "unwanted"}

    async def _op_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        assert self._shutdown is not None
        # Let the reply flush before teardown starts cancelling connections.
        asyncio.get_running_loop().call_later(0.05, self._shutdown.set)
        return {"ok": True, "pid": self.identity.pid}

    async def _await_exit(self, record: ContainerRecord, *, timeout_s: float) -> None:
        if record.state.kind is StateKind.EXITED:
            return
        if await self._exited(record, timeout_s=timeout_s) is None:
            raise ApiError(
                "stop_timeout", f"{record.id} did not exit within {timeout_s:.1f}s"
            )

    async def _exited(
        self,
        record: ContainerRecord,
        *,
        timeout_s: float | None = None,
        until: asyncio.Future[Any] | None = None,
    ) -> ContainerRecord | None:
        """The record once it has exited; None if the timeout or `until`
        came first. Its waiter future leaves _waiters with it either way."""
        future: asyncio.Future[ContainerRecord] = (
            asyncio.get_running_loop().create_future()
        )
        waiters = self._waiters.setdefault(record.id, [])
        waiters.append(future)
        try:
            done, _ = await asyncio.wait(
                {future} if until is None else {future, until},
                timeout=timeout_s,
                return_when=asyncio.FIRST_COMPLETED,
            )
            return future.result() if future in done else None
        finally:
            if future in waiters:
                waiters.remove(future)
            if not waiters and self._waiters.get(record.id) is waiters:
                del self._waiters[record.id]


# -- the foreground entry -------------------------------------------------------


def run(state_dir: str | None = None, mode: str | None = None) -> int:
    """Serve a state directory in this process until shutdown: `hydra
    daemon start --foreground`. Returns the exit status.

    `python -m hydra` runs the engine imports with the collector off, as
    they build much and free little. What they built is frozen here, before
    serving: the collector never walks it again, so its pages stay shared
    with every monitor this process forks.
    """
    gc.freeze()
    gc.enable()
    try:
        config = DaemonConfig(str(state_root(state_dir)), mode or SupervisionMode.DECOUPLED)
    except ValueError:
        print(f"hydra: error: unknown supervision mode {mode!r}", file=sys.stderr)
        return 1
    try:
        asyncio.run(Daemon(config).serve())
    except AlreadyRunning as exc:
        print(f"hydra: error: {exc}", file=sys.stderr)
        return 1
    return 0
