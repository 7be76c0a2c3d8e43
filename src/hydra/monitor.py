"""The per-container supervisor process.

A monitor owns exactly one container: it spawns it, reports the launch to
the daemon, pumps the container's stdout/stderr into the framed log file,
serves the per-container socket (attach/exec/wait/logs), and on container
exit durably writes the exit file before ringing the daemon's doorbell
signal. Every attach and logs stream reads that log file from its own
offset, so a slow client falls behind in the file, not in the monitor's
memory. A monitor knows only what its fork hands it (the container id, the
state directory's layout, the spec, the spawned container's handle and the
launch token) and what it serves since, so no daemon crash, restart, or
upgrade changes its behavior.

This module also holds the daemon-side fork choreography that turns a launch
request into a running monitor (single fork for lazy/coupled modes, double
fork + parent-kill for decoupled mode). The monitor is the forked child
itself: no exec, no second interpreter. It closes every descriptor it
inherited from the daemon, keeps the daemon's already-imported code and
heap copy-on-write, and runs `Monitor` on a fresh event loop. So a monitor
runs the code of the daemon that launched it; an upgrade, which restarts
the daemon, launches later monitors from the new code.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import signal
import sys
import traceback
from collections.abc import Awaitable, Callable, Coroutine
from typing import Any

from . import sandbox
from .model import (
    ContainerSpec,
    ExitReport,
    InvalidSpec,
    Isolation,
    SupervisionMode,
)
from .protocol import (
    EXIT_NOTIFY,
    FRAME_EXIT_NOTICE,
    FRAME_STDERR,
    FRAME_STDIN,
    FRAME_STDOUT,
    MAX_MESSAGE_BYTES,
    FrameDecoder,
    FrameError,
    MessageFormatError,
    PidFileError,
    StateDirLayout,
    decode_message,
    encode_exit_report,
    encode_frame,
    encode_message,
    read_pid_file,
    write_exit_report,
)

__all__ = [
    "MAX_MONITOR_CONNECTIONS",
    "MONITOR_COMM_PREFIX",
    "fork_monitor",
    "read_spawn_failure",
    "drain_until_eof",
    "reap",
]

MAX_MONITOR_CONNECTIONS = 16
# A monitor's comm (what ps and top show) is this plus the container id,
# cut by the kernel to 15 bytes: "hydra-" and the first 9 hex digits.
MONITOR_COMM_PREFIX = "hydra-"
_PUMP_CHUNK = 65536
_HANDSHAKE_ATTEMPTS = 30
_HANDSHAKE_RETRY_DELAY = 0.1
_DRAIN_AFTER_EXIT_S = 0.5
_SHUTDOWN_GRACE_S = 2.0


# ---------------------------------------------------------------------------
# Daemon-side launch choreography


def fork_monitor(
    container_id: str,
    layout: StateDirLayout,
    mode: SupervisionMode,
    spec: ContainerSpec,
    launch_token: str,
) -> tuple[int, int]:
    """Fork toward a monitor for one container; returns immediately, with
    the pid of the direct child and the read end of the pipe any spawn
    failure is reported through, which the caller closes.

    decoupled: daemon -> P1 -> P2; P2 starts a session, spawns the sandbox,
    and becomes the monitor. The monitor later kills P1, orphaning P2 so
    init adopts it: daemon and monitor become siblings. lazy/coupled: one
    fork; the monitor stays a daemon child.

    Success is learned via the monitor's Launched handshake on the daemon
    socket, never from here. Spawn failures arrive on the pipe and via the
    child's exit status. The launch token is echoed in the handshake, so the
    daemon can tell this launch attempt apart from a stale one for the same
    container id.
    """
    err_r, err_w = os.pipe()
    pid1 = os.fork()
    if pid1 != 0:
        os.close(err_w)
        return pid1, err_r

    # Child: never return into the daemon's stack; only os._exit.
    try:
        sandbox._reset_forked_runtime()
        _close_inherited_fds(keep=err_w)
        if mode is SupervisionMode.DECOUPLED:
            # P1 exists only to be killed: its death reparents P2 to init.
            signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
            pid2 = os.fork()
            if pid2 == 0:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)  # P1's, not the monitor's
                _become_monitor(
                    container_id, layout, spec, launch_token,
                    parent_to_kill=os.getppid(), err_w=err_w,
                )
            os.close(err_w)
            _, status = os.waitpid(pid2, 0)  # interrupted by the SIGTERM parent-kill
            os._exit(os.WEXITSTATUS(status) if os.WIFEXITED(status) else 1)
        _become_monitor(
            container_id, layout, spec, launch_token,
            parent_to_kill=None, err_w=err_w,
        )
    except BaseException:  # noqa: BLE001
        os._exit(1)


def _close_inherited_fds(keep: int) -> None:
    """Close every descriptor above stderr but keep.

    The daemon's listening socket, client connections, pidfds, epoll fd,
    self-pipe and lock file are not the monitor's to hold: a held client
    socket would keep that client waiting on a dead daemon.
    """
    for name in os.listdir("/proc/self/fd"):
        fd = int(name)
        if fd > 2 and fd != keep:
            with contextlib.suppress(OSError):  # the listing's own, now closed
                os.close(fd)


def _become_monitor(
    container_id: str,
    layout: StateDirLayout,
    spec: ContainerSpec,
    launch_token: str,
    parent_to_kill: int | None,
    err_w: int,
) -> None:
    """Runs in the monitor-to-be: new session, sandbox spawn, then the
    monitor on a fresh event loop. Never returns."""
    try:
        os.setsid()
        _detach_stdio(layout)
        handle = sandbox.spawn(spec)
    except sandbox.SpawnError as exc:
        _report_and_die(err_w, exc.errno, str(exc), code=127)
    except sandbox.IsolationUnsupported as exc:
        _report_and_die(err_w, 0, f"isolation_unsupported: {exc}", code=125)
    except BaseException as exc:  # noqa: BLE001
        _report_and_die(err_w, 0, f"monitor bootstrap failed: {exc!r}", code=126)
    os.close(err_w)
    code = 1
    try:
        sandbox.set_process_name(f"{MONITOR_COMM_PREFIX}{container_id}")
        # The daemon's objects stay untouched: its frames never unwind, and
        # frozen, the collector neither finalizes them (a socket's would
        # close a descriptor number the monitor has reused) nor writes to
        # their pages, which stay shared with the daemon.
        gc.freeze()
        monitor = Monitor(container_id, layout, spec, handle, parent_to_kill, launch_token)
        code = asyncio.run(monitor.run())
    except BaseException:  # noqa: BLE001 - must not unwind into the daemon's stack
        traceback.print_exc()  # stderr is monitor.log by now
        sys.stderr.flush()
    os._exit(code)


def _detach_stdio(layout: StateDirLayout) -> None:
    """Stop sharing the launching daemon's stdio.

    A monitor outlives its daemon; holding the daemon's terminal or pipes
    would keep them open for the container's whole life (and wedge anything
    capturing the daemon's output). Diagnostics go to a shared append-only
    file in the state dir instead.
    """
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.close(devnull)
    diag = os.open(
        layout.root / "monitor.log", os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600
    )
    os.dup2(diag, 1)
    os.dup2(diag, 2)
    os.close(diag)


def _report_and_die(err_w: int, errno: int, message: str, code: int) -> None:
    try:
        os.write(err_w, f"{errno}\x00{message}".encode("utf-8", "replace"))
    except OSError:
        pass
    os._exit(code)


def read_spawn_failure(err_fd: int) -> str | None:
    """Drain a launch error pipe without blocking; None if nothing was reported."""
    os.set_blocking(err_fd, False)
    chunks = bytearray()
    while True:
        try:
            chunk = os.read(err_fd, 4096)
        except BlockingIOError:
            break
        except OSError:
            break
        if not chunk:
            break
        chunks += chunk
    if not chunks:
        return None
    _, _, message = chunks.decode("utf-8", "replace").partition("\x00")
    return message or chunks.decode("utf-8", "replace")


# ---------------------------------------------------------------------------
# Child reaping (shared by monitor and daemon event loops)


def reap(pid: int) -> asyncio.Future[int]:
    """A future for the wait status of pid, a child of this process.

    A child cannot be reaped before someone waits for it, so until then its
    pid names it, dead or alive: call this right after the fork, before any
    other wait. The reap runs to completion even if the future is
    cancelled, so it leaves neither a zombie nor its pidfd behind.
    """
    loop = asyncio.get_running_loop()
    status: asyncio.Future[int] = loop.create_future()
    fd = os.pidfd_open(pid)

    def reaped() -> None:
        loop.remove_reader(fd)
        os.close(fd)
        _, code = os.waitpid(pid, 0)
        if not status.done():
            status.set_result(code)

    loop.add_reader(fd, reaped)
    return status


# ---------------------------------------------------------------------------
# The monitor process


class Monitor:
    def __init__(
        self,
        container_id: str,
        layout: StateDirLayout,
        spec: ContainerSpec,
        handle: sandbox.SandboxHandle,
        parent_to_kill: int | None,
        launch_token: str,
    ):
        # The daemon made the state dir's directories, the container's own
        # included (its record is committed before any launch forks).
        self.container_id = container_id
        self.layout = layout
        self.spec = spec
        self.handle = handle
        self.parent_to_kill = parent_to_kill
        self.launch_token = launch_token
        self.exit_report: ExitReport | None = None
        self.connections = 0
        self.conn_tasks: set[asyncio.Task] = set()
        self.log_fh = open(layout.log_path(container_id), "ab")
        # The end of what this monitor wrote; a later start of the same id
        # appends its own output past it once this container has exited.
        self.log_end = self.log_fh.tell()
        # The log is whole and the exit file written: streams end, waiters
        # answer.
        self.finished = False
        # Set, and replaced, whenever the log grows or is whole; every
        # parked stream and waiter waits on it.
        self.changed = asyncio.Event()
        self.stdin_writer: asyncio.StreamWriter | None = None

    # -- lifecycle ----------------------------------------------------------

    async def run(self) -> int:
        loop = asyncio.get_running_loop()
        handle = self.handle
        # Before anything can serve an attach or reap the container.
        self.stdin_writer = await _open_pipe_writer(loop, handle.stdin_w)
        reaped = reap(handle.container.pid)
        reaped.add_done_callback(self._container_reaped)

        # Serve before the handshake: the daemon's run reply names this
        # socket, so it must accept by the time any client can learn of it.
        sock_path = self.layout.monitor_sock(self.container_id)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(sock_path)
        server = await asyncio.start_unix_server(
            self._on_connection, path=str(sock_path), limit=MAX_MESSAGE_BYTES
        )
        os.chmod(sock_path, 0o600)
        sock_ino = os.stat(sock_path).st_ino

        pumps = [
            asyncio.create_task(_pump(handle.stdout_r, FRAME_STDOUT, self._capture)),
            asyncio.create_task(_pump(handle.stderr_r, FRAME_STDERR, self._capture)),
        ]

        await self._handshake()
        if self.parent_to_kill is not None:
            # Orphans us away from the daemon: init adopts this process.
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.parent_to_kill, signal.SIGTERM)
        sandbox.release_free_heap()  # off the launch path: after the handshake

        await reaped  # after _container_reaped, which was added first
        report = self.exit_report
        assert report is not None

        # Capture what the container flushed before dying; descendants that
        # inherited the pipes could hold them open forever, so cap the wait.
        await asyncio.wait(pumps, timeout=_DRAIN_AFTER_EXIT_S)
        for pump in pumps:
            pump.cancel()

        code = 0
        if not self._write_exit_file(report):
            code = 1  # leave no false doorbell; the daemon's pidfd watch takes over
        else:
            self._ring_daemon()
        self.finished = True
        self._wake()

        # A client that learned of this socket before the exit may dial in
        # only now: keep answering (wait, ping, logs) for the grace. An rm
        # of the container ends it sooner, by SIGKILL.
        await asyncio.sleep(_SHUTDOWN_GRACE_S)
        server.close()
        await server.wait_closed()
        # Parked streams and waiters were woken at the exit; let them send
        # what they still owe, cancel stragglers.
        if self.conn_tasks:
            _, pending = await asyncio.wait(
                self.conn_tasks, timeout=_SHUTDOWN_GRACE_S
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        with contextlib.suppress(FileNotFoundError):
            if os.stat(sock_path).st_ino == sock_ino:  # not a new start's socket
                os.unlink(sock_path)
        self.log_fh.close()
        return code

    def _container_reaped(self, future: asyncio.Future[int]) -> None:
        status = future.result()
        self.exit_report = sandbox.report_from_status(self.container_id, status)
        if self.stdin_writer is not None and not self.stdin_writer.is_closing():
            self.stdin_writer.close()

    async def _handshake(self) -> None:
        """Tell the daemon both identities; harmless to fail (daemon may be gone)."""
        message = encode_message(
            {
                "op": "launched",
                "id": self.container_id,
                "token": self.launch_token,
                "monitor": sandbox.current_identity().to_dict(),
                "container": self.handle.container.to_dict(),
            }
        )
        for _ in range(_HANDSHAKE_ATTEMPTS):
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(self.layout.daemon_sock)
                )
            except (ConnectionError, FileNotFoundError, OSError):
                await asyncio.sleep(_HANDSHAKE_RETRY_DELAY)
                continue
            try:
                writer.write(message)
                await writer.drain()
                await asyncio.wait_for(reader.readline(), timeout=2.0)
                return
            except (ConnectionError, asyncio.TimeoutError, OSError):
                return  # daemon answered the connect; do not spam retries
            finally:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

    def _write_exit_file(self, report: ExitReport) -> bool:
        for attempt in (0, 1):  # one retry on I/O failure
            try:
                write_exit_report(self.layout, report)
                return True
            except OSError:
                if attempt == 1:
                    return False
        return False

    def _ring_daemon(self) -> None:
        """Signal whichever daemon currently owns the state dir, if alive.

        The boot-time daemon may be gone and its pid recycled; daemon.pid is
        re-read so the signal never lands on an unrelated process. A missing
        or dead daemon is fine: it will scan exits/ when it next starts.
        """
        try:
            current = read_pid_file(self.layout.daemon_pid)
        except (OSError, PidFileError):
            return
        if not sandbox.is_alive(current):
            return
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.kill(current.pid, EXIT_NOTIFY)

    def _wake(self) -> None:
        """Wake every parked stream and waiter: the log grew, or is whole."""
        self.changed.set()
        self.changed = asyncio.Event()

    async def _capture(self, frame: bytes) -> None:
        """Container output: into the log, which every stream reads."""
        self.log_fh.write(frame)
        self.log_fh.flush()
        self.log_end += len(frame)
        self._wake()

    # -- per-connection API ---------------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        task = asyncio.create_task(self._serve_connection(reader, writer))
        self.conn_tasks.add(task)
        task.add_done_callback(self.conn_tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.connections >= MAX_MONITOR_CONNECTIONS:
            writer.write(encode_message({"ok": False, "error": "connection_limit"}))
            with contextlib.suppress(Exception):
                await writer.drain()
            writer.close()
            return
        self.connections += 1
        try:
            try:
                request = decode_message(await reader.readline())
            except (MessageFormatError, ValueError) as exc:  # ValueError: over the limit
                await self._reply(writer, {"ok": False, "error": f"bad_message: {exc}"})
                return
            op = request.get("op")
            if op == "wait":
                await self._op_wait(writer)
            elif op == "attach":
                await self._op_attach(
                    reader, writer, replay=bool(request.get("replay", False))
                )
            elif op == "logs":
                await self._op_logs(
                    reader, writer, follow=bool(request.get("follow", False))
                )
            elif op == "exec":
                await self._op_exec(reader, writer, request)
            elif op == "ping":
                await self._reply(
                    writer,
                    {
                        "ok": True,
                        "id": self.container_id,
                        "container": self.handle.container.to_dict(),
                        "exited": self.exit_report is not None,
                    },
                )
            else:
                await self._reply(writer, {"ok": False, "error": "unknown_op"})
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.connections -= 1
            if not writer.is_closing():
                writer.close()

    async def _reply(self, writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
        writer.write(encode_message(payload))
        await writer.drain()

    @staticmethod
    def _report_fields(report: ExitReport) -> dict[str, Any]:
        return {
            "exit_code": report.exit_code,
            "term_signal": report.term_signal,
            "finished_at": report.finished_at,
            "line": encode_exit_report(report).rstrip("\n"),
        }

    async def _op_wait(self, writer: asyncio.StreamWriter) -> None:
        while not self.finished:
            await self.changed.wait()
        assert self.exit_report is not None
        await self._reply(writer, {"ok": True, **self._report_fields(self.exit_report)})

    async def _op_attach(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        replay: bool = False,
    ) -> None:
        """Bridge the client to the container's stdio.

        With replay (what a foreground `run` asks for), the stream starts at
        the top of the captured log, so a command that finished before the
        client dialed in still shows its output; a plain attach starts at
        the log's end and rejects an exited container.
        """
        if self.exit_report is not None and not replay:
            await self._reply(writer, {"ok": False, "error": "container_not_running"})
            return
        start = 0 if replay else self.log_end
        await self._reply(writer, {"ok": True})
        await _first_of(self._send_log(writer, start), self._feed_container(reader))

    async def _feed_container(self, reader: asyncio.StreamReader) -> None:
        """Write the client's stdin frames into the container's stdin.

        At the client's half-close, close the container's stdin so pipe
        readers see EOF, and stay: the stream goes on to the exit notice. A
        malformed stream or a reset ends the attach.
        """
        stdin = self.stdin_writer
        assert stdin is not None
        with contextlib.suppress(ConnectionError, FrameError):
            await _feed_stdin(reader, stdin)
            if not stdin.is_closing():
                stdin.close()
            await asyncio.Event().wait()

    async def _op_logs(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        follow: bool,
    ) -> None:
        end = self.log_end
        await self._reply(writer, {"ok": True})
        if follow:
            # A follower that hangs up frees its slot at once, output or not.
            await _first_of(self._send_log(writer, 0), drain_until_eof(reader))
        else:
            await self._send_log(writer, 0, end)

    async def _send_log(
        self, writer: asyncio.StreamWriter, start: int, stop: int | None = None
    ) -> None:
        """Send the captured log from offset start up to stop; without stop,
        follow it to the end of this monitor's output, then send the exit
        notice.

        Every attach and logs stream is this loop, each at its own offset:
        replayed and live output meet at one offset, and a slow client falls
        behind in the file, not in the monitor's memory. It reads no further
        than log_end, never to the file's end, which a later start of the
        same id extends.
        """
        offset = start
        try:
            path = self.layout.log_path(self.container_id)
            with open(path, "rb", buffering=0) as log:
                log.seek(offset)
                while True:
                    end = self.log_end if stop is None else stop
                    if offset >= end:
                        if stop is not None:
                            return
                        if self.finished:
                            break
                        await self.changed.wait()
                        continue
                    chunk = log.read(min(_PUMP_CHUNK, end - offset))
                    if not chunk:  # the file was cut short under us
                        return
                    offset += len(chunk)
                    writer.write(chunk)
                    await writer.drain()
        except OSError:  # the client hung up, or the log is gone
            return
        assert self.exit_report is not None
        writer.write(_exit_notice(self.exit_report))

    async def _op_exec(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: dict[str, Any],
    ) -> None:
        if self.exit_report is not None:
            await self._reply(writer, {"ok": False, "error": "container_not_running"})
            return
        try:
            # Checked as a container's own command and environment are.
            spec = ContainerSpec(request.get("command"), request.get("env") or self.spec.env)
        except InvalidSpec:
            await self._reply(writer, {"ok": False, "error": "bad_command"})
            return
        try:
            handle = sandbox.spawn_exec(
                spec.command,
                spec.env,
                pgid=self.handle.pgid,
                ns_of_pid=(
                    self.handle.container.pid
                    if self.spec.isolation is Isolation.NAMESPACES
                    else None
                ),
            )
        except (sandbox.SpawnError, sandbox.IsolationUnsupported) as exc:
            await self._reply(writer, {"ok": False, "error": str(exc)})
            return
        status_future = reap(handle.container.pid)
        await self._reply(writer, {"ok": True, "pid": handle.container.pid})

        stdin_writer = await _open_pipe_writer(asyncio.get_running_loop(), handle.stdin_w)

        async def send(frame: bytes) -> None:
            if not writer.is_closing():
                writer.write(frame)
                await writer.drain()

        async def feed() -> None:
            with contextlib.suppress(ConnectionError, FrameError):
                await _feed_stdin(reader, stdin_writer)
            stdin_writer.close()

        pumps = {
            asyncio.create_task(_pump(handle.stdout_r, FRAME_STDOUT, send)),
            asyncio.create_task(_pump(handle.stderr_r, FRAME_STDERR, send)),
        }
        feed_task = asyncio.create_task(feed())

        status = await status_future
        await asyncio.wait(pumps, timeout=_DRAIN_AFTER_EXIT_S)
        for task in (*pumps, feed_task):
            task.cancel()
        if not stdin_writer.is_closing():
            stdin_writer.close()
        report = sandbox.report_from_status(self.container_id, status)
        with contextlib.suppress(ConnectionError):
            writer.write(_exit_notice(report))
            await writer.drain()


async def _first_of(*coros: Coroutine[Any, Any, None]) -> None:
    """Run coros side by side until the first of them ends; cancel the rest.

    Each handles its own errors: none is left for the caller.
    """
    tasks = [asyncio.create_task(coro) for coro in coros]
    try:
        await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
    finally:
        for task in tasks:
            task.cancel()


def _exit_notice(report: ExitReport) -> bytes:
    """The frame that ends every attach, logs -f and exec stream."""
    return encode_frame(FRAME_EXIT_NOTICE, encode_exit_report(report).encode())


async def _open_pipe_writer(
    loop: asyncio.AbstractEventLoop, fd: int
) -> asyncio.StreamWriter:
    transport, protocol = await loop.connect_write_pipe(
        lambda: asyncio.streams.FlowControlMixin(loop=loop),
        os.fdopen(fd, "wb", buffering=0),
    )
    return asyncio.StreamWriter(transport, protocol, None, loop)


async def _pump(fd: int, tag: int, emit: Callable[[bytes], Awaitable[None]]) -> None:
    """Hand what a read pipe carries to emit, in frames of tag, until EOF or
    until emit meets a vanished client."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(loop=loop)
    transport, _ = await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader, loop=loop),
        os.fdopen(fd, "rb", buffering=0),
    )
    try:
        while data := await reader.read(_PUMP_CHUNK):
            await emit(encode_frame(tag, data))
    except ConnectionError:
        pass
    finally:
        transport.close()


async def drain_until_eof(reader: asyncio.StreamReader) -> None:
    """Discard what the peer sends until it hangs up, half-closes or resets."""
    with contextlib.suppress(ConnectionError):
        while await reader.read(_PUMP_CHUNK):
            pass


async def _feed_stdin(reader: asyncio.StreamReader, stdin: asyncio.StreamWriter) -> None:
    """Write the client's stdin frames into a pipe until the client half-closes.

    A malformed stream raises FrameError, a reset ConnectionError. Keystrokes
    that arrive after the pipe was closed are dropped.
    """
    decoder = FrameDecoder()
    while data := await reader.read(_PUMP_CHUNK):
        for tag, payload in decoder.feed(data):
            if tag == FRAME_STDIN and not stdin.is_closing():
                stdin.write(payload)
                await stdin.drain()
