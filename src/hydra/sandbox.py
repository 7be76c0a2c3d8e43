"""Process-group sandboxes and OS process-table queries.

Spawns a container's first process as a process-group leader (optionally in
fresh PID+mount+UTS namespaces), delivers group signals, answers /proc
queries for top/stats, and provides the pid-reuse-safe liveness check used by
every component that stores a ProcessIdentity: one read of /proc/<pid>/stat
tells whether that process still lives and in which state.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno as errno_mod
import os
import signal
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import NamedTuple

from .model import ContainerSpec, ExitReport, HydraError, Isolation, ProcessIdentity, now_ms

__all__ = [
    "SpawnError",
    "IsolationUnsupported",
    "SandboxHandle",
    "StatRow",
    "ProcRow",
    "ProcSample",
    "spawn",
    "spawn_exec",
    "signal_group",
    "report_from_status",
    "sample_proc",
    "is_alive",
    "identity_of",
    "current_identity",
    "read_stat",
    "state_of",
    "namespaces_supported",
    "enter_namespaces_of",
    "set_process_name",
    "release_free_heap",
    "DEFAULT_PATH",
]

DEFAULT_PATH = "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin"

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")

CLONE_NEWNS = 0x0002_0000
CLONE_NEWUTS = 0x0400_0000
CLONE_NEWPID = 0x2000_0000

_PR_SET_NAME = 15

_libc = ctypes.CDLL(None, use_errno=True)
_libc.prctl.argtypes = (
    ctypes.c_int, ctypes.c_char_p, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong
)
_libc.prctl.restype = ctypes.c_int
_malloc_trim = getattr(_libc, "malloc_trim", None)  # glibc only
if _malloc_trim is not None:
    _malloc_trim.argtypes = (ctypes.c_size_t,)
    _malloc_trim.restype = ctypes.c_int


class SpawnError(HydraError):
    """fork/exec of a container process failed; carries the OS errno."""

    def __init__(self, message: str, errno: int = 0):
        super().__init__(message)
        self.errno = errno


class IsolationUnsupported(HydraError):
    """The host refused namespace creation (missing privileges or kernel support)."""


# ---------------------------------------------------------------------------
# /proc parsing


class StatRow(NamedTuple):
    """The fields of /proc/<pid>/stat this engine cares about."""

    pid: int
    comm: str
    state: str
    ppid: int
    pgrp: int
    utime: int
    stime: int
    start_ticks: int
    rss_pages: int


def read_stat(pid: int) -> StatRow | None:
    """Parse /proc/<pid>/stat; None if the process does not exist."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    # comm is parenthesized and may itself contain spaces and parens;
    # everything after the LAST ')' is fixed-position fields 3..n.
    head, sep, tail = raw.rpartition(")")
    if not sep:
        return None
    pid_text, _, comm = head.partition(" (")
    fields = tail.split()
    try:
        return StatRow(
            pid=int(pid_text),
            comm=comm,
            state=fields[0],
            ppid=int(fields[1]),
            pgrp=int(fields[2]),
            utime=int(fields[11]),
            stime=int(fields[12]),
            start_ticks=int(fields[19]),
            rss_pages=int(fields[21]),
        )
    except (IndexError, ValueError):
        return None


def identity_of(pid: int) -> ProcessIdentity | None:
    """Capture (pid, start_ticks) for a live process, or None if gone."""
    row = read_stat(pid)
    return ProcessIdentity(pid=pid, start_ticks=row.start_ticks) if row else None


def current_identity() -> ProcessIdentity:
    """This process's own identity."""
    ident = identity_of(os.getpid())
    assert ident is not None
    return ident


def state_of(identity: ProcessIdentity) -> str | None:
    """The one-letter /proc state (R, S, D, T, ...) of identity's process,
    or None if it is gone: no such pid, another process under a reused pid,
    or a zombie.

    A zombie still occupies its pid but can do no further work, so for
    supervision purposes it counts as dead; this keeps the check monotone
    (gone stays gone) once the real process has terminated.
    """
    row = read_stat(identity.pid)
    if row is None or row.start_ticks != identity.start_ticks or row.state in ("Z", "X"):
        return None
    return row.state


def is_alive(identity: ProcessIdentity) -> bool:
    """True iff the pid exists, its start_ticks match, and it is not a zombie."""
    return state_of(identity) is not None


# ---------------------------------------------------------------------------
# Namespaces (optional isolation)


def _unshare(flags: int) -> None:
    if _libc.unshare(flags) != 0:
        err = ctypes.get_errno()
        raise IsolationUnsupported(f"unshare(0x{flags:x}): {os.strerror(err)}")


def _setns(fd: int, nstype: int = 0) -> None:
    if _libc.setns(fd, nstype) != 0:
        err = ctypes.get_errno()
        raise IsolationUnsupported(f"setns: {os.strerror(err)}")


_NAMESPACES_SUPPORTED: bool | None = None


def namespaces_supported() -> bool:
    """Probe (once) whether this host lets us create PID+mount+UTS namespaces."""
    global _NAMESPACES_SUPPORTED
    if _NAMESPACES_SUPPORTED is None:
        pid = os.fork()
        if pid == 0:  # probe in a throwaway child; unshare is one-way
            try:
                _unshare(CLONE_NEWPID | CLONE_NEWNS | CLONE_NEWUTS)
            except IsolationUnsupported:
                os._exit(1)
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        _NAMESPACES_SUPPORTED = status == 0
    return _NAMESPACES_SUPPORTED


def enter_namespaces_of(pid: int) -> None:
    """Join the PID, mount, and UTS namespaces of an existing process.

    Must be called from a freshly forked, single-threaded child, before exec.
    The PID namespace applies to this process's children, so the caller is
    expected to exec (or fork once more) afterwards.
    """
    for name in ("pid", "mnt", "uts"):
        try:
            fd = os.open(f"/proc/{pid}/ns/{name}", os.O_RDONLY)
        except OSError as exc:
            raise IsolationUnsupported(f"open ns {name} of {pid}: {exc}") from None
        try:
            _setns(fd)
        finally:
            os.close(fd)


# ---------------------------------------------------------------------------
# Spawning


class SandboxHandle(NamedTuple):
    """A freshly spawned container process and the monitor's ends of its stdio."""

    container: ProcessIdentity
    pgid: int
    stdin_w: int
    stdout_r: int
    stderr_r: int

    def close_stdio(self) -> None:
        for fd in (self.stdin_w, self.stdout_r, self.stderr_r):
            try:
                os.close(fd)
            except OSError:
                pass


def _build_env(entries: tuple[str, ...]) -> dict[str, str]:
    env: dict[str, str] = {}
    for entry in entries:
        key, _, value = entry.partition("=")
        env[key] = value
    env.setdefault("PATH", DEFAULT_PATH)
    return env


def _start(
    command: tuple[str, ...],
    env_entries: tuple[str, ...],
    working_dir: str | None,
    place: Callable[[], int | None],
) -> tuple[ProcessIdentity, int, int, int]:
    """Fork, let place() put the child where it belongs, and exec command there.

    place runs first in the child. It returns None, or in a process that has
    forked once more, the pid of that child: the process then drops every
    pipe end and relays the child's exit as code-or-128+signal. Exec failures
    are reported synchronously through a close-on-exec error pipe, so a
    command that cannot start never looks like one that exited at once.

    Returns the identity of the forked process and the caller's ends of its
    stdin, stdout and stderr.
    """
    stdin_r, stdin_w = os.pipe()
    stdout_r, stdout_w = os.pipe()
    stderr_r, stderr_w = os.pipe()
    err_r, err_w = os.pipe()  # close-on-exec by default: EOF means exec succeeded
    pipe_ends = (stdin_r, stdin_w, stdout_r, stdout_w, stderr_r, stderr_w, err_r, err_w)

    pid = os.fork()
    if pid == 0:
        # No Python cleanup may run here; only os._exit.
        try:
            inner = place()
            if inner:
                # Held here, a pipe end would keep the caller's reads from
                # ending until the command exits.
                for fd in pipe_ends:
                    os.close(fd)
                _, status = os.waitpid(inner, 0)
                if os.WIFEXITED(status):
                    os._exit(os.WEXITSTATUS(status))
                os._exit(128 + os.WTERMSIG(status))
            os.dup2(stdin_r, 0)
            os.dup2(stdout_w, 1)
            os.dup2(stderr_w, 2)
            for fd in pipe_ends[:-1]:  # err_w stays, for exec to close
                os.close(fd)
            # CPython ignores these process-wide; exec preserves ignored
            # dispositions, so restore defaults for the command.
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
            signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
            if working_dir:
                os.chdir(working_dir)
            os.execvpe(command[0], list(command), _build_env(env_entries))
        except BaseException as exc:  # noqa: BLE001 - must not unwind into caller's stack
            code = getattr(exc, "errno", None) or 0
            try:
                os.write(err_w, f"{code}\x00{exc}".encode("utf-8", "replace"))
            except OSError:
                pass
            os._exit(127)

    # Capture identity before anything can reap the child: even if the
    # command already ran and died, the unreaped zombie still has our ticks.
    row = read_stat(pid)
    for fd in (stdin_r, stdout_w, stderr_w, err_w):
        os.close(fd)

    failure = bytearray()
    while chunk := os.read(err_r, 4096):
        failure += chunk
    os.close(err_r)

    if failure:
        os.waitpid(pid, 0)  # reap the failed child; no zombie left behind
        for fd in (stdin_w, stdout_r, stderr_r):
            os.close(fd)
        errno_text, _, message = failure.decode("utf-8", "replace").partition("\x00")
        err = int(errno_text) if errno_text.isdigit() else 0
        raise SpawnError(
            f"cannot start {command[0]!r}: {message or os.strerror(err or errno_mod.ENOENT)}",
            errno=err,
        )

    assert row is not None  # child unreaped until here, stat must exist
    return ProcessIdentity(pid=pid, start_ticks=row.start_ticks), stdin_w, stdout_r, stderr_r


@contextlib.contextmanager
def _children_in_new_pid_namespace() -> Iterator[None]:
    """Children forked inside lead a fresh PID namespace; later ones share ours."""
    try:
        saved = os.open("/proc/self/ns/pid_for_children", os.O_RDONLY)
    except OSError as exc:
        raise IsolationUnsupported(str(exc)) from None
    try:
        _unshare(CLONE_NEWPID)
        try:
            yield
        finally:
            _setns(saved)
    finally:
        os.close(saved)


def spawn(spec: ContainerSpec) -> SandboxHandle:
    """Start spec's command as a new process-group leader wired to fresh pipes.

    The caller (the monitor-to-be) becomes the parent. With namespace
    isolation the command leads fresh PID, mount and UTS namespaces.
    """
    isolate = spec.isolation is Isolation.NAMESPACES

    def place() -> None:
        os.setpgid(0, 0)
        if isolate:
            _unshare(CLONE_NEWNS | CLONE_NEWUTS)

    with _children_in_new_pid_namespace() if isolate else contextlib.nullcontext():
        container, stdin_w, stdout_r, stderr_r = _start(
            spec.command, spec.env, spec.working_dir, place
        )
    return SandboxHandle(container, container.pid, stdin_w, stdout_r, stderr_r)


def set_process_name(name: str) -> None:
    """Set this process's comm, the name ps and top show; the kernel keeps
    the first 15 bytes. Best effort: a refusal leaves the old name."""
    _libc.prctl(_PR_SET_NAME, name.encode()[:15], 0, 0, 0)


def release_free_heap() -> None:
    """Give the C heap's free pages back to the kernel (glibc malloc_trim).

    A forked monitor inherits the daemon's heap, freed buffers included;
    kept, those pages become the monitor's alone once that daemon exits.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _reset_forked_runtime() -> None:
    """Undo inherited event-loop signal plumbing in a freshly forked child.

    A child forked from a live asyncio process inherits the loop's wakeup fd
    and signal handlers; left in place they would scribble on the parent's
    socketpair. Ignored signals stay ignored, as across an exec: the
    interpreter ignores SIGPIPE and SIGXFSZ so that a write to a vanished
    peer raises instead of killing the process. Must run before anything
    else in the child.
    """
    signal.set_wakeup_fd(-1)
    for sig in range(1, signal.NSIG):
        try:
            if signal.getsignal(sig) is not signal.SIG_IGN:
                signal.signal(sig, signal.SIG_DFL)
        except (OSError, ValueError):
            pass  # SIGKILL/SIGSTOP and friends


def spawn_exec(
    command: tuple[str, ...],
    env_entries: tuple[str, ...],
    *,
    pgid: int,
    ns_of_pid: int | None = None,
) -> SandboxHandle:
    """Start an extra process inside an existing container context.

    Without namespaces the child joins the container's process group (the
    caller must share its session). With namespaces it joins the container's
    PID/mount/UTS namespaces via an intermediate fork, which relays the
    real process's exit. Safe to call from a process running an event loop;
    the child resets inherited runtime state before doing anything
    observable.
    """

    def place() -> int | None:
        _reset_forked_runtime()
        if ns_of_pid is None:
            os.setpgid(0, pgid)
            return None
        enter_namespaces_of(ns_of_pid)
        return os.fork()  # the pid namespace applies to children only

    process, stdin_w, stdout_r, stderr_r = _start(command, env_entries, None, place)
    return SandboxHandle(process, pgid, stdin_w, stdout_r, stderr_r)


def signal_group(pgid: int, sig: int) -> bool:
    """Deliver sig to every process in the group; False if the group is gone.

    Delivering to an already-dead group is a successful no-op (idempotent
    kill); permission failures propagate.
    """
    try:
        os.killpg(pgid, sig)
        return True
    except ProcessLookupError:
        return False


def report_from_status(container_id: str, status: int) -> ExitReport:
    """Map a waitpid status to an ExitReport."""
    if os.WIFEXITED(status):
        return ExitReport(
            container_id=container_id,
            exit_code=os.WEXITSTATUS(status),
            term_signal=None,
            finished_at=now_ms(),
        )
    if os.WIFSIGNALED(status):
        return ExitReport(
            container_id=container_id,
            exit_code=None,
            term_signal=os.WTERMSIG(status),
            finished_at=now_ms(),
        )
    raise HydraError(f"unexpected wait status {status:#x} for {container_id}")


# ---------------------------------------------------------------------------
# Process-table snapshots


class ProcRow(NamedTuple):
    pid: int
    ppid: int
    command: str
    cpu_ticks: int  # utime + stime
    rss_bytes: int


class ProcSample(NamedTuple):
    """Snapshot of a container's process subtree."""

    rows: tuple[ProcRow, ...]
    sampled_at: int  # epoch ms


def sample_proc(pgid: int) -> ProcSample:
    """All live processes in the group plus descendants of its leader, the
    process whose pid is pgid.

    Zombies are excluded: they hold no memory and run no code. Empty sample
    if the group is gone.
    """
    table: dict[int, StatRow] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        row = read_stat(int(entry))
        if row is not None:
            table[row.pid] = row

    def reaches_root(pid: int) -> bool:
        seen = set()
        while pid not in seen and pid > 1:
            if pid == pgid:
                return True
            seen.add(pid)
            row = table.get(pid)
            if row is None:
                return False
            pid = row.ppid
        return False

    rows = tuple(
        ProcRow(
            pid=row.pid,
            ppid=row.ppid,
            command=row.comm,
            cpu_ticks=row.utime + row.stime,
            rss_bytes=row.rss_pages * _PAGE_SIZE,
        )
        for row in sorted(table.values(), key=lambda r: r.pid)
        if row.state not in ("Z", "X") and (row.pgrp == pgid or reaches_root(row.pid))
    )
    return ProcSample(rows=rows, sampled_at=now_ms())
