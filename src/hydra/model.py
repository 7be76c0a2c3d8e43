"""Domain types shared by the daemon, monitor, and CLI.

Everything here is a plain value: safe to copy between tasks and processes,
no interior mutation except ContainerRecord, which is owned by exactly one
writer (the daemon's registry) at any time.
"""

from __future__ import annotations

import enum
import os
import random
import re
import time
from typing import Any

__all__ = [
    "HydraError",
    "InvalidSpec",
    "Value",
    "IllegalTransition",
    "SupervisionMode",
    "Isolation",
    "ContainerSpec",
    "ProcessIdentity",
    "StateKind",
    "ContainerState",
    "ContainerRecord",
    "ExitReport",
    "new_container_id",
    "is_container_id",
    "validate_transition",
    "require_transition",
    "now_ms",
]


class HydraError(Exception):
    """Base class for all engine errors."""


class InvalidSpec(HydraError):
    """A container spec or config value violates its constraints."""


class IllegalTransition(HydraError):
    """A container state change outside the legal transition set."""


class SupervisionMode(str, enum.Enum):
    """How monitor processes relate to the daemon in the process tree."""

    COUPLED = "coupled"  # monitors stay daemon children; containers die with the daemon
    LAZY = "lazy"  # monitors stay daemon children until daemon death orphans them
    DECOUPLED = "decoupled"  # monitors daemonized at spawn; siblings of the daemon


class Isolation(str, enum.Enum):
    """Optional kernel isolation for the container's process tree."""

    NONE = "none"
    NAMESPACES = "namespaces"  # fresh PID + mount + UTS namespaces


_CONTAINER_ID_RE = re.compile(r"^[0-9a-f]{16}$")


def new_container_id(rng_seed: int | None = None) -> str:
    """Return a fresh 16-hex-char container id; deterministic when seeded."""
    if rng_seed is not None:
        return f"{random.Random(rng_seed).getrandbits(64):016x}"
    return os.urandom(8).hex()


def is_container_id(value: object) -> bool:
    """True iff value is a well-formed container id."""
    return isinstance(value, str) and _CONTAINER_ID_RE.fullmatch(value) is not None


def now_ms() -> int:
    """Current wall-clock time in epoch milliseconds."""
    return time.time_ns() // 1_000_000


class Value:
    """A value whose fields are its __slots__, set once by __init__ through
    _init: immutable, equal to a value of its own class with equal fields,
    hashed by them. It behaves as a frozen dataclass does, without one's
    cost at every process start: `dataclasses` compiles each class's
    methods when the class is defined, and cached bytecode cannot keep it.
    """

    __slots__ = ()

    def _init(self, *values: Any) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ProcessIdentity(Value):
    """A pid paired with its start time, immune to pid recycling.

    A bare pid stops identifying a process the moment the kernel reuses it;
    (pid, start_ticks) does not, because two processes cannot share both.
    """

    __slots__ = ("pid", "start_ticks")
    pid: int
    start_ticks: int

    def __init__(self, pid: int, start_ticks: int) -> None:
        if pid <= 0:
            raise InvalidSpec(f"pid must be positive, got {pid}")
        if start_ticks < 0:
            raise InvalidSpec(f"start_ticks must be >= 0, got {start_ticks}")
        self._init(pid, start_ticks)

    def to_dict(self) -> dict[str, int]:
        return {"pid": self.pid, "start_ticks": self.start_ticks}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> ProcessIdentity:
        return cls(pid=int(data["pid"]), start_ticks=int(data["start_ticks"]))


class ContainerSpec(Value):
    """Immutable launch description: argv, environment, isolation, stop policy."""

    __slots__ = (
        "command", "env", "working_dir", "isolation", "restart_on_monitor_loss", "stop_grace_ms"
    )
    command: tuple[str, ...]
    env: tuple[str, ...]
    working_dir: str | None
    isolation: Isolation
    restart_on_monitor_loss: bool
    stop_grace_ms: int

    def __init__(
        self,
        command: tuple[str, ...],
        env: tuple[str, ...] = (),
        working_dir: str | None = None,
        isolation: Isolation = Isolation.NONE,
        restart_on_monitor_loss: bool = True,
        stop_grace_ms: int = 10_000,
    ) -> None:
        # Checked, never coerced: a spec arrives from clients and record files.
        if not (
            isinstance(command, (list, tuple))
            and command
            and command[0]
            and all(isinstance(arg, str) for arg in command)
        ):
            raise InvalidSpec("command must be a non-empty argv list")
        if not isinstance(env, (list, tuple)):
            raise InvalidSpec(f"env must be a list of KEY=VALUE entries, got {type(env).__name__}")
        for entry in env:
            if not isinstance(entry, str) or "=" not in entry:
                raise InvalidSpec(f"env entry {entry!r} is not KEY=VALUE")
        if working_dir is not None and not (
            isinstance(working_dir, str) and working_dir.startswith("/")
        ):
            raise InvalidSpec(f"working_dir must be absolute, got {working_dir!r}")
        if type(restart_on_monitor_loss) is not bool:
            raise InvalidSpec(
                f"restart_on_monitor_loss must be true or false, got {restart_on_monitor_loss!r}"
            )
        if type(stop_grace_ms) is not int or stop_grace_ms < 0:
            raise InvalidSpec(f"stop_grace_ms must be an integer >= 0, got {stop_grace_ms!r}")
        self._init(
            tuple(command), tuple(env), working_dir, Isolation(isolation),
            restart_on_monitor_loss, stop_grace_ms,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": list(self.command),
            "env": list(self.env),
            "working_dir": self.working_dir,
            "isolation": self.isolation.value,
            "restart_on_monitor_loss": self.restart_on_monitor_loss,
            "stop_grace_ms": self.stop_grace_ms,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> ContainerSpec:
        return cls(
            command=data["command"],
            env=data.get("env") or (),
            working_dir=data.get("working_dir"),
            isolation=Isolation(data.get("isolation", "none")),
            restart_on_monitor_loss=data.get("restart_on_monitor_loss", True),
            stop_grace_ms=data.get("stop_grace_ms", 10_000),
        )


class StateKind(str, enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    STOPPING = "stopping"
    EXITED = "exited"
    LOST = "lost"


class ContainerState(Value):
    """A lifecycle state; Exited carries exactly one of exit_code / term_signal."""

    __slots__ = ("kind", "exit_code", "term_signal")
    kind: StateKind
    exit_code: int | None
    term_signal: int | None

    def __init__(
        self, kind: StateKind, exit_code: int | None = None, term_signal: int | None = None
    ) -> None:
        kind = StateKind(kind)
        if kind is StateKind.EXITED:
            if (exit_code is None) == (term_signal is None):
                raise InvalidSpec("Exited needs exactly one of exit_code / term_signal")
            if exit_code is not None and not 0 <= exit_code <= 255:
                raise InvalidSpec(f"exit_code out of range: {exit_code}")
            if term_signal is not None and term_signal <= 0:
                raise InvalidSpec(f"term_signal must be positive: {term_signal}")
        elif exit_code is not None or term_signal is not None:
            raise InvalidSpec(f"{kind.value} state carries no exit status")
        self._init(kind, exit_code, term_signal)

    @classmethod
    def created(cls) -> ContainerState:
        return cls(StateKind.CREATED)

    @classmethod
    def running(cls) -> ContainerState:
        return cls(StateKind.RUNNING)

    @classmethod
    def paused(cls) -> ContainerState:
        return cls(StateKind.PAUSED)

    @classmethod
    def stopping(cls) -> ContainerState:
        return cls(StateKind.STOPPING)

    @classmethod
    def lost(cls) -> ContainerState:
        return cls(StateKind.LOST)

    @classmethod
    def exited(cls, *, code: int | None = None, signal: int | None = None) -> ContainerState:
        return cls(StateKind.EXITED, exit_code=code, term_signal=signal)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "exit_code": self.exit_code,
            "term_signal": self.term_signal,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> ContainerState:
        return cls(
            kind=StateKind(data["kind"]),
            exit_code=data.get("exit_code"),
            term_signal=data.get("term_signal"),
        )


# Everything may move to Exited except Exited itself (terminal); the extra
# non-Exited edges are exactly the ones the daemon's operations need.
_TRANSITIONS: dict[StateKind, frozenset[StateKind]] = {
    StateKind.CREATED: frozenset({StateKind.RUNNING, StateKind.EXITED, StateKind.LOST}),
    StateKind.RUNNING: frozenset(
        {StateKind.PAUSED, StateKind.STOPPING, StateKind.EXITED, StateKind.LOST}
    ),
    StateKind.PAUSED: frozenset({StateKind.RUNNING, StateKind.EXITED}),
    StateKind.STOPPING: frozenset({StateKind.EXITED}),
    StateKind.LOST: frozenset({StateKind.EXITED}),
    StateKind.EXITED: frozenset(),
}


def validate_transition(current: ContainerState, new: ContainerState) -> bool:
    """True iff the state machine admits current -> new.

    A paused (fully SIGSTOPped) process cannot run to a normal exit, but an
    uncatchable signal still kills it, so Paused -> Exited requires the
    term_signal variant.
    """
    if new.kind not in _TRANSITIONS[current.kind]:
        return False
    if current.kind is StateKind.PAUSED and new.kind is StateKind.EXITED:
        return new.term_signal is not None
    return True


def require_transition(current: ContainerState, new: ContainerState) -> None:
    """Raise IllegalTransition unless current -> new is legal."""
    if not validate_transition(current, new):
        raise IllegalTransition(f"{current.kind.value} -> {new.kind.value} is not legal")


class ExitReport(Value):
    """The durable termination record a monitor writes for its container."""

    __slots__ = ("container_id", "exit_code", "term_signal", "finished_at")
    container_id: str
    exit_code: int | None
    term_signal: int | None
    finished_at: int  # epoch milliseconds

    def __init__(
        self,
        container_id: str,
        exit_code: int | None,
        term_signal: int | None,
        finished_at: int,
    ) -> None:
        if not is_container_id(container_id):
            raise InvalidSpec(f"bad container id {container_id!r}")
        if (exit_code is None) == (term_signal is None):
            raise InvalidSpec("ExitReport needs exactly one of exit_code / term_signal")
        if exit_code is not None and not 0 <= exit_code <= 255:
            raise InvalidSpec(f"exit_code out of range: {exit_code}")
        if term_signal is not None and term_signal <= 0:
            raise InvalidSpec(f"term_signal must be positive: {term_signal}")
        if finished_at < 0:
            raise InvalidSpec(f"finished_at must be >= 0, got {finished_at}")
        self._init(container_id, exit_code, term_signal, finished_at)

    def state(self) -> ContainerState:
        """The Exited state this report maps to."""
        return ContainerState.exited(code=self.exit_code, signal=self.term_signal)


class ContainerRecord(Value):
    """Persisted registry entry for one container: unlike the other values,
    its fields change in place, so it has no hash.

    exit_unknown marks an Exited status the daemon synthesized without an
    exit file (monitor and container both gone); the recorded term_signal is
    then a stand-in, not an observation.
    """

    __slots__ = (
        "id", "spec", "mode", "state", "monitor", "container",
        "created_at", "started_at", "finished_at", "restart_count", "exit_unknown",
    )
    id: str
    spec: ContainerSpec
    mode: SupervisionMode
    state: ContainerState
    monitor: ProcessIdentity | None
    container: ProcessIdentity | None
    created_at: int | None
    started_at: int | None
    finished_at: int | None
    restart_count: int
    exit_unknown: bool

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        id: str,
        spec: ContainerSpec,
        mode: SupervisionMode,
        state: ContainerState | None = None,
        monitor: ProcessIdentity | None = None,
        container: ProcessIdentity | None = None,
        created_at: int | None = None,
        started_at: int | None = None,
        finished_at: int | None = None,
        restart_count: int = 0,
        exit_unknown: bool = False,
    ) -> None:
        self._init(
            id, spec, mode, state if state is not None else ContainerState.created(),
            monitor, container, created_at, started_at, finished_at, restart_count, exit_unknown,
        )

    def check(self) -> None:
        """Raise if a record invariant does not hold. Called before persisting."""
        if not is_container_id(self.id):
            raise InvalidSpec(f"bad container id {self.id!r}")
        if self.restart_count < 0:
            raise InvalidSpec("restart_count must be >= 0")
        if self.state.kind is StateKind.RUNNING and self.container is None:
            raise InvalidSpec(f"{self.id}: Running record without container identity")
        if self.state.kind is StateKind.EXITED and self.finished_at is None:
            raise InvalidSpec(f"{self.id}: Exited record without finished_at")

    def advance(self, new: ContainerState, *, at_ms: int | None = None) -> None:
        """Apply a validated state transition, stamping finished_at on exit."""
        require_transition(self.state, new)
        self.state = new
        if new.kind is StateKind.EXITED:
            self.finished_at = at_ms if at_ms is not None else now_ms()

    def reset_for_relaunch(self) -> None:
        """Begin a fresh lifecycle on this id (start/restart of a finished
        container). Not a state transition: the previous incarnation ended;
        the new one starts over from Created with the same id and spec.
        """
        if self.state.kind not in (StateKind.EXITED, StateKind.LOST):
            raise IllegalTransition(
                f"cannot relaunch a {self.state.kind.value} container; stop it first"
            )
        self.state = ContainerState.created()
        self.monitor = None
        self.container = None
        self.started_at = None
        self.finished_at = None
        self.exit_unknown = False
        self.restart_count += 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "mode": self.mode.value,
            "state": self.state.to_dict(),
            "monitor": self.monitor.to_dict() if self.monitor else None,
            "container": self.container.to_dict() if self.container else None,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "restart_count": self.restart_count,
            "exit_unknown": self.exit_unknown,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> ContainerRecord:
        return cls(
            id=data["id"],
            spec=ContainerSpec.from_dict(data["spec"]),
            mode=SupervisionMode(data["mode"]),
            state=ContainerState.from_dict(data["state"]),
            monitor=ProcessIdentity.from_dict(data["monitor"]) if data.get("monitor") else None,
            container=(
                ProcessIdentity.from_dict(data["container"]) if data.get("container") else None
            ),
            created_at=data.get("created_at"),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            restart_count=int(data.get("restart_count", 0)),
            exit_unknown=bool(data.get("exit_unknown", False)),
        )
