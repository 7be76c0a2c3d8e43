"""Domain type invariants: ids, specs, identities, the state machine, records."""

from __future__ import annotations

import random

import pytest

from hydra.daemon import DaemonConfig
from hydra.model import (
    ContainerRecord,
    ContainerSpec,
    ContainerState,
    ExitReport,
    IllegalTransition,
    InvalidSpec,
    Isolation,
    ProcessIdentity,
    StateKind,
    SupervisionMode,
    is_container_id,
    new_container_id,
    require_transition,
    validate_transition,
)

from .support import make_random_record, make_random_spec

ID_GOLDEN_SEED_0 = "629f6fbed82c07cd"  # frozen output of the seeded generator


class TestContainerId:
    def test_seeded_golden(self):
        """Seed 0 must produce the same id forever."""
        assert new_container_id(0) == ID_GOLDEN_SEED_0
        assert new_container_id(0) == ID_GOLDEN_SEED_0

    def test_format(self):
        for _ in range(100):
            assert is_container_id(new_container_id())

    def test_seeds_differ(self):
        ids = {new_container_id(seed) for seed in range(200)}
        assert len(ids) == 200

    def test_unseeded_distinct(self):
        ids = {new_container_id() for _ in range(200)}
        assert len(ids) == 200

    def test_validator_rejects_garbage(self):
        assert not is_container_id("")
        assert not is_container_id("AABBCCDDEEFF0011")  # uppercase
        assert not is_container_id("aabbccddeeff001")  # 15 chars
        assert not is_container_id("aabbccddeeff00111")  # 17 chars
        assert not is_container_id(42)


class TestProcessIdentity:
    def test_round_trip(self):
        ident = ProcessIdentity(pid=1234, start_ticks=567890)
        assert ProcessIdentity.from_dict(ident.to_dict()) == ident

    def test_rejects_bad_pid(self):
        with pytest.raises(InvalidSpec):
            ProcessIdentity(pid=0, start_ticks=1)
        with pytest.raises(InvalidSpec):
            ProcessIdentity(pid=-5, start_ticks=1)

    def test_rejects_negative_ticks(self):
        with pytest.raises(InvalidSpec):
            ProcessIdentity(pid=1, start_ticks=-1)


class TestContainerSpec:
    def test_defaults(self):
        spec = ContainerSpec(command=("/bin/true",))
        assert spec.env == ()
        assert spec.isolation is Isolation.NONE
        assert spec.restart_on_monitor_loss is True
        assert spec.stop_grace_ms == 10_000

    def test_coerces_lists(self):
        spec = ContainerSpec(command=["/bin/echo", "hi"], env=["A=1"])
        assert spec.command == ("/bin/echo", "hi")
        assert spec.env == ("A=1",)

    def test_rejects_empty_command(self):
        with pytest.raises(InvalidSpec):
            ContainerSpec(command=())
        with pytest.raises(InvalidSpec):
            ContainerSpec(command=("",))

    def test_rejects_relative_working_dir(self):
        with pytest.raises(InvalidSpec):
            ContainerSpec(command=("/bin/true",), working_dir="tmp/x")

    def test_rejects_bad_env(self):
        with pytest.raises(InvalidSpec):
            ContainerSpec(command=("/bin/true",), env=("NOVALUE",))

    def test_rejects_negative_grace(self):
        with pytest.raises(InvalidSpec):
            ContainerSpec(command=("/bin/true",), stop_grace_ms=-1)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            spec = make_random_spec(rng)
            assert ContainerSpec.from_dict(spec.to_dict()) == spec


class TestContainerState:
    def test_exited_needs_exactly_one_status(self):
        with pytest.raises(InvalidSpec):
            ContainerState(StateKind.EXITED)
        with pytest.raises(InvalidSpec):
            ContainerState(StateKind.EXITED, exit_code=0, term_signal=9)

    def test_non_exited_carries_no_status(self):
        with pytest.raises(InvalidSpec):
            ContainerState(StateKind.RUNNING, exit_code=0)

    def test_exit_code_range(self):
        with pytest.raises(InvalidSpec):
            ContainerState.exited(code=256)
        with pytest.raises(InvalidSpec):
            ContainerState.exited(code=-1)
        assert ContainerState.exited(code=255).exit_code == 255

    def test_round_trip(self):
        for state in [
            ContainerState.created(),
            ContainerState.running(),
            ContainerState.exited(code=7),
            ContainerState.exited(signal=9),
        ]:
            assert ContainerState.from_dict(state.to_dict()) == state


# One representative per distinguishable state, Exited split by variant.
REPRESENTATIVES = {
    "created": ContainerState.created(),
    "running": ContainerState.running(),
    "paused": ContainerState.paused(),
    "stopping": ContainerState.stopping(),
    "lost": ContainerState.lost(),
    "exited_code": ContainerState.exited(code=0),
    "exited_signal": ContainerState.exited(signal=9),
}

# The full legal set, written out by hand as the oracle: anything not listed
# is illegal. Exited is terminal; Paused can only die by signal.
LEGAL_TRANSITIONS = {
    ("created", "running"),
    ("created", "exited_code"),
    ("created", "exited_signal"),
    ("created", "lost"),
    ("running", "paused"),
    ("running", "stopping"),
    ("running", "exited_code"),
    ("running", "exited_signal"),
    ("running", "lost"),
    ("paused", "running"),
    ("paused", "exited_signal"),
    ("stopping", "exited_code"),
    ("stopping", "exited_signal"),
    ("lost", "exited_code"),
    ("lost", "exited_signal"),
}


class TestTransitions:
    def test_full_enumeration(self):
        """Every (from, to) pair agrees with the hand-written oracle table."""
        for from_name, from_state in REPRESENTATIVES.items():
            for to_name, to_state in REPRESENTATIVES.items():
                expected = (from_name, to_name) in LEGAL_TRANSITIONS
                assert validate_transition(from_state, to_state) is expected, (
                    f"{from_name} -> {to_name}"
                )

    def test_spec_examples(self):
        assert validate_transition(ContainerState.running(), ContainerState.paused())
        assert not validate_transition(
            ContainerState.paused(), ContainerState.exited(code=0)
        )
        assert validate_transition(
            ContainerState.paused(), ContainerState.exited(signal=9)
        )
        assert not validate_transition(
            ContainerState.exited(code=0), ContainerState.running()
        )

    def test_require_transition_raises(self):
        with pytest.raises(IllegalTransition):
            require_transition(ContainerState.exited(code=0), ContainerState.running())

    def test_random_walk_closure(self):
        """Walks that only take validated steps never step outside the oracle
        set, and every rejected candidate raises on require_transition."""
        rng = random.Random(42)
        names = list(REPRESENTATIVES)
        for _ in range(300):
            here = "created"
            for _ in range(12):
                allowed = [
                    n
                    for n in names
                    if validate_transition(REPRESENTATIVES[here], REPRESENTATIVES[n])
                ]
                for name in names:
                    if name not in allowed:
                        with pytest.raises(IllegalTransition):
                            require_transition(
                                REPRESENTATIVES[here], REPRESENTATIVES[name]
                            )
                if not allowed:
                    assert here in ("exited_code", "exited_signal")  # only terminals dead-end
                    break
                nxt = rng.choice(allowed)
                assert (here, nxt) in LEGAL_TRANSITIONS
                here = nxt


class TestExitReport:
    def test_exactly_one_status(self):
        with pytest.raises(InvalidSpec):
            ExitReport("a" * 16, None, None, 0)
        with pytest.raises(InvalidSpec):
            ExitReport("a" * 16, 0, 9, 0)

    def test_bad_id(self):
        with pytest.raises(InvalidSpec):
            ExitReport("nope", 0, None, 0)

    def test_state_mapping(self):
        assert ExitReport("a" * 16, 7, None, 5).state() == ContainerState.exited(code=7)
        assert ExitReport("a" * 16, None, 9, 5).state() == ContainerState.exited(signal=9)


class TestContainerRecord:
    def _record(self) -> ContainerRecord:
        return ContainerRecord(
            id=new_container_id(1),
            spec=ContainerSpec(command=("/bin/sleep", "60")),
            mode=SupervisionMode.DECOUPLED,
        )

    def test_running_requires_container_identity(self):
        record = self._record()
        record.state = ContainerState.running()
        with pytest.raises(InvalidSpec):
            record.check()
        record.container = ProcessIdentity(pid=10, start_ticks=5)
        record.check()

    def test_exited_requires_finished_at(self):
        record = self._record()
        record.state = ContainerState.exited(code=0)
        with pytest.raises(InvalidSpec):
            record.check()
        record.finished_at = 123
        record.check()

    def test_advance_stamps_finished_at(self):
        record = self._record()
        record.container = ProcessIdentity(pid=10, start_ticks=5)
        record.advance(ContainerState.running())
        assert record.finished_at is None
        record.advance(ContainerState.exited(code=3), at_ms=777)
        assert record.finished_at == 777

    def test_advance_rejects_illegal(self):
        record = self._record()
        with pytest.raises(IllegalTransition):
            record.advance(ContainerState.paused())

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(300):
            record = make_random_record(rng)
            clone = ContainerRecord.from_dict(record.to_dict())
            assert clone == record

    def test_reset_for_relaunch_starts_a_fresh_lifecycle(self):
        record = self._record()
        record.container = ProcessIdentity(pid=10, start_ticks=5)
        record.monitor = ProcessIdentity(pid=11, start_ticks=6)
        record.advance(ContainerState.running())
        record.advance(ContainerState.exited(code=3))
        record.exit_unknown = True
        record.reset_for_relaunch()
        assert record.state == ContainerState.created()
        assert record.container is None and record.monitor is None
        assert record.finished_at is None and record.started_at is None
        assert record.exit_unknown is False
        assert record.restart_count == 1
        # the fresh lifecycle accepts the normal launch transition again
        record.container = ProcessIdentity(pid=12, start_ticks=7)
        record.advance(ContainerState.running())

    def test_reset_for_relaunch_rejects_live_states(self):
        record = self._record()
        record.container = ProcessIdentity(pid=10, start_ticks=5)
        for state in (
            ContainerState.created(),
            ContainerState.running(),
            ContainerState.paused(),
            ContainerState.stopping(),
        ):
            record.state = state
            with pytest.raises(IllegalTransition):
                record.reset_for_relaunch()

    def test_reset_for_relaunch_allows_lost(self):
        record = self._record()
        record.state = ContainerState.lost()
        record.reset_for_relaunch()
        assert record.state.kind is StateKind.CREATED
        assert record.restart_count == 1


SPEC = ContainerSpec(("/bin/true",))
# Each value type built positionally and by keyword, every field given: the
# two must agree, and each must be the type's one value for these fields.
VALUES = {
    "identity": (ProcessIdentity, (7, 3), {"pid": 7, "start_ticks": 3}),
    "spec": (
        ContainerSpec,
        (("/bin/sh", "-c", "true"), ("A=1",), "/tmp", Isolation.NAMESPACES, False, 5),
        {
            "command": ("/bin/sh", "-c", "true"),
            "env": ("A=1",),
            "working_dir": "/tmp",
            "isolation": Isolation.NAMESPACES,
            "restart_on_monitor_loss": False,
            "stop_grace_ms": 5,
        },
    ),
    "state": (
        ContainerState,
        (StateKind.EXITED, None, 9),
        {"kind": StateKind.EXITED, "exit_code": None, "term_signal": 9},
    ),
    "report": (
        ExitReport,
        ("a" * 16, 3, None, 5),
        {"container_id": "a" * 16, "exit_code": 3, "term_signal": None, "finished_at": 5},
    ),
    "daemon_config": (
        DaemonConfig,
        ("/tmp/s", SupervisionMode.LAZY),
        {"state_root": "/tmp/s", "mode": SupervisionMode.LAZY},
    ),
}

# Values of the same type that differ from VALUES' in one field, or in the
# two status fields, which cannot change one at a time.
OTHERS = {
    "identity": [(8, 3), (7, 4)],
    "spec": [
        (("/bin/false",), ("A=1",), "/tmp", Isolation.NAMESPACES, False, 5),
        (("/bin/sh", "-c", "true"), (), "/tmp", Isolation.NAMESPACES, False, 5),
        (("/bin/sh", "-c", "true"), ("A=1",), None, Isolation.NAMESPACES, False, 5),
        (("/bin/sh", "-c", "true"), ("A=1",), "/tmp", Isolation.NONE, False, 5),
        (("/bin/sh", "-c", "true"), ("A=1",), "/tmp", Isolation.NAMESPACES, True, 5),
        (("/bin/sh", "-c", "true"), ("A=1",), "/tmp", Isolation.NAMESPACES, False, 6),
    ],
    "state": [(StateKind.EXITED, None, 15), (StateKind.EXITED, 9, None)],
    "report": [("b" * 16, 3, None, 5), ("a" * 16, 4, None, 5), ("a" * 16, None, 3, 5),
               ("a" * 16, 3, None, 6)],
    "daemon_config": [("/tmp/t", SupervisionMode.LAZY), ("/tmp/s", SupervisionMode.COUPLED)],
}


class TestValueTypes:
    """The contract every value type keeps: construction, validation,
    immutability, equality and hashing."""

    @pytest.mark.parametrize("name", VALUES)
    def test_positional_and_keyword_construction_agree(self, name):
        cls, args, kwargs = VALUES[name]
        value = cls(*args)
        assert value == cls(**kwargs)
        assert hash(value) == hash(cls(**kwargs))
        assert [getattr(value, field) for field in kwargs] == list(args)
        assert repr(value).startswith(f"{cls.__name__}(")

    @pytest.mark.parametrize("name", VALUES)
    def test_fields_cannot_be_assigned(self, name):
        cls, args, kwargs = VALUES[name]
        value = cls(*args)
        for field, old in kwargs.items():
            with pytest.raises(AttributeError):
                setattr(value, field, old)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.not_a_field = 1

    @pytest.mark.parametrize("name", VALUES)
    def test_each_field_takes_part_in_equality(self, name):
        cls, args, _ = VALUES[name]
        value = cls(*args)
        for other in OTHERS[name]:
            assert cls(*other) != value and not cls(*other) == value, other
        assert value != args and value != cls.__name__

    def test_defaults(self):
        assert ContainerSpec(("/bin/true",)) == ContainerSpec(
            ("/bin/true",), (), None, Isolation.NONE, True, 10_000
        )
        assert ContainerState(StateKind.RUNNING) == ContainerState(StateKind.RUNNING, None, None)
        assert DaemonConfig("/tmp/s") == DaemonConfig("/tmp/s", SupervisionMode.DECOUPLED)
        record = ContainerRecord(new_container_id(1), SPEC, SupervisionMode.LAZY)
        assert record == ContainerRecord(
            new_container_id(1), SPEC, SupervisionMode.LAZY, ContainerState.created(),
            None, None, None, None, None, 0, False,
        )

    def test_coercion(self):
        spec = ContainerSpec(["/bin/true"], ["A=1"], isolation="namespaces")
        assert spec.command == ("/bin/true",) and spec.env == ("A=1",)
        assert spec.isolation is Isolation.NAMESPACES
        assert ContainerState("running").kind is StateKind.RUNNING
        assert DaemonConfig("/tmp/s", "coupled").mode is SupervisionMode.COUPLED
        with pytest.raises(ValueError):
            ContainerSpec(("/bin/true",), isolation="chroot")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ProcessIdentity(0, 1), "pid must be positive, got 0"),
            (lambda: ProcessIdentity(pid=-5, start_ticks=1), "pid must be positive, got -5"),
            (lambda: ProcessIdentity(1, -1), "start_ticks must be >= 0, got -1"),
            (lambda: ContainerSpec(()), "command must be a non-empty argv list"),
            (lambda: ContainerSpec(command=("",)), "command must be a non-empty argv list"),
            (
                lambda: ContainerSpec(("/bin/true",), working_dir="tmp/x"),
                "working_dir must be absolute, got 'tmp/x'",
            ),
            (
                lambda: ContainerSpec(("/bin/true",), ("NOVALUE",)),
                "env entry 'NOVALUE' is not KEY=VALUE",
            ),
            (
                lambda: ContainerState(StateKind.EXITED),
                "Exited needs exactly one of exit_code / term_signal",
            ),
            (
                lambda: ContainerState(StateKind.EXITED, exit_code=0, term_signal=9),
                "Exited needs exactly one of exit_code / term_signal",
            ),
            (
                lambda: ContainerState(StateKind.RUNNING, exit_code=0),
                "running state carries no exit status",
            ),
            (
                lambda: ExitReport("a" * 16, None, None, 0),
                "ExitReport needs exactly one of exit_code / term_signal",
            ),
            (
                lambda: ExitReport("a" * 16, 0, 9, 0),
                "ExitReport needs exactly one of exit_code / term_signal",
            ),
            (lambda: ExitReport("nope", 0, None, 0), "bad container id 'nope'"),
            (lambda: ExitReport("a" * 16, 0, None, -1), "finished_at must be >= 0, got -1"),
        ],
    )
    def test_invalid_values_raise_the_same_error(self, build, message):
        with pytest.raises(InvalidSpec) as caught:
            build()
        assert str(caught.value) == message

    def test_record_is_mutable_and_unhashable(self):
        record = ContainerRecord(new_container_id(1), SPEC, SupervisionMode.LAZY)
        clone = ContainerRecord.from_dict(record.to_dict())
        assert clone == record
        clone.restart_count = 2
        assert clone != record
        with pytest.raises(TypeError):
            hash(record)
