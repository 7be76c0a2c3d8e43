"""Sandbox behavior: spawning, group signals, /proc sampling, liveness guards."""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time

import pytest

from hydra.model import ContainerSpec, ExitReport, Isolation, ProcessIdentity
from hydra.sandbox import (
    IsolationUnsupported,
    SandboxHandle,
    SpawnError,
    is_alive,
    namespaces_supported,
    read_stat,
    report_from_status,
    sample_proc,
    signal_group,
    spawn,
)

from .conftest import proc_state
from .support import killpg_silently


def independent_group_members(pgid: int) -> list[int]:
    """Process-table walk that does not reuse the sandbox module's parser."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            raw = open(f"/proc/{entry}/stat").read()
        except OSError:
            continue
        fields = raw.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            members.append(int(entry))
    return members


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"condition not met within {timeout}s")


CID = "aabbccddeeff0011"


def wait_exit(handle: SandboxHandle, container_id: str) -> ExitReport:
    """Reap the container's first process (this process is its parent)."""
    _, status = os.waitpid(handle.pgid, 0)
    return report_from_status(container_id, status)


@pytest.fixture
def cleanup_group():
    """Kill any process group a test leaves behind."""
    groups: list[int] = []
    yield groups
    for pgid in groups:
        killpg_silently(pgid)
        try:
            os.waitpid(pgid, 0)
        except OSError:
            pass


class TestSpawn:
    def test_true_exits_zero(self):
        handle = spawn(ContainerSpec(command=("/bin/true",)))
        before = time.time() * 1000
        report = wait_exit(handle, CID)
        handle.close_stdio()
        assert report.exit_code == 0
        assert report.term_signal is None
        assert before - 5000 <= report.finished_at <= time.time() * 1000 + 1

    def test_exit_code_propagates(self):
        handle = spawn(ContainerSpec(command=("/bin/sh", "-c", "exit 7")))
        report = wait_exit(handle, CID)
        handle.close_stdio()
        assert report.exit_code == 7

    def test_nonexistent_binary_fails_without_zombie(self):
        with pytest.raises(SpawnError) as excinfo:
            spawn(ContainerSpec(command=("/nonexistent-binary-xyz",)))
        assert excinfo.value.errno == 2  # ENOENT
        # the failed child was reaped inside spawn; no defunct entry remains
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                row = read_stat(int(entry))
                if row and row.ppid == os.getpid():
                    assert row.state != "Z" or row.comm != "nonexistent-binary-xyz"

    def test_child_is_group_leader(self, cleanup_group):
        handle = spawn(ContainerSpec(command=("/bin/sleep", "60")))
        cleanup_group.append(handle.pgid)
        assert handle.pgid == handle.container.pid
        row = read_stat(handle.container.pid)
        assert row is not None and row.pgrp == handle.container.pid
        killpg_silently(handle.pgid)
        assert wait_exit(handle, CID).term_signal == signal.SIGKILL
        handle.close_stdio()

    def test_stdio_pipes(self):
        handle = spawn(
            ContainerSpec(command=("/bin/sh", "-c", "echo out; echo err 1>&2"))
        )
        report = wait_exit(handle, CID)
        assert report.exit_code == 0
        assert os.read(handle.stdout_r, 100) == b"out\n"
        assert os.read(handle.stderr_r, 100) == b"err\n"
        handle.close_stdio()

    def test_stdin_pipe_feeds_container(self):
        handle = spawn(ContainerSpec(command=("/bin/cat",)))
        os.write(handle.stdin_w, b"ping\n")
        assert os.read(handle.stdout_r, 100) == b"ping\n"
        os.close(handle.stdin_w)
        report = wait_exit(handle, CID)
        assert report.exit_code == 0
        os.close(handle.stdout_r)
        os.close(handle.stderr_r)

    def test_env_and_working_dir(self, tmp_path):
        spec = ContainerSpec(
            command=("/bin/sh", "-c", "echo $MARKER; pwd"),
            env=("MARKER=hello",),
            working_dir=str(tmp_path),
        )
        handle = spawn(spec)
        assert wait_exit(handle, CID).exit_code == 0
        out = os.read(handle.stdout_r, 4096)
        handle.close_stdio()
        assert out == f"hello\n{tmp_path}\n".encode()

    def test_signal_death_maps_to_term_signal(self):
        handle = spawn(ContainerSpec(command=("/bin/sh", "-c", "kill -TERM $$")))
        report = wait_exit(handle, CID)
        handle.close_stdio()
        assert report.term_signal == signal.SIGTERM
        assert report.exit_code is None


class TestSignalGroup:
    def test_kill_empties_shell_tree(self, cleanup_group):
        spec = ContainerSpec(command=("/bin/sh", "-c", "sleep 100 & sleep 100 & wait"))
        handle = spawn(spec)
        cleanup_group.append(handle.pgid)
        wait_until(lambda: len(independent_group_members(handle.pgid)) == 3)
        signal_group(handle.pgid, signal.SIGKILL)
        wait_exit(handle, CID)
        wait_until(lambda: not independent_group_members(handle.pgid), timeout=1.0)
        handle.close_stdio()

    def test_stop_and_cont(self, cleanup_group):
        handle = spawn(ContainerSpec(command=("/bin/sleep", "60")))
        cleanup_group.append(handle.pgid)
        signal_group(handle.pgid, signal.SIGSTOP)
        wait_until(lambda: proc_state(handle.container.pid) == "T")
        signal_group(handle.pgid, signal.SIGCONT)
        wait_until(lambda: proc_state(handle.container.pid) in ("S", "R"))
        signal_group(handle.pgid, signal.SIGKILL)
        wait_exit(handle, CID)
        handle.close_stdio()

    def test_kill_is_idempotent(self):
        handle = spawn(ContainerSpec(command=("/bin/sleep", "60")))
        assert signal_group(handle.pgid, signal.SIGKILL) is True
        wait_exit(handle, CID)
        assert signal_group(handle.pgid, signal.SIGKILL) is False  # gone: no-op
        handle.close_stdio()

    def test_random_trees_emptied_within_a_second(self, cleanup_group):
        """Group kill empties randomly shaped trees (depth <= 3, width <= 3)."""
        tree_src = (
            "import json, os, sys, time\n"
            "def node(subtrees):\n"
            "    for sub in subtrees:\n"
            "        if os.fork() == 0:\n"
            "            node(sub)  # sleeps forever below, never returns\n"
            "    time.sleep(120)\n"
            "node(json.loads(sys.argv[1]))\n"
        )
        rng = random.Random(11)
        for attempt in range(4):
            shape = _random_tree(rng)
            expected = _tree_size(shape)
            handle = spawn(
                ContainerSpec(command=(sys.executable, "-c", tree_src, json.dumps(shape)))
            )
            cleanup_group.append(handle.pgid)
            wait_until(
                lambda: len(independent_group_members(handle.pgid)) == expected, timeout=15
            )
            signal_group(handle.pgid, signal.SIGKILL)
            wait_exit(handle, CID)
            deadline = time.monotonic() + 1.0
            while independent_group_members(handle.pgid):
                assert time.monotonic() < deadline, f"tree {shape}: subtree survived kill"
                time.sleep(0.005)
            handle.close_stdio()


def _random_tree(rng: random.Random, depth: int = 0) -> list:
    kids = rng.randint(1, 3) if depth == 0 else rng.randint(0, 3) if depth < 3 else 0
    return [_random_tree(rng, depth + 1) for _ in range(kids)]


def _tree_size(shape: list) -> int:
    return 1 + sum(_tree_size(sub) for sub in shape)


class TestSampleProc:
    def test_single_sleep_one_row(self, cleanup_group):
        handle = spawn(ContainerSpec(command=("/bin/sleep", "60")))
        cleanup_group.append(handle.pgid)
        sample = wait_until(lambda: sample_proc(handle.pgid).rows and sample_proc(handle.pgid))
        assert len(sample.rows) == 1
        assert sample.rows[0].command == "sleep"
        assert sample.rows[0].pid == handle.container.pid
        signal_group(handle.pgid, signal.SIGKILL)
        wait_exit(handle, CID)
        handle.close_stdio()

    def test_shell_tree_has_four_rows(self, cleanup_group):
        spec = ContainerSpec(
            command=("/bin/sh", "-c", "sleep 100 & sleep 100 & sleep 100 & wait")
        )
        handle = spawn(spec)
        cleanup_group.append(handle.pgid)
        wait_until(lambda: len(independent_group_members(handle.pgid)) == 4)
        sample = sample_proc(handle.pgid)
        assert len(sample.rows) == 4
        assert sum(row.rss_bytes for row in sample.rows) > 0
        assert sorted(r.pid for r in sample.rows) == sorted(
            independent_group_members(handle.pgid)
        )
        signal_group(handle.pgid, signal.SIGKILL)
        wait_exit(handle, CID)
        handle.close_stdio()

    def test_empty_after_group_kill(self, cleanup_group):
        handle = spawn(ContainerSpec(command=("/bin/sleep", "60")))
        signal_group(handle.pgid, signal.SIGKILL)
        wait_exit(handle, CID)
        wait_until(lambda: not sample_proc(handle.pgid).rows, timeout=1.0)
        handle.close_stdio()


class TestIsAlive:
    def test_live_child_true_then_monotone_false(self):
        handle = spawn(ContainerSpec(command=("/bin/sleep", "60")))
        ident = handle.container
        assert is_alive(ident) is True
        signal_group(handle.pgid, signal.SIGKILL)
        wait_exit(handle, CID)
        results = [is_alive(ident) for _ in range(5)]
        assert results == [False] * 5  # once false, never true again
        handle.close_stdio()

    def test_mutated_ticks_false(self):
        handle = spawn(ContainerSpec(command=("/bin/sleep", "60")))
        wrong = ProcessIdentity(
            pid=handle.container.pid, start_ticks=handle.container.start_ticks + 1
        )
        assert is_alive(handle.container) is True
        assert is_alive(wrong) is False
        signal_group(handle.pgid, signal.SIGKILL)
        wait_exit(handle, CID)
        handle.close_stdio()

    def test_zombie_counts_as_dead(self):
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        ident = wait_until(lambda: read_stat(pid) and ProcessIdentity(pid, read_stat(pid).start_ticks))
        wait_until(lambda: read_stat(pid).state == "Z")
        assert is_alive(ident) is False
        os.waitpid(pid, 0)


@pytest.mark.skipif(not namespaces_supported(), reason="host denies namespace creation")
class TestNamespaces:
    def test_namespaced_spawn_runs_and_dies_by_group_kill(self, cleanup_group):
        spec = ContainerSpec(command=("/bin/sleep", "60"), isolation=Isolation.NAMESPACES)
        handle = spawn(spec)
        cleanup_group.append(handle.pgid)
        assert is_alive(handle.container)
        # the container lives in its own pid namespace, we do not
        ours = os.readlink("/proc/self/ns/pid")
        theirs = os.readlink(f"/proc/{handle.container.pid}/ns/pid")
        assert ours != theirs
        signal_group(handle.pgid, signal.SIGKILL)
        assert wait_exit(handle, CID).term_signal == signal.SIGKILL
        handle.close_stdio()

    def test_spawner_namespace_restored(self):
        """Spawning with isolation must not drag the caller into the new ns."""
        before = os.readlink("/proc/self/ns/pid_for_children")
        spec = ContainerSpec(command=("/bin/true",), isolation=Isolation.NAMESPACES)
        handle = spawn(spec)
        wait_exit(handle, CID)
        handle.close_stdio()
        assert os.readlink("/proc/self/ns/pid_for_children") == before
