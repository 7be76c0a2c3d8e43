"""Command-line contract: exit codes, stdio fidelity, rendering."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from hydra.cli import _wait_pid_gone
from hydra.protocol import resolve_layout

from .conftest import hydra_env, kill_group_silently, kill_silently, run_cli, wait_for
from .support import write_settled


@pytest.fixture(scope="module")
def shared_dir():
    """One CLI-started daemon for the whole module; containers are cheap."""
    root = tempfile.mkdtemp(prefix="hyb", dir="/tmp")
    started = run_cli("daemon", "start", state_dir=root)
    assert started.returncode == 0, started.stderr
    yield root
    rows = []
    listing = run_cli("ps", "--json", state_dir=root)
    if listing.returncode == 0:
        rows = json.loads(listing.stdout)["containers"]
    run_cli("daemon", "stop", state_dir=root)
    for row in rows:
        kill_group_silently(row.get("pid"))
        kill_silently(row.get("pid"))
        kill_silently(row.get("monitor_pid"))
    shutil.rmtree(root, ignore_errors=True)


def detached(shared_dir: str, *command: str) -> str:
    result = run_cli("run", "-d", "--", *command, state_dir=shared_dir)
    assert result.returncode == 0, result.stderr
    return result.stdout.decode().strip()


# -- exit-code contract ------------------------------------------------------------


def test_unknown_command_is_user_error(shared_dir):
    result = run_cli("definitely-not-a-command", state_dir=shared_dir)
    assert result.returncode == 1
    assert b"usage" in result.stderr.lower()


def test_no_command_prints_usage(shared_dir):
    result = run_cli(state_dir=shared_dir)
    assert result.returncode == 1
    assert b"usage" in result.stderr.lower()


def test_help_exits_zero(shared_dir):
    result = run_cli("--help", state_dir=shared_dir)
    assert result.returncode == 0
    assert b"COMMAND" in result.stdout


def test_unreachable_daemon_is_transport_error():
    root = tempfile.mkdtemp(prefix="hyb", dir="/tmp")
    try:
        result = run_cli("ps", state_dir=root)
        assert result.returncode == 2
        assert b"daemon.sock" in result.stderr
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_missing_container_is_user_error(shared_dir):
    result = run_cli("wait", "0123456789abcdef", state_dir=shared_dir)
    assert result.returncode == 1
    assert b"not_found" in result.stderr


def test_run_without_command_is_user_error(shared_dir):
    result = run_cli("run", state_dir=shared_dir)
    assert result.returncode == 1


# -- daemon lifecycle --------------------------------------------------------------


def test_daemon_start_status_stop_cycle():
    root = tempfile.mkdtemp(prefix="hyb", dir="/tmp")
    try:
        first = run_cli("daemon", "start", state_dir=root)
        assert first.returncode == 0
        assert b"daemon started" in first.stdout

        dup = run_cli("daemon", "start", state_dir=root)
        assert dup.returncode == 1
        assert b"already running" in dup.stderr

        status = run_cli("daemon", "status", state_dir=root)
        assert status.returncode == 0
        assert b"mode:" in status.stdout and b"decoupled" in status.stdout

        stopped = run_cli("daemon", "stop", state_dir=root)
        assert stopped.returncode == 0
        assert b"stopped" in stopped.stdout

        after = run_cli("ps", state_dir=root)
        assert after.returncode == 2
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_daemon_stop_waits_for_the_exit_not_the_timeout():
    proc = subprocess.Popen(["sleep", "0.2"])
    started = time.monotonic()
    _wait_pid_gone(proc.pid, timeout_s=10.0)
    assert time.monotonic() - started < 5.0
    assert proc.wait(timeout=1.0) == 0
    started = time.monotonic()
    _wait_pid_gone(proc.pid, timeout_s=10.0)  # reaped: already gone
    assert time.monotonic() - started < 1.0


def test_relative_state_dir_resolves_against_cwd():
    cwd = tempfile.mkdtemp(prefix="hyb", dir="/tmp")
    try:
        started = run_cli("--state-dir", "s", "daemon", "start", state_dir="", cwd=cwd)
        assert started.returncode == 0, started.stderr
        status = run_cli("--state-dir", "s", "--json", "daemon", "status", state_dir="", cwd=cwd)
        assert status.returncode == 0, status.stderr
        assert json.loads(status.stdout)["state_dir"] == os.path.join(cwd, "s")
    finally:
        run_cli("--state-dir", "s", "daemon", "stop", state_dir="", cwd=cwd)
        shutil.rmtree(cwd, ignore_errors=True)


def test_ps_lists_ten_thousand_containers():
    # Far more summaries than one 1 MiB reply line holds.
    root = tempfile.mkdtemp(prefix="hyb", dir="/tmp")
    try:
        codes = write_settled(resolve_layout(root), 10_000)
        assert run_cli("daemon", "start", state_dir=root).returncode == 0
        listing = run_cli("ps", state_dir=root, timeout_s=60.0)
        assert listing.returncode == 0, listing.stderr
        rows = listing.stdout.decode().splitlines()[1:]
        assert [row.split()[0] for row in rows] == sorted(codes)
    finally:
        run_cli("daemon", "stop", state_dir=root)
        shutil.rmtree(root, ignore_errors=True)


def test_daemon_start_honors_mode_flag():
    root = tempfile.mkdtemp(prefix="hyb", dir="/tmp")
    try:
        started = run_cli("--mode", "lazy", "daemon", "start", state_dir=root)
        assert started.returncode == 0
        status = run_cli("--json", "daemon", "status", state_dir=root)
        assert json.loads(status.stdout)["mode"] == "lazy"
    finally:
        run_cli("daemon", "stop", state_dir=root)
        shutil.rmtree(root, ignore_errors=True)


# -- entry points ------------------------------------------------------------------

ENGINE_MODULES = {"asyncio", "hydra.daemon", "hydra.monitor", "hydra.sandbox"}
# What the foreground daemon must not import: the command line and its parser,
# the client, and modules the engine's values and ids can do without.
NOT_SERVING = {
    "argparse", "gettext", "hydra.cli", "hydra.client",
    "dataclasses", "secrets", "hashlib", "_hashlib",
}


def test_client_commands_load_no_engine():
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, hydra.cli; print(*sys.modules)"],
        env=hydra_env(""),
        capture_output=True,
        timeout=30,
    )
    assert probe.returncode == 0, probe.stderr
    loaded = set(probe.stdout.decode().split())
    assert "hydra.cli" in loaded and "hydra.client" in loaded
    assert not loaded & ENGINE_MODULES


@pytest.mark.parametrize("mode", [["--mode", "bogus"], ["--mode=bogus"]])
def test_foreground_daemon_with_unknown_mode_is_user_error(mode):
    root = tempfile.mkdtemp(prefix="hyb", dir="/tmp")
    try:
        result = run_cli(*mode, "daemon", "start", "--foreground", state_dir=root)
        assert result.returncode == 1
        assert b"bogus" in result.stderr
        assert not os.path.exists(os.path.join(root, "daemon.sock"))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_foreground_daemon_imports_only_what_serving_needs():
    root = tempfile.mkdtemp(prefix="hyb", dir="/tmp")
    log = os.path.join(root, "importtime.log")
    with open(log, "wb") as fh:
        proc = subprocess.Popen(
            [
                sys.executable, "-X", "importtime", "-m", "hydra",
                "--state-dir", root, "daemon", "start", "--foreground",
            ],
            env=hydra_env(""),
            stdin=subprocess.DEVNULL,
            stdout=fh,
            stderr=fh,
            start_new_session=True,
        )
    try:
        assert wait_for(
            lambda: run_cli("daemon", "status", state_dir=root).returncode == 0,
            timeout_s=15.0,
        )
        assert run_cli("daemon", "stop", state_dir=root).returncode == 0
        assert proc.wait(timeout=10) == 0
        with open(log) as fh:
            imported = {
                line.rpartition("|")[2].strip()
                for line in fh
                if line.startswith("import time:")
            }
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(root, ignore_errors=True)
    assert ENGINE_MODULES <= imported
    assert not imported & NOT_SERVING, sorted(imported & NOT_SERVING)


# -- run in the foreground ----------------------------------------------------------


def test_foreground_mirrors_exit_code(shared_dir):
    result = run_cli("run", "--", "sh", "-c", "exit 5", state_dir=shared_dir)
    assert result.returncode == 5


def test_foreground_mirrors_signal_death(shared_dir):
    result = run_cli("run", "--", "sh", "-c", "kill -KILL $$", state_dir=shared_dir)
    assert result.returncode == 137


def test_foreground_streams_fast_output(shared_dir):
    result = run_cli("run", "--", "sh", "-c", "echo fast", state_dir=shared_dir)
    assert result.returncode == 0
    assert result.stdout == b"fast\n"


def test_foreground_pipes_stdin(shared_dir):
    result = run_cli(
        "run", "--", "cat", state_dir=shared_dir, stdin=b"over the wire\n"
    )
    assert result.returncode == 0
    assert result.stdout == b"over the wire\n"


def test_foreground_keeps_streams_apart(shared_dir):
    result = run_cli(
        "run", "--", "sh", "-c", "echo out; echo err >&2", state_dir=shared_dir
    )
    assert result.returncode == 0
    assert result.stdout == b"out\n"
    assert result.stderr == b"err\n"


def test_sigint_forwards_term_to_container(shared_dir):
    env = dict(os.environ, HYDRA_STATE_DIR=shared_dir)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "hydra",
            "run",
            "--",
            "sh",
            "-c",
            'trap "exit 36" TERM; echo ready; while true; do sleep 0.2; done',
        ],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout is not None
    assert proc.stdout.readline() == b"ready\n"
    time.sleep(0.1)
    proc.send_signal(signal.SIGINT)
    assert proc.wait(timeout=20) == 36


# -- container management -----------------------------------------------------------


def test_run_detach_prints_id(shared_dir):
    container_id = detached(shared_dir, "sleep", "60")
    assert len(container_id) == 16
    int(container_id, 16)  # hex
    listing = run_cli("ps", state_dir=shared_dir)
    line = next(
        l for l in listing.stdout.decode().splitlines() if container_id in l
    )
    assert "running" in line and "sleep 60" in line


def test_wait_prints_exit_code_and_succeeds(shared_dir):
    container_id = detached(shared_dir, "sh", "-c", "exit 7")
    result = run_cli("wait", container_id, state_dir=shared_dir)
    assert result.returncode == 0
    assert result.stdout == b"7\n"


def test_stop_then_start_then_restart(shared_dir):
    container_id = detached(shared_dir, "sleep", "60")
    assert run_cli("stop", container_id, state_dir=shared_dir).returncode == 0
    waited = run_cli("wait", container_id, state_dir=shared_dir)
    assert waited.stdout == b"143\n"  # SIGTERM

    assert run_cli("start", container_id, state_dir=shared_dir).returncode == 0
    assert run_cli("restart", container_id, state_dir=shared_dir).returncode == 0
    listing = json.loads(
        run_cli("ps", "--json", state_dir=shared_dir).stdout
    )["containers"]
    row = next(r for r in listing if r["id"] == container_id)
    assert row["state"] == "running"
    assert row["restart_count"] >= 1
    run_cli("kill", container_id, state_dir=shared_dir)


def test_kill_then_ps_marks_signal_exit(shared_dir):
    container_id = detached(shared_dir, "sleep", "60")
    assert run_cli("kill", container_id, state_dir=shared_dir).returncode == 0
    run_cli("wait", container_id, state_dir=shared_dir)
    listing = run_cli("ps", state_dir=shared_dir)
    line = next(
        l for l in listing.stdout.decode().splitlines() if container_id in l
    )
    assert "exited(sig9)" in line


def test_rm_refuses_running_container(shared_dir):
    container_id = detached(shared_dir, "sleep", "60")
    refused = run_cli("rm", container_id, state_dir=shared_dir)
    assert refused.returncode == 1
    assert b"rm_running" in refused.stderr
    run_cli("kill", container_id, state_dir=shared_dir)
    run_cli("wait", container_id, state_dir=shared_dir)
    assert run_cli("rm", container_id, state_dir=shared_dir).returncode == 0


def test_pause_and_unpause(shared_dir):
    container_id = detached(shared_dir, "sleep", "60")
    assert run_cli("pause", container_id, state_dir=shared_dir).returncode == 0
    listing = run_cli("ps", state_dir=shared_dir).stdout.decode()
    assert "paused" in next(l for l in listing.splitlines() if container_id in l)
    assert run_cli("unpause", container_id, state_dir=shared_dir).returncode == 0
    run_cli("kill", container_id, state_dir=shared_dir)


# -- logs / exec / observation --------------------------------------------------------


def test_logs_replay_after_exit(shared_dir):
    container_id = detached(shared_dir, "sh", "-c", "echo logged; echo oops >&2")
    run_cli("wait", container_id, state_dir=shared_dir)
    result = run_cli("logs", container_id, state_dir=shared_dir)
    assert result.returncode == 0
    assert result.stdout == b"logged\n"
    assert result.stderr == b"oops\n"


def test_logs_follow_until_exit(shared_dir):
    container_id = detached(
        shared_dir, "sh", "-c", "echo one; sleep 0.4; echo two; exit 0"
    )
    result = run_cli("logs", "--follow", container_id, state_dir=shared_dir)
    assert result.returncode == 0
    assert result.stdout == b"one\ntwo\n"


def test_exec_mirrors_code_and_output(shared_dir):
    container_id = detached(shared_dir, "sleep", "60")
    result = run_cli(
        "exec", container_id, "--", "sh", "-c", "echo inside; exit 9",
        state_dir=shared_dir,
    )
    assert result.returncode == 9
    assert result.stdout == b"inside\n"
    run_cli("kill", container_id, state_dir=shared_dir)


def test_top_shows_processes(shared_dir):
    container_id = detached(shared_dir, "sleep", "60")
    result = run_cli("top", container_id, state_dir=shared_dir)
    assert result.returncode == 0
    assert b"PID" in result.stdout and b"sleep" in result.stdout
    run_cli("kill", container_id, state_dir=shared_dir)


def test_stats_prints_sample(shared_dir):
    container_id = detached(shared_dir, "sleep", "60")
    result = run_cli("stats", container_id, state_dir=shared_dir)
    assert result.returncode == 0
    assert b"rss" in result.stdout and b"cpu" in result.stdout
    run_cli("kill", container_id, state_dir=shared_dir)


# -- json output ---------------------------------------------------------------------


def test_ps_json_round_trips(shared_dir):
    container_id = detached(shared_dir, "sleep", "60")
    payload = json.loads(run_cli("ps", "--json", state_dir=shared_dir).stdout)
    row = next(r for r in payload["containers"] if r["id"] == container_id)
    assert row["state"] == "running"
    assert isinstance(row["pid"], int)
    assert "ok" not in payload
    run_cli("kill", container_id, state_dir=shared_dir)


def test_status_json_round_trips(shared_dir):
    payload = json.loads(
        run_cli("--json", "daemon", "status", state_dir=shared_dir).stdout
    )
    assert payload["mode"] == "decoupled"
    assert payload["restore_ms"] >= 0
    assert "ok" not in payload


def test_wait_json_has_exit_fields(shared_dir):
    container_id = detached(shared_dir, "sh", "-c", "exit 3")
    payload = json.loads(
        run_cli("--json", "wait", container_id, state_dir=shared_dir).stdout
    )
    assert payload["exit_code"] == 3
    assert payload["term_signal"] is None
