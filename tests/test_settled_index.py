"""The settled index: restarts that read no settled record file, and an index
that may be stale but is never believed over the record files on disk; and
what a restart reads of /proc for each live record.

The daemon is hosted on this test's loop, so a counting load_record shows
which record files a start reads (settled ones are read again on demand, by
wait for one, so each test looks at what the start itself read).
"""

from __future__ import annotations

import os

import pytest

import hydra.daemon
import hydra.sandbox
from hydra.model import (
    ContainerRecord,
    ContainerSpec,
    ContainerState,
    StateKind,
    SupervisionMode,
)
from hydra.protocol import StateDirLayout, dump_record, resolve_layout

from .support import request, serve_once, write_settled


@pytest.fixture
def loads(monkeypatch) -> list[str]:
    """Ids whose record file the daemon loads, in order."""
    calls: list[str] = []
    load = hydra.daemon.load_record

    def counting(path):
        calls.append(os.path.basename(os.path.dirname(path)))
        return load(path)

    monkeypatch.setattr(hydra.daemon, "load_record", counting)
    return calls


def running_record(container_id: str, monitor, container) -> ContainerRecord:
    return ContainerRecord(
        id=container_id, spec=ContainerSpec(command=("sleep", "600")),
        mode=SupervisionMode.DECOUPLED, state=ContainerState.running(),
        monitor=monitor, container=container, created_at=1000, started_at=1100,
    )


def index_lines(layout: StateDirLayout) -> list[bytes]:
    return layout.settled_index.read_bytes().splitlines(keepends=True)


def test_restart_reads_only_live_records(state_root, loads, sleepers):
    layout = resolve_layout(state_root)
    codes = write_settled(layout, 3000)
    live = sorted(f"f{n:015x}" for n in range(2))
    for container_id in live:
        dump_record(layout, running_record(container_id, *sleepers()))

    serve_once(state_root)
    assert len(loads) == 3002  # no index yet: a full scan builds it
    loads.clear()

    probe = f"{2999:016x}"

    async def body(daemon):
        restored = sorted(loads)
        return restored, await request(daemon, "status"), await request(daemon, "wait", id=probe)

    restored, status, waited = serve_once(state_root, body)
    assert restored == live
    assert status["containers"] == {"running": 2, "exited": 3000}
    assert waited["exit_code"] == codes[probe]


def test_restore_reads_each_live_stat_at_most_three_times(state_root, monkeypatch, sleepers):
    """Deciding an adopted record probes its monitor and its container once
    each, and its watch checks the monitor once more after the pidfd opens."""
    layout = resolve_layout(state_root)
    live = {f"e{n:015x}": sleepers() for n in range(4)}
    for container_id, (monitor, container) in live.items():
        dump_record(layout, running_record(container_id, monitor, container))
    reads: list[int] = []
    read_stat = hydra.sandbox.read_stat

    def counting(pid):
        reads.append(pid)
        return read_stat(pid)

    monkeypatch.setattr(hydra.sandbox, "read_stat", counting)

    async def body(daemon):
        watched = {container_id: daemon._watches[container_id][0] for container_id in live}
        return watched, list(reads)

    watched, restored = serve_once(state_root, body)
    for container_id, (monitor, container) in live.items():
        assert watched[container_id] == monitor
        assert restored.count(monitor.pid) + restored.count(container.pid) <= 3, container_id


def test_exit_settled_at_runtime_is_indexed(state_root, loads):
    async def first(daemon):
        reply = await request(daemon, "run", spec={"command": ["sh", "-c", "exit 7"]})
        return await request(daemon, "wait", id=reply["id"])

    waited = serve_once(state_root, first)
    assert waited["exit_code"] == 7
    loads.clear()

    async def second(daemon):
        return list(loads), await request(daemon, "wait", id=waited["id"])

    restored, again = serve_once(state_root, second)
    assert restored == []
    assert again == waited


def test_exited_record_without_index_line_is_reindexed(state_root, loads):
    # A crash between the record commit and the index append.
    layout = resolve_layout(state_root)
    codes = write_settled(layout, 3)
    serve_once(state_root)
    victim = "0000000000000001"
    kept = [line for line in index_lines(layout) if not line.startswith(victim.encode())]
    assert len(kept) == 2
    layout.settled_index.write_bytes(b"".join(kept))
    loads.clear()

    serve_once(state_root)
    assert loads == [victim]
    loads.clear()

    async def body(daemon):
        return list(loads), await request(daemon, "wait", id=victim)

    restored, waited = serve_once(state_root, body)
    assert restored == []
    assert waited["exit_code"] == codes[victim]


def test_index_line_is_stale_once_record_file_is_replaced(state_root, loads):
    # The file was rewritten by a daemon that does not know the index.
    layout = resolve_layout(state_root)
    write_settled(layout, 2)
    serve_once(state_root)
    victim = "0000000000000001"
    record = ContainerRecord(
        id=victim, spec=ContainerSpec(command=("true",)), mode=SupervisionMode.DECOUPLED,
        state=ContainerState.exited(signal=9), created_at=1000, finished_at=5000,
    )
    dump_record(layout, record)
    loads.clear()

    async def body(daemon):
        return list(loads), await request(daemon, "wait", id=victim)

    restored, waited = serve_once(state_root, body)
    assert restored == [victim]
    assert (waited["exit_code"], waited["term_signal"], waited["finished_at"]) == (None, 9, 5000)


def test_record_restarted_behind_the_index_is_adopted(state_root, loads, sleepers):
    layout = resolve_layout(state_root)
    write_settled(layout, 2)
    serve_once(state_root)
    victim = "0000000000000001"
    monitor, container = sleepers()
    dump_record(layout, running_record(victim, monitor, container))

    async def body(daemon):
        status = await request(daemon, "status")
        record = daemon.records.get(victim)
        watched = daemon._watches.get(victim)
        return status, record, watched

    status, record, watched = serve_once(state_root, body)
    assert status["containers"] == {"running": 1, "exited": 1}
    assert record is not None and record.state.kind is StateKind.RUNNING
    assert record.container == container
    assert watched is not None and watched[0] == monitor


@pytest.mark.parametrize("damage", ["missing", "truncated", "garbage"])
def test_damaged_index_is_rebuilt_by_full_scan(state_root, loads, damage):
    layout = resolve_layout(state_root)
    codes = write_settled(layout, 5)
    serve_once(state_root)
    data = layout.settled_index.read_bytes()
    assert data.count(b"\n") == 5
    if damage == "missing":
        layout.settled_index.unlink()
    elif damage == "truncated":
        layout.settled_index.write_bytes(data[:-7])
    else:
        lines = data.splitlines(keepends=True)
        layout.settled_index.write_bytes(b"".join([lines[0], b"\x00not a line\n", *lines[1:]]))
    loads.clear()

    async def body(daemon):
        restored = sorted(loads)
        return restored, [await request(daemon, "wait", id=container_id) for container_id in codes]

    restored, waited = serve_once(state_root, body)
    assert restored == sorted(codes)
    assert [reply["exit_code"] for reply in waited] == list(codes.values())
    assert not [name for name in os.listdir(layout.containers_dir)
                for inner in os.listdir(layout.containers_dir / name)
                if inner != "record.json"]
    loads.clear()
    serve_once(state_root)
    assert loads == []


def test_removed_id_with_leftover_line_is_gone(state_root, loads):
    layout = resolve_layout(state_root)
    write_settled(layout, 2)
    gone, kept = "0000000000000000", "0000000000000001"

    async def remove(daemon):
        return await request(daemon, "rm", id=gone)

    assert serve_once(state_root, remove)["ok"]
    assert any(line.startswith(gone.encode()) for line in index_lines(layout))

    async def body(daemon):
        status = await request(daemon, "status")
        waited = await request(daemon, "wait", id=gone)
        listing = await request(daemon, "ps")
        return status, waited, listing

    status, waited, listing = serve_once(state_root, body)
    assert status["containers"] == {"exited": 1}
    assert waited["error"] == "not_found"
    assert [row["id"] for row in listing["containers"]] == [kept]


def test_ps_pages_when_asked(state_root):
    layout = resolve_layout(state_root)
    codes = write_settled(layout, 5)
    ids = sorted(codes)

    async def body(daemon):
        whole = await request(daemon, "ps")
        pages, fields = [], {"limit": 2}
        while True:
            page = await request(daemon, "ps", **fields)
            pages.append([row["id"] for row in page["containers"]])
            if page["next"] is None:
                break
            fields["after"] = page["next"]
        refused = await request(daemon, "ps", limit=0)
        return whole, pages, refused

    whole, pages, refused = serve_once(state_root, body)
    assert "next" not in whole and [row["id"] for row in whole["containers"]] == ids
    assert pages == [ids[0:2], ids[2:4], ids[4:5]]
    assert refused["error"] == "invalid_request"
