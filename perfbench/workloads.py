"""Workloads: the engine state a run starts from and the rounds it repeats.

One end-to-end result must hold every end-to-end metric, so every round of
every workload does the same kinds of operation, in this order:

1. SIGKILL the daemon and start it again, RESTARTS times (`restart_ms`);
2. straight after the last start serves, SIGKILL one resident's monitor
   and wait until the container answers `ping` under a new monitor
   (`monitor_recover_ms`). The daemon finds monitor loss on its 2 s poll
   tick, which starts when it serves, so the kill goes at that fixed point:
   killed at a random phase, the wait would spread over the whole interval;
3. `lifecycles` x run -> exec -> stop -> wait -> rm (`run_ms`,
   `lifecycle_ms`), only once the reboot is done: a relaunch running beside
   them would slow the lifecycles it meets, and meet more of them the slower
   the host runs, which widens the spread between runs;
4. `transfers` x one container that cats a seeded blob to an attached
   client, `replays` x `logs` of it, stop, rm (`monitor.stream_mb_per_s`,
   `monitor.replay_mb_per_s`).

All of it runs on one thread, closed loop.

The workloads differ in the state the rounds run against and in how much of
each operation a round holds, which decides the layer that does the work.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import checks
import procfs
from engine import MARKER, Daemon, Paths, wipe_state
from hydra.client import MonitorStream, RequestFailed, TransportError
from hydra.model import (
    ContainerRecord,
    ContainerSpec,
    ContainerState,
    ExitReport,
    ProcessIdentity,
    SupervisionMode,
)
from hydra.protocol import (
    FRAME_STDOUT,
    atomic_write_bytes,
    dump_record,
    encode_exit_report,
    resolve_layout,
)
from measure import Recorder

MIB = 1 << 20
SETUPS = 5  # set-ups per run, spread over its rounds; setup_s is their median
RESTARTS = 3  # daemon crash restarts per round
SETTLED_PROBES = 8  # settled containers re-read after each restart
_REBOOT_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    history: int  # settled (Exited) containers written before the set-ups
    fleet: int  # idle resident containers
    lifecycles: int  # per round
    transfers: int  # per round
    blob_bytes: int
    replays: int  # per transfer


# Why each workload exists is stated in BENCHMARK.json and the README.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("churn", history=0, fleet=2, lifecycles=10, transfers=1,
                 blob_bytes=16 * MIB, replays=2),
        Workload("recovery", history=3000, fleet=4, lifecycles=8, transfers=1,
                 blob_bytes=16 * MIB, replays=2),
    )
}

SLEEP = ["sleep", "3600"]
# Reads the trigger line, writes the blob, then idles until stopped.
STREAM_SCRIPT = 'read line; cat "$1"; exec sleep 3600'


@dataclass
class Resident:
    id: str
    sock: str
    identity: tuple[int, int]
    restarts: int = 0


@dataclass
class Inputs:
    """Everything a run feeds the engine, made from its seed."""

    history: list[tuple[str, int]]
    blob: bytes
    digest: str
    rng: random.Random = field(repr=False)

    @classmethod
    def make(cls, workload: Workload, seed: int) -> Inputs:
        rng = random.Random(seed)
        ids = set()
        while len(ids) < workload.history:
            ids.add(f"{rng.getrandbits(64):016x}")
        history = [(cid, rng.randrange(0, 256)) for cid in sorted(ids)]
        blob = rng.randbytes(workload.blob_bytes)
        return cls(history, blob, hashlib.sha256(blob).hexdigest(), rng)


def _dead_pid_base() -> int:
    """Pids above pid_max can never be live, so history identities stay dead."""
    with open("/proc/sys/kernel/pid_max") as fh:
        return int(fh.read()) + 1


class Bench:
    """Drives one workload against one daemon, closed loop, through hydra.client."""

    def __init__(self, workload: Workload, inputs: Inputs, paths: Paths, rec: Recorder):
        self.w = workload
        self.inputs = inputs
        self.rng = inputs.rng
        self.paths = paths
        self.rec = rec
        self.blob_path = paths.scratch / "blob.bin"
        self.daemon: Daemon | None = None
        self.residents: list[Resident] = []
        self.lifecycles_done = 0
        self.transfers_done = 0
        self.marker = f"{MARKER}={paths.state}"

    # -- set-up and teardown ---------------------------------------------------

    def write_inputs(self) -> int:
        """The blob, and the settled history in a fresh state dir.

        History is written once per run, outside the timed set-ups: writing
        thousands of files per set-up made set-up time follow the disk's
        writeback of earlier runs rather than the engine. Returns how many
        processes an interrupted earlier run had left.
        """
        killed = wipe_state(self.paths)
        self.paths.scratch.mkdir(parents=True, exist_ok=True)
        self.blob_path.write_bytes(self.inputs.blob)
        self._write_history()
        return killed

    def setup(self) -> float:
        """Daemon started over the history, fleet Running; returns seconds."""
        began = time.perf_counter()
        self.daemon = Daemon(self.paths)
        self.daemon.start()
        self.residents = [self._start_resident(f"setup-{i}") for i in range(self.w.fleet)]
        return time.perf_counter() - began

    def _write_history(self) -> None:
        layout = resolve_layout(self.paths.state)
        spec = ContainerSpec(command=("true",), env=(self.marker,))
        dead = _dead_pid_base()
        finished = time.time_ns() // 1_000_000
        for n, (cid, code) in enumerate(self.inputs.history):
            record = ContainerRecord(
                id=cid, spec=spec, mode=SupervisionMode.DECOUPLED,
                state=ContainerState.exited(code=code),
                monitor=ProcessIdentity(dead + 2 * n, 1),
                container=ProcessIdentity(dead + 2 * n + 1, 1),
                created_at=finished - 1000, started_at=finished - 900,
                finished_at=finished,
            )
            dump_record(layout, record)
            # Settled history needs no fsync; the monitor's own write does it.
            atomic_write_bytes(layout.exit_path(cid),
                               encode_exit_report(ExitReport(cid, code, None, finished)).encode())

    def _start_resident(self, trace: str) -> Resident:
        reply = self._run(SLEEP, trace)
        record = self.daemon.read_record(reply["id"])
        container = record["container"]
        return Resident(reply["id"], reply["monitor_sock"],
                        (container["pid"], container["start_ticks"]))

    def teardown(self) -> None:
        """Stop the fleet, then the daemon. Nothing is launching by now: the
        client is closed loop and each reboot is awaited."""
        if self.daemon is None:
            return
        try:
            for resident in self.residents:
                self.daemon.request("stop", id=resident.id, grace_ms=2000)
                self.daemon.request("wait", id=resident.id, timeout=30.0)
                self.daemon.request("rm", id=resident.id)
        finally:
            self.residents = []
            self.daemon.shutdown()

    # -- one round ---------------------------------------------------------------

    def round(self, index: int) -> None:
        # Several crash restarts per round for their samples and checks; the
        # last one puts the monitor kill at a fixed point after serving.
        for n in range(RESTARTS - 1):
            self.restart(f"restart-{index}.{n}")
            self.check_residents()
            self.check_settled()
        self.restart(f"restart-{index}.{RESTARTS - 1}")
        self.reboot_after_monitor_kill(self.residents[index % len(self.residents)],
                                       f"reboot-{index}")
        self.check_residents()
        self.check_settled()
        cpu0 = procfs.cpu_ms(self.daemon.pid)
        for _ in range(self.w.lifecycles):
            self.lifecycle()
        for _ in range(self.w.transfers):
            self.transfer()
        self.rec.add("daemon.cpu_ms", procfs.cpu_ms(self.daemon.pid) - cpu0)
        self.sample_footprint()
        self.check_status(f"round-{index}")

    # -- operations ----------------------------------------------------------------

    def restart(self, trace: str) -> None:
        self.rec.count("ops")
        with self.rec.time("restart_ms", "daemon.crash_restart", trace):
            self.daemon.kill()
            status = self.daemon.start()
        self.rec.add("daemon.boot_cpu_ms", procfs.cpu_ms(self.daemon.pid))
        self.rec.add("daemon.restore_ms", status["restore_ms"])
        checks.one_thread(procfs.threads(self.daemon.pid))

    def reboot_after_monitor_kill(self, victim: Resident, trace: str) -> None:
        self.rec.count("ops")
        monitor_pid = self.daemon.read_record(victim.id)["monitor"]["pid"]
        old = victim.identity
        deadline = time.monotonic() + _REBOOT_TIMEOUT_S
        with self.rec.time("monitor_recover_ms", "monitor.reboot", trace):
            os.kill(monitor_pid, signal.SIGKILL)
            while True:
                new = self._ping(victim, trace, timed=False)
                if new is not None and new != old:
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{victim.id} not rebooted in {_REBOOT_TIMEOUT_S}s")
                time.sleep(0.01)
        self.rec.count("monitor.launches")
        # The new monitor serves before its handshake, so the daemon may
        # commit the new identity a moment after the first answer.
        record = _poll(lambda: self.daemon.read_record(victim.id),
                       lambda r: (r.get("container") or {}).get("pid") == new[0])
        old_alive = _poll(lambda: procfs.group_alive(old[0]), lambda alive: not alive)
        checks.rebooted(old, new, victim.restarts, record, old_alive)
        victim.identity = new
        victim.restarts += 1

    def lifecycle(self) -> None:
        self.rec.count("ops")
        trace = f"lifecycle-{self.lifecycles_done}"
        token = f"{self.rng.getrandbits(48):012x}"
        code = self.rng.randrange(0, 128)
        reply = self._run(SLEEP, trace)
        with self.rec.time("exec_ms", "exec", trace):
            with self.rec.time(None, "daemon.exec", trace):
                sock = self.daemon.request("exec", id=reply["id"])["monitor_sock"]
            with self.rec.time("monitor.exec_reply_ms", "monitor.exec", trace):
                stream = MonitorStream(
                    sock,
                    {"op": "exec", "command": ["sh", "-c", f"printf %s {token}; exit {code}"]},
                    timeout=30.0,
                )
            with stream, self.rec.time(None, "client.frames", trace):
                frames = list(stream.frames(timeout=30.0))
        checks.exec_result(frames, token, code)
        self._stop(reply, trace)
        self._remove(reply["id"], trace)
        # The sum of the timed steps: the checks between them are left out.
        steps = ("run_ms", "exec_ms", "stop_ms", "daemon.rm_ms")
        self.rec.add("lifecycle_ms", sum(self.rec.samples[key][-1] for key in steps))
        self.lifecycles_done += 1

    def transfer(self) -> None:
        self.rec.count("ops")
        trace = f"transfer-{self.transfers_done}"
        size = len(self.inputs.blob)
        reply = self._run(["sh", "-c", STREAM_SCRIPT, "sh", str(self.blob_path)], trace)
        sock = self.daemon.request("attach", id=reply["id"])["monitor_sock"]
        with MonitorStream(sock, {"op": "attach"}, timeout=30.0) as attach:
            frames = attach.frames(timeout=60.0)
            chunks: list[bytes] = []
            got = n_frames = 0
            cpu0 = procfs.cpu_ms(reply["monitor_pid"])
            with self.rec.time(None, "monitor.attach_stream", trace):
                began = time.perf_counter_ns()
                attach.send_stdin(b"go\n")
                for tag, payload in frames:
                    if tag != FRAME_STDOUT:
                        break
                    chunks.append(payload)
                    got += len(payload)
                    n_frames += 1
                    if got >= size:
                        break
                elapsed_s = (time.perf_counter_ns() - began) / 1e9
            self.rec.add("monitor.stream_cpu_ms", procfs.cpu_ms(reply["monitor_pid"]) - cpu0)
            self.rec.add("monitor.stream_mb_per_s", size / 1e6 / elapsed_s)
            self.rec.count("monitor.frames", n_frames)
            self.rec.count("stream.bytes", got)
            checks.blob_equal(_sha256(chunks), got, self.inputs.digest, size, "attach stream")
            for _ in range(self.w.replays):
                self._replay(sock, trace)
            self._stop(reply, trace)
            checks.notice_last(list(frames))
        self._remove(reply["id"], trace)
        self.transfers_done += 1

    def _replay(self, sock: str, trace: str) -> None:
        size = len(self.inputs.blob)
        chunks: list[bytes] = []
        stray: list[int] = []
        first = None
        with self.rec.time(None, "monitor.logs", trace):
            began = time.perf_counter_ns()
            with MonitorStream(sock, {"op": "logs"}, timeout=30.0) as stream:
                for tag, payload in stream.frames(timeout=60.0):
                    if first is None:
                        first = time.perf_counter_ns()
                    if tag == FRAME_STDOUT:
                        chunks.append(payload)
                    else:
                        stray.append(tag)
            elapsed_s = (time.perf_counter_ns() - began) / 1e9
        got = sum(map(len, chunks))
        checks.blob_equal(_sha256(chunks), got, self.inputs.digest, size, "logs replay")
        checks.only_stdout(stray, "logs replay")
        self.rec.add("monitor.replay_mb_per_s", size / 1e6 / elapsed_s)
        self.rec.add("monitor.replay_first_byte_ms", (first - began) / 1e6)

    def _run(self, command: list[str], trace: str) -> dict[str, Any]:
        spec = {"command": command, "env": [self.marker], "stop_grace_ms": 10_000}
        with self.rec.time("run_ms", "daemon.run", trace):
            reply = self.daemon.request("run", spec=spec)
        self.rec.add("monitor.boot_cpu_ms", procfs.cpu_ms(reply["monitor_pid"]))
        record = self.daemon.read_record(reply["id"])
        row = procfs.live(reply["pid"])
        checks.run_identity(reply["pid"], record, row.start_ticks if row else None)
        self.rec.count("monitor.launches")
        return reply

    def _stop(self, reply: dict[str, Any], trace: str) -> None:
        with self.rec.time("stop_ms", "stop", trace):
            with self.rec.time("daemon.stop_reply_ms", "daemon.stop", trace):
                self.daemon.request("stop", id=reply["id"])
            with self.rec.time("daemon.exit_tail_ms", "daemon.wait", trace):
                waited = self.daemon.request("wait", id=reply["id"], timeout=60.0)
        checks.stopped_by_sigterm(waited)
        checks.group_gone(reply["pid"], procfs.group_alive(reply["pid"]))

    def _remove(self, container_id: str, trace: str) -> None:
        with self.rec.time("daemon.rm_ms", "daemon.rm", trace):
            self.daemon.request("rm", id=container_id)
        state = self.paths.state
        leftovers = [
            str(path)
            for path in (
                state / "containers" / container_id / "record.json",
                state / "exits" / f"{container_id}.exit",
                state / "logs" / f"{container_id}.log",
            )
            if path.exists()
        ]
        checks.removed(leftovers)

    def _ping(self, resident: Resident, trace: str, *, timed: bool) -> tuple[int, int] | None:
        """The container identity the resident's monitor reports, or None."""
        try:
            with self.rec.time("monitor.ping_ms" if timed else None, "monitor.ping", trace):
                with MonitorStream(resident.sock, {"op": "ping"}, timeout=5.0) as stream:
                    seen = stream.reply["container"]
        except (TransportError, RequestFailed):
            return None
        return seen["pid"], seen["start_ticks"]

    # -- checks and samples taken between operations --------------------------------

    def check_residents(self) -> None:
        """After a daemon restart, every resident kept identity and restart count."""
        for resident in self.residents:
            checks.resident_kept(resident.identity, resident.restarts,
                                 self._ping(resident, "residents", timed=True),
                                 self.daemon.read_record(resident.id))

    def check_settled(self) -> None:
        """Settled containers still report their seeded exit codes."""
        probes = min(SETTLED_PROBES, len(self.inputs.history))
        for cid, code in self.rng.sample(self.inputs.history, probes):
            checks.settled_kept(self.daemon.request("wait", id=cid), code)

    def check_status(self, trace: str) -> None:
        with self.rec.time("daemon.request_ms", "daemon.status", trace):
            status = self.daemon.request("status")
        checks.status_counts(status["containers"],
                             {"running": len(self.residents), "exited": len(self.inputs.history)})

    def sample_footprint(self) -> None:
        daemon_pss, _ = procfs.memory_kb(self.daemon.pid)
        monitors = [procfs.memory_kb(self.daemon.read_record(r.id)["monitor"]["pid"])
                    for r in self.residents]
        pss_total = daemon_pss + sum(pss for pss, _ in monitors)
        self.rec.add("supervision_pss_mb", pss_total / 1024)
        self.rec.add("daemon.pss_mb", daemon_pss / 1024)
        self.rec.add("monitor.pss_mb", statistics.mean(p for p, _ in monitors) / 1024)
        self.rec.add("monitor.private_mb", statistics.mean(p for _, p in monitors) / 1024)
        threads = procfs.threads(self.daemon.pid)
        self.rec.add("daemon.threads", threads)
        checks.one_thread(threads)


def _sha256(chunks: list[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _poll(read: Callable[[], Any], done: Callable[[Any], bool], timeout_s: float = 5.0) -> Any:
    """Re-read until done(value) or the timeout; returns the last value."""
    deadline = time.monotonic() + timeout_s
    value = read()
    while not done(value) and time.monotonic() < deadline:
        time.sleep(0.005)
        value = read()
    return value
