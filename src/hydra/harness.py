"""Desk-scale experiments contrasting the three supervision modes.

Four experiments, each runnable via `hydra-bench <name>`:

  restart  engine killed and restarted under live containers; measures
           restore time and which containers survive with their pid intact
  outage   a 10 ms echo responder is probed across an engine stop+start
           (a simulated binary upgrade); outage = the longest response gap
  spawn    run-to-Running latency per mode; the lazy and decoupled deltas
           against coupled are the monitor-creation overhead
  scale    idle containers up to max_n; tracks launch latency, engine RSS,
           and engine OS-thread count as the fleet grows

Every experiment writes one CSV (schema: experiment,mode,trial,metric,
value,unit) under --out, and its pass/fail claims are orderings or booleans
that hold across desk-machine noise, never absolute latencies. For `scale`
the trial column holds the fleet size the sample was taken at.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import sandbox
from .client import DaemonClient, RequestFailed, TransportError
from .model import SupervisionMode
from .protocol import RecordFormatError, StateDirLayout, load_record, resolve_layout

__all__ = [
    "TrialRow",
    "ExperimentReport",
    "Engine",
    "exp_daemon_restart",
    "exp_upgrade_outage",
    "exp_spawn_latency",
    "exp_scalability",
    "main",
]

ALL_MODES = tuple(mode.value for mode in SupervisionMode)
DEFAULT_OUT_DIR = "./bench-out"
_CSV_FIELDS = ("experiment", "mode", "trial", "metric", "value", "unit")


# ---------------------------------------------------------------------------
# Report plumbing


@dataclass(frozen=True, slots=True)
class TrialRow:
    mode: str
    trial: int
    metric: str
    value: float
    unit: str


@dataclass
class ExperimentReport:
    name: str
    rows: list[TrialRow] = field(default_factory=list)
    csv_path: Path | None = None

    def add(self, mode: str, trial: int, metric: str, value: float, unit: str) -> None:
        self.rows.append(TrialRow(mode, trial, metric, float(value), unit))

    def values(self, mode: str, metric: str) -> list[float]:
        return [r.value for r in self.rows if r.mode == mode and r.metric == metric]

    def median(self, mode: str, metric: str) -> float:
        return statistics.median(self.values(mode, metric))

    def p95(self, mode: str, metric: str) -> float:
        values = sorted(self.values(mode, metric))
        if not values:
            raise ValueError(f"no rows for {mode}/{metric}")
        index = min(len(values) - 1, round(0.95 * (len(values) - 1)))
        return values[index]

    def write_csv(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{self.name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS)
            for row in self.rows:
                writer.writerow(
                    (self.name, row.mode, row.trial, row.metric, row.value, row.unit)
                )
        self.csv_path = path
        return path

    def summary(self) -> str:
        lines = [f"== {self.name} =="]
        seen: list[tuple[str, str, str]] = []
        for row in self.rows:
            key = (row.mode, row.metric, row.unit)
            if key not in seen:
                seen.append(key)
        for mode, metric, unit in seen:
            values = self.values(mode, metric)
            lines.append(
                f"  {mode:10s} {metric:20s} n={len(values):<4d} "
                f"median={statistics.median(values):10.2f} "
                f"p95={self.p95(mode, metric):10.2f} {unit}"
            )
        if self.csv_path is not None:
            lines.append(f"  csv: {self.csv_path}")
        return "\n".join(lines)

    @classmethod
    def read_csv(cls, path: str | Path) -> ExperimentReport:
        """Rebuild a report from its CSV; every claim is recomputable."""
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        report = cls(name=rows[0]["experiment"] if rows else Path(path).stem)
        for row in rows:
            report.add(
                row["mode"], int(row["trial"]), row["metric"],
                float(row["value"]), row["unit"],
            )
        report.csv_path = Path(path)
        return report


# ---------------------------------------------------------------------------
# Engine under test


class Engine:
    """One engine process on a private state dir, driven over its socket."""

    def __init__(
        self,
        mode: str,
        *,
        state_root: str | Path | None = None,
    ):
        # Keep the root short: the daemon socket path must fit in sun_path.
        root = state_root or tempfile.mkdtemp(prefix="hyb", dir="/tmp")
        self.layout: StateDirLayout = resolve_layout(root)
        self.mode = mode
        self.client = DaemonClient(self.layout)
        self.proc: subprocess.Popen[bytes] | None = None
        self._log_fh = open(self.layout.root / "engine.log", "ab")

    def start(self, *, timeout_s: float = 15.0) -> float:
        """Start the engine; returns seconds until its socket answered."""
        began = time.monotonic()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "hydra",
                "--state-dir",
                str(self.layout.root),
                "--mode",
                self.mode,
                "daemon",
                "start",
                "--foreground",
            ],
            stdin=subprocess.DEVNULL,
            stdout=self._log_fh,
            stderr=self._log_fh,
            start_new_session=True,
        )
        deadline = began + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"engine exited with {self.proc.returncode}; "
                    f"see {self.layout.root}/engine.log"
                )
            with contextlib.suppress(TransportError, RequestFailed):
                status = self.client.request("status", timeout=2.0)
                # The socket answers while startup reboots are still in
                # flight; restore_ms turns non-None once they are done.
                if status["restore_ms"] is not None:
                    return time.monotonic() - began
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
        return self.client.request("ps", timeout=10.0)["containers"]

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
                        with contextlib.suppress(OSError):
                            os.killpg(identity.pid, signal.SIGKILL)
                        with contextlib.suppress(OSError):
                            os.kill(identity.pid, signal.SIGKILL)
        self._log_fh.close()
        shutil.rmtree(self.layout.root, ignore_errors=True)


class _IdSource:
    """Deterministic container ids when seeded, engine-chosen otherwise."""

    def __init__(self, seed: int | None):
        self.rng = random.Random(seed) if seed is not None else None

    def next(self) -> str | None:
        if self.rng is None:
            return None
        return f"{self.rng.getrandbits(64):016x}"


def _await_all_running(engine: Engine, want: int, *, timeout_s: float) -> float:
    """Seconds until `want` containers are Running; raises on timeout."""
    began = time.monotonic()
    deadline = began + timeout_s
    running = 0
    while time.monotonic() < deadline:
        rows = engine.ps()
        running = sum(1 for r in rows if r["state"] == "running" and r["pid"])
        if running >= want:
            return time.monotonic() - began
        time.sleep(0.02)
    raise RuntimeError(f"only {running}/{want} containers running after {timeout_s}s")


# ---------------------------------------------------------------------------
# Experiment: engine crash + restart under live containers


def exp_daemon_restart(
    n_containers: int = 5,
    trials: int = 3,
    *,
    cycles: int = 1,
    modes: tuple[str, ...] = ALL_MODES,
    out_dir: str | Path = DEFAULT_OUT_DIR,
    seed: int | None = None,
) -> ExperimentReport:
    """Engine SIGKILL + restart under n live containers, `cycles` times over.

    A container survived a cycle when it is Running afterwards with its
    original pid and zero restarts. Metrics from the second cycle onward
    get a `_cycle<k>` suffix.
    """
    report = ExperimentReport("restart")
    ids = _IdSource(seed)
    for mode in modes:
        for trial in range(trials):
            engine = Engine(mode)
            try:
                engine.start()
                for _ in range(n_containers):
                    engine.run(["sleep", "600"], container_id=ids.next())
                before = {
                    row["id"]: (row["pid"], row["start_ticks"])
                    for row in engine.ps()
                }
                for cycle in range(1, cycles + 1):
                    tag = "" if cycle == 1 else f"_cycle{cycle}"
                    engine.kill()
                    engine.start()
                    status = engine.status()
                    report.add(mode, trial, f"restore_ms{tag}", status["restore_ms"], "ms")
                    reboot_s = _await_all_running(engine, n_containers, timeout_s=20.0)
                    report.add(mode, trial, f"reboot_ms{tag}", reboot_s * 1000.0, "ms")
                    survived = 0
                    for row in engine.ps():
                        if (
                            row["state"] == "running"
                            and (row["pid"], row["start_ticks"]) == before.get(row["id"])
                            and row["restart_count"] == 0
                        ):
                            survived += 1
                    report.add(mode, trial, f"survived{tag}", survived, "containers")
                report.add(mode, trial, "launched", n_containers, "containers")
            finally:
                engine.cleanup()
    report.write_csv(out_dir)
    return report


# ---------------------------------------------------------------------------
# Experiment: perceived outage across an engine upgrade

_RESPONDER_SRC = (
    "import socket\n"
    "s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)\n"
    "s.bind(('127.0.0.1', {port}))\n"
    "while True:\n"
    "    data, addr = s.recvfrom(64)\n"
    "    s.sendto(data, addr)\n"
)

_PROBER_SRC = (
    "import socket, time\n"
    "s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)\n"
    "s.settimeout(0.05)\n"
    "end = time.monotonic() + {duration}\n"
    "last = None\n"
    "max_gap = 0.0\n"
    "while time.monotonic() < end:\n"
    "    t0 = time.monotonic()\n"
    "    try:\n"
    "        s.sendto(b'x', ('127.0.0.1', {port}))\n"
    "        s.recvfrom(64)\n"
    "        now = time.monotonic()\n"
    "        if last is not None and now - last > max_gap:\n"
    "            max_gap = now - last\n"
    "        last = now\n"
    "    except OSError:\n"
    "        pass\n"
    "    time.sleep(max(0.0, 0.01 - (time.monotonic() - t0)))\n"
    "if last is None:\n"
    "    max_gap = {duration}\n"
    "else:\n"
    "    max_gap = max(max_gap, time.monotonic() - last)\n"
    "print(int(max_gap * 1000))\n"
)


def _free_udp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _await_responder(port: int, *, timeout_s: float = 10.0) -> None:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.settimeout(0.05)
    deadline = time.monotonic() + timeout_s
    try:
        while time.monotonic() < deadline:
            with contextlib.suppress(OSError):
                probe.sendto(b"up?", ("127.0.0.1", port))
                probe.recvfrom(64)
                return
            time.sleep(0.01)
    finally:
        probe.close()
    raise RuntimeError("echo responder never answered")


def exp_upgrade_outage(
    trials: int = 3,
    *,
    duration_s: float = 4.0,
    modes: tuple[str, ...] = ("decoupled", "coupled"),
    control: bool = True,
    out_dir: str | Path = DEFAULT_OUT_DIR,
    seed: int | None = None,
) -> ExperimentReport:
    """Longest echo gap while the engine is stopped and started mid-window.

    The responder answers every request instantly; a 10 ms prober records
    the largest spacing between consecutive answers (a responder that never
    comes back counts the rest of the window). The control row skips the
    upgrade, so it shows the probe interval itself.
    """
    report = ExperimentReport("outage")
    ids = _IdSource(seed)
    plans = [(mode, True) for mode in modes]
    if control:
        plans.append(("control", False))
    for plan_mode, do_upgrade in plans:
        engine_mode = plan_mode if do_upgrade else "decoupled"
        for trial in range(trials):
            engine = Engine(engine_mode)
            try:
                engine.start()
                port = _free_udp_port()
                engine.run(
                    [sys.executable, "-u", "-c", _RESPONDER_SRC.format(port=port)],
                    container_id=ids.next(),
                )
                _await_responder(port)
                prober = subprocess.Popen(
                    [
                        sys.executable,
                        "-u",
                        "-c",
                        _PROBER_SRC.format(port=port, duration=duration_s),
                    ],
                    stdout=subprocess.PIPE,
                )
                time.sleep(duration_s / 3)
                if do_upgrade:
                    engine.stop()  # same binary; a version bump would look identical
                    engine.start()
                out, _ = prober.communicate(timeout=duration_s + 30)
                report.add(plan_mode, trial, "max_gap_ms", int(out.split()[0]), "ms")
            finally:
                engine.cleanup()
    report.write_csv(out_dir)
    return report


# ---------------------------------------------------------------------------
# Experiment: monitor-creation latency


def exp_spawn_latency(
    trials: int = 50,
    *,
    modes: tuple[str, ...] = ALL_MODES,
    startup_sleep_ms: int = 0,
    out_dir: str | Path = DEFAULT_OUT_DIR,
    seed: int | None = None,
) -> ExperimentReport:
    """run-to-Running latency per mode, plus per-trial deltas against coupled.

    startup_sleep_ms emulates an application whose own boot time masks the
    supervision overhead: the container sleeps that long before it would be
    considered useful, but Running is reached independently of it.
    """
    report = ExperimentReport("spawn")
    ids = _IdSource(seed)
    command = ["sh", "-c", f"sleep {startup_sleep_ms / 1000}; exit 0"]
    run_modes = list(dict.fromkeys(("coupled", *modes)))  # baseline first
    samples: dict[str, list[float]] = {mode: [] for mode in run_modes}
    # One engine per mode, all alive at once, each trial round-robining
    # through them: machine-load drift then hits every mode alike and the
    # per-trial deltas stay paired.
    engines = {mode: Engine(mode) for mode in run_modes}
    try:
        for engine in engines.values():
            engine.start()
        for trial in range(trials):
            for mode in run_modes:
                t0 = time.monotonic()
                engines[mode].run(command, container_id=ids.next())
                latency_ms = (time.monotonic() - t0) * 1000.0
                samples[mode].append(latency_ms)
                report.add(mode, trial, "run_to_running_ms", latency_ms, "ms")
    finally:
        for engine in engines.values():
            engine.cleanup()
    baseline = samples["coupled"]
    for mode in run_modes:
        if mode not in modes:
            continue
        for trial, (value, base) in enumerate(zip(samples[mode], baseline)):
            delta = 0.0 if mode == "coupled" else value - base
            report.add(mode, trial, "delta_vs_coupled_ms", delta, "ms")
    report.write_csv(out_dir)
    return report


# ---------------------------------------------------------------------------
# Experiment: growth with fleet size


def exp_scalability(
    max_n: int = 100,
    step: int = 25,
    *,
    modes: tuple[str, ...] = ("decoupled", "coupled"),
    out_dir: str | Path = DEFAULT_OUT_DIR,
    seed: int | None = None,
) -> ExperimentReport:
    """Launch idle containers up to max_n, sampling engine growth per step."""
    report = ExperimentReport("scale")
    ids = _IdSource(seed)
    for mode in modes:
        engine = Engine(mode)
        try:
            engine.start()
            for n in range(1, max_n + 1):
                t0 = time.monotonic()
                engine.run(["sleep", "1000000"], container_id=ids.next())
                latency_ms = (time.monotonic() - t0) * 1000.0
                if n == 1 or n % step == 0 or n == max_n:
                    report.add(mode, n, "launch_ms", latency_ms, "ms")
                    pid = engine.proc.pid
                    report.add(mode, n, "engine_rss_bytes", sandbox.rss_bytes(pid), "bytes")
                    report.add(mode, n, "engine_threads", sandbox.thread_count(pid), "threads")
        finally:
            engine.cleanup()
    report.write_csv(out_dir)
    return report


# ---------------------------------------------------------------------------
# CLI


def _parse_modes(text: str) -> tuple[str, ...]:
    modes = tuple(part.strip() for part in text.split(",") if part.strip())
    for mode in modes:
        if mode not in ALL_MODES:
            raise argparse.ArgumentTypeError(f"unknown mode {mode!r}")
    return modes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hydra-bench", description="Supervision-mode experiments."
    )
    parser.add_argument("--out", default=DEFAULT_OUT_DIR, help="CSV output directory")
    parser.add_argument("--seed", type=int, default=None, help="reproducible ids")
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")

    p_restart = sub.add_parser("restart", help="crash + restart under load")
    p_restart.add_argument("--containers", type=int, default=5)
    p_restart.add_argument("--trials", type=int, default=3)
    p_restart.add_argument("--cycles", type=int, default=1)
    p_restart.add_argument("--modes", type=_parse_modes, default=ALL_MODES)

    p_outage = sub.add_parser("outage", help="upgrade outage via echo prober")
    p_outage.add_argument("--trials", type=int, default=3)
    p_outage.add_argument("--duration-s", type=float, default=4.0)
    p_outage.add_argument(
        "--modes", type=_parse_modes, default=("decoupled", "coupled")
    )
    p_outage.add_argument("--no-control", action="store_true")

    p_spawn = sub.add_parser("spawn", help="run-to-Running latency")
    p_spawn.add_argument("--trials", type=int, default=50)
    p_spawn.add_argument("--modes", type=_parse_modes, default=ALL_MODES)
    p_spawn.add_argument("--startup-sleep-ms", type=int, default=0)

    p_scale = sub.add_parser("scale", help="engine growth with fleet size")
    p_scale.add_argument("--max-n", type=int, default=100)
    p_scale.add_argument("--step", type=int, default=25)
    p_scale.add_argument(
        "--modes", type=_parse_modes, default=("decoupled", "coupled")
    )

    sub.add_parser("all", help="run every experiment with defaults")

    args = parser.parse_args(argv)
    if not args.experiment:
        parser.print_usage(sys.stderr)
        return 1

    reports: list[ExperimentReport] = []
    if args.experiment == "restart":
        reports.append(
            exp_daemon_restart(
                args.containers, args.trials, cycles=args.cycles,
                modes=args.modes, out_dir=args.out, seed=args.seed,
            )
        )
    elif args.experiment == "outage":
        reports.append(
            exp_upgrade_outage(
                args.trials,
                duration_s=args.duration_s,
                modes=args.modes,
                control=not args.no_control,
                out_dir=args.out,
                seed=args.seed,
            )
        )
    elif args.experiment == "spawn":
        reports.append(
            exp_spawn_latency(
                args.trials,
                modes=args.modes,
                startup_sleep_ms=args.startup_sleep_ms,
                out_dir=args.out,
                seed=args.seed,
            )
        )
    elif args.experiment == "scale":
        reports.append(
            exp_scalability(
                args.max_n, args.step,
                modes=args.modes, out_dir=args.out, seed=args.seed,
            )
        )
    elif args.experiment == "all":
        reports.append(exp_daemon_restart(out_dir=args.out, seed=args.seed))
        reports.append(exp_upgrade_outage(out_dir=args.out, seed=args.seed))
        reports.append(exp_spawn_latency(out_dir=args.out, seed=args.seed))
        reports.append(exp_scalability(out_dir=args.out, seed=args.seed))

    for report in reports:
        print(report.summary())
    return 0
