"""Run one workload of the hydra benchmark.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. It builds nothing: the engine runs from the
checkout's src. The last line of stdout is the result, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it holds
every figure with its tail percentile and sample count. The full result
goes to .bench-out/results (or --out), spans of a traced run to
.bench-out/traces.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="result directory")
    args = parser.parse_args(argv)

    try:
        import hydra
    except ImportError as exc:
        print(f"perfbench: cannot import hydra from {CHECKOUT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(hydra.__file__).resolve().is_relative_to(CHECKOUT / "src"):
        print(f"perfbench: hydra comes from {hydra.__file__}, not this checkout", file=sys.stderr)
        return 2
    from checks import CheckFailed
    from engine import Paths, engine_env, stray_pids
    from hydra.model import HydraError, ProcessIdentity
    from layers import measure_layers
    from measure import Recorder, summary, trimmed_mean
    from procfs import kill_all
    from workloads import SETUPS, WORKLOADS, Bench, Inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(CHECKOUT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    paths = Paths(CHECKOUT)
    paths.check_socket_room()
    out_dir = args.out or paths.out / "results"
    traced = args.trace == 1
    rec = Recorder(traced)

    inputs = Inputs.make(workload, args.seed)
    bench = Bench(workload, inputs, paths, rec)
    killed_before = bench.write_inputs()
    # Warm-up: leaves the engine's byte-code compiled before set-up is timed.
    subprocess.run([sys.executable, "-c", "import hydra.cli, hydra.daemon, hydra.monitor"],
                   env=engine_env(paths), check=True)

    cpu_before = _cpu_times()
    correct, failed, problem = True, 0, None
    setups: list[float] = []
    window_s = 0.0
    rounds = 0
    exit_files = records = 0
    try:
        # Whole rounds only, the last one crossing --seconds of round time.
        # A fresh set-up starts each SETUPS-th of that time, so set-up time is
        # sampled across the run, as the host's speed drifts, like the rest.
        while window_s < args.seconds:
            if window_s >= len(setups) * args.seconds / SETUPS:
                if setups:
                    bench.teardown()
                setups.append(bench.setup())
            began = time.perf_counter()
            bench.round(rounds)
            window_s += time.perf_counter() - began
            rounds += 1
        exit_files = len(os.listdir(paths.state / "exits"))
        status = bench.daemon.request("status")
        records = sum(status["containers"].values())
        if traced:
            measure_layers(paths, rec, inputs.blob, ProcessIdentity(*bench.residents[0].identity))
    except CheckFailed as exc:
        correct, problem = False, f"check failed: {exc}"
    except (HydraError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        failed, problem = 1, f"operation failed: {type(exc).__name__}: {exc}"
    finally:
        try:
            bench.teardown()
        except (HydraError, OSError, RuntimeError) as exc:
            failed, problem = 1, problem or f"teardown failed: {type(exc).__name__}: {exc}"
        leaked = stray_pids(paths)
        kill_all(leaked)
    cpu_after = _cpu_times()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)

    s = rec.samples
    containers = bench.lifecycles_done + bench.transfers_done
    stream_mb = rec.counts["stream.bytes"] / 1e6
    computed = {
        "setup_s": lambda: statistics.median(setups),
        "monitor.stream_mb_per_s": lambda: statistics.median(s["monitor.stream_mb_per_s"]),
        "monitor.replay_mb_per_s": lambda: statistics.median(s["monitor.replay_mb_per_s"]),
        "supervision_pss_mb": lambda: statistics.median(s["supervision_pss_mb"]),
        "daemon.cpu_ms_per_lifecycle": lambda: sum(s["daemon.cpu_ms"]) / containers,
        "daemon.pss_mb": lambda: statistics.median(s["daemon.pss_mb"]),
        "daemon.threads": lambda: max(s["daemon.threads"]),
        "daemon.requests": lambda: bench.daemon.requests,
        "daemon.records": lambda: records,
        "monitor.pss_mb": lambda: statistics.median(s["monitor.pss_mb"]),
        "monitor.private_mb": lambda: statistics.median(s["monitor.private_mb"]),
        "monitor.cpu_ms_per_mb": lambda: sum(s["monitor.stream_cpu_ms"]) / stream_mb,
        "monitor.frames_per_mb": lambda: rec.counts["monitor.frames"] / stream_mb,
        "monitor.launches": lambda: rec.counts["monitor.launches"],
        "protocol.exit_files": lambda: exit_files,
        "client.read_log_frames_mb_per_s":
            lambda: statistics.median(s["client.read_log_frames_mb_per_s"]),
    }
    # Names and units come from BENCHMARK.json. A name ending in .p50 is the
    # median of the samples under the key before it, one ending in .tmean their
    # 10 %-trimmed mean (measure.trimmed_mean); `computed` holds every other.
    units = {m["name"]: m["unit"] for m in (*spec["end_to_end"], *spec["per_layer"])}
    for name in units:
        key, _, stat = name.rpartition(".")
        if stat == "p50":
            computed[name] = lambda key=key: statistics.median(s[key])
        elif stat == "tmean":
            computed[name] = lambda key=key: trimmed_mean(s[key])
    unknown = sorted(set(units) - set(computed))
    if unknown:
        raise SystemExit(f"perfbench: no rule computes {unknown} of BENCHMARK.json")
    values = {}
    for name, fn in computed.items():
        try:
            values[name] = fn()
        except (statistics.StatisticsError, ZeroDivisionError, ValueError, AttributeError):
            pass  # the run failed before this figure had a sample
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "window_s": window_s,
        "lifecycles": bench.lifecycles_done, "transfers": bench.transfers_done,
        "lifecycles_per_s": bench.lifecycles_done / window_s if window_s else None,
        "stream_mb": stream_mb, "setups_s": setups,
        "leaked": len(leaked), "killed_before_run": killed_before, "problem": problem,
        "samples": {key: summary(vals) for key, vals in sorted(s.items()) if vals},
        "host": _host(cpu_before, cpu_after),
    }
    result = {"correct": correct, "attempted": max(rec.counts["ops"], 1), "failed": failed,
              "metrics": metrics}
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{workload.name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    with open(out_dir / f"{name}.json", "w") as fh:
        json.dump({**result, "all_metrics": {n: {"value": v, "unit": units[n]}
                                             for n, v in values.items()},
                   "detail": detail, "samples": s}, fh)
    if traced:
        rec.write_spans(paths.out / "traces" / f"{name}.jsonl")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if correct and not failed else 1


def _cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def _host(before: list[int], after: list[int]) -> dict:
    delta = [b - a for a, b in zip(before, after)]
    steal = delta[7] if len(delta) > 7 else 0
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "cpu_steal_pct": 100.0 * steal / max(sum(delta), 1),
    }


if __name__ == "__main__":
    sys.exit(main())
