"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories of result files written by run.py. For each
workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the spread (quartile distance over median), how many
seed-paired runs each side won, and a verdict against the metric's bound:

- improved: over at least ten pairs, CHANGE wins nine in ten (ties count
  for neither) and the medians differ by more than BASE's quartile distance;
- unresolved: otherwise, when either side's spread exceeds the bound;
- worse: CHANGE's median is worse than BASE's by more than the bound;
- unchanged: everything else.

The per-layer metrics follow, taken from traced runs where both sides have
them and from untraced runs otherwise. They have no bound: the verdict is
improved or worse by the nine-in-ten rule, or no clear change. Improved and
worse by that rule need at least ten pairs.

A run stops at its first failed operation or failed check, so its figures
are partial: runs with `correct` false or `failed` above 0 are left out of
every median and pair, and the workload fails when either side has one or
when CHANGE fails a larger share of its operations than BASE.

Traced runs (--trace 1) are left out of the end-to-end verdicts; where a
side has them, the tracing overhead is printed as the shift of each traced
median against the untraced one. Exits 1 if any workload fails or any
end-to-end verdict is worse, unresolved or missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> results, ordered by seed then file name."""
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        with open(path) as fh:
            result = json.load(fh)
        detail = result["detail"]
        runs[detail["workload"], detail["trace"]].append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["detail"]["seed"])
    return runs


def value(result: dict, metric: str) -> float | None:
    entry = result.get("all_metrics", {}).get(metric)
    return entry["value"] if entry else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> tuple[str, int, int, float, float]:
    """(verdict, base wins, change wins, worse share, largest spread).

    bound None: improved or worse by the nine-in-ten rule, else no clear change.
    """
    sign = 1.0 if better == "lower" else -1.0  # positive sign * delta = worse
    change_wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    base_wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max(_share(b_q3 - b_q1, b_med), _share(c_q3 - c_q1, c_med))
    worse = sign * _share(c_med - b_med, b_med)
    # A gain, or a loss without a bound, needs ten pairs and nine in ten won.
    enough = len(pairs) >= MIN_PAIRS and abs(c_med - b_med) > b_q3 - b_q1
    if enough and change_wins >= 0.9 * len(pairs):
        return "improved", base_wins, change_wins, worse, spread
    if bound is None:
        clear = enough and base_wins >= 0.9 * len(pairs)
        return "worse" if clear else "no clear change", base_wins, change_wins, worse, spread
    if spread > bound:
        return "unresolved", base_wins, change_wins, worse, spread
    if worse > bound:
        return "worse", base_wins, change_wins, worse, spread
    return "unchanged", base_wins, change_wins, worse, spread


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    base_runs, change_runs = load(args.base), load(args.change)

    bad = 0
    for workload in (w["name"] for w in bench["workloads"]):
        base, change = base_runs.get((workload, 0), []), change_runs.get((workload, 0), [])
        if not base or not change:
            print(f"== {workload}: no results on {'base' if not base else 'change'} side")
            bad += 1
            continue
        print(f"== {workload}: {len(base)} base runs, {len(change)} change runs")
        share = {}
        for side, results in (("base", base), ("change", change)):
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            partial = sum(1 for r in results if _partial(r))
            share[side] = failed / attempted
            print(f"   {side}: {failed}/{attempted} operations failed,"
                  f" {partial} runs stopped early (incorrect or failed)")
            if partial:
                print(f"   FAIL: {side} has {partial} partial runs, left out of the medians")
                bad += 1
        if share["change"] > share["base"]:
            print(f"   FAIL: change fails {share['change']:.4%} of operations,"
                  f" base {share['base']:.4%}")
            bad += 1
        base, change = _whole(base), _whole(change)
        print(f"   {'metric':34s} {'base q1/med/q3':>26s} {'change q1/med/q3':>26s}"
              f" {'spread':>7s} {'wins b/c':>9s} {'worse':>7s} {'bound':>6s}  verdict")
        for metric in bench["end_to_end"]:
            result = _row(metric, base, change, metric["bound"])
            bad += result in ("worse", "unresolved", "missing")
        traced = (_whole(base_runs.get((workload, 1), [])),
                  _whole(change_runs.get((workload, 1), [])))
        layer_base, layer_change = traced if all(traced) else (base, change)
        print(f"   per-layer, from {'traced' if all(traced) else 'untraced'} runs:")
        for metric in bench["per_layer"]:
            _row(metric, layer_base, layer_change, None)
        for side, runs in (("base", base_runs), ("change", change_runs)):
            traced = _whole(runs.get((workload, 1), []))
            untraced = _whole(runs[workload, 0])
            if traced and untraced:
                shifts = []
                for metric in bench["end_to_end"]:
                    name = metric["name"]
                    t = [v for v in (value(r, name) for r in traced) if v is not None]
                    u = [v for v in (value(r, name) for r in untraced) if v is not None]
                    if t and u:
                        med = statistics.median(u)
                        shifts.append(f"{name} {(statistics.median(t) - med) / med:+.1%}")
                print(f"   tracing overhead ({side}, {len(traced)} traced runs): "
                      + ", ".join(shifts))
    return 1 if bad else 0


def _row(metric: dict, base: list[dict], change: list[dict], bound: float | None) -> str:
    """Print one metric's comparison; returns its verdict."""
    name = metric["name"]
    a = [v for v in (value(r, name) for r in base) if v is not None]
    b = [v for v in (value(r, name) for r in change) if v is not None]
    if not a or not b:
        print(f"   {name:34s} missing")
        return "missing"
    pairs = [(value(x, name), value(y, name)) for x, y in _pair(base, change)]
    pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
    result, base_wins, change_wins, worse, spread = verdict(a, b, pairs, metric["better"], bound)
    shown = f"{bound:6.2f}" if bound is not None else "     -"
    print(f"   {name:34s} {_fmt(quartiles(a)):>26s} {_fmt(quartiles(b)):>26s}"
          f" {spread:7.3f} {base_wins:4d}/{change_wins:<4d} {worse:+7.3f} {shown}  {result}")
    return result


def _partial(result: dict) -> bool:
    return not result["correct"] or result["failed"] > 0


def _whole(results: list[dict]) -> list[dict]:
    return [r for r in results if not _partial(r)]


def _share(delta: float, of: float) -> float:
    if of:
        return delta / of
    return 0.0 if delta == 0 else float("inf")


def _pair(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pairs by seed where both sides ran it; otherwise by position."""
    by_seed = {r["detail"]["seed"]: r for r in change}
    if len(by_seed) == len(change) and all(r["detail"]["seed"] in by_seed for r in base):
        return [(r, by_seed[r["detail"]["seed"]]) for r in base]
    return list(zip(base, change))


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


if __name__ == "__main__":
    sys.exit(main())
