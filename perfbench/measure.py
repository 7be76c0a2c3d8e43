"""Samples, percentiles and spans.

Every timed call into a layer goes through Recorder.time(): it appends the
duration to a named sample list and, in a traced run, records a span (name,
start, end, parent span, trace id). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Iterator

# The highest percentile reported beside a median is the highest of these
# with at least ten samples beyond it.
_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_quantile(n: int) -> float | None:
    """Highest candidate percentile with >= 10 samples above it (None if n < 40)."""
    for q in _TAIL_CANDIDATES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of values (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and highest `cut` share.

    The end-to-end timings use it rather than the median: on the shared host
    the samples of one run fall into a fast and a slow group, and the median
    jumps between the groups from run to run while this moves smoothly with
    their shares. Rare outliers are still cut off.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.mean(ordered[k:len(ordered) - k])


def summary(values: list[float]) -> dict[str, float | int | None]:
    """Median, trimmed mean, tail percentile and sample count of one sample list."""
    q = tail_quantile(len(values))
    return {
        "p50": statistics.median(values),
        "tmean": trimmed_mean(values),
        "tail_q": q,
        "tail": percentile(values, q) if q is not None else None,
        "n": len(values),
    }


class Recorder:
    """Named samples (in the unit the key names) plus optional spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.samples[key].append(value)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    @contextlib.contextmanager
    def time(
        self, key: str | None, span: str, trace: str, scale: float = 1e-6
    ) -> Iterator[None]:
        """Time the body; add it to `key` (ns * scale) and record a span.

        scale 1e-6 gives milliseconds, 1e-3 microseconds. key None records
        only the span.
        """
        stack = self._stack
        span_id = next(self._ids) if self.traced else 0
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if key is not None:
                self.add(key, (end - start) * scale)
            if self.traced:
                self.spans.append(
                    {
                        "name": span,
                        "start_ns": start,
                        "end_ns": end,
                        "id": span_id,
                        "parent": parent,
                        "trace": trace,
                    }
                )

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
