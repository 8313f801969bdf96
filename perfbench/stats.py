"""Sample statistics the benchmark reports: medians, spreads and tails."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def iqr_frac(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it, or ``None`` when there are too few samples for one.

    With the samples sorted, the value at 0-based rank ``k`` has
    ``n - 1 - k`` samples beyond it, so the tail sits at ``k = n - 11``;
    its percentile is the share of samples at or below it.
    """
    n = len(values)
    k = n - 1 - TAIL_BEYOND
    if k < 0:
        return None
    ordered = sorted(values)
    return {
        "value": ordered[k],
        "percentile": 100.0 * (k + 1) / n,
        "beyond": n - 1 - k,
        "samples": n,
    }


def self_times(spans: List[dict]) -> Dict[str, int]:
    """Self time per layer, in nanoseconds.

    A span's self time is its duration minus the part of it that its
    child spans cover.  Children nest inside their parent, so that part
    is the sum of the children's durations.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            child_ns[parent] += span["end"] - span["start"]
    totals: Dict[str, int] = {}
    for index, span in enumerate(spans):
        own = span["end"] - span["start"] - child_ns[index]
        totals[span["name"]] = totals.get(span["name"], 0) + own
    return totals


def covered_ns(spans: List[dict]) -> int:
    """Wall time the top-level spans cover (they never overlap)."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
