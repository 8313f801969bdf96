"""Tests of the benchmark harness itself (not of the program).

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import stats  # noqa: E402
import streamgen  # noqa: E402
from run import parse_summary, summary_block  # noqa: E402
from tracer import reduce_op  # noqa: E402


# -- percentiles and the tail rule -------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail([1.0] * 10) is None
    tail = stats.tail([float(v) for v in range(11, 0, -1)])
    assert tail == {"value": 1.0, "percentile": 100 / 11, "beyond": 10, "samples": 11}


def test_tail_of_a_hundred_samples_is_p90():
    tail = stats.tail([float(v) for v in range(1, 101)])
    assert tail["value"] == 90.0
    assert tail["percentile"] == 90.0
    assert (tail["beyond"], tail["samples"]) == (10, 100)


def test_iqr_frac_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = 11.75, 14.5, 17.25  # statistics.quantiles(values, n=4)
    assert stats.iqr_frac(values) == pytest.approx((q3 - q1) / q2)


def test_geomean():
    assert stats.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


# -- span self-time arithmetic -----------------------------------------------


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "op": "op", "attrs": {}}


def test_self_time_subtracts_children():
    spans = [
        span("load", 0, 100, None),      # 0: 100 long, children 30 + 50
        span("decode", 10, 40, 0),       # 1: 30 long, child 20
        span("probe", 15, 35, 1),        # 2: 20
        span("fold", 40, 90, 0),         # 3: 50
        span("render", 120, 130, None),  # 4: 10, after a gap
        span("decode", 130, 135, None),  # 5: same layer, adds up
    ]
    assert stats.self_times(spans) == {
        "load": 20, "decode": 15, "probe": 20, "fold": 50, "render": 10,
    }
    assert stats.covered_ns(spans) == 100 + 10 + 5


def test_unattributed_time_is_wall_minus_covered():
    trace = {"op": "op", "first_ns": 1_000, "spans": [
        span("startup.import", 1_100, 1_400, None),
        span("analysis.fold", 1_500, 2_500, None),
        span("analysis.fold_close", 2_400, 2_450, 1),
    ]}
    self_ns, other, spans = reduce_op(trace, spawned_ns=0, exited_ns=3_000)
    # Covered: interp 0..1000, import 300, fold 1000; the rest is other.
    assert other == 3_000 - (1_000 + 300 + 1_000)
    assert self_ns["startup.interp"] == 1_000
    assert self_ns["analysis.fold"] == 950
    assert self_ns["analysis.fold_close"] == 50
    assert sum(self_ns.values()) + other == 3_000


# -- the long-stream generator against the program's fold ---------------------


@pytest.fixture(scope="module")
def kernel_names():
    from repro.system import build_case_study

    names = build_case_study().names
    text = "\n".join(entry.format() for entry in names)
    return names, streamgen.parse_names(text)


def fold(names, tags, times):
    from repro.analysis.summary import SummaryAccumulator
    from repro.profiler.upload import RecordColumns

    accumulator = SummaryAccumulator(names)
    for i in range(0, len(tags), 4096):
        accumulator.feed_columns(RecordColumns(tags[i:i + 4096], times[i:i + 4096]))
    return accumulator, accumulator.summary()


@pytest.mark.parametrize("seed", [1, 7, 9001])
def test_generator_oracle_agrees_with_the_fold(kernel_names, seed):
    names, entries = kernel_names
    tags, times, oracle = streamgen.generate(entries, seed, 30_000)
    accumulator, summary = fold(names, tags, times)
    assert accumulator.anomalies == []
    assert summary.event_count == oracle.events == len(tags)
    assert summary.wall_us == oracle.wall_us
    assert summary.idle_us == oracle.idle_us
    assert accumulator.context_switches == oracle.context_switches > 0
    assert {n: s.calls for n, s in summary.functions.items()} == oracle.calls
    assert oracle.calls["tsleep"] == oracle.context_switches
    assert oracle.interrupts > 0


def test_printed_summary_parses_back_to_the_oracle(kernel_names):
    names, entries = kernel_names
    tags, times, oracle = streamgen.generate(entries, 3, 20_000)
    _, summary = fold(names, tags, times)
    printed = "streamed ...\n" + summary.format(limit=None) + "\n\n"
    got = parse_summary(summary_block(printed))
    assert got["events"] == oracle.events
    assert (got["wall_us"], got["idle_us"]) == (oracle.wall_us, oracle.idle_us)
    assert got["calls"] == oracle.calls


def test_generator_is_deterministic_and_wraps_the_timer(kernel_names):
    _, entries = kernel_names
    first = streamgen.generate(entries, 5, 400_000)
    second = streamgen.generate(entries, 5, 400_000)
    assert first[0] == second[0] and first[1] == second[1]
    assert first[2] == second[2]
    assert first[2].wraps >= 1
    assert streamgen.generate(entries, 6, 1_000)[0] != first[0][:1_000]
