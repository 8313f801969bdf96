"""Differential tests: the shipped call tree against the oracle's.

The shipped tree is recorded by the fold's own state machine
(:class:`repro.analysis.callstack.CallTreeRecorder`, reached through
:func:`~repro.analysis.callstack.analyze_capture`).  The oracle is the
look-ahead builder in ``tests/reference_decode.py``, which resolves
switch-ins by scanning ahead over per-record decoded events.  The two
must agree node for node (:func:`reference_decode.tree_fields`) on the
differential suite's record and call streams, tag soups, every golden
capture and the salvaged corrupt-capture mutants.  The streams of
``tests/test_callstack_properties.py`` and
``tests/test_streaming_pipeline.py`` get the same node-for-node check
in those suites' own helpers.

Case volume follows ``REPRO_DIFF_EXAMPLES`` / ``REPRO_DIFF_DERANDOMIZE``
like ``tests/test_decode_differential.py``.
"""

from __future__ import annotations

import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import reference_decode as reference
from repro.analysis.callstack import CallTreeRecorder, analyze_capture
from repro.analysis.summary import summarize_capture
from repro.instrument.namefile import NameTable
from repro.profiler.capture import Capture
from repro.profiler.ram import RawRecord
from test_callstack_properties import NAMES as NESTED_NAMES
from test_decode_differential import (
    DIFF_SETTINGS,
    NAMES as DECODE_NAMES,
    call_streams,
    record_streams,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def assert_same_tree(capture: Capture) -> None:
    shipped = analyze_capture(capture)
    oracle = reference.analyze_capture(capture)
    assert reference.tree_fields(shipped) == reference.tree_fields(oracle)


def _capture(records, names) -> Capture:
    return Capture(records=tuple(records), names=names, label="differential")


class TestGeneratedStreams:
    @DIFF_SETTINGS
    @given(records=record_streams())
    def test_raw_tag_streams(self, records):
        """Arbitrary tags: unknown tags, unmatched exits, stray swtch."""
        assert_same_tree(_capture(records, DECODE_NAMES))

    @DIFF_SETTINGS
    @given(records=call_streams())
    def test_scheduling_blocks_with_interrupt_bursts(self, records):
        assert_same_tree(_capture(records, DECODE_NAMES))

    @DIFF_SETTINGS
    @given(data=st.binary(min_size=0, max_size=400))
    def test_tag_soup(self, data):
        records = []
        t = 0
        for i in range(0, len(data) - 1, 2):
            t += data[i] + 1
            tag = (data[i] << 8 | data[i + 1]) % 1100
            records.append(RawRecord(tag=tag, time=t & 0xFFFFFF))
        assert_same_tree(_capture(records, NESTED_NAMES))

    def test_seeded_soup_with_unmatched_switch_exits(self):
        """Short soups dense in swtch exits with no open swtch frame."""
        tags = [500, 501, 502, 503, 600, 601, 601, 1002, 9999]
        for seed in range(200):
            rng = random.Random(seed)
            t = rng.randrange(1 << 24)
            records = []
            for _ in range(rng.randrange(0, 121)):
                t += rng.randrange(0, 300)
                records.append(RawRecord(tag=rng.choice(tags), time=t & 0xFFFFFF))
            assert_same_tree(_capture(records, NESTED_NAMES))

    def test_empty_capture(self):
        assert_same_tree(_capture([], NESTED_NAMES))


@pytest.fixture(scope="module")
def golden_names() -> NameTable:
    return NameTable.read(GOLDEN_DIR / "case_study.tags")


def _load(path: Path, names: NameTable, salvage: bool = False) -> Capture:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the MPF1 goldens' metadata warning
        return Capture.load(path, names, salvage=salvage)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in GOLDEN_DIR.glob("*.mpf"))
)
def test_golden_capture_trees_identical(name, golden_names):
    capture = _load(GOLDEN_DIR / name, golden_names)
    assert_same_tree(capture)
    # Recording the tree leaves the fold's own summary untouched.
    recorder = CallTreeRecorder(capture.names, width_bits=capture.counter_width_bits)
    recorder.feed_records(capture.records)
    assert recorder.summary() == summarize_capture(capture)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in GOLDEN_DIR.glob("*.mpf.corrupt"))
)
def test_salvaged_mutant_trees_identical(name, golden_names):
    capture = _load(GOLDEN_DIR / name, golden_names, salvage=True)
    assert len(capture) > 0
    assert_same_tree(capture)
