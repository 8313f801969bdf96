"""Every entry point that folds a capture file honours its counter width.

The MPF2 header carries the counter width so intervals unwrap with the
right mask.  The case here is the Figure 3 network capture re-wrapped
onto a 20-bit counter that starts 5000 us before its wrap: its largest
inter-record gap is 1408 us, so it is a valid 20-bit capture, and
unwrapping it with the stock 24-bit mask would fold ~15.7 s of phantom
time into the run.  Each CLI entry point must report the true elapsed
time, the 18657 us the 24-bit original spans.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro.__main__ import main
from repro.profiler.ram import RawRecord
from repro.profiler.upload import read_capture, write_capture_file

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
NAMES = str(GOLDEN_DIR / "case_study.tags")

WIDTH_BITS = 20
START_BEFORE_WRAP_US = 5000
ELAPSED = "Elapsed time = 0 sec 18657 us"


@pytest.fixture(scope="module")
def narrow_capture(tmp_path_factory) -> pathlib.Path:
    records, meta = read_capture(GOLDEN_DIR / "figure3_network_v2.mpf")
    wide_mask = (1 << meta.counter_width_bits) - 1
    narrow_mask = (1 << WIDTH_BITS) - 1
    t = narrow_mask + 1 - START_BEFORE_WRAP_US
    rewrapped = [RawRecord(tag=records[0].tag, time=t & narrow_mask)]
    for previous, record in zip(records, records[1:]):
        t += (record.time - previous.time) & wide_mask
        rewrapped.append(RawRecord(tag=record.tag, time=t & narrow_mask))
    assert t > narrow_mask + 1  # the run really does cross the wrap
    root = tmp_path_factory.mktemp("narrow")
    path = root / "narrow.mpf"
    write_capture_file(
        path, rewrapped, counter_width_bits=WIDTH_BITS, label=meta.label
    )
    return path


def _cli(*argv: str) -> str:
    lines: list[str] = []
    assert main(list(argv), out=lines.append) == 0
    return "\n".join(lines)


def _analyze(path: pathlib.Path, tmp_path: pathlib.Path) -> str:
    return _cli("analyze", str(path), "--names", NAMES)


def _analyze_stream(path: pathlib.Path, tmp_path: pathlib.Path) -> str:
    return _cli("analyze", str(path), "--names", NAMES, "--stream")


def _live_analyze(path: pathlib.Path, tmp_path: pathlib.Path) -> str:
    return _cli("live", "analyze", str(path), "--names", NAMES)


def _fleet_ingest(path: pathlib.Path, tmp_path: pathlib.Path) -> str:
    return _cli("fleet", "ingest", str(path.parent), "--names", NAMES, "--jobs", "1")


def _db_ingest(path: pathlib.Path, tmp_path: pathlib.Path) -> str:
    db = str(tmp_path / "corpus.db")
    _cli("db", "ingest", str(path), "--db", db, "--names", NAMES)
    (run,) = json.loads(_cli("db", "runs", "--db", db, "--json"))["runs"]
    wall_s, wall_us = divmod(run["wall_us"], 1_000_000)
    return f"Elapsed time = {wall_s} sec {wall_us} us"


@pytest.mark.parametrize(
    "entry_point",
    [_analyze, _analyze_stream, _live_analyze, _fleet_ingest, _db_ingest],
    ids=["analyze", "analyze-stream", "live-analyze", "fleet-ingest", "db-ingest"],
)
def test_entry_point_unwraps_with_header_width(entry_point, narrow_capture, tmp_path):
    text = entry_point(narrow_capture, tmp_path)
    elapsed = re.findall(r"Elapsed time = \d+ sec \d+ us", text)
    assert elapsed == [ELAPSED]

