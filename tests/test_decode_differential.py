"""Differential tests: the shipped decode engine against the oracle.

Every property here generates a record stream (wrap-heavy timers,
interrupt bursts, unknown tags, zero-length and trace-RAM-filling
captures, MPF1 and MPF2 files) and asserts the columnar engine agrees
*exactly* with the per-record reference decoder in
``tests/reference_decode.py``: decoded columns field-identical to the
oracle's ``DecodedEvent`` sequences, identical summary bytes (and
therefore identical summary hashes) against the oracle's look-ahead
call-tree builder, and identical error messages and carried accumulator
state when a stream is malformed.  The node-for-node call-tree
differential lives in ``tests/test_tree_differential.py``.

Case volume is tunable: ``REPRO_DIFF_EXAMPLES`` sets the per-property
example count (default 40, so the module runs well over 200 generated
cases locally); CI runs a smaller derandomized subset by exporting
``REPRO_DIFF_EXAMPLES=15`` and ``REPRO_DIFF_DERANDOMIZE=1``.
"""

from __future__ import annotations

import hashlib
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

import reference_decode as reference
from repro.analysis import columnar
from repro.analysis.summary import SummaryAccumulator
from repro.profiler.ram import DEFAULT_DEPTH, RawRecord
from repro.profiler.upload import (
    DEFAULT_CHUNK_RECORDS,
    MAGIC,
    decode_record_columns,
    dump_records,
    iter_capture_columns,
    write_capture_stream,
)
from stream_helpers import TIME_MASK, make_names

DIFF_EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "40"))
DIFF_SETTINGS = settings(
    max_examples=DIFF_EXAMPLES,
    deadline=None,
    derandomize=bool(os.environ.get("REPRO_DIFF_DERANDOMIZE")),
)

NAMES = make_names(
    ("main", 500),
    ("read", 502),
    ("bcopy", 504),
    ("cksum", 506),
    ("ISAINTR", 508),
    ("tsleep", 510),
    ("swtch", 600, "!"),
    ("MGET", 1002, "="),
)

_ENTRIES = [NAMES.by_name(n) for n in (
    "main", "read", "bcopy", "cksum", "ISAINTR", "tsleep", "swtch", "MGET"
)]
KNOWN_TAGS = sorted(
    {e.entry_value for e in _ENTRIES}
    | {e.exit_value for e in _ENTRIES if not e.inline}
)

# Tags the table knows, plus the occasional stranger (decodes to "tag#N").
tag_strategy = st.one_of(
    st.sampled_from(KNOWN_TAGS),
    st.integers(min_value=0, max_value=0xFFFF),
)

# Mostly-tight deltas with the occasional near-full-range jump: a few
# hundred records are enough to wrap the 24-bit counter many times over.
delta_strategy = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=(1 << 23) - 1),
)


@st.composite
def record_streams(draw, max_records: int = 150) -> list[RawRecord]:
    """Raw streams: arbitrary tags, monotone wrapped counter snapshots."""
    pairs = draw(
        st.lists(st.tuples(tag_strategy, delta_strategy), max_size=max_records)
    )
    t = draw(st.integers(min_value=0, max_value=TIME_MASK))
    records = []
    for tag, delta in pairs:
        records.append(RawRecord(tag=tag, time=t))
        t = (t + delta) & TIME_MASK
    return records


@st.composite
def call_streams(draw, max_blocks: int = 30) -> list[RawRecord]:
    """Call-shaped streams: scheduling blocks with nested interrupt bursts.

    Each block is one quantum — ``swtch`` exit, a few call pairs (some
    interrupted mid-flight by a burst of nested ``ISAINTR`` frames, some
    inline ``MGET`` markers), ``swtch`` entry — so the summary state
    machine's suspension/resolution logic gets exercised, not just the
    raw decode.
    """
    blocks = draw(st.integers(min_value=0, max_value=max_blocks))
    t = draw(st.integers(min_value=0, max_value=TIME_MASK))
    swtch = NAMES.by_name("swtch")
    isaintr = NAMES.by_name("ISAINTR")
    mget = NAMES.by_name("MGET")
    functions = [NAMES.by_name(n) for n in ("main", "read", "bcopy", "cksum")]
    records = []

    def emit(tag: int, advance: int) -> None:
        nonlocal t
        records.append(RawRecord(tag=tag, time=t))
        t = (t + advance) & TIME_MASK

    for _ in range(blocks):
        emit(swtch.exit_value, draw(delta_strategy))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            fn = draw(st.sampled_from(functions))
            emit(fn.entry_value, draw(delta_strategy))
            if draw(st.booleans()):
                burst = draw(st.integers(min_value=1, max_value=4))
                for _ in range(burst):
                    emit(isaintr.entry_value, draw(delta_strategy))
                if draw(st.booleans()):
                    emit(mget.entry_value, draw(delta_strategy))
                for _ in range(burst):
                    emit(isaintr.exit_value, draw(delta_strategy))
            emit(fn.exit_value, draw(delta_strategy))
        emit(swtch.entry_value, draw(delta_strategy))
    return records


_CODE_FROM_KIND = {
    reference.EventKind.ENTRY: columnar.CODE_ENTRY,
    reference.EventKind.EXIT: columnar.CODE_EXIT,
    reference.EventKind.INLINE: columnar.CODE_INLINE,
    reference.EventKind.UNKNOWN: columnar.CODE_UNKNOWN,
}


def _event_fields(event):
    """An oracle ``DecodedEvent`` as the tuple :func:`_column_fields` yields."""
    return (event.index, event.time_us, _CODE_FROM_KIND[event.kind], event.name)


def _column_fields(events):
    """One tuple per event of a :class:`columnar.ColumnarEvents` batch."""
    return [
        (index, time_us, code, name)
        for index, (time_us, code, name) in enumerate(
            zip(events.times, events.codes, events.names),
            start=events.start_index,
        )
    ]


def _decode(records, width_bits=24, chunk_records=DEFAULT_CHUNK_RECORDS):
    """The shipped columnar decode of a record stream, batch by batch,
    carrying index, absolute time and the previous snapshot across
    batches as the live wire does."""
    tag_map = columnar.build_tag_map(NAMES)
    fields = []
    previous = None
    base = 0
    for start in range(0, len(records), chunk_records):
        chunk = records[start : start + chunk_records]
        batch = columnar.decode_columns(
            columnar.columns_from_records(chunk),
            NAMES,
            width_bits,
            start_index=start,
            time_base_us=base,
            previous=previous,
            tag_map=tag_map,
        )
        fields.extend(_column_fields(batch))
        base = batch.times[-1]
        previous = chunk[-1].time
    return fields


def _reference(records, width_bits=24):
    return [
        _event_fields(event)
        for event in reference.decode_records(records, NAMES, width_bits=width_bits)
    ]


def _summary_hash(summary) -> str:
    return hashlib.sha256(summary.format().encode()).hexdigest()


# -- raw-record layer --------------------------------------------------------


class TestRecordParity:
    @DIFF_SETTINGS
    @given(records=record_streams())
    def test_columnar_load_matches_reference(self, records):
        blob = dump_records(records)
        columns = decode_record_columns(blob)
        assert columns.to_records() == reference.load_records(blob)
        assert columns.to_bytes() == blob
        for offset in (0, len(records) // 2, len(records) - 1):
            if 0 <= offset < len(records):
                assert columns.record(offset) == records[offset]

    @DIFF_SETTINGS
    @given(
        records=record_streams(),
        chunk_records=st.integers(min_value=1, max_value=64),
    )
    def test_chunked_stream_matches_reference(self, records, chunk_records):
        blob = dump_records(records)
        expected = list(reference.iter_record_stream(io.BytesIO(blob)))
        capture = MAGIC + len(records).to_bytes(4, "big") + blob
        batches = list(
            iter_capture_columns(io.BytesIO(capture), chunk_records=chunk_records)
        )
        flattened = [r for batch in batches for r in batch.to_records()]
        assert flattened == expected
        assert all(len(batch) <= chunk_records for batch in batches)

    @DIFF_SETTINGS
    @given(
        records=record_streams(),
        version=st.integers(min_value=1, max_value=2),
        chunk_records=st.integers(min_value=1, max_value=97),
    )
    def test_capture_file_matches_reference(self, records, version, chunk_records):
        """MPF1 and MPF2 files decode identically through both readers."""
        buffer = io.BytesIO()
        write_capture_stream(buffer, records, version=version)
        buffer.seek(0)
        expected = list(reference.iter_capture_file(buffer))
        buffer.seek(0)
        flattened = [
            r
            for batch in iter_capture_columns(buffer, chunk_records=chunk_records)
            for r in batch.to_records()
        ]
        assert flattened == expected


# -- decoded-event layer -----------------------------------------------------


class TestEventParity:
    @DIFF_SETTINGS
    @given(
        records=record_streams(),
        start_index=st.integers(min_value=0, max_value=100_000),
        time_base_us=st.integers(min_value=0, max_value=1 << 40),
    )
    def test_decoded_events_field_identical(self, records, start_index, time_base_us):
        """The shipped decoder, and the batch decode continuing a longer
        stream (the carry the live wire relies on), both match the
        oracle field for field."""
        assert _decode(records, chunk_records=7) == _reference(records)
        continued = columnar.decode_columns(
            columnar.columns_from_records(records),
            NAMES,
            start_index=start_index,
            time_base_us=time_base_us,
        )
        expected = list(
            reference.iter_decoded_events(
                iter(records),
                NAMES,
                start_index=start_index,
                time_base_us=time_base_us,
            )
        )
        assert _column_fields(continued) == [_event_fields(e) for e in expected]

    @DIFF_SETTINGS
    @given(records=record_streams(max_records=80), width_bits=st.sampled_from([8, 16, 24]))
    def test_narrow_counter_widths_agree(self, records, width_bits):
        mask = (1 << width_bits) - 1
        narrowed = [RawRecord(tag=r.tag, time=r.time & mask) for r in records]
        assert _decode(narrowed, width_bits=width_bits) == _reference(
            narrowed, width_bits=width_bits
        )

    def test_zero_length_capture(self):
        assert _decode([]) == []
        assert reference.decode_records([], NAMES) == []
        assert decode_record_columns(b"").to_records() == []

    def test_chunk_boundary_wrap_carry(self):
        """Wraps that straddle the 8192-record columnar batch boundary."""
        records = []
        t = 0
        for i in range(3 * 8192 + 17):
            # Big steps so the counter wraps inside *and* across batches.
            t = (t + 0x31_0000 + i) & TIME_MASK
            records.append(RawRecord(tag=KNOWN_TAGS[i % len(KNOWN_TAGS)], time=t))
        via_columns = _decode(records)
        assert via_columns == _reference(records)
        # Absolute time must climb monotonically across batch seams.
        times = [fields[1] for fields in via_columns]
        assert times == sorted(times)

    def test_max_count_capture(self):
        """A capture that exactly fills the trace RAM (the overflow case)."""
        records = [
            RawRecord(tag=KNOWN_TAGS[i % len(KNOWN_TAGS)], time=(i * 37) & TIME_MASK)
            for i in range(DEFAULT_DEPTH)
        ]
        assert _decode(records) == _reference(records)

    @DIFF_SETTINGS
    @given(records=record_streams(max_records=60))
    def test_over_width_error_messages_identical(self, records):
        """A 24-bit snapshot fed as 16-bit: same ValueError, same message."""
        poisoned = list(records) + [RawRecord(tag=KNOWN_TAGS[0], time=0x1_0000)]
        errors = []
        for decode in (_reference, _decode):
            with pytest.raises(ValueError) as excinfo:
                decode(poisoned, width_bits=16)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]


# -- summary layer -----------------------------------------------------------


class TestSummaryParity:
    @DIFF_SETTINGS
    @given(
        records=call_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
        include_swtch=st.booleans(),
    )
    def test_summary_bytes_identical(self, records, chunk_records, include_swtch):
        """The fold over columnar batches of any size, and over records,
        matches the oracle's call-tree summary."""
        expected = reference.summarize_records(
            records, NAMES, include_swtch=include_swtch
        )
        accumulator = SummaryAccumulator(NAMES, include_swtch=include_swtch)
        for i in range(0, len(records), chunk_records):
            accumulator.feed_columns(
                columnar.columns_from_records(records[i : i + chunk_records])
            )
        via_columns = accumulator.summary()
        via_records = (
            SummaryAccumulator(NAMES, include_swtch=include_swtch)
            .feed_records(iter(records))
            .summary()
        )
        assert via_columns.format() == expected.format()
        assert via_records.format() == expected.format()
        assert _summary_hash(via_columns) == _summary_hash(expected)

    @DIFF_SETTINGS
    @given(records=record_streams())
    def test_summary_bytes_identical_on_raw_streams(self, records):
        """Unknown tags and unmatched exits summarise identically too."""
        expected = reference.summarize_records(records, NAMES)
        via_columns = (
            SummaryAccumulator(NAMES)
            .feed_columns(columnar.columns_from_records(records))
            .summary()
        )
        assert via_columns.format() == expected.format()

    @DIFF_SETTINGS
    @given(
        prefix=call_streams(max_blocks=6),
        suffix=call_streams(max_blocks=6),
        bad_offset=st.integers(min_value=0, max_value=5),
    )
    def test_carried_state_identical_after_mid_batch_error(
        self, prefix, suffix, bad_offset
    ):
        """An over-width snapshot mid-batch raises the oracle's error and
        leaves the accumulator exactly as if the stream had never held
        the bad record: feeding the rest still matches the oracle's
        summary of the stream without it.

        The accumulators run at 16-bit width so a legal 24-bit
        ``RawRecord`` snapshot can poison the batch.
        """
        mask = (1 << 16) - 1
        prefix = [RawRecord(tag=r.tag, time=r.time & mask) for r in prefix]
        suffix = [RawRecord(tag=r.tag, time=r.time & mask) for r in suffix]
        poison = RawRecord(tag=KNOWN_TAGS[1], time=mask + 1)
        good = list(prefix[: bad_offset + 3])
        bad_batch = good + [poison]
        with pytest.raises(ValueError) as excinfo:
            reference.decode_records(bad_batch, NAMES, width_bits=16)
        expected_text = reference.summarize_records(
            prefix + good + suffix, NAMES, width_bits=16
        ).format()

        def run(feed):
            accumulator = SummaryAccumulator(NAMES, width_bits=16)
            feed(accumulator, prefix)
            try:
                feed(accumulator, bad_batch)
            except ValueError as exc:
                message = str(exc)
            else:  # pragma: no cover - the poison record must raise
                raise AssertionError("over-width record did not raise")
            feed(accumulator, suffix)
            return message, accumulator.summary().format()

        for feed in (
            lambda acc, recs: acc.feed_records(recs),
            lambda acc, recs: acc.feed_columns(columnar.columns_from_records(recs)),
        ):
            assert run(feed) == (str(excinfo.value), expected_text)
