"""Columnar decode: the analysis ingest's one decode engine.

Walking one :class:`~repro.profiler.ram.RawRecord` at a time costs a
Python object, a name-table lookup and a wrap subtraction per record.
This module states the two decode jobs over *columns* instead:

1. **Timer unwrap** (:func:`unwrap_times`) — "the analysis software
   only uses the timer value as an interval time": successive 24-bit
   snapshots are differenced modulo the counter range and accumulated
   into an absolute microsecond timeline starting at zero, as two C-level
   passes (:func:`zip` + :func:`itertools.accumulate`) over a whole
   batch.  A real gap of one wrap period (16 s) or more aliases
   irrecoverably, the paper's stated limit;
2. **Tag decode** (:func:`build_tag_map` + :func:`decode_columns`) —
   one memoizing dict lookup per record, batched into parallel code and
   name columns.

Matching entries to exits is not a decode job: the fold's state machine
(:class:`repro.analysis.summary.SummaryAccumulator`) is the one
call-stack reconstruction.

The product, :class:`ColumnarEvents`, holds one decoded event per
record, column by column; no per-event object is ever built.
Correctness is not assumed: ``tests/test_decode_differential.py`` holds
it field-identical to the per-record oracle in
``tests/reference_decode.py`` over generated streams.
"""

from __future__ import annotations

import dataclasses
from itertools import accumulate, chain, islice
from typing import Optional, Sequence

from repro.instrument.namefile import NameTable
from repro.profiler.ram import TIME_BITS, RawRecord
from repro.profiler.upload import RecordColumns

#: Integer event codes, shared by every columnar and fold hot loop
#: (:mod:`repro.analysis.summary` imports them as ``_ENTRY`` etc.).
CODE_ENTRY, CODE_EXIT, CODE_INLINE, CODE_UNKNOWN = 0, 1, 2, 3


def _check_width(width_bits: int) -> None:
    """A wrong wrap mask corrupts every reconstructed interval, so the
    counter width is validated wherever one enters the decode path."""
    if not (1 <= width_bits <= TIME_BITS):
        raise ValueError(
            f"counter width {width_bits} outside 1..{TIME_BITS} bits"
        )


class _TagMap(dict):
    """Raw tag value -> (name, event code, is context switch).

    ``[]`` on a tag absent from the name file synthesises the ``tag#N``
    identity the per-record decoder invents for it, and caches it so a
    burst of the same unknown tag costs one format call, not one per
    record; ``.get`` answers ``None`` for a tag not yet seen that way.
    """

    def __missing__(self, tag: int) -> tuple[str, int, bool]:
        info = (f"tag#{tag}", CODE_UNKNOWN, False)
        self[tag] = info
        return info


def build_tag_map(names: NameTable) -> dict[int, tuple[str, int, bool]]:
    """Precompute raw tag value -> (name, event code, is context switch).

    One dict lookup replaces ``NameTable.decode`` plus kind mapping in the
    fold's and :func:`decode_columns`' hot loops.
    """
    tag_map = _TagMap()
    for entry in names:
        if entry.inline:
            tag_map[entry.entry_value] = (entry.name, CODE_INLINE, False)
        else:
            tag_map[entry.entry_value] = (entry.name, CODE_ENTRY, entry.context_switch)
            tag_map[entry.exit_value] = (entry.name, CODE_EXIT, entry.context_switch)
    return tag_map


def unwrap_times(
    raw_times: Sequence[int],
    width_bits: int = 24,
    *,
    previous: Optional[int] = None,
    base: int = 0,
) -> list[int]:
    """Vectorized counter unwrap: wrapped snapshots -> absolute timeline.

    The per-record ``(t - prev) & mask`` difference runs in one
    :func:`zip` comprehension and the running sum in one
    :func:`itertools.accumulate` — no Python-level loop state per record.

    With ``previous``/``base`` a caller unwraps a *chunk* of a longer
    stream: ``previous`` is the last raw snapshot of the prior chunk and
    ``base`` its final absolute time, exactly the carry a per-record
    unwrap keeps between records.  When ``previous`` is ``None`` the
    first snapshot defines ``base`` (t=0 by default).

    Every snapshot is validated against the counter width: the first
    offending record raises :class:`ValueError`.
    """
    _check_width(width_bits)
    mask = (1 << width_bits) - 1
    n = len(raw_times)
    if n and max(raw_times) > mask:
        for t in raw_times:
            if t > mask:
                raise ValueError(
                    f"record time {t} exceeds the {width_bits}-bit counter"
                )
    if n == 0:
        return []
    if previous is None:
        deltas = [
            (b - a) & mask for a, b in zip(raw_times, islice(raw_times, 1, None))
        ]
        return list(accumulate(deltas, initial=base))
    deltas = [(b - a) & mask for a, b in zip(chain((previous,), raw_times), raw_times)]
    return list(accumulate(deltas, initial=base))[1:]


def columns_from_records(records: Sequence[RawRecord]) -> RecordColumns:
    """Shear a record-object sequence into columns.

    The adapter for callers that hold :class:`RawRecord` objects (a
    capture already in memory) but want the columnar engines; captures
    still on disk decode straight to columns via
    :func:`repro.profiler.upload.iter_capture_columns` without ever
    building the objects.
    """
    return RecordColumns(
        tags=[record.tag for record in records],
        times=[record.time for record in records],
    )


@dataclasses.dataclass(frozen=True)
class ColumnarEvents:
    """A batch of decoded events as parallel columns.

    Event ``i`` is record ``start_index + i``: its absolute time, event
    code and name — held as columns so analysis passes iterate machine
    values, not objects.
    """

    start_index: int
    times: Sequence[int]
    codes: Sequence[int]
    names: Sequence[str]

    def __len__(self) -> int:
        return len(self.codes)


def decode_columns(
    columns: RecordColumns,
    names: NameTable,
    width_bits: int = 24,
    *,
    start_index: int = 0,
    time_base_us: int = 0,
    previous: Optional[int] = None,
    tag_map: Optional[dict] = None,
) -> ColumnarEvents:
    """Decode one columnar record batch against *names*.

    The timer unwrap is vectorized (:func:`unwrap_times`, carrying
    ``previous``/``time_base_us`` across batches) and the tag decode is
    one memoized dict hit per record.  Passing a prebuilt ``tag_map``
    (:func:`build_tag_map`) amortises the table build across batches.

    The whole batch is validated before anything is returned, so an
    over-width snapshot raises *before* the batch's earlier events are
    observable.
    """
    if tag_map is None:
        tag_map = build_tag_map(names)
    times = unwrap_times(
        columns.times, width_bits, previous=previous, base=time_base_us
    )
    info = [tag_map[tag] for tag in columns.tags]
    name_col, codes, _ = zip(*info) if info else ((), (), ())
    return ColumnarEvents(start_index, times, codes, name_col)
