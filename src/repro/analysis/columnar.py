"""Columnar decode: the analysis ingest's one decode engine.

Walking one :class:`~repro.profiler.ram.RawRecord` at a time costs a
Python object, a name-table lookup and a wrap subtraction per record.
This module states the three decode jobs over *columns* instead:

1. **Timer unwrap** (:func:`unwrap_times`) — "the analysis software
   only uses the timer value as an interval time": successive 24-bit
   snapshots are differenced modulo the counter range and accumulated
   into an absolute microsecond timeline starting at zero, as two C-level
   passes (:func:`zip` + :func:`itertools.accumulate`) over a whole
   batch.  A real gap of one wrap period (16 s) or more aliases
   irrecoverably, the paper's stated limit;
2. **Tag decode** (:func:`build_tag_map` + :func:`decode_columns`) —
   one memoizing dict lookup per record, batched into parallel code and
   name columns;
3. **Entry/exit pairing** (:func:`pair_entry_exits`) — one stack pass
   over the code column yielding matched call spans.

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


@dataclasses.dataclass(frozen=True)
class CallSpan:
    """One matched entry/exit pair: a completed call."""

    name: str
    entry_index: int
    exit_index: int
    elapsed_us: int


@dataclasses.dataclass
class PairingCarry:
    """Open-frame state carried between :func:`pair_entry_exits` batches.

    Frames hold *global* indices and *absolute* times, so a span whose
    entry arrived three wire batches ago still closes correctly.  Hand
    the same instance to every call over consecutive batches of one
    stream; ``len(carry.stack)`` after the final batch is the count of
    calls the capture window truncated.
    """

    stack: list[tuple[str, int, int]] = dataclasses.field(default_factory=list)
    open_names: dict[str, int] = dataclasses.field(default_factory=dict)


def pair_entry_exits(
    events: ColumnarEvents, carry: Optional[PairingCarry] = None
) -> list[CallSpan]:
    """Batched entry/exit pairing: matched call spans from the columns.

    One stack pass over the code column.  An exit closes the innermost
    open frame of the same name; frames opened above it are popped
    without producing a span (the administrative close of a missed exit),
    an exit with no open frame of its name is ignored (capture began
    mid-call), and frames still open at the end of the batch produce no
    span (window truncation).  Inline and unknown events have no stack
    effect.  This is deliberately the *within-process* view — pairing
    across context switches is the summary state machine's job — which
    makes it the cheap first pass for span-oriented consumers (flame
    exports, per-call latency scans).

    Without *carry*, frames still open at the end of the batch produce
    no span (window truncation).  With a :class:`PairingCarry` — the
    live wire's mode — those frames persist in the carry instead, and a
    later batch of the same stream closes them: chunked pairing over a
    whole stream then yields exactly the spans one all-at-once call
    would.
    """
    spans: list[CallSpan] = []
    if carry is None:
        stack: list[tuple[str, int, int]] = []
        open_names: dict[str, int] = {}
    else:
        stack = carry.stack
        open_names = carry.open_names
    times = events.times
    names = events.names
    start_index = events.start_index
    for offset, code in enumerate(events.codes):
        if code == CODE_ENTRY:
            name = names[offset]
            stack.append((name, start_index + offset, times[offset]))
            open_names[name] = open_names.get(name, 0) + 1
        elif code == CODE_EXIT:
            name = names[offset]
            if not open_names.get(name):
                continue
            while stack:
                frame_name, entry_index, entry_time = stack.pop()
                count = open_names[frame_name] - 1
                if count:
                    open_names[frame_name] = count
                else:
                    del open_names[frame_name]
                if frame_name == name:
                    spans.append(
                        CallSpan(
                            name=name,
                            entry_index=entry_index,
                            exit_index=start_index + offset,
                            elapsed_us=times[offset] - entry_time,
                        )
                    )
                    break
    return spans
