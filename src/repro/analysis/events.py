"""Raw-record decode and time reconstruction.

Two jobs, both purely mechanical:

1. **Tag decode** — look every 16-bit tag up in the name table and label
   it entry / exit / inline / unknown.
2. **Time reconstruction** — the board stores only the low 24 bits of a
   1 MHz counter.  "The analysis software only uses the timer value as an
   interval time, not as an absolute time": successive records are
   differenced modulo 2**24 and the differences accumulated into an
   absolute microsecond timeline starting at zero.  Any real gap of 16
   seconds or more aliases irrecoverably (the paper's stated limit); the
   decoder cannot detect that, so it is documented rather than guessed at.
"""

from __future__ import annotations

import dataclasses
import enum
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagEntry
from repro.profiler.capture import Capture
from repro.profiler.ram import TIME_BITS, RawRecord

#: Records per batch when the decoder drains a record iterable.
_DECODE_CHUNK_RECORDS = 8192


def _check_width(width_bits: int) -> None:
    """A wrong wrap mask corrupts every reconstructed interval, so the
    counter width is validated wherever one enters the decode path."""
    if not (1 <= width_bits <= TIME_BITS):
        raise ValueError(
            f"counter width {width_bits} outside 1..{TIME_BITS} bits"
        )


class EventKind(enum.Enum):
    """Decoded meaning of one captured record."""

    ENTRY = "entry"
    EXIT = "exit"
    INLINE = "inline"
    UNKNOWN = "unknown"


@dataclasses.dataclass(frozen=True)
class DecodedEvent:
    """One record with its reconstructed time and decoded identity."""

    index: int
    time_us: int
    kind: EventKind
    name: str
    #: The owning name-table entry; ``None`` for unknown tags.
    entry: Optional[TagEntry]
    raw: RawRecord

    @property
    def is_context_switch(self) -> bool:
        """True when this event belongs to a ``!``-tagged function."""
        return self.entry is not None and self.entry.context_switch


def reconstruct_times(
    records: Sequence[RawRecord], width_bits: int = 24
) -> list[int]:
    """Absolute microsecond timeline from wrapped counter snapshots.

    The first record defines t=0; each subsequent record advances by the
    modular difference from its predecessor.
    """
    _check_width(width_bits)
    mask = (1 << width_bits) - 1
    times: list[int] = []
    absolute = 0
    previous: Optional[int] = None
    for record in records:
        if record.time > mask:
            raise ValueError(
                f"record time {record.time} exceeds the {width_bits}-bit counter"
            )
        if previous is not None:
            absolute += (record.time - previous) & mask
        previous = record.time
        times.append(absolute)
    return times


def decode_capture(capture: Capture) -> list[DecodedEvent]:
    """Decode every record of *capture* against its name table."""
    return decode_records(
        capture.records, capture.names, width_bits=capture.counter_width_bits
    )


def iter_decoded_events(
    records: Iterable[RawRecord], names: NameTable, width_bits: int = 24
) -> Iterator[DecodedEvent]:
    """Decode a record stream lazily.

    *records* may be any iterable (a generator draining a capture file
    chunk by chunk).  It is drained in batches through
    :func:`repro.analysis.columnar.decode_columns`, carrying the previous
    counter snapshot and the running absolute time from batch to batch,
    so memory stays O(batch) regardless of trace length and the counter
    wrap is handled across batch boundaries exactly as in
    :func:`reconstruct_times`.  A batch is validated whole before any of
    it is yielded: an over-width snapshot raises :class:`ValueError`
    before that batch's earlier events are seen.
    """
    from repro.analysis import columnar  # lazy: events is columnar's base

    _check_width(width_bits)
    decode_map = columnar.build_decode_map(names)
    iterator = iter(records)
    index = 0
    base = 0
    previous: Optional[int] = None
    while True:
        chunk = list(islice(iterator, _DECODE_CHUNK_RECORDS))
        if not chunk:
            return
        batch = columnar.decode_columns(
            columnar.columns_from_records(chunk),
            names,
            width_bits,
            start_index=index,
            time_base_us=base,
            previous=previous,
            decode_map=decode_map,
        )
        yield from batch.to_events()
        index += len(chunk)
        base = batch.times[-1]
        previous = chunk[-1].time


def decode_records(
    records: Sequence[RawRecord], names: NameTable, width_bits: int = 24
) -> list[DecodedEvent]:
    """Decode a raw record sequence against *names*."""
    return list(iter_decoded_events(records, names, width_bits=width_bits))
