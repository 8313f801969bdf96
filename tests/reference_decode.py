"""The per-record reference decoder: the oracle the differential suites trust.

The shipped decode engine is columnar (:mod:`repro.profiler.upload`'s
``decode_record_columns``/``iter_capture_columns`` and
:mod:`repro.analysis.columnar`) and the shipped call-stack reconstruction
is the fold's state machine
(:class:`repro.analysis.summary.SummaryAccumulator`, recording a tree in
:class:`repro.analysis.callstack.CallTreeRecorder`).  This module keeps
the original one-:class:`RawRecord`-at-a-time walkers and the look-ahead
call-tree builder as an independent, executable specification: simple
and slow, never on a shipped code path.  The differential and
salvage-fuzz suites hold the shipped engine bit-identical to it —
records, decoded events, call trees, summaries, defects and error
messages.

* :func:`load_records` / :func:`iter_record_stream` — the raw record
  stream, batch and chunked;
* :func:`iter_capture_file` — a whole MPF1/MPF2 file (closed or
  open-ended), with the same end-of-stream count and CRC checks;
* :func:`reconstruct_times` — the timer unwrap alone;
* :func:`iter_decoded_events` / :func:`decode_records` — tag decode and
  timer unwrap, one record at a time, as :class:`DecodedEvent` objects;
* :func:`build_call_tree` — the call forest, with switch-in resolution
  by scanning ahead over the decoded events (:class:`_Resolver`);
* :func:`analyze_capture` / :func:`summarize_records` — the call tree of
  a capture, and the summary of a record stream's call tree;
* :func:`read_capture` / :func:`salvage_capture` — the strict and
  salvaging file readers with every payload byte decoded by
  :func:`load_records`.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import zlib
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence, Union
from unittest import mock

from repro.analysis.callstack import CallNode, CallTreeAnalysis
from repro.analysis.summary import Anomaly, ProfileSummary, summarize
from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagEntry, TagKind
from repro.profiler import upload
from repro.profiler.capture import Capture
from repro.profiler.ram import TIME_BITS, RawRecord
from repro.profiler.upload import (
    DEFAULT_CHUNK_RECORDS,
    RECORD_BYTES,
    TRAILER_BYTES,
    CaptureFormatError,
    CaptureMeta,
    RecordColumns,
    SalvageResult,
)


# -- raw records ---------------------------------------------------------------


def load_records(blob: bytes) -> list[RawRecord]:
    """Decode a raw record stream produced by ``dump_records``."""
    if len(blob) % RECORD_BYTES:
        raise CaptureFormatError(
            f"record stream length {len(blob)} is not a multiple of {RECORD_BYTES}"
        )
    return [
        RawRecord.unpack(blob[i : i + RECORD_BYTES])
        for i in range(0, len(blob), RECORD_BYTES)
    ]


def iter_record_stream(
    stream: BinaryIO, *, chunk_records: int = DEFAULT_CHUNK_RECORDS
) -> Iterator[RawRecord]:
    """Decode a raw record stream from a file object, chunk by chunk.

    Raises on a trailing partial record, exactly like the batch loader.
    """
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    chunk_bytes = chunk_records * RECORD_BYTES
    leftover = b""
    while True:
        blob = stream.read(chunk_bytes)
        if not blob:
            break
        blob = leftover + blob
        usable = len(blob) - (len(blob) % RECORD_BYTES)
        for i in range(0, usable, RECORD_BYTES):
            yield RawRecord.unpack(blob[i : i + RECORD_BYTES])
        leftover = blob[usable:]
    if leftover:
        raise CaptureFormatError(
            f"record stream ends with a partial {len(leftover)}-byte record"
        )


class _Crc32Tap:
    """Pass-through reader that folds every byte read into a CRC32."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self.crc32 = 0

    def read(self, size: int = -1) -> bytes:
        blob = self._stream.read(size)
        self.crc32 = zlib.crc32(blob, self.crc32)
        return blob


def iter_capture_file(
    path_or_file: Union[str, Path, BinaryIO],
    *,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    verify_count: bool = True,
    verify_crc: bool = True,
) -> Iterator[RawRecord]:
    """Stream the records of an MPF1/MPF2 capture one at a time.

    A header count that disagrees with the stream raises at the end of
    iteration (``verify_count``), as does an MPF2 CRC32 mismatch
    (``verify_crc``); open-ended streams verify their trailer instead.
    """
    with upload._open_context(path_or_file, "rb") as stream:
        meta, _ = upload._read_header(stream)
        if meta.streamed:
            yield from _iter_open_stream_records(
                stream,
                chunk_records=chunk_records,
                verify_count=verify_count,
                verify_crc=verify_crc,
            )
            return
        reader: Union[BinaryIO, _Crc32Tap] = stream
        check_crc = verify_crc and meta.crc32 is not None
        if check_crc:
            reader = _Crc32Tap(stream)
        seen = 0
        for record in iter_record_stream(reader, chunk_records=chunk_records):  # type: ignore[arg-type]
            yield record
            seen += 1
        if verify_count and seen != meta.count:
            raise CaptureFormatError(
                f"capture file header claims {meta.count} records but stream "
                f"holds {seen}"
            )
        if check_crc and reader.crc32 != meta.crc32:  # type: ignore[union-attr]
            raise CaptureFormatError(
                f"record stream CRC32 {reader.crc32:#010x} disagrees with "  # type: ignore[union-attr]
                f"the header's {meta.crc32:#010x}: the payload is corrupt"
            )


def _iter_open_stream_records(
    stream: BinaryIO,
    *,
    chunk_records: int,
    verify_count: bool,
    verify_crc: bool,
) -> Iterator[RawRecord]:
    """Per-record walk of an open-ended record stream (header consumed):
    hold back the last ``TRAILER_BYTES`` bytes, then verify the trailer."""
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    chunk_bytes = chunk_records * RECORD_BYTES
    crc = 0
    seen = 0
    leftover = b""
    while True:
        blob = stream.read(chunk_bytes)
        if not blob:
            break
        blob = leftover + blob
        usable = len(blob) - TRAILER_BYTES
        usable -= usable % RECORD_BYTES
        if usable > 0:
            if verify_crc:
                crc = zlib.crc32(blob[:usable], crc)
            for i in range(0, usable, RECORD_BYTES):
                yield RawRecord.unpack(blob[i : i + RECORD_BYTES])
            seen += usable // RECORD_BYTES
            leftover = blob[usable:]
        else:
            leftover = blob
    tail = leftover[-TRAILER_BYTES:] if len(leftover) >= TRAILER_BYTES else leftover
    leftover = leftover[: len(leftover) - len(tail)]
    if leftover:
        if len(leftover) % RECORD_BYTES:
            raise CaptureFormatError(
                f"record stream ends with a partial "
                f"{len(leftover) % RECORD_BYTES}-byte record"
            )
        if verify_crc:
            crc = zlib.crc32(leftover, crc)
        for i in range(0, len(leftover), RECORD_BYTES):
            yield RawRecord.unpack(leftover[i : i + RECORD_BYTES])
        seen += len(leftover) // RECORD_BYTES
    declared, trailer_crc = _decode_trailer(tail)
    if verify_count and seen != declared:
        raise CaptureFormatError(
            f"capture file trailer claims {declared} records but stream "
            f"holds {seen}"
        )
    if verify_crc and crc != trailer_crc:
        raise CaptureFormatError(
            f"record stream CRC32 {crc:#010x} disagrees with "
            f"the trailer's {trailer_crc:#010x}: the payload is corrupt"
        )


def _decode_trailer(blob: bytes) -> tuple[int, int]:
    """An open-ended stream's trailer: ``(record count, CRC32)``."""
    if len(blob) < TRAILER_BYTES:
        raise CaptureFormatError(
            f"open-ended capture ends without an end-of-stream trailer "
            f"({len(blob)} byte(s) remain, a trailer is {TRAILER_BYTES}): "
            "the stream was cut before the producer closed it"
        )
    if blob[:4] != b"MPFT":
        raise CaptureFormatError(
            f"open-ended capture trailer magic {blob[:4]!r} is not "
            f"{b'MPFT'!r}: the stream was cut or corrupted"
        )
    return int.from_bytes(blob[4:8], "big"), int.from_bytes(blob[8:12], "big")


# -- whole files through the shipped framing, reference payload decode --------


def _reference_columns(blob: Union[bytes, bytearray, memoryview]) -> RecordColumns:
    records = load_records(bytes(blob))
    return RecordColumns(
        tags=[record.tag for record in records],
        times=[record.time for record in records],
    )


def read_capture(
    path_or_file: Union[str, Path, BinaryIO],
) -> tuple[list[RawRecord], CaptureMeta]:
    """The strict reader with the payload decoded by :func:`load_records`."""
    with mock.patch.object(upload, "decode_record_columns", _reference_columns):
        return upload.read_capture(path_or_file)


def salvage_capture(blob: bytes) -> SalvageResult:
    """The salvager with the recovered payload decoded by
    :func:`load_records` (header resynchronisation and the framing check
    are format logic, not an engine choice, and stay shared)."""
    with mock.patch.object(upload, "decode_record_columns", _reference_columns):
        return upload.salvage_capture(blob)


# -- decoded events ------------------------------------------------------------


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


_KIND_FROM_TAG = {
    TagKind.ENTRY: EventKind.ENTRY,
    TagKind.EXIT: EventKind.EXIT,
    TagKind.INLINE: EventKind.INLINE,
}


def _check_width(width_bits: int) -> None:
    if not (1 <= width_bits <= TIME_BITS):
        raise ValueError(f"counter width {width_bits} outside 1..{TIME_BITS} bits")


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


def iter_decoded_events(
    records: Iterable[RawRecord],
    names: NameTable,
    width_bits: int = 24,
    *,
    start_index: int = 0,
    time_base_us: int = 0,
    previous_raw: Optional[int] = None,
) -> Iterator[DecodedEvent]:
    """Decode a record stream one record at a time.

    ``start_index``/``time_base_us``/``previous_raw`` continue a longer
    stream, the carry :func:`repro.analysis.columnar.decode_columns`
    takes as ``start_index``/``time_base_us``/``previous``.  An
    over-width snapshot raises after every earlier event was yielded.
    """
    _check_width(width_bits)
    mask = (1 << width_bits) - 1
    if previous_raw is not None and previous_raw > mask:
        raise ValueError(
            f"previous snapshot {previous_raw} exceeds the "
            f"{width_bits}-bit counter"
        )
    absolute = time_base_us
    previous: Optional[int] = previous_raw
    index = start_index
    for record in records:
        if record.time > mask:
            raise ValueError(
                f"record time {record.time} exceeds the {width_bits}-bit counter"
            )
        if previous is not None:
            absolute += (record.time - previous) & mask
        previous = record.time
        decoded = names.decode(record.tag)
        if decoded is None:
            yield DecodedEvent(
                index=index,
                time_us=absolute,
                kind=EventKind.UNKNOWN,
                name=f"tag#{record.tag}",
                entry=None,
                raw=record,
            )
        else:
            entry, tag_kind = decoded
            yield DecodedEvent(
                index=index,
                time_us=absolute,
                kind=_KIND_FROM_TAG[tag_kind],
                name=entry.name,
                entry=entry,
                raw=record,
            )
        index += 1


def decode_records(
    records: Sequence[RawRecord], names: NameTable, width_bits: int = 24
) -> list[DecodedEvent]:
    """Decode a raw record sequence against *names*, one record at a time."""
    return list(iter_decoded_events(records, names, width_bits=width_bits))


# -- call tree -----------------------------------------------------------------


@dataclasses.dataclass
class _Stack:
    """One process's reconstruction state."""

    proc: str
    frames: list[CallNode] = dataclasses.field(default_factory=list)
    roots: list[CallNode] = dataclasses.field(default_factory=list)
    suspended_at_us: int = 0
    suspend_seq: int = -1
    block_start_us: int = 0


class _Resolver:
    """Switch-in resolution: which suspended stack does this block belong to?

    The event stream carries no process identifier, so after a ``swtch``
    exit the analyser must decide which saved stack resumes.  The incoming
    block's events are scanned forward (stopping at the block's closing
    ``swtch`` entry) with a depth counter; entries open new frames, exits
    first unwind those.  The first exit that unwinds *below* the block's
    opening depth names a frame the resumed process was suspended inside:

    1. an unwinding exit of function X — resume the least-recently
       suspended stack whose top open frame is X;
    2. no unwinding exit in the whole block — the process never returned
       into pre-existing frames: resume the least-recently-suspended
       *empty* stack (a process that was in user mode) if any;
    3. otherwise — a process not seen before: start a fresh stack.
    """

    def __init__(self, events: Sequence[DecodedEvent]) -> None:
        self._events = events

    def resolve(
        self, next_index: int, suspended: list[_Stack]
    ) -> Optional[_Stack]:
        unwind_name = self._unwinding_exit(next_index)
        if unwind_name is not None:
            matches = [
                stack
                for stack in suspended
                if stack.frames and stack.frames[-1].name == unwind_name
            ]
            if matches:
                return min(matches, key=lambda s: s.suspend_seq)
            return None
        empty = [stack for stack in suspended if not stack.frames]
        if empty:
            return min(empty, key=lambda s: s.suspend_seq)
        return None

    def _unwinding_exit(self, index: int) -> Optional[str]:
        """Name of the first exit unwinding below the block's start depth.

        Returns ``None`` when the block ends (next context switch or end
        of capture) without such an exit.
        """
        depth = 0
        # Indexed loop, not islice: islice steps through the first *index*
        # elements to skip them, which turns a long capture with many
        # context switches into an O(n^2) analysis.
        events = self._events
        for i in range(index, len(events)):
            event = events[i]
            if event.kind is EventKind.ENTRY:
                if event.is_context_switch:
                    return None
                depth += 1
            elif event.kind is EventKind.EXIT:
                if depth > 0:
                    depth -= 1
                else:
                    return event.name
        return None


def build_call_tree(events: Sequence[DecodedEvent]) -> CallTreeAnalysis:
    """Reconstruct the call forest from a decoded event stream."""
    anomalies: list[Anomaly] = []
    roots: list[CallNode] = []
    resolver = _Resolver(events)
    proc_counter = itertools.count()
    suspend_counter = itertools.count()

    start_us = events[0].time_us if events else 0
    current = _Stack(proc=f"P{next(proc_counter)}", block_start_us=start_us)
    all_stacks = [current]
    suspended: list[_Stack] = []
    prev_time = start_us
    unattributed_us = 0
    context_switches = 0
    orphan_marks: list[tuple[int, str]] = []

    def open_frame(stack: _Stack, event: DecodedEvent, is_swtch: bool) -> CallNode:
        node = CallNode(
            name=event.name,
            enter_us=event.time_us,
            proc=stack.proc,
            is_swtch=is_swtch,
            depth=len(stack.frames),
        )
        if stack.frames:
            stack.frames[-1].children.append(node)
        else:
            stack.roots.append(node)
            roots.append(node)
        stack.frames.append(node)
        return node

    def close_frame(stack: _Stack, time_us: int) -> CallNode:
        node = stack.frames.pop()
        node.exit_us = time_us
        return node

    def close_through(stack: _Stack, name: str, event: DecodedEvent) -> None:
        """Close frames down to (and including) the one named *name*."""
        while stack.frames and stack.frames[-1].name != name:
            skipped = close_frame(stack, event.time_us)
            skipped.truncated = True
            anomalies.append(
                Anomaly(
                    index=event.index,
                    time_us=event.time_us,
                    kind="missed-exit",
                    detail=(
                        f"exit of {name!r} arrived while {skipped.name!r} "
                        "was still open; closed it administratively"
                    ),
                )
            )
        if stack.frames:
            close_frame(stack, event.time_us)

    for event in events:
        # 1. Attribute the elapsed interval to the innermost active frame.
        dt = event.time_us - prev_time
        if current.frames:
            current.frames[-1].self_us += dt
        else:
            unattributed_us += dt
        prev_time = event.time_us

        # 2. Apply the event.
        if event.kind is EventKind.INLINE or event.kind is EventKind.UNKNOWN:
            if event.kind is EventKind.UNKNOWN:
                anomalies.append(
                    Anomaly(
                        index=event.index,
                        time_us=event.time_us,
                        kind="unknown-tag",
                        detail=f"tag {event.raw.tag} is in no name file",
                    )
                )
            if current.frames:
                current.frames[-1].inline_marks.append((event.time_us, event.name))
            else:
                # A point hit with no open frame: user-mode inline marks
                # between profiled calls land here.
                orphan_marks.append((event.time_us, event.name))
            continue

        if event.kind is EventKind.ENTRY:
            open_frame(current, event, is_swtch=event.is_context_switch)
            continue

        # EXIT events.
        if event.is_context_switch:
            # Close the swtch frame (tolerating interrupt frames left open
            # above it), then switch stacks.
            open_names = [frame.name for frame in current.frames]
            if event.name in open_names:
                close_through(current, event.name, event)
            else:
                node = CallNode(
                    name=event.name,
                    enter_us=current.block_start_us,
                    proc=current.proc,
                    is_swtch=True,
                    synthetic=True,
                    exit_us=event.time_us,
                )
                if current.frames:
                    current.frames[-1].children.append(node)
                else:
                    current.roots.append(node)
                    roots.append(node)
                anomalies.append(
                    Anomaly(
                        index=event.index,
                        time_us=event.time_us,
                        kind="unmatched-swtch-exit",
                        detail="context-switch exit with no open swtch frame",
                    )
                )
            context_switches += 1
            current.suspended_at_us = event.time_us
            current.suspend_seq = next(suspend_counter)
            suspended.append(current)
            chosen = resolver.resolve(event.index + 1, suspended)
            if chosen is None:
                chosen = _Stack(proc=f"P{next(proc_counter)}")
                all_stacks.append(chosen)
            else:
                suspended.remove(chosen)
            chosen.block_start_us = event.time_us
            current = chosen
            continue

        # Ordinary exit.
        open_names = [frame.name for frame in current.frames]
        if event.name in open_names:
            close_through(current, event.name, event)
        else:
            node = CallNode(
                name=event.name,
                enter_us=current.block_start_us,
                proc=current.proc,
                synthetic=True,
                exit_us=event.time_us,
                depth=len(current.frames),
            )
            if current.frames:
                current.frames[-1].children.append(node)
            else:
                current.roots.append(node)
                roots.append(node)
            anomalies.append(
                Anomaly(
                    index=event.index,
                    time_us=event.time_us,
                    kind="unmatched-exit",
                    detail=(
                        f"exit of {event.name!r} with no matching entry "
                        "(function was already running when the capture began?)"
                    ),
                )
            )

    # 3. Close everything still open (capture window truncation).
    end_us = events[-1].time_us if events else 0
    for stack in [current] + suspended:
        close_at = end_us if stack is current else stack.suspended_at_us
        while stack.frames:
            node = close_frame(stack, close_at)
            node.truncated = True

    idle_us = sum(
        node.self_us
        for root in roots
        for node in root.walk()
        if node.is_swtch
    )
    wall_us = end_us - start_us
    return CallTreeAnalysis(
        roots=roots,
        anomalies=anomalies,
        wall_us=wall_us,
        idle_us=idle_us,
        unattributed_us=unattributed_us,
        event_count=len(events),
        context_switches=context_switches,
        procs=tuple(stack.proc for stack in all_stacks),
        orphan_marks=orphan_marks,
    )


def analyze_capture(capture: Capture) -> CallTreeAnalysis:
    """The reference call forest of an in-memory *capture*."""
    return build_call_tree(
        decode_records(capture.records, capture.names, capture.counter_width_bits)
    )


def tree_fields(analysis: CallTreeAnalysis) -> tuple:
    """Everything a call-tree analysis says, as one comparable value.

    Node for node, in preorder: name, times, proc, flags, self and
    inclusive time, depth, inline marks and child count; then the
    headline accounting, the process list, the orphan marks and the
    anomaly log.  Two analyses with equal fields render every tree
    report identically.
    """
    nodes = [
        (
            node.name,
            node.enter_us,
            node.exit_us,
            node.proc,
            node.is_swtch,
            node.synthetic,
            node.truncated,
            node.self_us,
            node.inclusive_us,
            node.depth,
            tuple(node.inline_marks),
            len(node.children),
        )
        for node in analysis.nodes()
    ]
    return (
        nodes,
        analysis.wall_us,
        analysis.idle_us,
        analysis.unattributed_us,
        analysis.event_count,
        analysis.context_switches,
        analysis.procs,
        tuple(analysis.orphan_marks),
        [(a.index, a.time_us, a.kind, a.detail) for a in analysis.anomalies],
    )


def summarize_records(
    records: Sequence[RawRecord],
    names: NameTable,
    width_bits: int = 24,
    include_swtch: bool = False,
) -> ProfileSummary:
    """The summary of the batch call-tree analyser over reference events."""
    analysis = build_call_tree(decode_records(records, names, width_bits))
    return summarize(analysis, include_swtch=include_swtch)


__all__ = [
    "DecodedEvent",
    "EventKind",
    "analyze_capture",
    "build_call_tree",
    "decode_records",
    "iter_capture_file",
    "iter_decoded_events",
    "iter_record_stream",
    "load_records",
    "read_capture",
    "reconstruct_times",
    "salvage_capture",
    "summarize_records",
    "tree_fields",
]
