"""The per-record reference decoder: the oracle the differential suites trust.

The shipped decode engine is columnar (:mod:`repro.profiler.upload`'s
``decode_record_columns``/``iter_capture_columns`` and
:mod:`repro.analysis.columnar`).  This module keeps the original
one-:class:`RawRecord`-at-a-time walkers as an independent, executable
specification: simple and slow, never on a shipped code path.  The
differential and salvage-fuzz suites hold the shipped engine
bit-identical to it — records, decoded events, summaries, defects and
error messages.

* :func:`load_records` / :func:`iter_record_stream` — the raw record
  stream, batch and chunked;
* :func:`iter_capture_file` — a whole MPF1/MPF2 file (closed or
  open-ended), with the same end-of-stream count and CRC checks;
* :func:`iter_decoded_events` / :func:`decode_records` — tag decode and
  timer unwrap, one record at a time;
* :func:`summarize_records` — the summary the batch call-tree analyser
  builds from the reference events;
* :func:`read_capture` / :func:`salvage_capture_bytes` — the strict and
  salvaging file readers with every payload byte decoded by
  :func:`load_records`.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence, Union
from unittest import mock

from repro.analysis.callstack import build_call_tree
from repro.analysis.events import DecodedEvent, EventKind
from repro.analysis.summary import ProfileSummary, summarize
from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagKind
from repro.profiler import upload
from repro.profiler.ram import TIME_BITS, RawRecord
from repro.profiler.upload import (
    DEFAULT_CHUNK_RECORDS,
    RECORD_BYTES,
    TRAILER_BYTES,
    CaptureFormatError,
    CaptureMeta,
    RecordColumns,
    SalvageResult,
    decode_stream_trailer,
)

_KIND_FROM_TAG = {
    TagKind.ENTRY: EventKind.ENTRY,
    TagKind.EXIT: EventKind.EXIT,
    TagKind.INLINE: EventKind.INLINE,
}


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
        meta = upload._read_header(stream)
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
    declared, trailer_crc = decode_stream_trailer(tail)
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


def salvage_capture_bytes(blob: bytes) -> SalvageResult:
    """The salvaging decoder with the recovered payload decoded by
    :func:`load_records` (header resynchronisation is format logic, not
    an engine choice, and stays shared)."""
    with mock.patch.object(upload, "decode_record_columns", _reference_columns):
        return upload.salvage_capture_bytes(blob)


# -- decoded events ------------------------------------------------------------


def _check_width(width_bits: int) -> None:
    if not (1 <= width_bits <= TIME_BITS):
        raise ValueError(f"counter width {width_bits} outside 1..{TIME_BITS} bits")


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
    "decode_records",
    "iter_capture_file",
    "iter_decoded_events",
    "iter_record_stream",
    "load_records",
    "read_capture",
    "salvage_capture_bytes",
    "summarize_records",
]
