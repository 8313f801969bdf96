"""Getting the capture off the board and onto the analysis host.

The paper's workflow: "the timing data is retrieved by transferring the
RAMs into another networked embedded host, and copying the profile data to
a UNIX host for processing."  The future-work section proposes reading the
RAMs back *through* the EPROM window instead.  Both are modelled: the
MPF capture format below is the interchange form, and
:class:`EpromReadback` is the future-work mode, each RAM bank multiplexed
into the EPROM address space and read as if it were an EPROM.

Records are the canonical 5-byte big-endian stream (16-bit tag, 24-bit
time).  Two header versions exist on disk.  **MPF1** is magic + u32
record count and nothing else: a file that crossed hosts lost the counter
geometry and the overflow-LED state, so a non-stock capture decoded with
the wrong wrap mask.  **MPF2** is self-describing — counter width and
rate, the overflow flag, a free-form label and a CRC32 of the record
stream — and carries its own header size so future fields can append
without breaking old readers::

    MPF1                          MPF2
    0  4  magic "MPF1"            0   4  magic "MPF2"
    4  4  record count            4   2  header size H (>= 22)
    8  …  records                 6   4  record count
                                  10  1  counter width (bits)
                                  11  4  counter rate (Hz)
                                  15  1  flags (bit 0 = overflowed,
                                          bit 1 = open-ended stream)
                                  16  4  CRC32 of the record stream
                                  20  2  label length L
                                  22  L  label (UTF-8);  H = 22 + L
                                  H   …  records

An **open-ended** MPF2 stream (flags bit 1) is the live-profiling wire
form: the producer does not know the record count up front and the sink
(pipe, socket, FIFO) cannot seek back to the header, so the header
carries the sentinel count ``0xFFFFFFFF`` and a zero CRC, and the
authoritative count and CRC32 arrive in a 12-byte end-of-stream trailer
instead::

    H + 5n      4  trailer magic "MPFT"
    H + 5n + 4  4  record count n
    H + 5n + 8  4  CRC32 of the record stream

All multi-byte fields are big-endian.  Writers default to MPF2; every
reader accepts both versions transparently.  The format has one of
each part:

* **one reader**, :func:`open_capture_columns`: the header, then the
  records as columnar batches (:func:`decode_record_columns` shears each
  chunk into tag/time arrays with C-level slice assignments), then the
  end-of-stream framing check.  It holds back the last 12 bytes of an
  open-ended stream, so a consumer can tail a capture while the producer
  still writes.  :func:`read_capture`, :func:`iter_capture_columns` and
  :func:`read_capture_meta` are thin calls into it;
* **one salvager**, :func:`salvage_capture`: the same header read and
  framing check over a path, an open stream or ``bytes``, with a fault
  policy that records a :class:`CaptureDefect` where the reader raises
  :class:`CaptureFormatError`, and decodes every whole record that
  survived;
* **one writer core**, a header encoder and a record packer
  (:func:`dump_records`), under :func:`write_capture_file`,
  :func:`write_capture_stream` and :class:`CaptureStreamWriter`.

The header layout is read in one function (``_read_header``) and the
trailer, count and CRC are checked in one (``_check_framing``).  The
per-record walker the columnar decode replaced lives on in
``tests/reference_decode.py`` as the differential oracle.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import os
import struct
import sys
import threading
import warnings
import zlib
from array import array
from itertools import islice
from pathlib import Path
from typing import (
    BinaryIO,
    Callable,
    Generator,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

from repro.profiler.ram import TIME_BITS, RawRecord, TraceRam
from repro.telemetry import TELEMETRY as _TELEMETRY

#: Bytes per serialised record: 2 tag + 3 time.
RECORD_BYTES = 5

#: array typecode holding at least 32 bits (platform-dependent width of "I").
_U32_TYPECODE = "I" if array("I").itemsize >= 4 else "L"

_LITTLE_ENDIAN = sys.byteorder == "little"


class CaptureFormatError(ValueError):
    """A capture file or record stream violates the MPF1/MPF2 format.

    The one documented exception type the reader raises for *content*
    faults — bad magic, truncated header, ragged record stream, a header
    count that disagrees with the stream, a CRC mismatch — whether the
    capture is read whole (:func:`read_capture`), in batches
    (:func:`open_capture_columns`) or probed for its header only
    (:func:`read_capture_meta`).  It subclasses :class:`ValueError` so
    pre-existing callers keep working.  ``OSError`` from the underlying
    file passes through unchanged, and the salvager never raises on
    content at all.
    """

#: Capture-file magic: "McRae Profiler Format", versions 1 and 2.
MAGIC = b"MPF1"
MAGIC_V2 = b"MPF2"

#: MPF1 header: magic + u32 count.
V1_HEADER_BYTES = 8

#: The MPF2 header up to the label: magic, header size, count, counter
#: width, counter rate, flags, CRC32, label length (module docstring).
_V2_FIXED = struct.Struct(">4sHIBIBIH")
V2_FIXED_HEADER_BYTES = _V2_FIXED.size

#: The header count field is 32-bit in both versions.
MAX_RECORDS = 1 << 32

#: Sentinel header count of an open-ended MPF2 stream (flags bit 1 set):
#: the true count arrives in the end-of-stream trailer.
OPEN_COUNT = MAX_RECORDS - 1

#: End-of-stream trailer of an open-ended MPF2 stream.
TRAILER_MAGIC = b"MPFT"

#: Trailer size: magic (4) + record count u32 (4) + CRC32 u32 (4).  Not a
#: multiple of :data:`RECORD_BYTES`, so a stream that ends in a trailer can
#: never be mistaken for one that ends in whole records.
TRAILER_BYTES = 12

#: What an MPF1 header silently implies (the stock board).
STOCK_WIDTH_BITS = TIME_BITS
STOCK_RATE_HZ = 1_000_000

#: Records per read() in the reader and per write() in the writers
#: (8192 records = 40 KiB).
DEFAULT_CHUNK_RECORDS = 8192


class CaptureMetadataWarning(UserWarning):
    """Capture metadata was defaulted or dropped at a format boundary."""


@dataclasses.dataclass(frozen=True)
class CaptureMeta:
    """What a capture-file header says about its records.

    ``version`` is 1 or 2 (0 means the salvager could not even identify
    the format).  For MPF1 files the counter fields are the stock-board
    defaults the format implies, not anything the file recorded, and
    ``crc32`` is ``None``.  ``streamed`` marks an open-ended MPF2 stream:
    the header's count is the :data:`OPEN_COUNT` sentinel and ``crc32``
    is ``None`` because both truths live in the end-of-stream trailer.
    """

    version: int
    count: int
    counter_width_bits: int = STOCK_WIDTH_BITS
    counter_rate_hz: int = STOCK_RATE_HZ
    overflowed: bool = False
    label: str = ""
    crc32: Optional[int] = None
    streamed: bool = False


@dataclasses.dataclass(frozen=True)
class CaptureDefect:
    """One fault the salvager tolerated.

    ``kind`` is a stable machine-readable string (``bad-magic``,
    ``truncated-header``, ``bad-header-field``, ``partial-record``,
    ``count-mismatch``, ``crc-mismatch``, ``missing-trailer``);
    ``offset`` is the byte offset in the file where the fault sits, when
    that is meaningful.
    """

    kind: str
    message: str
    offset: Optional[int] = None


@dataclasses.dataclass
class SalvageResult:
    """Everything the salvager recovered from one file."""

    records: list[RawRecord]
    defects: list[CaptureDefect]
    meta: CaptureMeta


def dump_records(records: Iterable[RawRecord]) -> bytes:
    """The record packer: *records* as the raw 5-byte-per-record stream."""
    return b"".join(map(RawRecord.pack, records))


def _record_blobs(records: Iterable[RawRecord]) -> Iterator[bytes]:
    """:func:`dump_records` in slices of :data:`DEFAULT_CHUNK_RECORDS`
    records, for writers that stream an iterator of unknown length."""
    iterator = iter(records)
    while blob := dump_records(islice(iterator, DEFAULT_CHUNK_RECORDS)):
        yield blob


# -- the columnar record decoder ---------------------------------------------


@dataclasses.dataclass(frozen=True)
class RecordColumns:
    """A batch of records as parallel columns instead of objects.

    ``tags`` and ``times`` are :mod:`array` arrays (unsigned 16-bit and
    >= 32-bit respectively) holding the same values a list of
    :class:`RawRecord` would, field by field, but at ~5 machine words per
    record instead of a Python object per record — the representation the
    columnar decode/analysis fast paths operate on.  ``times`` are the
    raw wrapped counter snapshots; unwrapping to an absolute timeline is
    the analysis layer's job (:func:`repro.analysis.columnar.unwrap_times`).
    """

    tags: Sequence[int]
    times: Sequence[int]

    def __len__(self) -> int:
        return len(self.tags)

    def record(self, offset: int) -> RawRecord:
        """Materialise the record at *offset* (bounds-checked by the arrays)."""
        return RawRecord(tag=self.tags[offset], time=self.times[offset])

    def to_records(self) -> list[RawRecord]:
        """Materialise the whole batch as :class:`RawRecord` objects.

        Used at API boundaries that still traffic in record objects.
        """
        return list(map(RawRecord, self.tags, self.times))

    def to_bytes(self) -> bytes:
        """Serialise back to the 5-byte-per-record wire stream."""
        n = len(self.tags)
        out = bytearray(n * RECORD_BYTES)
        tag_b = array("H", self.tags)
        time_b = array(_U32_TYPECODE, self.times)
        if _LITTLE_ENDIAN:
            tag_b.byteswap()
            time_b.byteswap()
        raw_tags = tag_b.tobytes()
        # Undo the column shear: write each column back at its stride.
        out[0::RECORD_BYTES] = raw_tags[0::2]
        out[1::RECORD_BYTES] = raw_tags[1::2]
        step = time_b.itemsize
        raw_times = time_b.tobytes()
        out[2::RECORD_BYTES] = raw_times[step - 3 :: step]
        out[3::RECORD_BYTES] = raw_times[step - 2 :: step]
        out[4::RECORD_BYTES] = raw_times[step - 1 :: step]
        return bytes(out)


def decode_record_columns(blob: Union[bytes, bytearray, memoryview]) -> RecordColumns:
    """Columnar batch decode of a raw record stream.

    Shears the interleaved 5-byte records into parallel tag/time arrays
    using strided slice assignment — every per-record operation happens
    inside the interpreter's C loops, no Python bytecode per record.
    The differential suite holds it bit-identical to the per-record
    reference decoder.
    """
    blob = bytes(blob)
    if len(blob) % RECORD_BYTES:
        raise CaptureFormatError(
            f"record stream length {len(blob)} is not a multiple of {RECORD_BYTES}"
        )
    n = len(blob) // RECORD_BYTES
    # Tags: bytes 0-1 of each record, re-packed as big-endian u16 pairs.
    tag_shear = bytearray(2 * n)
    tag_shear[0::2] = blob[0::RECORD_BYTES]
    tag_shear[1::2] = blob[1::RECORD_BYTES]
    tags = array("H", bytes(tag_shear))
    # Times: bytes 2-4, zero-padded into the tail of a u32 (or wider) slot.
    step = array(_U32_TYPECODE).itemsize
    time_shear = bytearray(step * n)
    time_shear[step - 3 :: step] = blob[2::RECORD_BYTES]
    time_shear[step - 2 :: step] = blob[3::RECORD_BYTES]
    time_shear[step - 1 :: step] = blob[4::RECORD_BYTES]
    times = array(_U32_TYPECODE, bytes(time_shear))
    if _LITTLE_ENDIAN:
        tags.byteswap()
        times.byteswap()
    return RecordColumns(tags=tags, times=times)


def _decode_chunk(blob: bytes) -> RecordColumns:
    """:func:`decode_record_columns` inside the reader's telemetry span."""
    if not _TELEMETRY.enabled:
        return decode_record_columns(blob)
    with _TELEMETRY.span("upload.decode_chunk", records=len(blob) // RECORD_BYTES):
        columns = decode_record_columns(blob)
    _TELEMETRY.count("upload.records.decoded", len(columns))
    return columns


def _read_exact(stream: BinaryIO, size: int) -> bytes:
    """Read exactly *size* bytes, looping over short reads.

    A pipe or socket may legally return fewer bytes than asked; a single
    ``stream.read(n)`` there would misparse a perfectly good header.
    Returns whatever arrived before EOF (possibly short) — the caller
    decides whether a short result is an error.
    """
    chunks: list[bytes] = []
    need = size
    while need > 0:
        blob = stream.read(need)
        if not blob:
            break
        chunks.append(blob)
        need -= len(blob)
    return b"".join(chunks)


def _check_count(count: int) -> None:
    if count >= MAX_RECORDS:
        raise ValueError(
            f"capture holds {count} records but the header count field is "
            f"32-bit (max {MAX_RECORDS - 1}); split the run into multiple "
            "capture files"
        )


# -- the fault policy ----------------------------------------------------------


def _fault(
    defects: Optional[list[CaptureDefect]],
    kind: str,
    offset: int,
    strict: str,
    salvaged: str,
) -> None:
    """One content fault, under the caller's fault policy.

    With no *defects* list (the reader) it raises
    :class:`CaptureFormatError` saying *strict*; otherwise (the
    salvager) it records a :class:`CaptureDefect` saying *salvaged* —
    the fault and what the salvager does about it — and returns, so
    decoding carries on.
    """
    if defects is None:
        raise CaptureFormatError(strict)
    defects.append(CaptureDefect(kind, salvaged, offset=offset))


def _fuzzy_version(blob: bytes) -> Optional[int]:
    """Best-effort version from a damaged magic: >= 3 of 4 bytes agree.

    A flip in the version byte itself (``b"MPF?"``) matches both magics
    equally, so ties are broken by framing plausibility: the version
    whose header makes the record stream come out whole wins.
    """
    magic = blob[: len(MAGIC)]
    candidates = [
        version
        for candidate, version in ((MAGIC_V2, 2), (MAGIC, 1))
        if sum(a == b for a, b in zip(magic, candidate)) >= 3
    ]
    if len(candidates) != 1:
        for version in candidates:
            if version == 1 and len(blob) >= V1_HEADER_BYTES:
                count = int.from_bytes(blob[4:8], "big")
                if count * RECORD_BYTES == len(blob) - V1_HEADER_BYTES:
                    return 1
            if version == 2 and len(blob) >= V2_FIXED_HEADER_BYTES:
                _, header_size, count, *_ = _V2_FIXED.unpack_from(blob)
                if (
                    V2_FIXED_HEADER_BYTES <= header_size <= len(blob)
                    and count * RECORD_BYTES == len(blob) - header_size
                ):
                    return 2
    return candidates[0] if candidates else None


# -- the header ----------------------------------------------------------------


def _read_header(
    stream: BinaryIO, defects: Optional[list[CaptureDefect]] = None
) -> tuple[CaptureMeta, Optional[int]]:
    """Read either version's header off *stream*: ``(meta, data offset)``.

    The one reader of the header layout.  Short reads are retried
    (:func:`_read_exact`), so pipe and socket sources parse exactly like
    regular files, and a short file is reported as truncation rather than
    as a magic mismatch.  Faults follow the policy of :func:`_fault`: the
    reader raises on the first; the salvager (which passes *defects* and
    an in-memory *stream*) resynchronises a damaged magic, assumes stock
    values for a bad counter field and a label-less header for a bad
    size, and gets a ``None`` data offset when no record can be located.
    """
    magic = _read_exact(stream, len(MAGIC))
    if len(magic) < len(MAGIC):
        _fault(
            defects, "truncated-header", 0,
            f"capture file header truncated: {len(magic)} byte(s) is shorter "
            f"than the {len(MAGIC)}-byte magic",
            f"file is {len(magic)} byte(s), shorter than any capture magic",
        )
        return CaptureMeta(version=0, count=0), None
    version = {MAGIC: 1, MAGIC_V2: 2}.get(magic)
    if version is None:
        if defects is None:
            raise CaptureFormatError("not a Profiler capture file (bad magic)")
        version = _fuzzy_version(stream.getvalue())  # type: ignore[attr-defined]
        if version is None:
            defects.append(CaptureDefect(
                "bad-magic", f"magic {magic!r} matches no known capture format", 0
            ))
            return CaptureMeta(version=0, count=0), None
        defects.append(CaptureDefect(
            "bad-magic", f"magic {magic!r} is corrupt; resynchronised as MPF{version}", 0
        ))
    if version == 1:
        head = magic + _read_exact(stream, V1_HEADER_BYTES - len(MAGIC))
        if len(head) < V1_HEADER_BYTES:
            _fault(
                defects, "truncated-header", len(head),
                "capture file header truncated",
                f"MPF1 header needs {V1_HEADER_BYTES} bytes, file holds {len(head)}",
            )
            return CaptureMeta(version=1, count=0), None
        return CaptureMeta(version=1, count=int.from_bytes(head[4:], "big")), len(head)
    head = magic + _read_exact(stream, V2_FIXED_HEADER_BYTES - len(MAGIC))
    if len(head) < V2_FIXED_HEADER_BYTES:
        _fault(
            defects, "truncated-header", len(head),
            "capture file header truncated",
            f"MPF2 header needs at least {V2_FIXED_HEADER_BYTES} bytes, file "
            f"holds {len(head)}",
        )
        return CaptureMeta(version=2, count=0), None
    _, header_size, count, width, rate, flags, crc32, label_len = _V2_FIXED.unpack(head)
    # The label, plus any header fields a later format version appends.
    extra = b""
    clamped = True
    if header_size < V2_FIXED_HEADER_BYTES:
        _fault(
            defects, "bad-header-field", 4,
            f"MPF2 header claims {header_size} bytes, below the "
            f"{V2_FIXED_HEADER_BYTES}-byte minimum",
            f"header size {header_size} is below the {V2_FIXED_HEADER_BYTES}-byte "
            "minimum; assuming a label-less header",
        )
    else:
        extra = _read_exact(stream, header_size - V2_FIXED_HEADER_BYTES)
        clamped = len(head) + len(extra) < header_size
        if clamped:
            _fault(
                defects, "truncated-header", len(head) + len(extra),
                "capture file header truncated",
                f"header claims {header_size} bytes but the file holds "
                f"{len(head) + len(extra)}; treating everything past the fixed "
                "header as records",
            )
            extra = b""
    if not 1 <= width <= TIME_BITS:
        _fault(
            defects, "bad-header-field", 10,
            f"MPF2 header counter width {width} outside 1..{TIME_BITS}",
            f"counter width {width} outside 1..{TIME_BITS} bits; assuming the "
            f"stock {STOCK_WIDTH_BITS}",
        )
        width = STOCK_WIDTH_BITS
    if rate == 0:
        _fault(
            defects, "bad-header-field", 11,
            "MPF2 header counter rate is zero",
            f"counter rate is zero; assuming the stock {STOCK_RATE_HZ} Hz",
        )
        rate = STOCK_RATE_HZ
    # A label shorter than the header leaves room for fields a later
    # format version appends: both policies skip them.
    if not clamped and label_len > len(extra):
        _fault(
            defects, "bad-header-field", 20,
            f"MPF2 header label length {label_len} overruns the "
            f"{header_size}-byte header",
            f"label length {label_len} overruns the {header_size}-byte header; "
            "trusting the header size",
        )
    label = extra[:label_len]
    streamed = bool(flags & 2)
    meta = CaptureMeta(
        version=2,
        count=count,
        counter_width_bits=width,
        counter_rate_hz=rate,
        overflowed=bool(flags & 1),
        label=label.decode("utf-8", errors="replace"),
        # An open-ended header's count/CRC fields are placeholders: the
        # trailer is authoritative, so the header CRC is not exposed.
        crc32=None if streamed else crc32,
        streamed=streamed,
    )
    return meta, V2_FIXED_HEADER_BYTES + len(extra)


# -- the framing check -----------------------------------------------------------


def _check_framing(
    meta: CaptureMeta,
    tail: bytes,
    seen: int,
    crc: int,
    data_offset: int,
    defects: Optional[list[CaptureDefect]] = None,
) -> tuple[CaptureMeta, bytes]:
    """Check the end of a record stream: trailer, record count, CRC32.

    *tail* is what follows the *seen* whole records (CRC32 *crc*) decoded
    after the header at *data_offset*.  An open-ended stream's trailer is
    split off the tail and its count and CRC adopted; then a partial
    record, a count that disagrees with the header or trailer, and a CRC
    mismatch are faults, in that order, under the :func:`_fault` policy.
    Returns the meta with the settled count and CRC, and the whole
    records left in *tail* — only ever non-empty when the salvager reads
    a stream whose trailer is missing, so its last bytes are records.
    """
    end = data_offset + seen * RECORD_BYTES + len(tail)
    declared, expected, where, at = meta.count, meta.crc32, "header", len(MAGIC)
    if meta.streamed:
        trailer = tail[-TRAILER_BYTES:]
        if len(trailer) == TRAILER_BYTES and trailer.startswith(TRAILER_MAGIC):
            tail = tail[:-TRAILER_BYTES]
            end -= TRAILER_BYTES
            declared = int.from_bytes(trailer[4:8], "big")
            expected = int.from_bytes(trailer[8:], "big")
            where, at = "trailer", end
        else:
            _fault(
                defects, "missing-trailer", end,
                f"open-ended capture trailer magic {trailer[:4]!r} is not "
                f"{TRAILER_MAGIC!r}: the stream was cut or corrupted"
                if len(trailer) == TRAILER_BYTES else
                "open-ended capture ends without an end-of-stream trailer "
                f"({len(trailer)} byte(s) remain, a trailer is {TRAILER_BYTES}): "
                "the stream was cut before the producer closed it",
                "open-ended capture ends without an end-of-stream trailer: the "
                "stream was cut before the producer closed it",
            )
            declared = seen + len(tail) // RECORD_BYTES
    whole, partial = divmod(len(tail), RECORD_BYTES)
    seen += whole
    if partial:
        _fault(
            defects, "partial-record", end - partial,
            f"record stream length {end - data_offset} is not a multiple of "
            f"{RECORD_BYTES}",
            f"{partial} trailing byte(s) are not a whole record; dropped",
        )
    if seen != declared:
        _fault(
            defects, "count-mismatch", at,
            f"capture file {where} claims {declared} records but stream holds "
            f"{seen}",
            f"{where} claims {declared} records but the stream holds {seen}",
        )
    elif expected is not None and not partial and crc != expected:
        # Count and framing agree, so a CRC mismatch isolates payload
        # corruption (a truncated stream would mismatch trivially).
        _TELEMETRY.count("upload.crc.failures")
        mismatch = (
            f"record stream CRC32 {crc:#010x} disagrees with the {where}'s "
            f"{expected:#010x}"
        )
        _fault(
            defects, "crc-mismatch", data_offset,
            f"{mismatch}: the payload is corrupt",
            f"{mismatch}: at least one record byte is corrupt",
        )
    meta = dataclasses.replace(meta, count=seen, crc32=expected)
    return meta, tail[: whole * RECORD_BYTES]


# -- the reader ------------------------------------------------------------------


def _open_context(
    path_or_file: Union[str, Path, BinaryIO], mode: str
) -> contextlib.AbstractContextManager:
    if hasattr(path_or_file, "read" if "r" in mode else "write"):
        return contextlib.nullcontext(path_or_file)
    return open(Path(path_or_file), mode)  # type: ignore[arg-type]


def _iter_columns(
    stream: BinaryIO,
    meta: CaptureMeta,
    data_offset: int,
    chunk_records: int,
    defects: Optional[list[CaptureDefect]] = None,
) -> Generator[RecordColumns, None, CaptureMeta]:
    """The record batches after *stream*'s header, then the framing check.

    Reads ``chunk_records`` records per ``read()``, accumulates the
    CRC32 per chunk (never per record), and holds back the last
    :data:`TRAILER_BYTES` bytes of an open-ended stream so records flow
    while the producer still writes.  Every whole batch is yielded
    before :func:`_check_framing` runs on what is left; the generator
    returns the meta it settled on.
    """
    hold_back = TRAILER_BYTES if meta.streamed else 0
    check_crc = meta.crc32 is not None or meta.streamed
    chunk_bytes = chunk_records * RECORD_BYTES
    crc = 0
    seen = 0
    leftover = b""
    while True:
        blob = stream.read(chunk_bytes)
        if not blob:
            break
        blob = leftover + blob
        usable = len(blob) - hold_back
        usable -= usable % RECORD_BYTES
        if usable <= 0:
            leftover = blob
            continue
        if check_crc:
            crc = zlib.crc32(blob[:usable], crc)
        columns = _decode_chunk(blob[:usable])
        seen += len(columns)
        yield columns
        leftover = blob[usable:]
    meta, rest = _check_framing(meta, leftover, seen, crc, data_offset, defects)
    if rest:
        yield _decode_chunk(rest)
    return meta


@contextlib.contextmanager
def open_capture_columns(
    path_or_file: Union[str, Path, BinaryIO],
    *,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[tuple[CaptureMeta, Generator[RecordColumns, None, CaptureMeta]]]:
    """The capture reader: read the header, then hand back ``(meta, batches)``.

    Opens *path_or_file* once and reads the header once, so a consumer
    learns the counter geometry before the first batch even on a source
    it cannot read twice (a pipe or socket).  ``batches`` yields
    :class:`RecordColumns` of up to ``chunk_records`` records and, after
    the last whole batch, checks the framing: a partial record, a count
    or a CRC32 that disagrees with the header — or, for an open-ended
    stream, with its trailer; a cut stream has none — raises
    :class:`CaptureFormatError`.  Exhausted, ``batches`` returns the meta
    with the trailer's count and CRC adopted.
    """
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    with _open_context(path_or_file, "rb") as stream:
        meta, data_offset = _read_header(stream)
        yield meta, _iter_columns(stream, meta, data_offset or 0, chunk_records)


def iter_capture_columns(
    path_or_file: Union[str, Path, BinaryIO],
    *,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[RecordColumns]:
    """The batches of :func:`open_capture_columns`, header unseen."""
    with open_capture_columns(path_or_file, chunk_records=chunk_records) as (
        _,
        batches,
    ):
        yield from batches


def _collect(
    batches: Generator[RecordColumns, None, CaptureMeta],
) -> tuple[list[RawRecord], CaptureMeta]:
    """Drain *batches* into records, with the meta the generator returns."""
    records: list[RawRecord] = []
    while True:
        try:
            batch = next(batches)
        except StopIteration as end:
            return records, end.value
        records += batch.to_records()


def read_capture(
    path_or_file: Union[str, Path, BinaryIO],
) -> tuple[list[RawRecord], CaptureMeta]:
    """Read a whole capture of either version: records plus header metadata.

    :func:`open_capture_columns` drained into :class:`RawRecord` objects;
    an open-ended stream's meta carries its trailer's count and CRC.
    Strict: every fault raises :class:`CaptureFormatError`.  Use
    :func:`salvage_capture` when the file may be damaged.
    """
    with open_capture_columns(path_or_file) as (_, batches):
        return _collect(batches)


def read_capture_meta(path_or_file: Union[str, Path, BinaryIO]) -> CaptureMeta:
    """Read just the header of a capture file (either version).

    Cheap — a few dozen bytes — so callers that stream the records can
    still learn the record count up front (the ``--progress`` ETA).
    Seekable open streams are restored to their starting position so the
    probe composes with a subsequent full read; a non-seekable stream
    (pipe, socket) is left positioned at the first record byte, and a
    damaged header raises the same :class:`CaptureFormatError` either
    way — never a misleading bad-magic for a merely short stream.
    """
    with _open_context(path_or_file, "rb") as stream:
        restore: Optional[int] = None
        # Sockets wrapped with makefile(), raw pipes and duck-typed
        # readers disagree on how they refuse seeking: some lack
        # seekable(), some lack tell(), some raise OSError from tell()
        # despite seekable() saying yes.  Probe defensively — a refusal
        # anywhere just means "don't restore", never an AttributeError
        # escaping a mere header peek.
        try:
            if stream.seekable():
                restore = stream.tell()
        except (AttributeError, OSError, ValueError):
            restore = None
        try:
            return _read_header(stream)[0]
        finally:
            if restore is not None:
                stream.seek(restore)


# -- the header-probe cache --------------------------------------------------
#
# Fleet-scale ingestion probes the same headers over and over: the planner
# reads every header to order the corpus, and a serve-mode rescan probes
# the whole inbox each poll.  A header never changes without the file
# changing, so a tiny (mtime_ns, size)-validated cache turns thousands of
# re-probes into one stat() each.

#: Maximum entries the header-probe cache retains (LRU beyond this).
META_CACHE_SIZE = 4096

_meta_cache: "collections.OrderedDict[str, tuple[tuple[int, int], CaptureMeta]]" = (
    collections.OrderedDict()
)
_meta_cache_lock = threading.Lock()


def clear_meta_cache() -> None:
    """Drop every cached header probe (test isolation)."""
    with _meta_cache_lock:
        _meta_cache.clear()


def cached_capture_meta(path: Union[str, Path]) -> CaptureMeta:
    """:func:`read_capture_meta` behind a ``(path, mtime, size)`` cache.

    Filesystem paths only — open streams have no stable identity and go
    straight to :func:`read_capture_meta`.  A cached entry is valid while
    the file's ``st_mtime_ns`` and ``st_size`` both match; a rewritten or
    truncated file re-probes.  Damaged headers raise exactly like the
    uncached probe and are never cached, so a file repaired in place is
    picked up on the next call.
    """
    if hasattr(path, "read"):
        return read_capture_meta(path)
    key = os.fspath(path)
    st = os.stat(key)
    token = (st.st_mtime_ns, st.st_size)
    with _meta_cache_lock:
        hit = _meta_cache.get(key)
        if hit is not None and hit[0] == token:
            _meta_cache.move_to_end(key)
            meta = hit[1]
        else:
            meta = None
    if meta is not None:
        if _TELEMETRY.enabled:
            _TELEMETRY.count("upload.meta.probes", kind="hit")
        return meta
    meta = read_capture_meta(path)
    with _meta_cache_lock:
        _meta_cache[key] = (token, meta)
        _meta_cache.move_to_end(key)
        while len(_meta_cache) > META_CACHE_SIZE:
            _meta_cache.popitem(last=False)
    if _TELEMETRY.enabled:
        _TELEMETRY.count("upload.meta.probes", kind="miss")
    return meta


# -- the salvager ------------------------------------------------------------------


def read_capture_bytes(source: Union[str, Path, BinaryIO, bytes]) -> bytes:
    """The whole of a capture *source*: a path, an open stream (read to
    its end) or the bytes themselves."""
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    if hasattr(source, "read"):
        return b"".join(iter(lambda: source.read(1 << 20), b""))  # type: ignore[union-attr]
    return Path(source).read_bytes()  # type: ignore[arg-type]


def salvage_capture(
    source: Union[str, Path, BinaryIO, bytes],
) -> SalvageResult:
    """Decode a possibly damaged capture, resynchronising on faults.

    *source* is a path, an open stream (read to its end) or the file's
    bytes.  The header read and framing check are the reader's, under
    the recording fault policy: never raises on content, every fault
    becomes a :class:`CaptureDefect` and decoding continues with the most
    plausible interpretation.  A single flipped magic bit, a truncated
    tail, a lying record count or a corrupt payload all still yield
    every recoverable record (``tests/test_salvage_fuzz.py`` pins the
    recovery, defect by defect).  ``meta.count`` is the number of
    records recovered.
    """
    stream = io.BytesIO(read_capture_bytes(source))
    defects: list[CaptureDefect] = []
    meta, data_offset = _read_header(stream, defects)
    records: list[RawRecord] = []
    if data_offset is not None:
        stream.seek(data_offset)
        batches = _iter_columns(
            stream, meta, data_offset, DEFAULT_CHUNK_RECORDS, defects
        )
        records, meta = _collect(batches)
    if _TELEMETRY.enabled:
        _TELEMETRY.count("upload.records.salvaged", len(records))
        for defect in defects:
            _TELEMETRY.count("upload.salvage.defects", kind=defect.kind)
    return SalvageResult(records, defects, meta)


# -- the writer ----------------------------------------------------------------------


def _header_encoder(
    version: int,
    counter_width_bits: int,
    counter_rate_hz: int,
    overflowed: bool,
    label: str,
    *,
    streamed: bool = False,
) -> Callable[[int, int], bytes]:
    """The header encoder: check the metadata once, then encode
    ``(record count, CRC32)`` into a header of *version*.

    MPF1 keeps only the count, and warns when that drops non-stock
    metadata.  Every header an encoder returns has the same length, so a
    seekable writer can put a placeholder down first and re-encode it in
    place once the count and CRC are known.
    """
    if version == 1:
        if (counter_width_bits, counter_rate_hz, overflowed, label) != (
            STOCK_WIDTH_BITS, STOCK_RATE_HZ, False, ""
        ):
            warnings.warn(
                "MPF1 cannot carry capture metadata: counter width/rate, the "
                "overflow flag and the label are dropped — write version=2 to "
                "keep them",
                CaptureMetadataWarning,
                stacklevel=3,
            )
        return lambda count, crc32: MAGIC + count.to_bytes(4, "big")
    if version != 2:
        raise ValueError(f"unknown capture format version {version}")
    if not (1 <= counter_width_bits <= TIME_BITS):
        raise ValueError(
            f"counter width {counter_width_bits} outside 1..{TIME_BITS} bits"
        )
    if not (1 <= counter_rate_hz < 1 << 32):
        raise ValueError(f"counter rate {counter_rate_hz} Hz does not fit in 32 bits")
    label_bytes = label.encode("utf-8")
    limit = 0xFFFF - V2_FIXED_HEADER_BYTES
    if len(label_bytes) > limit:
        raise ValueError(f"label is {len(label_bytes)} bytes; the limit is {limit}")
    flags = (1 if overflowed else 0) | (2 if streamed else 0)

    def encode(count: int, crc32: int) -> bytes:
        return _V2_FIXED.pack(
            MAGIC_V2, V2_FIXED_HEADER_BYTES + len(label_bytes), count,
            counter_width_bits, counter_rate_hz, flags, crc32, len(label_bytes),
        ) + label_bytes

    return encode


class CaptureStreamWriter:
    """Incremental writer of an open-ended MPF2 stream (the live wire form).

    Writes the open-ended header (sentinel count, flags bit 1) on
    construction, then records in whatever increments the producer has
    them — per board drain, per chunk — and the authoritative
    count + CRC32 trailer on :meth:`close`.  Never seeks, so the target
    can be a pipe, socket or FIFO, and a consumer holding the other end
    (:func:`open_capture_columns`) decodes records as they land.

    Usable as a context manager; the trailer is written on clean exit
    only, so an aborted producer leaves a stream the reader refuses (and
    the salvager repairs) rather than one that lies.
    """

    def __init__(
        self,
        stream: BinaryIO,
        *,
        counter_width_bits: int = STOCK_WIDTH_BITS,
        counter_rate_hz: int = STOCK_RATE_HZ,
        overflowed: bool = False,
        label: str = "",
    ) -> None:
        encode = _header_encoder(
            2, counter_width_bits, counter_rate_hz, overflowed, label, streamed=True
        )
        self._stream = stream
        self.count = 0
        self.crc32 = 0
        self.closed = False
        stream.write(encode(OPEN_COUNT, 0))

    def write_bytes(self, blob: Union[bytes, bytearray, memoryview]) -> int:
        """Append pre-packed record bytes (a multiple of 5); returns count."""
        if self.closed:
            raise ValueError("capture stream writer is closed")
        blob = bytes(blob)
        if len(blob) % RECORD_BYTES:
            raise CaptureFormatError(
                f"record blob length {len(blob)} is not a multiple of "
                f"{RECORD_BYTES}"
            )
        added = len(blob) // RECORD_BYTES
        _check_count(self.count + added)
        if self.count + added >= OPEN_COUNT:
            raise ValueError(
                f"open-ended stream cannot carry {OPEN_COUNT} records or "
                "more: the sentinel count would be ambiguous"
            )
        self.crc32 = zlib.crc32(blob, self.crc32)
        self._stream.write(blob)
        self.count += added
        return added

    def write_records(self, records: Iterable[RawRecord]) -> int:
        """Append *records*; returns how many were written."""
        blob = dump_records(records)
        return self.write_bytes(blob) if blob else 0

    def write_columns(self, columns: RecordColumns) -> int:
        """Append a columnar batch; returns how many records were written."""
        return self.write_bytes(columns.to_bytes()) if len(columns) else 0

    def flush(self) -> None:
        flush = getattr(self._stream, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> int:
        """Write the end-of-stream trailer; returns the final count."""
        if not self.closed:
            self._stream.write(
                TRAILER_MAGIC
                + self.count.to_bytes(4, "big")
                + self.crc32.to_bytes(4, "big")
            )
            self.flush()
            self.closed = True
        return self.count

    def __enter__(self) -> "CaptureStreamWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is None:
            self.close()


def write_capture_stream(
    path_or_file: Union[str, Path, BinaryIO],
    records: Iterable[RawRecord],
    *,
    version: int = 2,
    counter_width_bits: int = STOCK_WIDTH_BITS,
    counter_rate_hz: int = STOCK_RATE_HZ,
    overflowed: bool = False,
    label: str = "",
    open_stream: Optional[bool] = None,
) -> int:
    """Write a capture file from a record *iterator* of unknown length.

    Streams records straight to the file, then re-encodes the header in
    place with the record count (and, for MPF2, the CRC32), so captures
    far larger than memory can be serialised.  Returns the record count.

    ``open_stream`` selects the open-ended MPF2 wire form (sentinel
    count + end-of-stream trailer, no seeking): ``True`` forces it,
    ``False`` forces the closed header, and ``None`` (the default)
    picks it automatically when the target cannot seek — so piping an
    MPF2 capture through stdout just works, while MPF1 (which has no
    trailer to carry the count) still rejects non-seekable targets up
    front, before any bytes are written.
    """
    if version not in (1, 2):
        raise ValueError(f"unknown capture format version {version}")
    if open_stream and version == 1:
        raise ValueError(
            "MPF1 has no end-of-stream trailer; open-ended streams are "
            "MPF2 only"
        )
    if hasattr(path_or_file, "write"):
        try:
            seekable = bool(path_or_file.seekable())  # type: ignore[union-attr]
        except (AttributeError, OSError, ValueError):
            seekable = False
        if open_stream is None and version == 2:
            open_stream = not seekable
        if not seekable and not open_stream:
            raise ValueError(
                "write_capture_stream needs a seekable target to re-encode "
                "the header's record count; pipe/socket targets cannot seek "
                "— pass open_stream=True for the trailer-carrying wire "
                "form, or buffer to a temporary file"
            )
    if open_stream:
        with _open_context(path_or_file, "wb") as stream, CaptureStreamWriter(
            stream,
            counter_width_bits=counter_width_bits,
            counter_rate_hz=counter_rate_hz,
            overflowed=overflowed,
            label=label,
        ) as writer:
            for blob in _record_blobs(records):
                writer.write_bytes(blob)
        return writer.count
    encode = _header_encoder(
        version, counter_width_bits, counter_rate_hz, overflowed, label
    )
    with _open_context(path_or_file, "wb") as stream:
        base = stream.tell()
        stream.write(encode(0, 0))
        count = 0
        crc = 0
        for blob in _record_blobs(records):
            count += len(blob) // RECORD_BYTES
            _check_count(count)
            crc = zlib.crc32(blob, crc)
            stream.write(blob)
        end = stream.tell()
        stream.seek(base)
        stream.write(encode(count, crc))
        stream.seek(end)
    return count


def write_capture_file(
    path_or_file: Union[str, Path, BinaryIO],
    records: Sequence[RawRecord],
    *,
    version: int = 2,
    counter_width_bits: int = STOCK_WIDTH_BITS,
    counter_rate_hz: int = STOCK_RATE_HZ,
    overflowed: bool = False,
    label: str = "",
) -> int:
    """Write a capture file (header + record stream) in one write.

    MPF2 by default; ``version=1`` writes the legacy header byte-for-byte
    (and warns if that drops non-stock metadata).  Needs no seek, so any
    writable target works.  Returns the number of records written.
    """
    count = len(records)
    _check_count(count)
    encode = _header_encoder(
        version, counter_width_bits, counter_rate_hz, overflowed, label
    )
    payload = dump_records(records)
    with _open_context(path_or_file, "wb") as stream:
        stream.write(encode(count, zlib.crc32(payload)) + payload)
    return count


class EpromReadback:
    """Future-work readback: multiplex each RAM bank into the EPROM window.

    The board has five 8-bit RAM banks; selecting bank *b* makes byte *b*
    of every record readable at the record's address, "and the data can be
    read as if it were an EPROM".  The host reads all five banks and
    reassembles records.
    """

    BANKS = RECORD_BYTES

    def __init__(self, ram: TraceRam) -> None:
        self.ram = ram
        self.selected_bank = 0

    def select_bank(self, bank: int) -> None:
        """Flip the board's bank-select switches."""
        if not (0 <= bank < self.BANKS):
            raise ValueError(f"bank {bank} out of range 0..{self.BANKS - 1}")
        self.selected_bank = bank

    def read(self, address: int) -> int:
        """Read one byte of the selected bank at record *address*."""
        if not (0 <= address < self.ram.depth):
            raise ValueError(f"address {address} outside RAM depth {self.ram.depth}")
        if address >= len(self.ram):
            return 0xFF
        return self.ram[address].pack()[self.selected_bank]

    def read_all(self) -> list[RawRecord]:
        """Host-side procedure: read every bank, reassemble every record."""
        banks: list[list[int]] = []
        for bank in range(self.BANKS):
            self.select_bank(bank)
            banks.append([self.read(addr) for addr in range(len(self.ram))])
        records = []
        for i in range(len(self.ram)):
            blob = bytes(banks[bank][i] for bank in range(self.BANKS))
            records.append(RawRecord.unpack(blob))
        return records
