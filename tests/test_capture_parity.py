"""One reader, one salvager, one writer: parity across every way in.

Every capture below — the four frozen goldens, the three frozen salvage
mutants and three open-ended streams (closed, cut, and one with a label
byte flipped outside the CRC) — is fed as a path, as a ``BytesIO`` and
as a non-seekable pipe that returns short reads.  Whichever way it
arrives:

* :func:`read_capture` equals the concatenated
  :func:`open_capture_columns` batches, records and meta (the trailer's
  count and CRC adopted for an open-ended stream), or both raise the
  same :class:`CaptureFormatError` message;
* :func:`salvage_capture` gives the same :class:`SalvageResult` for the
  bytes, the path, the stream and the pipe.

The writers are pinned by the SHA-256 of what they wrote before they
were folded onto one header encoder and one record packer; the frozen
MPF2 goldens pin :func:`write_capture_file` too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import pathlib
import zlib

import pytest

from repro.__main__ import main
from repro.analysis.columnar import columns_from_records
from repro.profiler.capture import Capture
from repro.profiler.ram import RawRecord
from repro.profiler.upload import (
    CaptureFormatError,
    CaptureStreamWriter,
    dump_records,
    open_capture_columns,
    read_capture,
    salvage_capture,
    write_capture_file,
    write_capture_stream,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GOLDENS = (
    "figure3_network.mpf",
    "figure3_network_v2.mpf",
    "figure5_forkexec.mpf",
    "figure5_forkexec_v2.mpf",
)
MUTANTS = (
    "salvage_fuzz_bitflip.mpf.corrupt",
    "salvage_fuzz_countlie.mpf.corrupt",
    "salvage_fuzz_truncate.mpf.corrupt",
)


def _open_ended(records: list[RawRecord], label: str = "parity") -> bytes:
    buffer = io.BytesIO()
    with CaptureStreamWriter(buffer, label=label) as writer:
        writer.write_records(records)
    return buffer.getvalue()


_STREAM = _open_ended(
    [RawRecord(tag=500 + i % 4, time=i * 37) for i in range(1000)]
)
_LABEL_FLIP = bytearray(_STREAM)
_LABEL_FLIP[22] = 0xFF  # first label byte: outside the record CRC


def _grown_header(blob: bytes) -> bytes:
    """*blob* with 4 bytes of a future header field appended to its MPF2
    header (the header-size field bumped to match)."""
    grown = bytearray(blob)
    header_size = int.from_bytes(grown[4:6], "big")
    grown[4:6] = (header_size + 4).to_bytes(2, "big")
    grown[header_size:header_size] = b"\xde\xad\xbe\xef"
    return bytes(grown)


_GROWN = _grown_header((GOLDEN_DIR / "figure3_network_v2.mpf").read_bytes())

#: name -> (capture bytes, whether the strict reader accepts it).
INPUTS = {
    **{name: ((GOLDEN_DIR / name).read_bytes(), True) for name in GOLDENS},
    **{name: ((GOLDEN_DIR / name).read_bytes(), False) for name in MUTANTS},
    "stream-closed": (_STREAM, True),
    "stream-cut": (_STREAM[: len(_STREAM) - 15], False),
    "stream-label-flip": (bytes(_LABEL_FLIP), True),
    "header-grown": (_GROWN, True),
}


class _Pipe(io.RawIOBase):
    """A pipe-shaped source: never seekable, at most 4093 bytes a read."""

    def __init__(self, blob: bytes) -> None:
        self._inner = io.BytesIO(blob)

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return False

    def readinto(self, buffer) -> int:
        blob = self._inner.read(min(len(buffer), 4093))
        buffer[: len(blob)] = blob
        return len(blob)


def _sources(blob: bytes, tmp_path: pathlib.Path) -> dict:
    """Fresh ways in for *blob*: a path, a BytesIO and a pipe."""
    path = tmp_path / "capture.mpf"
    path.write_bytes(blob)
    return {
        "path": lambda: path,
        "bytesio": lambda: io.BytesIO(blob),
        "pipe": lambda: _Pipe(blob),
    }


def _strict_whole(source):
    try:
        records, meta = read_capture(source)
    except CaptureFormatError as exc:
        return "error", str(exc)
    return records, meta


def _strict_batches(source):
    try:
        with open_capture_columns(source, chunk_records=97) as (meta, batches):
            records = [r for batch in batches for r in batch.to_records()]
    except CaptureFormatError as exc:
        return "error", str(exc)
    if meta.streamed:
        # The header's count and CRC of an open-ended stream are
        # placeholders; a clean read proved the trailer's match these.
        meta = dataclasses.replace(
            meta, count=len(records), crc32=zlib.crc32(dump_records(records))
        )
    return records, meta


@pytest.mark.parametrize("name", INPUTS)
def test_read_capture_equals_batches(name, tmp_path):
    blob, clean = INPUTS[name]
    outcomes = []
    for kind, source in _sources(blob, tmp_path).items():
        whole = _strict_whole(source())
        assert whole == _strict_batches(source()), kind
        outcomes.append(whole)
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert (outcomes[0][0] != "error") == clean, outcomes[0]


@pytest.mark.parametrize("name", INPUTS)
def test_salvage_same_from_every_source(name, tmp_path):
    blob, clean = INPUTS[name]
    expected = salvage_capture(blob)
    for kind, source in _sources(blob, tmp_path).items():
        assert salvage_capture(source()) == expected, kind
    assert (expected.defects == []) == clean
    if clean:
        assert (expected.records, expected.meta) == read_capture(io.BytesIO(blob))


def test_label_flip_is_clean_and_cut_stream_is_not():
    """The label is outside the CRC: a flipped label byte decodes to
    U+FFFD and nothing else changes; a cut stream lacks its trailer."""
    records, meta = read_capture(io.BytesIO(INPUTS["stream-label-flip"][0]))
    assert len(records) == 1000 and meta.label.startswith("�")
    cut = salvage_capture(INPUTS["stream-cut"][0])
    assert [d.kind for d in cut.defects] == ["missing-trailer", "partial-record"]
    assert len(cut.records) == 999


def test_future_header_fields_are_skipped(tmp_path):
    """A header grown by a field a later format version appends reads,
    salvages and doctors exactly like the original."""
    original = read_capture(GOLDEN_DIR / "figure3_network_v2.mpf")
    salvaged = salvage_capture(_GROWN)
    assert salvaged.defects == []
    assert salvaged.meta.label == original[1].label != ""
    assert salvaged.records == read_capture(io.BytesIO(_GROWN))[0] == original[0]
    path = tmp_path / "grown.mpf"
    path.write_bytes(_GROWN)
    lines: list[str] = []
    assert main(["capture", "doctor", str(path)], out=lines.append) == 0, lines


# -- the writers --------------------------------------------------------------

RECORDS = [
    RawRecord(tag=(i * 7919) & 0xFFFF, time=(i * 104729) & 0xFFFFFF)
    for i in range(20000)
]
META = dict(
    counter_width_bits=20, counter_rate_hz=2_000_000, overflowed=True,
    label="parity ⏱",
)

#: SHA-256 of each writer's output for RECORDS, measured before the
#: writers shared one core.  Closed MPF2, MPF1 and open-ended forms.
CLOSED_V2 = "eb8675ae76e54a571ed55d674d7f4abc96197f7d17f75127ed71719a006fdc3d"
CLOSED_V1 = "4012baec821bbdbcee50ad39b84dfc95427bda9f27eb8aa99f60c6e5cb2886b5"
OPEN_V2 = "5ee4bf8de113e3bcbeb09f1e4b99b2acc23bd02c16bb6224ff666a1f198301e8"


class _NoSeek:
    """A pipe-shaped target: write-only, refuses to seek."""

    def __init__(self) -> None:
        self.written = bytearray()

    def write(self, blob) -> int:
        self.written += blob
        return len(blob)

    def seekable(self) -> bool:
        return False


def _sha(blob) -> str:
    return hashlib.sha256(bytes(blob)).hexdigest()


def test_write_capture_file_bytes_pinned(tmp_path):
    path = tmp_path / "run.mpf"
    assert write_capture_file(path, RECORDS, **META) == len(RECORDS)
    assert _sha(path.read_bytes()) == CLOSED_V2
    buffer = io.BytesIO()
    write_capture_file(buffer, RECORDS, version=1)
    assert _sha(buffer.getvalue()) == CLOSED_V1


def test_write_capture_stream_seekable_bytes_pinned(tmp_path):
    path = tmp_path / "run.mpf"
    assert write_capture_stream(path, iter(RECORDS), **META) == len(RECORDS)
    assert _sha(path.read_bytes()) == CLOSED_V2
    buffer = io.BytesIO()
    write_capture_stream(buffer, iter(RECORDS), version=1)
    assert _sha(buffer.getvalue()) == CLOSED_V1


def test_write_capture_stream_pipe_bytes_pinned():
    target = _NoSeek()
    assert write_capture_stream(target, iter(RECORDS), **META) == len(RECORDS)
    assert _sha(target.written) == OPEN_V2


def test_capture_stream_writer_bytes_pinned():
    target = _NoSeek()
    with CaptureStreamWriter(target, **META) as writer:
        writer.write_records(RECORDS[:100])
        writer.write_columns(columns_from_records(RECORDS[100:9000]))
        writer.write_bytes(dump_records(RECORDS[9000:]))
    assert writer.count == len(RECORDS)
    assert _sha(target.written) == OPEN_V2


@pytest.mark.parametrize("name", ["figure3_network_v2.mpf", "figure5_forkexec_v2.mpf"])
def test_v2_goldens_rewrite_byte_identical(name, tmp_path):
    """Read a frozen MPF2 golden and write it back: the same bytes."""
    blob = (GOLDEN_DIR / name).read_bytes()
    records, meta = read_capture(io.BytesIO(blob))
    capture = Capture(
        records=tuple(records),
        names=None,  # type: ignore[arg-type]
        overflowed=meta.overflowed,
        label=meta.label,
        counter_width_bits=meta.counter_width_bits,
        counter_rate_hz=meta.counter_rate_hz,
    )
    path = tmp_path / name
    capture.save(path)
    assert path.read_bytes() == blob
