"""Pass 9 — open-ended (live wire) capture streams: the P8xx family.

The live wire form trades the header's authoritative count and CRC32
for an end-of-stream trailer, which moves the failure modes: a producer
killed mid-stream leaves no trailer at all (P801), wire corruption
shows up as a trailer CRC disagreement (P802), and a consumer that
drained a different number of records than the producer declared caught
a bug the capture reader should have raised (P803).

Two entry points:

* :func:`lint_live_stream` inspects a finished stream *file* (a FIFO
  capture teed to disk, an inbox drop) without raising: the framing
  defects :func:`repro.profiler.upload.salvage_capture` finds, as lint;
* :func:`lint_live_drain` checks a consumer's post-drain accounting
  (records folded vs the trailer's declared count) — what ``repro live
  analyze`` would have raised on, as a diagnostic.

Ordinary closed-header captures are out of scope by design: the
stream pass (P2xx) owns them, and this pass reports nothing on them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.lint.diagnostics import LintReport
from repro.profiler.upload import read_capture_meta, salvage_capture

#: The salvager's framing defects, in the order one is reported: a cut
#: stream (P801) explains any count or partial-record fault after it.
_FRAMING_CODES = {
    "missing-trailer": "P801",
    "count-mismatch": "P803",
    "partial-record": "P803",
    "crc-mismatch": "P802",
}


def lint_live_stream(
    source: Union[str, Path],
    report: Optional[LintReport] = None,
) -> LintReport:
    """Verify the open-ended framing of one stream file, non-raising.

    Salvages the stream and reports the salvager's first framing defect,
    if any, as one P8xx diagnostic.  Emits nothing for non-streamed
    captures (the P2xx pass owns those) and nothing for
    unreadable/malformed headers (ditto: P200/P209 are already on the
    report when the passes run chained).  The header probe comes first
    so a closed-header capture, which the stream pass already decoded,
    is not decoded again.
    """
    report = report if report is not None else LintReport()
    try:
        if not read_capture_meta(source).streamed:
            return report
        result = salvage_capture(source)
    except (OSError, ValueError):
        return report
    kinds = {defect.kind: defect for defect in result.defects}
    for kind, code in _FRAMING_CODES.items():
        defect = kinds.get(kind)
        if defect is not None:
            report.add(
                code,
                f"{defect.message} (byte offset {defect.offset})",
                source=str(source),
            )
            break
    return report


def lint_live_drain(
    drained_records: int,
    declared_count: int,
    source: str = "<live-stream>",
    report: Optional[LintReport] = None,
) -> LintReport:
    """Check a consumer's drain accounting against the trailer's count.

    A mismatch means records were folded twice, dropped, or the trailer
    lied — any of which invalidates the drained summary.
    """
    report = report if report is not None else LintReport()
    if drained_records != declared_count:
        report.add(
            "P803",
            f"consumer drained {drained_records} record(s) but the trailer "
            f"declared {declared_count}",
            source=source,
        )
    return report
