"""Live profiling: concurrent capture -> analyze over a wire.

The paper's headline claim is *real-time* hardware profiling; this
package makes the MPF2 stream boundary a real pipe.  A producer
(:mod:`repro.live.capture`) emits an open-ended MPF2 stream — sentinel
record count, end-of-stream trailer — to a pipe/FIFO/socket while
:class:`~repro.live.analyzer.LiveAnalyzer` consumes it concurrently:
columnar batches off the wire, folded by the one ingest path
(:func:`~repro.analysis.summary.fold_capture`), with rolling windowed
summaries, live telemetry gauges, an incremental Chrome trace of the
fold's own call reconstruction and a Prometheus ``/metrics`` endpoint.
``repro top`` (:mod:`repro.live.top`) puts a refreshing operator view on
top.

The invariants everything here is tested against: the drained live
summary is byte-identical to batch ``repro analyze`` over the same
record stream, and the live trace's call slices equal ``repro trace
export``'s.
"""

from repro.live.analyzer import LiveAnalyzer, LiveWindow
from repro.live.capture import stream_capture
from repro.live.top import TOP_SORTS, TopView, render_top, sort_rows
from repro.live.trace import LiveTraceWriter

__all__ = [
    "LiveAnalyzer",
    "LiveWindow",
    "LiveTraceWriter",
    "stream_capture",
    "TopView",
    "TOP_SORTS",
    "render_top",
    "sort_rows",
]
