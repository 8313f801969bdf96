"""The live consumer: wire batches -> rolling summaries -> gauges.

:class:`LiveAnalyzer` is the analysis side of the live pipe.  It drains
a (usually non-seekable, open-ended) capture stream through
:func:`repro.analysis.summary.fold_capture` — the one ingest path batch
``analyze``, ``fleet ingest`` and ``db ingest`` share — so the drained
final summary is byte-identical to the batch report by construction.
With a live trace the fold is a
:class:`~repro.analysis.callstack.CallTreeRecorder` streaming each call
it closes to the :class:`~repro.live.trace.LiveTraceWriter`, so the
live trace is ``trace export``'s reconstruction; without one it is the
plain :class:`~repro.analysis.summary.SummaryAccumulator`.

Everything live hangs on the fold's per-batch hook:

* **rolling summaries** — every ``window_s`` (host monotonic clock) a
  :class:`LiveWindow` pairs the cumulative
  :meth:`~repro.analysis.summary.SummaryAccumulator.peek` with the
  windowed :meth:`~repro.analysis.summary.ProfileSummary.delta` since
  the previous window;
* **telemetry gauges** through the PR 5 registry — events/sec
  (cumulative and per-window), consumer lag (milliseconds from batch
  arrival to fold completion), bytes buffered and totals;
* the jsonl heartbeat (:class:`~repro.telemetry.heartbeat.HeartbeatFlusher`)
  and the live trace's flush;
* a Prometheus ``/metrics`` endpoint, by handing :meth:`render_metrics`
  to :class:`repro.fleet.serve.MetricsHTTPServer`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Optional

from repro.analysis.callstack import CallTreeRecorder
from repro.analysis.summary import (
    CaptureSource,
    ProfileSummary,
    SummaryAccumulator,
    fold_capture,
)
from repro.instrument.namefile import NameTable
from repro.live.trace import LiveTraceWriter
from repro.profiler.upload import RECORD_BYTES, RecordColumns
from repro.telemetry import TELEMETRY, HeartbeatFlusher
from repro.telemetry.export import to_prometheus

#: Default seconds of host time per rolling window.
DEFAULT_WINDOW_S = 1.0


@dataclasses.dataclass(frozen=True)
class LiveWindow:
    """One closed rolling window of the live stream.

    ``cumulative`` is the run-so-far snapshot at window close;
    ``window`` the delta summary of just this window (exact for the
    monotone counters, see :meth:`ProfileSummary.delta`).  Rates are
    measured on the host monotonic clock — the capture's simulated
    microseconds tell a different, slower story by design.
    """

    seq: int
    host_elapsed_s: float
    duration_s: float
    events: int
    events_per_sec: float
    cumulative: ProfileSummary
    window: ProfileSummary


class LiveAnalyzer:
    """Fold an MPF2 wire stream incrementally; publish live observables.

    Drive it either with :meth:`consume` (pull: hand it the stream, get
    the drained summary back) or by pushing batches through :meth:`feed`
    and calling :meth:`finish` at end of stream.  ``on_window`` fires
    with each closed :class:`LiveWindow` — the hook ``repro top`` hangs
    its refresh on.  ``width_bits`` is the counter width pushed batches
    unwrap with; :meth:`consume` takes it from the wire header instead.
    ``clock`` times windows and rates; ``live.lag_ms`` is always
    measured on :func:`time.monotonic`, the clock arrival instants are
    taken on.
    """

    def __init__(
        self,
        names: NameTable,
        *,
        width_bits: int = 24,
        window_s: float = DEFAULT_WINDOW_S,
        clock: Callable[[], float] = time.monotonic,
        on_window: Optional[Callable[[LiveWindow], None]] = None,
        trace: Optional["LiveTraceWriter"] = None,
        heartbeat: Optional[HeartbeatFlusher] = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be positive, got {window_s}")
        self.names = names
        self.trace = trace
        self.records_total = 0
        self._new_fold(names, width_bits=width_bits)
        self.window_s = window_s
        self.on_window = on_window
        self.heartbeat = heartbeat
        self.bytes_total = 0
        self.batches = 0
        self.windows: int = 0
        self.latest_window: Optional[LiveWindow] = None
        self._clock = clock
        self._started = clock()
        self._window_started = self._started
        self._window_base: Optional[ProfileSummary] = None
        self._finished: Optional[ProfileSummary] = None

    def _new_fold(self, names: NameTable, *, width_bits: int) -> SummaryAccumulator:
        """Start the fold records go into (:meth:`consume` starts one at
        the width the header declares); it records calls for the live
        trace when there is one."""
        if self.records_total:
            raise ValueError(
                f"cannot start a new fold after {self.records_total} records"
            )
        if self.trace is not None:
            self.accumulator = CallTreeRecorder(
                names, width_bits=width_bits, sink=self.trace
            )
        else:
            self.accumulator = SummaryAccumulator(names, width_bits=width_bits)
        return self.accumulator

    # -- feeding ---------------------------------------------------------------

    def feed(self, columns: RecordColumns, *, arrival: Optional[float] = None) -> None:
        """Fold one wire batch in and publish the per-batch gauges.

        ``arrival`` is the :func:`time.monotonic` instant the batch's
        bytes finished arriving (defaults to now); the published
        ``live.lag_ms`` gauge is the time from that instant to fold
        completion — how far the consumer runs behind the wire.
        """
        if arrival is None:
            arrival = time.monotonic()
        self.accumulator.feed_columns(columns)
        self._folded(len(columns), arrival)

    def _folded(self, n: int, arrival: float) -> None:
        """After each batch folds: gauges, window rotation, heartbeat (the
        :func:`fold_capture` per-batch hook).  Its 0-record call at end of
        stream closes the last window before the fold seals."""
        if not n:
            self._close_last_window()
            return
        self.records_total += n
        self.bytes_total += n * RECORD_BYTES
        self.batches += 1
        done = self._clock()
        if TELEMETRY.enabled:
            lag_ms = (time.monotonic() - arrival) * 1_000.0
            elapsed = done - self._started
            TELEMETRY.count("live.records", n)
            TELEMETRY.set_gauge("live.records.total", self.records_total)
            TELEMETRY.set_gauge("live.bytes.total", self.bytes_total)
            TELEMETRY.set_gauge("live.bytes.buffered", n * RECORD_BYTES)
            TELEMETRY.set_gauge("live.lag_ms", lag_ms)
            TELEMETRY.max_gauge("live.lag_ms.peak", lag_ms)
            if elapsed > 0:
                TELEMETRY.set_gauge(
                    "live.events_per_sec", self.records_total / elapsed
                )
        self.maybe_rotate(now=done)
        if self.trace is not None:
            self.trace.flush()
        if self.heartbeat is not None:
            self.heartbeat.maybe_flush()

    # -- windows ---------------------------------------------------------------

    def maybe_rotate(self, *, now: Optional[float] = None) -> Optional[LiveWindow]:
        """Close the current window if ``window_s`` host seconds passed."""
        if now is None:
            now = self._clock()
        if now - self._window_started < self.window_s:
            return None
        return self.rotate(now=now)

    def rotate(self, *, now: Optional[float] = None) -> LiveWindow:
        """Close the current rolling window unconditionally."""
        if now is None:
            now = self._clock()
        cumulative = self.accumulator.peek()
        base = self._window_base
        windowed = cumulative.delta(base) if base is not None else cumulative
        duration = max(now - self._window_started, 1e-9)
        window = LiveWindow(
            seq=self.windows,
            host_elapsed_s=now - self._started,
            duration_s=duration,
            events=windowed.event_count,
            events_per_sec=windowed.event_count / duration,
            cumulative=cumulative,
            window=windowed,
        )
        self.windows += 1
        self.latest_window = window
        self._window_base = cumulative
        self._window_started = now
        if TELEMETRY.enabled:
            TELEMETRY.set_gauge("live.window.events_per_sec", window.events_per_sec)
            TELEMETRY.set_gauge(
                "live.window.busy_pct", 100.0 * windowed.busy_fraction
            )
            TELEMETRY.set_gauge("live.windows", self.windows)
        if self.trace is not None:
            self.trace.window(window)
        if self.on_window is not None:
            self.on_window(window)
        return window

    # -- draining --------------------------------------------------------------

    def finish(self) -> ProfileSummary:
        """Seal the accumulator; the drained summary (byte-identical to
        batch analysis of the same records).  Idempotent."""
        if self._finished is None:
            self._close_last_window()
            self._finished = self.accumulator.summary()
            if self.trace is not None:
                self.trace.close()
            if self.heartbeat is not None:
                self.heartbeat.flush()
        return self._finished

    def _close_last_window(self) -> None:
        """Close the window holding records no window has shown yet, from
        a peek of the still unsealed fold."""
        if self.records_total and (
            self._window_base is None
            or self._window_base.event_count != self.records_total
        ):
            self.rotate()

    def consume(self, source: CaptureSource) -> ProfileSummary:
        """Drain *source* (a path, pipe or socket file) to completion.

        One :func:`fold_capture` of the stream, at the counter width its
        header declares.  Each ``read()`` off the wire is one batch; the
        lag gauge's arrival instant is taken the moment the batch comes
        off the stream.  A stream the reader rejects raises its fault.
        """
        result = fold_capture(
            source,
            self.names,
            progress=self._folded,
            new_accumulator=self._new_fold,
        )
        if result.fault is not None:
            raise result.fault
        return self.finish()

    # -- scrape ----------------------------------------------------------------

    def render_metrics(self) -> str:
        """Prometheus text of the telemetry registry (the ``/metrics``
        render callable for :class:`repro.fleet.serve.MetricsHTTPServer`)."""
        return to_prometheus(TELEMETRY)
