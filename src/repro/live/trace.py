"""Incremental Chrome-trace track of the live wire stream.

The batch ``repro trace export`` renders a whole reconstructed capture
into one Perfetto document after the fact.  :class:`LiveTraceWriter` is
its streaming sibling: it appends ``trace_event`` JSON *while the stream
flows*, so the trace file can be loaded (Chrome and Perfetto tolerate an
unterminated event array) before the capture finishes.

It renders the same reconstruction: the live fold is a
:class:`~repro.analysis.callstack.CallTreeRecorder` with this writer as
its sink, so each call reaches :meth:`LiveTraceWriter.node` the moment
the fold closes it — split at ``swtch`` into per-process tracks, with
interrupt frames on the interrupt track — and is drawn by
:func:`repro.telemetry.export.call_node_events`, the renderer ``trace
export`` uses.  The writer keeps no closed call, so memory stays bounded
by the fold's open frames.  Frames still open when the stream ends are
closed administratively by the fold and drawn ``truncated``, as in the
batch export; user-mode inline marks land on the track of the process
they fired in.  Each closed rolling window adds counter samples
(events/sec, busy%) on a gauge track of its own (:data:`GAUGE_PID`).

A ``max_slices`` cap bounds the file for long sessions; once reached,
only the counter track keeps appending and the drop is recorded in the
trailer metadata event written by :meth:`close`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.analysis.callstack import CallNode
from repro.analysis.timeline import DEFAULT_INTERRUPT_FRAMES
from repro.telemetry.export import (
    INTERRUPT_PID,
    call_node_events,
    chrome_counter_event,
    chrome_mark_event,
    chrome_process_name,
    proc_pid,
)

#: Default cap on emitted call slices (the counter track is unbounded).
DEFAULT_MAX_SLICES = 100_000

#: pid of the counter track: above every reconstructed process's pid
#: (:func:`~repro.telemetry.export.proc_pid`), so the gauges get a track
#: of their own.
GAUGE_PID = 2**31 - 1


class LiveTraceWriter:
    """Append a Chrome ``trace_event`` array call by call (a recorder sink)."""

    def __init__(
        self,
        path: Union[str, Path],
        *,
        max_slices: int = DEFAULT_MAX_SLICES,
        label: str = "",
    ) -> None:
        self.path = Path(path)
        self.max_slices = max_slices
        self.label = label
        self.slices = 0
        self.dropped = 0
        self.closed = False
        self._interrupts = frozenset(DEFAULT_INTERRUPT_FRAMES)
        self._tracks: set[int] = set()
        self._file = self.path.open("w")
        self._file.write("[\n")
        self._first = True
        self._track(INTERRUPT_PID, "interrupts")

    def _emit(self, event: dict) -> None:
        prefix = " " if self._first else ",\n "
        self._first = False
        self._file.write(prefix + json.dumps(event, sort_keys=True))

    def _track(self, pid: int, name: str) -> None:
        """Name track *pid* the first time anything lands on it."""
        if pid not in self._tracks:
            self._tracks.add(pid)
            self._emit(chrome_process_name(pid, name))

    def node(self, node: CallNode, enclosing: list[list]) -> None:
        """Append one closed call: the recorder's sink.

        *enclosing* holds the frames still open around the call; it is on
        the interrupt track when it or any of them is an interrupt frame.
        """
        if self.slices >= self.max_slices:
            self.dropped += 1
            return
        interrupts = self._interrupts
        interrupt = node.name in interrupts or any(
            frame[0] in interrupts for frame in enclosing
        )
        if not interrupt:
            self._track(proc_pid(node.proc), node.proc)
        for event in call_node_events(node, interrupt):
            self._emit(event)
        self.slices += 1

    def mark(self, time_us: int, name: str, proc: str) -> None:
        """Append an inline mark that fired outside any call."""
        if self.slices < self.max_slices:
            pid = proc_pid(proc)
            self._track(pid, proc)
            self._emit(chrome_mark_event(name, time_us, pid, {}))

    def flush(self) -> None:
        """Push what is written so far to the file (once per wire batch)."""
        if not self.closed:
            self._file.flush()

    def window(self, window: "LiveWindow") -> None:  # noqa: F821 - duck-typed
        """Append the counter samples of one closed rolling window."""
        if self.closed:
            return
        self._track(GAUGE_PID, "live gauges")
        cumulative = window.cumulative
        self._emit(
            chrome_counter_event(
                "live.events_per_sec",
                cumulative.wall_us,
                {"events_per_sec": round(window.events_per_sec, 3)},
                pid=GAUGE_PID,
            )
        )
        self._emit(
            chrome_counter_event(
                "live.busy_pct",
                cumulative.wall_us,
                {"busy": round(100.0 * window.window.busy_fraction, 3)},
                pid=GAUGE_PID,
            )
        )
        self._file.flush()

    def close(self) -> None:
        """Terminate the array (a valid, loadable document).  Idempotent."""
        if self.closed:
            return
        self._emit(
            {
                "name": "live_trace_end",
                "ph": "M",
                "pid": INTERRUPT_PID,
                "tid": 0,
                "args": {
                    "label": self.label,
                    "slices": self.slices,
                    "slices_dropped": self.dropped,
                },
            }
        )
        self._file.write("\n]\n")
        self._file.close()
        self.closed = True

    def __enter__(self) -> "LiveTraceWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
