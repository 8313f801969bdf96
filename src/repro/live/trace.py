"""Incremental Chrome-trace track of the live wire stream.

The batch ``repro trace export`` renders a whole reconstructed capture
into one Perfetto document after the fact.  :class:`LiveTraceWriter` is
its streaming sibling: it appends ``trace_event`` JSON *while the stream
flows*, so the trace file can be loaded (Chrome and Perfetto tolerate an
unterminated event array) before the capture finishes.

Per wire batch it decodes the columns with the PR 6 columnar engine —
carrying the timer-unwrap state across batches — and emits one
``ph="X"`` complete event per entry/exit pair matched so far by
:func:`repro.analysis.columnar.pair_entry_exits`, with a
:class:`~repro.analysis.columnar.PairingCarry` holding frames open
across batch boundaries, so a call that spans three wire chunks still
renders as one slice.  This is deliberately the cheap within-process
pairing: calls still open when the producer dies simply never render,
and the authoritative reconstruction stays the batch exporter's job.
Each closed rolling window adds counter samples (events/sec, busy%) on
a gauge track.

A ``max_slices`` cap bounds the file for long sessions; once reached,
only the counter track keeps appending and the drop is recorded in the
trailer metadata event written by :meth:`close`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.analysis.columnar import (
    PairingCarry,
    build_tag_map,
    decode_columns,
    pair_entry_exits,
)
from repro.instrument.namefile import NameTable
from repro.profiler.upload import RecordColumns
from repro.telemetry.export import chrome_complete_event, chrome_counter_event

#: Default cap on emitted call slices (the counter track is unbounded).
DEFAULT_MAX_SLICES = 100_000


class LiveTraceWriter:
    """Append a Chrome ``trace_event`` array batch by batch."""

    def __init__(
        self,
        path: Union[str, Path],
        names: NameTable,
        *,
        width_bits: int = 24,
        max_slices: int = DEFAULT_MAX_SLICES,
        label: str = "",
    ) -> None:
        self.path = Path(path)
        self.max_slices = max_slices
        self.slices = 0
        self.dropped = 0
        self.closed = False
        self.width_bits = width_bits
        self._tag_map = build_tag_map(names)
        self._names = names
        # Cross-batch decode carry: previous raw snapshot, absolute time,
        # global record index.
        self._previous: Optional[int] = None
        self._base = 0
        self._index = 0
        self._carry = PairingCarry()
        self._file = self.path.open("w")
        self._file.write("[\n")
        self._first = True
        self._emit(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": f"repro live{': ' + label if label else ''}"},
            }
        )
        self._emit(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": "calls (within-stream pairing)"},
            }
        )

    def _emit(self, event: dict) -> None:
        prefix = " " if self._first else ",\n "
        self._first = False
        self._file.write(prefix + json.dumps(event, sort_keys=True))

    def feed(self, columns: RecordColumns) -> int:
        """Decode one wire batch and append its matched call slices.

        Returns how many slices were written (0 once the cap is hit —
        the decode itself still runs to keep the unwrap carry exact).
        """
        if self.closed:
            raise ValueError("live trace writer is closed")
        n = len(columns)
        if n == 0:
            return 0
        events = decode_columns(
            columns,
            self._names,
            self.width_bits,
            start_index=self._index,
            time_base_us=self._base,
            previous=self._previous,
            tag_map=self._tag_map,
        )
        self._index += n
        self._base = events.times[-1]
        self._previous = columns.times[n - 1]
        written = 0
        # The carry must see every batch even past the cap, or a frame
        # opened before the cap would close against the wrong entry.
        spans = pair_entry_exits(events, self._carry)
        if self.slices < self.max_slices:
            times = events.times
            for span in spans:
                if self.slices >= self.max_slices:
                    break
                # The entry may sit batches back; the exit is always in
                # this batch, so anchor on it.
                exit_time = times[span.exit_index - events.start_index]
                self._emit(
                    chrome_complete_event(
                        span.name,
                        exit_time - span.elapsed_us,
                        span.elapsed_us,
                        cat="live",
                    )
                )
                self.slices += 1
                written += 1
        elif spans:
            self.dropped += 1
        self._file.flush()
        return written

    def window(self, window: "LiveWindow") -> None:  # noqa: F821 - duck-typed
        """Append the counter samples of one closed rolling window."""
        if self.closed:
            return
        cumulative = window.cumulative
        self._emit(
            chrome_counter_event(
                "live.events_per_sec",
                cumulative.wall_us,
                {"events_per_sec": round(window.events_per_sec, 3)},
            )
        )
        self._emit(
            chrome_counter_event(
                "live.busy_pct",
                cumulative.wall_us,
                {"busy": round(100.0 * window.window.busy_fraction, 3)},
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
                "pid": 1,
                "tid": 0,
                "args": {
                    "records": self._index,
                    "slices": self.slices,
                    "batches_past_cap": self.dropped,
                    "open_frames": len(self._carry.stack),
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
