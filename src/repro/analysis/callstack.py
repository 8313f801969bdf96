"""Call-tree reconstruction with context-switch splitting.

"Identification of function entry and exit points allow a code path trace
to be constructed ... when the target being profiled is a kernel this
model is inadequate ... context switches occur to change the control flow
to a different process."  The rules implemented here are the paper's:

* entries and exits are matched to build nested call frames;
* a function tagged ``!`` (``swtch``) splits the stream: "The time between
  the exit of a call to swtch and the entry to the next call of swtch is
  analysed as a contiguous block of processor activity";
* "The time in swtch itself is counted as CPU idle time, except when
  device interrupts occur" — interrupt handlers nest *inside* the open
  ``swtch`` frame and keep their own time, so idle is exactly the
  ``swtch`` frames' self time;
* a process's open frames are *suspended* while it is switched out: their
  clocks stop, so a function that sleeps is charged for its own activity
  (including any interrupts that preempt it) but not for other processes'
  runtime.

The raw stream does not identify processes, so switch-in resolution is a
reconstruction heuristic (documented on
:meth:`repro.analysis.summary.SummaryAccumulator._resolve`): resume the
suspended stack whose top frame matches the next function exit, prefer
empty (user-mode) stacks when the block opens with an entry, and create a
fresh stack when nothing matches (a process seen for the first time).
Truncation at both ends of the capture window is tolerated with synthetic
frames, and every repair is recorded as an :class:`Anomaly`.

These rules have one implementation, the fold's state machine
(:class:`~repro.analysis.summary.SummaryAccumulator`).  The tree reports
get their forest from :class:`CallTreeRecorder`, which runs that same
state machine and keeps a :class:`CallNode` per call.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Optional

from repro.analysis.columnar import CODE_ENTRY, CODE_EXIT, CODE_UNKNOWN
from repro.analysis.summary import Anomaly, SummaryAccumulator, _ProcStack
from repro.instrument.namefile import NameTable
from repro.profiler.capture import Capture


@dataclasses.dataclass
class CallNode:
    """One call frame in the reconstructed tree."""

    name: str
    enter_us: int
    proc: str
    is_swtch: bool = False
    #: Frame synthesised to absorb an unmatched exit (capture truncation).
    synthetic: bool = False
    #: Exit never seen (open at end of capture); closed administratively.
    truncated: bool = False
    exit_us: Optional[int] = None
    self_us: int = 0
    depth: int = 0
    children: list["CallNode"] = dataclasses.field(default_factory=list)
    inline_marks: list[tuple[int, str]] = dataclasses.field(default_factory=list)
    _inclusive_us: Optional[int] = dataclasses.field(default=None, repr=False)

    @property
    def closed(self) -> bool:
        return self.exit_us is not None

    @property
    def inclusive_us(self) -> int:
        """Self time plus all child subtrees (cached once closed)."""
        if self._inclusive_us is None:
            self._inclusive_us = self.self_us + sum(
                child.inclusive_us for child in self.children
            )
        return self._inclusive_us

    def walk(self) -> Iterable["CallNode"]:
        """This node and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclasses.dataclass
class CallTreeAnalysis:
    """The reconstructed forest plus the paper's headline CPU accounting."""

    roots: list[CallNode]
    anomalies: list[Anomaly]
    wall_us: int
    idle_us: int
    unattributed_us: int
    event_count: int
    context_switches: int
    procs: tuple[str, ...]
    #: Inline marks that fired outside any open frame (user-mode points).
    orphan_marks: list[tuple[int, str]] = dataclasses.field(default_factory=list)

    @property
    def busy_us(self) -> int:
        """Accumulated run time: everything that is not idle."""
        return self.wall_us - self.idle_us

    @property
    def busy_fraction(self) -> float:
        """CPU utilisation over the capture window."""
        if self.wall_us == 0:
            return 0.0
        return self.busy_us / self.wall_us

    def nodes(self) -> Iterable[CallNode]:
        """Every frame in the forest."""
        for root in self.roots:
            yield from root.walk()

    def nodes_named(self, name: str) -> list[CallNode]:
        """Every frame for function *name*."""
        return [node for node in self.nodes() if node.name == name]


class CallTreeRecorder(SummaryAccumulator):
    """The fold's state machine, also recording the call forest.

    Each frame carries its :class:`CallNode` as a fifth element.  Only the
    entry and matched-exit fast paths and the inline marks are
    overridden; every repair (missed exits, synthetic frames, switch-in
    resolution, window truncation) is the base class's, which reports
    frames it closes or invents through :meth:`_close_frame` and
    :meth:`_synthetic_frame`.  The summary the base class folds stays
    available (:meth:`summary`).

    With a *sink* the forest is streamed instead of kept: each node goes
    to ``sink.node(node, enclosing)`` the moment it closes — *enclosing*
    is the list of frames still open around it, outermost first, each
    frame's name at index 0 — and each inline mark outside any frame to
    ``sink.mark(time_us, name, proc)``.  Nodes then carry no children,
    and memory stays bounded by the open frames, as the plain fold's
    does.  :meth:`analysis` reports an empty forest.
    """

    def __init__(
        self, names: NameTable, *, width_bits: int = 24, sink: Optional[Any] = None
    ) -> None:
        super().__init__(names, width_bits=width_bits)
        self._sink = sink
        self._roots: list[CallNode] = []
        self._orphan_marks: list[tuple[int, str]] = []

    def _place(self, node: CallNode, frames: list[list]) -> None:
        if self._sink is not None:
            return
        if frames:
            frames[-1][4].children.append(node)
        else:
            self._roots.append(node)

    def _apply(
        self, code: int, name: str, is_cs: bool, t: int, index: int, tag: int
    ) -> None:
        stack = self._current
        frames = stack.frames
        dt = t - self._prev_t
        self._prev_t = t
        if frames:
            frames[-1][1] += dt
        else:
            self._unattributed_us += dt

        if code == CODE_ENTRY:
            node = CallNode(name, t, stack.proc, is_swtch=is_cs, depth=len(frames))
            self._place(node, frames)
            frames.append([name, 0, 0, is_cs, node])
            return
        if code == CODE_EXIT:
            if not is_cs and frames and frames[-1][0] == name:
                self._close_frame(stack, t)
            else:
                self._slow_exit(name, is_cs, t, index)
            return
        if code == CODE_UNKNOWN:
            self._unknown_tag(index, t, tag)
        # A mark with no open frame is a user-mode point between calls.
        if frames:
            frames[-1][4].inline_marks.append((t, name))
        elif self._sink is not None:
            self._sink.mark(t, name, stack.proc)
        else:
            self._orphan_marks.append((t, name))

    def _close_frame(self, stack: _ProcStack, t: int, truncated: bool = False) -> list:
        frame = super()._close_frame(stack, t, truncated)
        node = frame[4]
        node.exit_us = t
        node.self_us = frame[1]
        node.truncated = truncated
        if self._sink is not None:
            self._sink.node(node, stack.frames)
        return frame

    def _synthetic_frame(self, name: str, is_cs: bool, t: int) -> None:
        super()._synthetic_frame(name, is_cs, t)
        stack = self._current
        node = CallNode(
            name,
            stack.block_start_us,
            stack.proc,
            is_swtch=is_cs,
            synthetic=True,
            exit_us=t,
            # Synthetic swtch frames report depth 0 wherever they sit;
            # exported traces carry that depth.
            depth=0 if is_cs else len(stack.frames),
        )
        self._place(node, stack.frames)
        if self._sink is not None:
            self._sink.node(node, stack.frames)

    def analysis(self) -> CallTreeAnalysis:
        """Seal, and return the recorded forest with its CPU accounting."""
        self.close()
        return CallTreeAnalysis(
            roots=self._roots,
            anomalies=self.anomalies,
            wall_us=self._wall_us,
            idle_us=self._idle_us,
            unattributed_us=self._unattributed_us,
            event_count=self._event_count,
            context_switches=self._context_switches,
            procs=tuple(f"P{i}" for i in range(self._procs)),
            orphan_marks=self._orphan_marks,
        )


def analyze_capture(capture: Capture) -> CallTreeAnalysis:
    """Reconstruct *capture*'s call forest in one step."""
    recorder = CallTreeRecorder(capture.names, width_bits=capture.counter_width_bits)
    return recorder.feed_records(capture.records).analysis()
