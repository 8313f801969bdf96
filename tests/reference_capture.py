"""The reference capture engine: the oracle the capture-parity suites trust.

The shipped simulator's capture hot path is optimized (bucketed
interrupt queue with a cached per-ipl horizon, bus decode cache,
pre-resolved Profiler tap, fused cost charging).  This module keeps the
pre-optimization engine as an executable specification, never on a
shipped code path:

* :class:`ReferenceInterruptQueue` — the single-heap interrupt queue;
* :class:`ReferenceMachine` — a :class:`~repro.sim.machine.Machine` on
  that queue with linear bus decode;
* :class:`ReferenceKernel` — a :class:`~repro.kernel.kernel.Kernel` that
  charges costs step by step (no fast path);
* :func:`build_reference_case_study` — the whole case-study rig of
  :func:`repro.system.build_case_study` on that engine.

``tests/test_capture_hotpath_parity.py`` and
``benchmarks/bench_capture_hotpath.py`` run both engines side by side
and byte-compare the captured event streams.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional
from unittest import mock

from repro import system
from repro.kernel.kernel import Kernel
from repro.sim.engine import InterruptLine, PendingInterrupt, TimeError
from repro.sim.machine import Machine


class ReferenceInterruptQueue:
    """The original single-heap interrupt queue, kept as executable spec.

    :class:`repro.sim.engine.InterruptQueue` must stay observably
    identical to this class (same pops, same times, same tie-breaks).
    Do not optimize this class.
    """

    def __init__(self) -> None:
        self._heap: list[PendingInterrupt] = []
        self._seq = itertools.count()
        #: Count of interrupts ever posted, for statistics.
        self.posted = 0
        #: Count of interrupts ever delivered (popped), for statistics.
        self.popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def post(self, line: InterruptLine, due_ns: int) -> PendingInterrupt:
        """Schedule *line* to assert at absolute time *due_ns*."""
        if due_ns < 0:
            raise TimeError(f"interrupt due in negative time {due_ns}")
        pending = PendingInterrupt(due_ns=due_ns, seq=next(self._seq), line=line)
        heapq.heappush(self._heap, pending)
        self.posted += 1
        return pending

    def next_due_ns(self, current_ipl: int = 0) -> Optional[int]:
        """Earliest due time among deliverable (unmasked) interrupts."""
        deliverable = [p.due_ns for p in self._heap if p.line.ipl > current_ipl]
        return min(deliverable) if deliverable else None

    def next_any_due_ns(self) -> Optional[int]:
        """Earliest due time regardless of masking (for idle-loop planning)."""
        return self._heap[0].due_ns if self._heap else None

    def pop_due(self, now_ns: int, current_ipl: int = 0) -> Optional[PendingInterrupt]:
        """Remove and return the earliest deliverable interrupt due by *now_ns*."""
        best_index: Optional[int] = None
        for index, pending in enumerate(self._heap):
            if pending.due_ns > now_ns:
                continue
            if pending.line.ipl <= current_ipl:
                continue
            if best_index is None or pending < self._heap[best_index]:
                best_index = index
        if best_index is None:
            return None
        pending = self._heap[best_index]
        # O(n) removal: the pending set is tiny (a handful of IRQs).
        self._heap[best_index] = self._heap[-1]
        self._heap.pop()
        heapq.heapify(self._heap)
        self.popped += 1
        return pending

    def cancel_line(self, line: InterruptLine) -> int:
        """Drop every pending entry for *line*; return how many were dropped."""
        before = len(self._heap)
        self._heap = [p for p in self._heap if p.line is not line]
        heapq.heapify(self._heap)
        return before - len(self._heap)

    def pending_for(self, line: InterruptLine) -> int:
        """Number of queued entries for *line*."""
        return sum(1 for p in self._heap if p.line is line)


class ReferenceMachine(Machine):
    """A machine on the reference queue, decoding the bus linearly."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.interrupts = ReferenceInterruptQueue()
        self.bus.decode_cache = False


class ReferenceKernel(Kernel):
    """A kernel that charges every trigger step by step."""

    fastpath_enabled = False


def build_reference_case_study(**kwargs) -> system.CaseStudySystem:
    """:func:`repro.system.build_case_study` on the reference engine."""
    with mock.patch.object(system, "Machine", ReferenceMachine), \
            mock.patch.object(system, "Kernel", ReferenceKernel):
        return system.build_case_study(**kwargs)
