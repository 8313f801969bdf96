"""Seeded generator of one long MPF2 record stream, with its own oracle.

The stream is made of the kernel's real name/tag table (the name file
``repro capture --names`` writes), so every tag decodes.  While it
generates, the generator counts what a correct fold must report: the
events, the calls per function, the context switches, the capture window
and the idle time.  Those counts come from the generator's own model of
the run, never from the program under test.

The model is a round-robin scheduler over a few processes:

* a running process makes nested calls to random functions, up to a
  per-process depth limit;
* interrupts (``ISAINTR`` wrapping one or two handlers) arrive nested
  inside whatever frame is open, including the idle loop;
* a process goes to sleep through ``tsleep`` -> ``swtch``; the idle time
  inside ``swtch`` varies from tens of microseconds to tens of
  milliseconds, and the next process resumes at the ``swtch`` exit by
  returning from its own ``tsleep``;
* times are stored as 24-bit wrapped counter snapshots, and the run lasts
  long enough to wrap the counter many times.

Sleeping processes resume oldest first, and each resumed process unwinds
``tsleep`` before it can sleep again, so the fold's switch-in resolution
is unambiguous and the stream folds with no anomaly.  Every ``tsleep``
entry pairs with exactly one ``swtch`` exit, so the ``tsleep`` call count
in the printed summary equals the number of context switches.

Only the standard library is used, so the harness can run it in a process
that never imports the program.
"""

from __future__ import annotations

import dataclasses
import random
from array import array
from typing import Dict, List, Tuple

TIME_MASK = (1 << 24) - 1

#: Functions with a fixed role in the model; never drawn as plain calls.
SWTCH, SLEEP, INTR = "swtch", "tsleep", "ISAINTR"


@dataclasses.dataclass(frozen=True)
class NameEntry:
    name: str
    value: int
    context_switch: bool
    inline: bool


def parse_names(text: str) -> List[NameEntry]:
    """Parse name/tag file text (``name/value`` plus ``!`` or ``=``)."""
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition("/")
        context_switch = value.endswith("!")
        inline = value.endswith("=")
        entries.append(
            NameEntry(name, int(value.rstrip("!=")), context_switch, inline)
        )
    return entries


@dataclasses.dataclass
class StreamOracle:
    """What a correct fold of the generated stream must report."""

    events: int = 0
    wall_us: int = 0
    idle_us: int = 0
    context_switches: int = 0
    interrupts: int = 0
    wraps: int = 0
    max_depth: int = 0
    calls: Dict[str, int] = dataclasses.field(default_factory=dict)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class _Emitter:
    """Appends records and keeps the time and oracle bookkeeping."""

    def __init__(self, entries: List[NameEntry], start_us: int) -> None:
        self.entry_tag = {e.name: e.value for e in entries if not e.inline}
        self.tags = array("H")
        self.times = array("I")
        self.t = start_us
        self.first_t = start_us
        self.oracle = StreamOracle()

    def emit(self, tag: int, gap_us: int) -> None:
        before = self.t
        self.t += gap_us
        if not self.tags:
            self.first_t = self.t
        elif (before >> 24) != (self.t >> 24):
            self.oracle.wraps += 1
        self.tags.append(tag)
        self.times.append(self.t & TIME_MASK)

    def enter(self, name: str, gap_us: int) -> None:
        self.emit(self.entry_tag[name], gap_us)
        if name != SWTCH:
            calls = self.oracle.calls
            calls[name] = calls.get(name, 0) + 1

    def leave(self, name: str, gap_us: int) -> None:
        self.emit(self.entry_tag[name] + 1, gap_us)


def generate(
    entries: List[NameEntry], seed: int, n_records: int
) -> Tuple[array, array, StreamOracle]:
    """Return ``(tags, times, oracle)`` for about *n_records* records.

    The same (*entries*, *seed*, *n_records*) always gives the same
    stream.  The stream ends with a running process, never inside the idle
    loop, and may overshoot *n_records* by one interrupt or call burst.
    """
    rng = random.Random(seed)
    names = {e.name for e in entries}
    for role in (SWTCH, SLEEP, INTR):
        if role not in names:
            raise ValueError(f"name table has no {role!r} entry")
    handlers = sorted(
        e.name for e in entries
        if not e.inline and e.name != INTR and (
            e.name.endswith("intr") or e.name in ("hardclock", "softclock")
        )
    )
    roles = {SWTCH, SLEEP, INTR, *handlers}
    pool = sorted(
        e.name for e in entries
        if not e.inline and not e.context_switch and e.name not in roles
    )
    inline_tags = [e.value for e in entries if e.inline]
    if not handlers or not pool:
        raise ValueError("name table has no interrupt handlers or no functions")

    out = _Emitter(entries, start_us=rng.randrange(TIME_MASK + 1))
    oracle = out.oracle
    rand, randint, choice = rng.random, rng.randint, rng.choice

    def interrupt(frames_open: int, gap_us: int) -> int:
        """One interrupt nested in the open frame, *gap_us* after the
        previous event; returns the time from its entry to its exit."""
        out.enter(INTR, gap_us)
        entered = out.t
        for _ in range(randint(1, 2)):
            handler = choice(handlers)
            out.enter(handler, randint(2, 12))
            if rand() < 0.5:
                callee = choice(pool)
                out.enter(callee, randint(1, 20))
                out.leave(callee, randint(1, 60))
            out.leave(handler, randint(2, 40))
        out.leave(INTR, randint(1, 8))
        oracle.interrupts += 1
        oracle.max_depth = max(oracle.max_depth, frames_open + 3)
        return out.t - entered

    nproc = randint(3, 8)
    # Each process: [stack of open frames, depth limit, started?]
    procs = [[[], randint(3, 14), False] for _ in range(nproc)]
    sleeping: List[int] = []
    current = 0
    procs[0][2] = True
    while True:
        stack, depth_limit, _ = procs[current]
        if stack:
            # Resumed, not new: unwind tsleep first, so the resolver finds
            # this process by the frame it slept in.
            out.leave(stack.pop(), randint(1, 25))
        # Scheduling block: 10 .. ~3000 events, log-uniform.
        budget = int(10 * (300 ** rand()))
        for _ in range(budget):
            roll = rand()
            if roll < 0.04:
                interrupt(len(stack), randint(1, 30))
            elif roll < 0.05 and inline_tags:
                out.emit(choice(inline_tags), randint(1, 15))
            elif stack and (len(stack) >= depth_limit or roll < 0.52):
                out.leave(stack.pop(), randint(1, 80))
            else:
                name = choice(pool)
                out.enter(name, randint(1, 40))
                stack.append(name)
                if len(stack) > oracle.max_depth:
                    oracle.max_depth = len(stack)
        if len(out.tags) >= n_records:
            break
        # Sleep: tsleep -> swtch, idle (with interrupts), swtch exit.  The
        # swtch frame's own time is the idle time: its span less the
        # interrupts nested in it.
        out.enter(SLEEP, randint(2, 20))
        stack.append(SLEEP)
        out.enter(SWTCH, randint(2, 10))
        idle_from = out.t
        nested = 0
        for _ in range(randint(0, 3)):
            nested += interrupt(len(stack) + 1, int(10 * (1000 ** rand())))
        out.leave(SWTCH, int(20 * (2500 ** rand())))
        oracle.idle_us += out.t - idle_from - nested
        oracle.context_switches += 1
        sleeping.append(current)
        unstarted = [i for i, p in enumerate(procs) if not p[2]]
        if unstarted and rand() < 0.5:
            current = unstarted[0]
            procs[current][2] = True
        else:
            current = sleeping.pop(0)
    oracle.events = len(out.tags)
    oracle.wall_us = out.t - out.first_t
    return out.tags, out.times, oracle
