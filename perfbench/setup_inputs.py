"""Set up one workload's inputs in a process of its own.

Usage: ``python setup_inputs.py WORKLOAD SEED DIR REPEATS [RECORDS]``

Runs the program calls a workload makes before its timed loop
(``build_case_study``, ``CaseStudySystem.profile``, ``Capture.save`` and
``write_capture_stream``) REPEATS times, timing each call, and writes
``DIR/manifest.json``: the set-up time of each repeat, the time of each
call, what the program produced (record counts, simulated time, kstack
desyncs, SHA-256 of each capture file) and the oracle counts of the
benchmark's own generated stream.  Generating inputs is not timed.

Every repeat must produce byte-identical files and identical simulation
counts; any drift is listed under ``errors``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
from typing import Any, Callable, Dict, List

#: ``repro capture`` imports its CLI module before it builds the kernel,
#: and the import order decides the kernel's tag numbering.  Import it
#: first so the captures made here match the CLI's byte for byte.
import repro.__main__  # noqa: F401
from repro.system import build_case_study

PAPER_CASES = (("network", 28, 32), ("forkexec", 30, 40), ("nfs", 28, 32))
CORPUS_SIDES = (("baseline", True), ("candidate", False))


class Clock:
    """Times the program calls of one set-up repeat."""

    def __init__(self, calls: Dict[str, List[float]]) -> None:
        self.calls = calls
        self.total = 0.0

    def __call__(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        self.calls.setdefault(name, []).append(elapsed)
        self.total += elapsed
        return result


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def profile(clock: Clock, workload: str, packets: int, label: str, cost=None):
    """Build a fresh rig and capture one registry workload, as the CLI does."""
    system = clock("build", build_case_study, cost=cost)
    from repro.workloads import get_workload  # after the build, as the CLI

    spec = get_workload(workload)
    capture = clock(
        "simulate", system.profile,
        lambda: spec.run_packets(system, packets), label=label,
    )
    facts = {
        "events": len(capture),
        "overflowed": capture.overflowed,
        "simulated_us": system.machine.clock.now_us,
        "kstack_desync": system.kernel.stats.get("kstack_desync", 0),
    }
    return system, capture, facts


def paper_cli(clock: Clock, rng: random.Random, out: str, state: dict) -> dict:
    cases = []
    for workload, low, high in PAPER_CASES:
        packets = rng.randint(low, high)
        system, capture, facts = profile(
            clock, workload, packets, f"cli: {workload}"
        )
        path = os.path.join(out, f"ref-{workload}.mpf")
        clock("encode", capture.save, path)
        cases.append(dict(workload=workload, packets=packets, sha256=sha256(path), **facts))
    return {"cases": cases}


def long_stream(clock: Clock, rng: random.Random, out: str, state: dict) -> dict:
    from repro.profiler.ram import RawRecord
    from repro.profiler.upload import write_capture_stream

    import streamgen

    system = clock("build", build_case_study)
    tags_path = os.path.join(out, "stream.tags")
    clock("names", system.names.write, tags_path)
    if "stream" not in state:  # generated once, written every repeat
        with open(tags_path) as handle:
            entries = streamgen.parse_names(handle.read())
        state["stream"] = streamgen.generate(
            entries, rng.randrange(1 << 32), state["records"]
        )
    tags, times, oracle = state["stream"]
    path = os.path.join(out, "stream.mpf")
    clock(
        "encode", write_capture_stream, path, map(RawRecord, tags, times),
        label="long-stream", open_stream=False,
    )
    return {"sha256": sha256(path), "oracle": oracle.as_dict()}


def corpus_db(clock: Clock, rng: random.Random, out: str, state: dict) -> dict:
    from repro.sim.cpu import CostModel

    root = os.path.join(out, "corpus")
    os.makedirs(root, exist_ok=True)
    files = []
    records = 0
    for side, asm_cksum in CORPUS_SIDES:
        # Distinct sizes per side, so no two captures share a fingerprint.
        for index, packets in enumerate(rng.sample(range(16, 56), 32)):
            system, capture, facts = profile(
                clock, "network", packets, side,
                cost=CostModel(asm_cksum=asm_cksum),
            )
            path = os.path.join(root, f"{side}-{index:02d}.mpf")
            clock("encode", capture.save, path)
            files.append(dict(side=side, packets=packets, sha256=sha256(path), **facts))
            records += facts["events"]
    clock("names", system.names.write, os.path.join(out, "corpus.tags"))
    return {"files": files, "records": records}


SETUPS = {"paper-cli": paper_cli, "long-stream": long_stream, "corpus-db": corpus_db}


def main() -> int:
    workload, seed, out, repeats, *rest = sys.argv[1:]
    setup = SETUPS[workload]
    state = {"records": int(rest[0]) if rest else 0}
    calls: Dict[str, List[float]] = {}
    setup_s: List[float] = []
    produced: List[dict] = []
    for _ in range(int(repeats)):
        clock = Clock(calls)
        produced.append(setup(clock, random.Random(f"{workload}:{seed}"), out, state))
        setup_s.append(clock.total)
    errors = [
        f"set-up repeat {i} produced different files or counts than repeat 0"
        for i, facts in enumerate(produced) if facts != produced[0]
    ]
    manifest = dict(produced[0], setup_s=setup_s, calls=calls, errors=errors)
    with open(os.path.join(out, "manifest.json"), "w") as handle:
        json.dump(manifest, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
