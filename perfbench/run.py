"""The capture -> decode -> fold -> report benchmark.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-cli --seed 1 --seconds 15 --trace 0

Each run sets up the workload's inputs from the seed in a child process
(timed as ``setup_s``), then drives the ``repro`` CLI in a closed loop for
``--seconds``: one client, one ``repro`` process at a time, the next one
spawned only after the previous one exits.  Every output is checked; a
non-zero exit, a traceback or a failed check counts the op as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, plain and traced (``traced_cli.py``), checks that both print the
same bytes, and reports the self time of each layer, the time no layer
covers, and the tracing overhead.

This process never imports the program and never holds generated data,
so the peak RSS read from each child is the child's own.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import stats
from tracer import load_trace, reduce_op

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-cli", "long-stream", "corpus-db")
#: Records in the long-stream capture: enough that the fold is >= 90% of
#: the ``analyze --stream`` wall time.
STREAM_RECORDS = 5_000_000
#: Set-up repeats per run (``setup_s`` is their median).  paper-cli's
#: set-up takes ~0.2 s, so more repeats cost little and steady its median.
SETUP_REPEATS = {"paper-cli": 9, "long-stream": 3, "corpus-db": 5}
STARTUP_PROBES = 5
#: A lean ``python -c pass`` child reads ~14 MB; more means the spawning
#: process leaked its own pages into the child's peak RSS.
LEAN_CHILD_MAX_MB = 24.0
#: Time a run may use beyond ``--seconds`` (set-up, the last round, the
#: start-up probes) before every child it still runs is killed.
RUN_SLACK_S = 150.0
GPROF_ENTRY = re.compile(r"^\[\s*[\d.]+%\]\s+\d+ us\s+\d+ calls", re.M)
SIM_COUNTS = ("events", "simulated_us", "kstack_desync")
SUMMARY_ROW = re.compile(
    r"^\s*(\d+)\s+(-?\d+)\s+(\d+)\s+\((\d+)/(\d+)/(\d+)\)\s+\S+%\s+\S+%\s+(\S+)$"
)


class Child:
    """One finished child process, as this process observed it."""

    def __init__(self, rc: int, spawned_ns: int, exited_ns: int, rss_kb: int,
                 stdout: bytes, stderr: bytes) -> None:
        self.rc, self.rss_kb = rc, rss_kb
        self.spawned_ns, self.exited_ns = spawned_ns, exited_ns
        self.stdout, self.stderr = stdout, stderr

    @property
    def wall_s(self) -> float:
        return (self.exited_ns - self.spawned_ns) / 1e9

    @property
    def text(self) -> str:
        return self.stdout.decode("utf-8", "replace")


class Runner:
    """Runs children through ``spawner.py``, a process small enough that
    each child's peak RSS is its own."""

    def __init__(self, root: str, workdir: str, deadline: float) -> None:
        self.root, self.workdir, self.deadline = root, workdir, deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        for var in ("TMPDIR", "SQLITE_TMPDIR"):
            env[var] = workdir
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._send(env)
        self.count = 0

    def _send(self, message: dict) -> None:
        self.spawner.stdin.write(json.dumps(message) + "\n")
        self.spawner.stdin.flush()

    def spawn(self, argv: List[str]) -> Child:
        self.count += 1
        out = os.path.join(self.workdir, f"child-{self.count}.out")
        err = os.path.join(self.workdir, f"child-{self.count}.err")
        self._send({"argv": argv, "cwd": self.root, "stdout": out, "stderr": err,
                    "timeout_s": self.deadline - time.monotonic()})
        reply = json.loads(self.spawner.stdout.readline())
        with open(out, "rb") as fout, open(err, "rb") as ferr:
            stdout, stderr = fout.read(), ferr.read()
        os.unlink(out)
        os.unlink(err)
        return Child(reply["rc"], reply["spawned_ns"], reply["exited_ns"],
                     reply["rss_kb"], stdout, stderr)

    def python(self, *args: str) -> Child:
        return self.spawn([sys.executable, *args])

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()


# -- output checks -------------------------------------------------------------


def summary_block(text: str) -> str:
    """The Figure 3 summary a ``repro`` report printed: its header lines
    and function rows, without the CLI's preamble and footers."""
    lines = text.splitlines()
    for start, line in enumerate(lines):
        if line.startswith("Elapsed time = "):
            break
    else:
        return ""
    end = start
    while end < len(lines) and lines[end].strip() and not lines[end].startswith(
        "kstack desyncs"
    ):
        end += 1
    return "\n".join(lines[start:end])


def parse_summary(block: str) -> Dict[str, Any]:
    """Events, wall, idle and per-function calls from a summary block."""
    head = re.match(
        r"Elapsed time = (\d+) sec (\d+) us \((\d+) tags\)\n.*\n"
        r"Idle time = (\d+) sec (\d+) us", block,
    )
    if head is None:
        return {}
    sec, us, events, idle_sec, idle_us = map(int, head.groups())
    calls = {}
    for line in block.splitlines()[5:]:
        row = SUMMARY_ROW.match(line)
        if row:
            calls[row.group(7)] = int(row.group(3))
    return {"events": events, "wall_us": sec * 1_000_000 + us,
            "idle_us": idle_sec * 1_000_000 + idle_us, "calls": calls}


def sha256_file(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return ""


class Op:
    """One CLI invocation of a workload, with its output oracle.

    ``check`` returns the reason the output is wrong, or "" when it is
    right; ``check_spans`` does the same for a traced run's spans.
    ``records`` is how many capture records the op handles.
    """

    def __init__(self, name: str, case: str, args: List[str], records: int,
                 check: Callable[[Child], str], expect_rc: int = 0,
                 prepare: Optional[Callable[[], None]] = None,
                 check_spans: Optional[Callable[[List[dict]], str]] = None) -> None:
        self.name, self.case, self.args, self.records = name, case, args, records
        self.check, self.expect_rc, self.prepare = check, expect_rc, prepare
        self.check_spans = check_spans


def verdict(op: Op, child: Child) -> str:
    if child.rc != op.expect_rc:
        return f"exit {child.rc}, expected {op.expect_rc}"
    if b"Traceback (most recent call last)" in child.stderr:
        return "traceback on stderr"
    return op.check(child)


# -- workloads -----------------------------------------------------------------


def paper_cli_rounds(manifest: dict, workdir: str) -> Callable[[int], List[Op]]:
    """Per case: capture, analyze (summary), analyze_tree, analyze_stream."""
    seen: Dict[Tuple[str, str], str] = {}

    def round_ops(_: int) -> List[Op]:
        ops = []
        for case in manifest["cases"]:
            w, n = case["workload"], case["events"]
            mpf = os.path.join(workdir, f"{w}.mpf")
            tags = os.path.join(workdir, f"{w}.tags")

            def same(key: Tuple[str, str], value: str) -> str:
                first = seen.setdefault(key, value)
                return "" if value == first else f"{key[0]} output changed"

            def capture(child: Child, case=case, mpf=mpf, n=n) -> str:
                text = child.text
                if f"captured {n} events" not in text:
                    return f"expected {n} events"
                if sha256_file(mpf) != case["sha256"]:
                    return "capture file differs from the set-up capture"
                if f"kstack desyncs = {case['kstack_desync']}\n" not in text:
                    return "kstack desync count differs from set-up"
                block = summary_block(text)
                return same(("summary", case["workload"]), block) if block else "no summary"

            def simulated(spans: List[dict], case=case) -> str:
                """The traced capture simulates exactly what set-up did."""
                for span in spans:
                    if span["name"] == "sim.simulate":
                        got = {k: span["attrs"].get(k) for k in SIM_COUNTS}
                        if got != {k: case[k] for k in SIM_COUNTS}:
                            return f"simulated {got}, unlike set-up"
                        return ""
                return "no sim.simulate span"

            def analyze(child: Child, w=w, n=n) -> str:
                if f"loaded {n} events" not in child.text:
                    return f"expected {n} events loaded"
                return same(("summary", w), summary_block(child.text))

            def tree(child: Child, w=w, n=n) -> str:
                text = child.text
                if f"loaded {n} events" not in text or " -> " not in text:
                    return "no code-path trace"
                if not GPROF_ENTRY.search(text):
                    return "no gprof entries"
                return same(("tree", w), hashlib.sha256(child.stdout).hexdigest())

            def stream(child: Child, w=w, n=n) -> str:
                if f"streamed {n} events" not in child.text:
                    return f"expected {n} events streamed"
                return same(("summary", w), summary_block(child.text))

            ops += [
                Op("capture", w, ["capture", "--workload", w, "--packets",
                                  str(case["packets"]), "--save", mpf,
                                  "--names", tags], n, capture,
                   prepare=lambda mpf=mpf: os.path.exists(mpf) and os.unlink(mpf),
                   check_spans=simulated),
                Op("analyze", w, ["analyze", mpf, "--names", tags], n, analyze),
                Op("analyze_tree", w, ["analyze", mpf, "--names", tags,
                                       "--report", "trace", "--report", "gprof"],
                   n, tree),
                Op("analyze_stream", w, ["analyze", mpf, "--names", tags,
                                         "--stream"], n, stream),
            ]
        return ops

    return round_ops


def long_stream_rounds(manifest: dict, workdir: str) -> Callable[[int], List[Op]]:
    """One ``analyze --stream`` of the long capture per round."""
    oracle = manifest["oracle"]
    mpf = os.path.join(workdir, "stream.mpf")
    tags = os.path.join(workdir, "stream.tags")

    def check(child: Child) -> str:
        got = parse_summary(summary_block(child.text))
        for key in ("events", "wall_us", "idle_us", "calls"):
            if got.get(key) != oracle[key]:
                return f"{key} differs from the generator's count"
        if got["calls"].get("tsleep") != oracle["context_switches"]:
            return "tsleep calls differ from the generator's context switches"
        return ""

    op = Op("stream", "long", ["analyze", mpf, "--names", tags, "--stream",
                               "--summary-limit", "100000"],
            oracle["events"], check)
    return lambda _: [op]


def corpus_db_rounds(manifest: dict, workdir: str) -> Callable[[int], List[Op]]:
    """ingest into a fresh db, reingest, diff the two labels, fleet ingest."""
    corpus = os.path.join(workdir, "corpus")
    tags = os.path.join(workdir, "corpus.tags")
    db = os.path.join(workdir, "corpus.db")
    captures, records = len(manifest["files"]), manifest["records"]
    seen: Dict[str, str] = {}

    def fresh_db() -> None:
        for suffix in ("", "-journal", "-wal", "-shm"):
            if os.path.exists(db + suffix):
                os.unlink(db + suffix)

    def ingest(added: int, duplicates: int) -> Callable[[Child], str]:
        line = (f"db ingest: {added} added, {duplicates} duplicate(s), "
                f"0 failed; {captures} run(s) in {db}")
        return lambda child: "" if line in child.text else f"expected '{line}'"

    def diff(child: Child) -> str:
        if "regression  in_cksum:" not in child.text:
            return "in_cksum is not named as a regression"
        return ""

    def fleet(child: Child) -> str:
        line = f"ingested={captures} salvaged=0 failed=0 records={records}"
        if line not in child.text:
            return f"expected '{line}'"
        first = seen.setdefault("fleet", child.text)
        return "" if child.text == first else "fleet output changed"

    ingest_args = ["db", "ingest", corpus, "--db", db, "--names", tags,
                   "--workload", "network"]
    ops = [
        Op("ingest", "corpus", ingest_args, records, ingest(captures, 0),
           prepare=fresh_db),
        Op("reingest", "corpus", ingest_args, 0, ingest(0, captures)),
        Op("diff", "corpus", ["db", "diff", "label:baseline", "label:candidate",
                              "--db", db], 0, diff, expect_rc=2),
        Op("fleet", "corpus", ["fleet", "ingest", corpus, "--names", tags,
                               "--jobs", "1"], records, fleet),
    ]
    return lambda _: ops


ROUNDS = {
    "paper-cli": paper_cli_rounds,
    "long-stream": long_stream_rounds,
    "corpus-db": corpus_db_rounds,
}


# -- the closed loop -----------------------------------------------------------


class Sample:
    """One executed op: wall time, peak RSS, records, and what went wrong."""

    def __init__(self, op: Op, child: Child, failure: str) -> None:
        self.op, self.case = op.name, op.case
        self.wall_s, self.rss_kb = child.wall_s, child.rss_kb
        self.records, self.failure = op.records, failure


def run_plain(runner: Runner, op: Op) -> Tuple[Sample, Child]:
    if op.prepare:
        op.prepare()
    child = runner.python("-m", "repro", *op.args)
    return Sample(op, child, verdict(op, child)), child


def run_traced(runner: Runner, op: Op, index: int) -> Tuple[Sample, Child, dict]:
    if op.prepare:
        op.prepare()
    spans_path = os.path.join(runner.workdir, f"spans-{index}.json")
    child = runner.python(os.path.join(HERE, "traced_cli.py"), spans_path,
                          op.name, "--", *op.args)
    failure = verdict(op, child)
    try:
        trace = load_trace(spans_path)
    except (OSError, ValueError, KeyError) as exc:
        trace = {"spans": [], "op": op.name, "first_ns": child.spawned_ns}
        failure = failure or f"no spans written: {exc}"
    return Sample(op, child, failure), child, trace


def closed_loop(runner: Runner, rounds: Callable[[int], List[Op]],
                seconds: float, traced: bool) -> Dict[str, Any]:
    """Run whole rounds until *seconds* have passed."""
    samples: List[Sample] = []
    traced_ops: List[Dict[str, Any]] = []
    plain_wall = traced_wall = 0.0
    started = time.monotonic()
    round_no = 0
    while time.monotonic() - started < seconds or round_no == 0:
        for op in rounds(round_no):
            if not traced:
                samples.append(run_plain(runner, op)[0])
                continue
            # Plain and traced back to back, alternating which goes first.
            order = (0, 1) if round_no % 2 == 0 else (1, 0)
            results: Dict[int, Any] = {}
            for which in order:
                results[which] = (run_plain(runner, op) if which == 0 else
                                  run_traced(runner, op, len(traced_ops)))
            (plain, plain_child), (sample, child, trace) = results[0], results[1]
            self_ns, other_ns, spans = reduce_op(trace, child.spawned_ns,
                                                 child.exited_ns)
            if not sample.failure and child.stdout != plain_child.stdout:
                sample.failure = "traced output differs from the plain run"
            if not sample.failure and op.check_spans:
                sample.failure = op.check_spans(spans)
            samples += [plain, sample]
            plain_wall += plain.wall_s
            traced_wall += sample.wall_s
            traced_ops.append({"op": op.name, "case": op.case,
                               "wall_s": sample.wall_s, "self_ns": self_ns,
                               "other_ns": other_ns, "spans": spans})
        round_no += 1
    return {"samples": samples, "traced": traced_ops, "rounds": round_no,
            "plain_wall_s": plain_wall, "traced_wall_s": traced_wall}


# -- metrics -------------------------------------------------------------------


def end_to_end(manifest: dict, loop: dict) -> Dict[str, float]:
    """The gated metrics."""
    samples = loop["samples"]
    walls: Dict[Tuple[str, str], List[float]] = {}
    records: Dict[Tuple[str, str], int] = {}
    for s in samples:
        walls.setdefault((s.op, s.case), []).append(s.wall_s)
        records[(s.op, s.case)] = s.records
    medians = {key: statistics.median(v) for key, v in walls.items()}
    return {
        "setup_s": statistics.median(manifest["setup_s"]),
        "op_p50_s": stats.geomean(list(medians.values())),
        # One op of each class at its median time: a typical round.
        "records_per_s": sum(records.values()) / sum(medians.values()),
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024.0,
    }


def workload_report(workload: str, manifest: dict, loop: dict) -> List[str]:
    """The workload's own end-to-end metrics, one line each, by name."""
    samples = loop["samples"]
    lines = []

    def timing(name: str, op: str, with_tail: bool) -> None:
        values = [s.wall_s for s in samples if s.op == op]
        if not values:
            return
        lines.append(f"{name:<28} {statistics.median(values):12.4f} s   (median of "
                     f"{len(values)}, min {min(values):.4f}, "
                     f"IQR {100 * stats.iqr_frac(values):.1f}%)")
        if with_tail:
            tail = stats.tail(values)
            tail_name = name.replace("_p50_s", "_tail_s")
            if tail is None:
                lines.append(f"{tail_name:<28} {'n/a':>12}     "
                             f"({len(values)} samples; a tail needs 11)")
            else:
                lines.append(
                    f"{tail_name:<28} {tail['value']:12.4f} s   (p{tail['percentile']:.0f}"
                    f" of {tail['samples']}, {tail['beyond']} beyond)")

    def rate(name: str, op: str, per: float, unit: str) -> None:
        chosen = [s for s in samples if s.op == op]
        if chosen:
            total = sum(s.wall_s for s in chosen)
            lines.append(f"{name:<28} {per * len(chosen) / total:12.1f} {unit}"
                         f"   ({len(chosen)} ops)")

    if workload == "paper-cli":
        timing("capture_p50_s", "capture", True)
        timing("analyze_p50_s", "analyze", True)
        timing("analyze_tree_p50_s", "analyze_tree", False)
        timing("analyze_stream_p50_s", "analyze_stream", False)
    elif workload == "long-stream":
        oracle = manifest["oracle"]
        rate("stream_events_per_s", "stream", oracle["events"], "1/s")
        lines.append(
            f"{'stream':<28} {oracle['events']:12d} records, "
            f"{oracle['context_switches']} context switches, "
            f"{oracle['interrupts']} interrupts, {oracle['wraps']} timer wraps, "
            f"depth <= {oracle['max_depth']}")
    else:
        captures = len(manifest["files"])
        rate("ingest_captures_per_s", "ingest", captures, "1/s")
        timing("reingest_p50_s", "reingest", False)
        timing("diff_p50_s", "diff", False)
        rate("fleet_captures_per_s", "fleet", captures, "1/s")
        lines.append(f"{'corpus':<28} {captures:12d} captures, "
                     f"{manifest['records']} records")
    return lines


def per_layer(manifest: dict, loop: dict, probes: Dict[str, List[float]]
              ) -> Tuple[Dict[str, float], List[str]]:
    """Self time per layer from the traced ops, plus the start-up probes."""
    ops = loop["traced"]
    n = len(ops)
    total_ns: Dict[str, int] = {}
    for op in ops:
        for layer, ns in op["self_ns"].items():
            total_ns[layer] = total_ns.get(layer, 0) + ns

    def mean_s(layer: str) -> float:
        return total_ns.get(layer, 0) / n / 1e9

    def attr_sum(layer: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for op in ops for s in op["spans"]
                   if s["name"] == layer)

    def per_s(layer: str, key: str) -> float:
        ns = total_ns.get(layer, 0)
        return attr_sum(layer, key) / (ns / 1e9) if ns else 0.0

    interp = statistics.median(probes["interp"])
    calls = manifest["calls"]
    metrics = {
        "startup.interp_s": interp,
        "startup.import_s": statistics.median(probes["import_main"]) - interp,
        "startup.import_repro_s": statistics.median(probes["import_repro"]) - interp,
        "cli.parse_s": mean_s("cli.parse"),
        "system.build_s": statistics.median(calls["build"][1:] or calls["build"]),
        "profiler.encode_s": statistics.median(calls["encode"]),
        "profiler.probe_s": mean_s("profiler.probe"),
        "profiler.decode_s": mean_s("profiler.decode"),
        "profiler.decode_records_per_s": per_s("profiler.decode", "records"),
        "analysis.fold_s": mean_s("analysis.fold"),
        "analysis.fold_events_per_s": per_s("analysis.fold", "events"),
        "analysis.fold_close_s": mean_s("analysis.fold_close"),
        "analysis.render_summary_s": mean_s("analysis.render_summary"),
        "other_s": sum(op["other_ns"] for op in ops) / n / 1e9,
        "trace.overhead_frac": loop["traced_wall_s"] / loop["plain_wall_s"] - 1,
    }
    return metrics, layer_report(manifest, ops, calls)


def layer_report(manifest: dict, ops: List[dict],
                 calls: Dict[str, List[float]]) -> List[str]:
    """Every layer of every op: mean self time per op and what it covers."""
    lines = [f"system.build_s cold {calls['build'][0]:.4f} s, warm median "
             f"{statistics.median(calls['build'][1:] or calls['build']):.4f} s"]
    if "simulate" in calls:
        facts = manifest.get("cases") or manifest.get("files")
        events = sum(f["events"] for f in facts)
        repeats = len(calls["simulate"]) / len(facts)
        sim_s = sum(calls["simulate"]) / repeats
        lines.append(
            f"sim.simulate_s median {statistics.median(calls['simulate']):.4f} s; "
            f"sim.events_per_host_s {events / sim_s:.0f}; sim.events "
            f"{events}; sim.simulated_us {sum(f['simulated_us'] for f in facts)}; "
            f"sim.kstack_desync {sum(f['kstack_desync'] for f in facts)}")
    names = sorted({op["op"] for op in ops}, key=[o["op"] for o in ops].index)
    for name in names:
        chosen = [op for op in ops if op["op"] == name]
        wall = sum(op["wall_s"] for op in chosen) / len(chosen)
        layers: Dict[str, int] = {}
        for op in chosen:
            for layer, ns in op["self_ns"].items():
                layers[layer] = layers.get(layer, 0) + ns
        parts = [f"{layer}={ns / len(chosen) / 1e9:.4f}"
                 f"({100 * ns / len(chosen) / 1e9 / wall:.0f}%)"
                 for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1])]
        other = sum(op["other_ns"] for op in chosen) / len(chosen) / 1e9
        lines.append(f"{name}: wall {wall:.4f} s over {len(chosen)} traced; "
                     f"{name}.other_s={other:.4f}; " + " ".join(parts))
        spans = [s for op in chosen for s in op["spans"]]
        extra = _op_counts(name, spans)
        if extra:
            lines.append(f"  {extra}")
    return lines


def _op_counts(name: str, spans: List[dict]) -> str:
    """Per-call figures of the layers that only some ops reach."""
    def of(layer: str) -> List[dict]:
        return [s for s in spans if s["name"] == layer]

    out = []
    ingests = of("db.ingest")
    if ingests:
        added = sum(s["attrs"].get("status") == "added" for s in ingests)
        per = sum(s["end"] - s["start"] for s in ingests) / len(ingests) / 1e9
        label = "db.reingest_s" if name == "reingest" else "db.ingest_s"
        out.append(f"{label} per capture {per:.5f} s, db.added_ratio "
                   f"{added / len(ingests):.2f}")
    trees = of("analysis.calltree")
    if trees:
        nodes = sum(s["attrs"].get("nodes", 0) for s in trees) / len(trees)
        out.append(f"analysis.calltree_nodes {nodes:.0f} per op")
    sims = of("sim.simulate")
    if sims:
        a = sims[-1]["attrs"]
        out.append(f"sim.events {a.get('events')} sim.simulated_us "
                   f"{a.get('simulated_us')} sim.kstack_desync {a.get('kstack_desync')}")
    return "; ".join(out)


# -- main ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__main__.py")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + RUN_SLACK_S
    workdir = os.path.join(root, ".perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, root, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's directory is still in it


def run(args: argparse.Namespace, root: str, workdir: str, deadline: float) -> int:
    runner = Runner(root, workdir, deadline)
    try:
        return measure(args, runner)
    finally:
        runner.close()


def measure(args: argparse.Namespace, runner: Runner) -> int:
    workdir = runner.workdir
    errors: List[str] = []
    lean = runner.python("-c", "pass")
    lean_mb = lean.rss_kb / 1024.0
    if lean.rc != 0 or lean_mb > LEAN_CHILD_MAX_MB:
        errors.append(f"python -c pass read {lean_mb:.1f} MB peak RSS")
    setup = runner.python(
        os.path.join(HERE, "setup_inputs.py"), args.workload, str(args.seed),
        workdir, str(SETUP_REPEATS[args.workload]), str(STREAM_RECORDS),
    )
    if setup.rc != 0:
        sys.stderr.write(setup.stderr.decode("utf-8", "replace"))
        print("perfbench: set-up failed", file=sys.stderr)
        return 1
    with open(os.path.join(workdir, "manifest.json")) as handle:
        manifest = json.load(handle)
    errors += manifest["errors"]
    rounds = ROUNDS[args.workload](manifest, workdir)
    traced = bool(args.trace)
    loop = closed_loop(runner, rounds, args.seconds, traced)
    samples = loop["samples"]
    failed = [s for s in samples if s.failure]
    for s in failed[:5]:
        print(f"FAILED {s.op} [{s.case}]: {s.failure}")
    for error in errors:
        print(f"ERROR {error}")
    print(f"workload {args.workload}, seed {args.seed}, {loop['rounds']} round(s), "
          f"{len(samples)} ops, closed loop, 1 client")
    print(f"{'ops_failed_frac':<28} {len(failed) / len(samples):12.4f}")
    print(f"{'lean_child_rss_mb':<28} {lean_mb:12.1f} MB")
    if traced:
        probes = {
            "interp": [runner.python("-c", "pass").wall_s
                       for _ in range(STARTUP_PROBES)],
            "import_main": [runner.python("-c", "import repro.__main__").wall_s
                            for _ in range(STARTUP_PROBES)],
            "import_repro": [runner.python("-c", "import repro").wall_s
                             for _ in range(STARTUP_PROBES)],
        }
        metrics, lines = per_layer(manifest, loop, probes)
        units = {k: ("1/s" if k.endswith("_per_s") else
                     "s" if k.endswith("_s") else "ratio") for k in metrics}
        for line in lines:
            print(line)
    else:
        metrics = end_to_end(manifest, loop)
        units = {"setup_s": "s", "op_p50_s": "s", "records_per_s": "1/s",
                 "peak_rss_mb": "MB"}
        for line in workload_report(args.workload, manifest, loop):
            print(line)
    for name, value in metrics.items():
        print(f"{name:<28} {value:12.6g} {units[name]}")
    result = {
        "correct": not failed and not errors,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
