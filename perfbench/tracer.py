"""Span tracing of the program's layers, from outside the program.

:func:`install` puts an import hook in front of the module finders.  The
hook changes nothing about what is imported or in which order: when the
program itself imports one of its modules, the hook times that import as
a ``startup.import`` span and then wraps the public functions listed in
:data:`LAYERS` for that module, so each call into a layer records a span.
No probe is added inside the program's source.

Spans carry a name, start and end (``time.monotonic_ns``), the index of
the span that was open when they began, and the op id.  They stay in
memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

from stats import covered_ns, self_times

#: module -> (qualified attribute, layer, wrapper kind).  Kinds: ``call``
#: times the call; ``gen`` times each resumption of the returned
#: generator, not the time the consumer holds it, and counts the records
#: it yields; ``parser`` times the parser build and its ``parse_args``;
#: ``fold`` also counts the events folded.  ``sim`` (simulated events,
#: time and kstack desyncs), ``ingest`` (added or duplicate), ``decode``
#: (records) and ``calltree`` (nodes) record counts read from the result.
LAYERS: Dict[str, List[Tuple[str, str, str]]] = {
    "repro.__main__": [("build_parser", "cli.parse", "parser")],
    "repro.system": [
        ("build_case_study", "system.build", "call"),
        ("CaseStudySystem.profile", "sim.simulate", "sim"),
    ],
    "repro.profiler.capture": [
        ("Capture.save", "profiler.encode", "call"),
        ("Capture.load", "profiler.load", "call"),
    ],
    "repro.profiler.upload": [
        ("write_capture_file", "profiler.encode", "call"),
        ("write_capture_stream", "profiler.encode", "call"),
        ("read_capture_meta", "profiler.probe", "call"),
        ("cached_capture_meta", "profiler.probe", "call"),
        ("read_capture", "profiler.decode", "decode"),
        ("iter_capture_columns", "profiler.decode", "gen"),
    ],
    "repro.analysis.summary": [
        ("SummaryAccumulator.feed_columns", "analysis.fold", "fold"),
        ("SummaryAccumulator.feed_records", "analysis.fold", "fold"),
        ("SummaryAccumulator.close", "analysis.fold_close", "call"),
        ("summarize", "analysis.summarize_tree", "call"),
        ("ProfileSummary.format", "analysis.render_summary", "call"),
    ],
    "repro.analysis.callstack": [
        ("analyze_capture", "analysis.calltree", "calltree"),
    ],
    "repro.analysis.trace": [("format_trace", "analysis.render_trace", "call")],
    "repro.analysis.gprof": [
        ("gprof_report", "analysis.render_gprof", "call"),
        ("GprofReport.format", "analysis.render_gprof", "call"),
    ],
    "repro.db.ingest": [("ingest_capture", "db.ingest", "ingest")],
    "repro.db.diff": [("diff_runs", "db.diff", "call")],
    "repro.db.render": [("render_diff_text", "db.render", "call")],
    "repro.fleet.ingest": [
        ("plan_fleet", "fleet.plan", "call"),
        ("ingest_fleet", "fleet.ingest", "call"),
    ],
}

IMPORT_LAYER = "startup.import"
#: The tracer's own work that runs inside a traced process.
OVERHEAD_LAYER = "trace.overhead"


class Tracer:
    """An in-memory span recorder for one process (main thread only)."""

    def __init__(self, op: str = "") -> None:
        self.op = op
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self._thread = threading.get_ident()

    def begin(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            return -1
        parent = self._open[-1] if self._open else None
        self.spans.append({
            "name": name, "start": time.monotonic_ns(), "end": None,
            "parent": parent, "op": self.op, "attrs": {},
        })
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, **attrs: Any) -> None:
        if index < 0:
            return
        span = self.spans[index]
        span["end"] = time.monotonic_ns()
        span["attrs"].update(attrs)
        # Spans close in LIFO order; an exception unwinding through a
        # wrapper still closes its own span first.
        while self._open and self._open.pop() != index:
            pass

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def dump(self, path: str, **extra: Any) -> None:
        """Write the spans, then the time the write took on a second line
        (the tracer's own cost, which the reader adds as a span)."""
        started = time.monotonic_ns()
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **extra}, handle)
            handle.write("\n")
            json.dump({"dump_ns": [started, time.monotonic_ns()]}, handle)


def load_trace(path: str) -> Dict[str, Any]:
    """Read a :meth:`Tracer.dump` file back, the dump itself as a span."""
    with open(path) as handle:
        trace = json.loads(handle.readline())
        start, end = json.loads(handle.readline())["dump_ns"]
    trace["spans"].append({
        "name": OVERHEAD_LAYER, "start": start, "end": end,
        "parent": None, "op": trace["op"], "attrs": {},
    })
    return trace


# -- wrappers ------------------------------------------------------------------


def _attrs_for(kind: str, args: tuple, result: Any) -> Dict[str, Any]:
    if kind == "sim":
        system = args[0]
        return {
            "events": len(result),
            "simulated_us": system.machine.clock.now_us,
            "kstack_desync": system.kernel.stats.get("kstack_desync", 0),
        }
    if kind == "ingest":
        return {"status": result.status, "records": result.records}
    if kind == "decode":
        return {"records": len(result[0])}
    if kind == "calltree":
        return {"nodes": sum(1 for _ in result.nodes())}
    return {}


def _wrap(tracer: Tracer, fn: Callable, layer: str, kind: str) -> Callable:
    if kind == "gen":

        @functools.wraps(fn)
        def generator(*args: Any, **kwargs: Any):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = tracer.begin(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.end(index, records=0)
                        return
                    except BaseException:
                        tracer.end(index)
                        raise
                    tracer.end(index, records=len(item))
                    yield item
            finally:
                inner.close()

        return generator

    if kind == "fold":

        @functools.wraps(fn)
        def fold(self: Any, *args: Any, **kwargs: Any) -> Any:
            before = self.event_count
            index = tracer.begin(layer)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.end(index, events=self.event_count - before)

        return fold

    if kind == "parser":

        @functools.wraps(fn)
        def build_parser(*args: Any, **kwargs: Any) -> Any:
            parser = tracer.call(layer, fn, *args, **kwargs)
            parse_args = parser.parse_args
            parser.parse_args = functools.partial(tracer.call, layer, parse_args)
            return parser

        return build_parser

    @functools.wraps(fn)
    def call(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if kind != "call" and index >= 0:
            # Reading the counts is the tracer's own cost: give it a span
            # so it is not mistaken for unattributed program time.
            attrs = tracer.call(OVERHEAD_LAYER, _attrs_for, kind, args, result)
            tracer.spans[index]["attrs"].update(attrs)
        return result

    return call


def _patch_module(tracer: Tracer, module: Any) -> None:
    for qualname, layer, kind in LAYERS.get(module.__name__, ()):
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(_wrap(tracer, raw.__func__, layer, kind))
        else:
            wrapped = _wrap(tracer, raw, layer, kind)
        # Wrapped before any importer's from-import reads the attribute.
        setattr(owner, attr, wrapped)


class _ImportHook(importlib.abc.MetaPathFinder):
    """Times each program module import and wraps its layer functions."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        exec_module = loader.exec_module
        tracer = self.tracer

        def traced_exec(module: Any) -> None:
            tracer.call(IMPORT_LAYER, exec_module, module)
            _patch_module(tracer, module)

        loader.exec_module = traced_exec
        return spec


def install(tracer: Tracer) -> None:
    """Trace every program module imported from now on."""
    if any(name.startswith("repro") for name in sys.modules):
        raise RuntimeError("install the tracer before the program is imported")
    sys.meta_path.insert(0, _ImportHook(tracer))


def reduce_op(
    trace: Dict[str, Any], spawned_ns: int, exited_ns: int
) -> Tuple[Dict[str, int], int, List[Dict[str, Any]]]:
    """Self time per layer for one traced CLI op, in nanoseconds.

    *spawned_ns* and *exited_ns* are the parent's clock readings around
    the child's life.  The interval from spawn to the child's first
    statement becomes a ``startup.interp`` span; whatever no top-level
    span covers is returned as the op's unattributed time.
    """
    spans = list(trace["spans"])
    interp = {
        "name": "startup.interp", "start": spawned_ns,
        "end": trace["first_ns"], "parent": None, "op": trace["op"], "attrs": {},
    }
    spans.append(interp)
    other = (exited_ns - spawned_ns) - covered_ns(spans)
    return self_times(spans), other, spans
