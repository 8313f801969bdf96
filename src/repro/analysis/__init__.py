"""Analysis software: decode the backtrace and relate it to the source.

The Profiler's raw data is "a list of event tags and times".  This package
turns that list into the paper's two reports and the future-work extras:

* :mod:`repro.analysis.columnar` — tag decode and reconstruction of
  absolute time from the wrapping 24-bit counter, over record columns;
* :mod:`repro.analysis.summary` — the fold: one state machine for
  entry/exit matching, context-switch splitting at ``!``-tagged
  functions and idle/active CPU separation, folding every call into the
  per-function statistics report (Figure 3 / Figure 5 layout) as it
  closes;
* :mod:`repro.analysis.callstack` — the call tree, recorded by that same
  state machine for the reports that need one;
* :mod:`repro.analysis.trace` — the timestamped nested code-path trace
  (Figure 4 layout);
* :mod:`repro.analysis.histogram`, :mod:`repro.analysis.graph` — the
  "future work" analyses: per-function time histograms, call graphs and
  subsystem groupings (the graph module needs networkx, so it is imported
  only when one of its names is first used);
* :mod:`repro.analysis.reports` — one-call assembly of the full report.
"""

from repro.analysis.callstack import (
    CallNode,
    CallTreeAnalysis,
    CallTreeRecorder,
    analyze_capture,
)
from repro.analysis.summary import (
    Anomaly,
    FoldResult,
    FunctionStats,
    ProfileSummary,
    SummaryAccumulator,
    fold_capture,
    fold_records,
    summarize,
    summarize_capture,
)
from repro.analysis.trace import format_trace, trace_lines
from repro.analysis.histogram import FunctionHistogram, histogram_for
from repro.analysis.compare import (
    FunctionDelta,
    ProfileComparison,
    WorkloadMismatchWarning,
    compare_summaries,
    json_safe,
)
from repro.analysis.folded import flame_ascii, hot_stacks, to_folded
from repro.analysis.gprof import GprofReport, gprof_report
from repro.analysis.reports import full_report
from repro.analysis.timeline import render_timeline, utilization_by_proc

__all__ = [
    "Anomaly",
    "CallNode",
    "CallTreeAnalysis",
    "CallTreeRecorder",
    "FoldResult",
    "SummaryAccumulator",
    "fold_capture",
    "fold_records",
    "summarize_capture",
    "FunctionHistogram",
    "FunctionStats",
    "ProfileSummary",
    "analyze_capture",
    "call_graph",
    "format_trace",
    "FunctionDelta",
    "GprofReport",
    "ProfileComparison",
    "WorkloadMismatchWarning",
    "compare_summaries",
    "json_safe",
    "flame_ascii",
    "full_report",
    "gprof_report",
    "hot_stacks",
    "to_folded",
    "render_timeline",
    "utilization_by_proc",
    "histogram_for",
    "subsystem_rollup",
    "summarize",
    "trace_lines",
]

#: Names re-exported from :mod:`repro.analysis.graph` on first use.
_GRAPH_NAMES = ("call_graph", "subsystem_rollup")


def __getattr__(name: str):
    if name in _GRAPH_NAMES:
        from repro.analysis import graph

        return getattr(graph, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
