"""Observed-tag coverage of a capture corpus.

The runtime half of the coverage cross: fold every capture under a
directory (planned by :func:`repro.fleet.ingest.plan_fleet`, so the scan
order — and everything derived from it — is a pure function of the
directory contents) into per-capture *observed tag* sets, decoded on the
columnar batch leg (:func:`repro.profiler.upload.open_capture_columns`).

A capture contributes the set of distinct function names its records
decode to — entry, exit and inline tags all collapse onto the function
name; the ``dummy`` idle tag is dropped.  Captures the reader rejects
are carried as ``status="failed"`` rows (they become ``P605``
diagnostics) rather than aborting the scan, so a corpus with one
corrupt file still yields a coverage report over the rest.

Workload grouping is by MPF2 label through the workload registry's
:func:`repro.workloads.workload_for_label` (``cli: network`` and
``hunt: network …`` both group under ``network``); labels the registry
does not recognise group under the literal label, and unlabeled MPF1
captures under ``<unlabeled>``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import signal
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Union

from repro.fleet.ingest import FleetPlan, plan_fleet, resolve_jobs
from repro.instrument.namefile import DUMMY_NAME, NameTable
from repro.profiler.upload import open_capture_columns
from repro.workloads import workload_for_label

#: Group key for captures whose label decodes to no registry workload.
UNLABELED = "<unlabeled>"


@dataclasses.dataclass(frozen=True)
class CaptureCoverage:
    """One capture's contribution to corpus coverage."""

    index: int
    path: str
    label: str
    #: Registry workload name parsed from the label, or the grouping
    #: fallback (the literal label / ``<unlabeled>``).
    workload: str
    #: ``ok`` or ``failed`` (unreadable/corrupt — see ``error``).
    status: str
    records: int
    #: Distinct decoded function names (``dummy`` excluded).
    observed: frozenset[str]
    #: Distinct raw tag values the name table could not decode.
    unknown_tags: int
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclasses.dataclass(frozen=True)
class CorpusCoverage:
    """Every capture's coverage, in deterministic plan order."""

    root: str
    captures: tuple[CaptureCoverage, ...]

    def observed_union(self) -> frozenset[str]:
        out: set[str] = set()
        for capture in self.captures:
            out |= capture.observed
        return frozenset(out)

    def by_workload(self) -> dict[str, frozenset[str]]:
        """Workload group -> union of observed tags, sorted by group."""
        groups: dict[str, set[str]] = {}
        for capture in self.captures:
            if not capture.ok:
                continue
            groups.setdefault(capture.workload, set()).update(capture.observed)
        return {key: frozenset(groups[key]) for key in sorted(groups)}

    @property
    def failed(self) -> tuple[CaptureCoverage, ...]:
        return tuple(c for c in self.captures if not c.ok)


def _group_key(label: str) -> str:
    workload = workload_for_label(label)
    if workload is not None:
        return workload
    return label if label else UNLABELED


def scan_capture_coverage(
    path: Union[str, Path], names: NameTable, index: int = 0
) -> CaptureCoverage:
    """Scan one capture file into its observed-tag set.

    Reader faults of any kind (missing file, truncation, bad magic, CRC
    mismatch) produce a ``failed`` row carrying the error text — the
    coverage accounting must stay total over the corpus.
    """
    source = str(path)
    label = ""
    try:
        observed: set[str] = set()
        unknown: set[int] = set()
        records = 0
        with open_capture_columns(source) as (meta, batches):
            label = meta.label
            for batch in batches:
                records += len(batch)
                for value in set(batch.tags):
                    decoded = names.decode(value)
                    if decoded is None:
                        unknown.add(value)
                    else:
                        observed.add(decoded[0].name)
        observed.discard(DUMMY_NAME)
        return CaptureCoverage(
            index=index,
            path=source,
            label=label,
            workload=_group_key(label),
            status="ok",
            records=records,
            observed=frozenset(observed),
            unknown_tags=len(unknown),
        )
    except (OSError, ValueError) as exc:
        return CaptureCoverage(
            index=index,
            path=source,
            label=label,
            workload=_group_key(label),
            status="failed",
            records=0,
            observed=frozenset(),
            unknown_tags=0,
            error=str(exc),
        )


# -- the parallel scan --------------------------------------------------------

_worker_names: Optional[NameTable] = None


def _init_worker(names: NameTable) -> None:
    global _worker_names
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_names = names


def _pool_scan_one(index: int, path: str) -> CaptureCoverage:
    assert _worker_names is not None
    return scan_capture_coverage(path, _worker_names, index=index)


def scan_corpus(
    plan_or_root: Union[str, Path, FleetPlan],
    names: NameTable,
    jobs: Optional[int] = 1,
) -> CorpusCoverage:
    """Scan a whole corpus into per-capture observed-tag sets.

    ``jobs=1`` runs inline; higher counts fan the per-capture scans over
    a fork-context process pool.  Results are keyed back to plan order,
    so the corpus coverage — like the fleet merge it mirrors — is
    byte-identical for every worker count and submission order.
    """
    plan = (
        plan_or_root
        if isinstance(plan_or_root, FleetPlan)
        else plan_fleet(plan_or_root)
    )
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(plan) <= 1:
        rows = [
            scan_capture_coverage(capture.path, names, index=capture.index)
            for capture in plan.captures
        ]
    else:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=_init_worker,
            initargs=(names,),
        ) as pool:
            futures = [
                pool.submit(_pool_scan_one, capture.index, capture.path)
                for capture in plan.captures
            ]
            rows = [future.result() for future in futures]
        rows.sort(key=lambda row: row.index)
    return CorpusCoverage(root=plan.root, captures=tuple(rows))


__all__ = [
    "UNLABELED",
    "CaptureCoverage",
    "CorpusCoverage",
    "scan_capture_coverage",
    "scan_corpus",
]
