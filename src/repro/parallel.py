"""Parallel batch reconstruction: many workloads, one merged report.

Reconstructions of distinct failures are embarrassingly parallel — each
one owns its production site, term space, and solver cache, and reads
its workload's module, which nothing changes — so the batch runner fans
workloads out with :func:`fan_out`.
Process (not thread) workers sidestep the GIL: shepherded symbolic
execution is pure Python and CPU-bound.  Each call creates its own
:class:`~concurrent.futures.ProcessPoolExecutor` and joins its workers
before it returns; :func:`run_batch` and Table 1's
:func:`~repro.evaluation.table1.run_table1` are its two callers.  A
worker that dies fails the call with a :class:`~repro.errors.ReproError`.

Every worker runs under its own telemetry registry and ships back a
picklable :class:`BatchItem` — outcome summary, metric snapshot, and
(optionally) the structured event stream.  The parent folds every
snapshot, with :meth:`Telemetry.absorb`, into its own registry and into
a fresh one whose snapshot is the batch result's, and can write a
single combined JSONL log (each event tagged with its workload) that
``repro stats`` renders like any single-run log.

``parallel=1`` degrades to a plain in-process loop — same code path,
same reports, no executor — which is also the serial baseline that
``repro bench`` compares against to measure the speedup.

Everything that crosses a process boundary here carries *trace
context*: the parent captures :meth:`Telemetry.trace_context` inside
its ``parallel.batch`` span and hands it to every worker, whose
registry joins the parent's trace (same ``trace_id``, root spans
parented on the handoff span) and rebases its clock onto the parent
timeline — so a merged event stream renders as one causally-linked
tree in the Perfetto exporter.  Each task also records
``parallel.queue_wait_seconds`` (submit → start, on the wall clock the
processes share), which ``repro stats`` shows in its
overhead-attribution table.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from . import telemetry
from .core import ExecutionReconstructor, ProductionSite
from .errors import ReproError
from .workloads import get_workload, workload_names

__all__ = ["BatchItem", "BatchResult", "fan_out", "record_queue_wait",
           "run_batch", "write_merged_jsonl"]

R = TypeVar("R")


@dataclass
class BatchItem:
    """One workload's reconstruction outcome, picklable across processes."""

    workload: str
    success: bool = False
    verified: bool = False
    occurrences: int = 0
    unrelated_occurrences: int = 0
    wall_seconds: float = 0.0
    symex_modelled_seconds: float = 0.0
    recorded_bytes: int = 0
    solver_cache: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    #: pid of the process that ran this workload (load balance)
    worker: int = 0
    #: this worker's full metric snapshot
    telemetry: Dict = field(default_factory=dict)
    #: structured event stream (only when events were requested)
    events: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "success": self.success,
            "verified": self.verified,
            "occurrences": self.occurrences,
            "unrelated_occurrences": self.unrelated_occurrences,
            "wall_seconds": round(self.wall_seconds, 4),
            "symex_modelled_seconds":
                round(self.symex_modelled_seconds, 4),
            "recorded_bytes": self.recorded_bytes,
            "solver_cache": self.solver_cache,
            "error": self.error,
            "worker": self.worker,
        }


@dataclass
class BatchResult:
    """The merged outcome of one batch run."""

    items: List[BatchItem]
    parallelism: int
    wall_seconds: float
    #: all workers' metric snapshots folded into one
    telemetry: Dict = field(default_factory=dict)

    @property
    def succeeded(self) -> int:
        return sum(1 for i in self.items if i.success)

    @property
    def solver_cache_stats(self) -> Dict[str, float]:
        return _solver_cache_stats(self.telemetry.get("counters", {}))

    @property
    def worker_load(self) -> Dict[str, Dict[str, float]]:
        """Per-worker load balance: tasks run and wall-time, keyed by pid."""
        load: Dict[str, Dict[str, float]] = {}
        for item in self.items:
            entry = load.setdefault(str(item.worker),
                                    {"tasks": 0, "wall_seconds": 0.0})
            entry["tasks"] += 1
            entry["wall_seconds"] = round(
                entry["wall_seconds"] + item.wall_seconds, 4)
        return load

    @property
    def overhead(self) -> Dict[str, Dict]:
        """Coordination-overhead attribution over the merged snapshot."""
        return telemetry.overhead_attribution(self.telemetry)

    def to_dict(self) -> Dict:
        return {
            "parallelism": self.parallelism,
            "wall_seconds": round(self.wall_seconds, 4),
            "succeeded": self.succeeded,
            "total": len(self.items),
            "solver_cache": self.solver_cache_stats,
            "worker_load": self.worker_load,
            "overhead": self.overhead,
            "items": [item.to_dict() for item in self.items],
        }


def _solver_cache_stats(counters: Dict) -> Dict[str, float]:
    """Fold every cache-hit tier into one effectiveness summary.

    ``hits`` already includes exact, superset-model and disk answers
    (the top-level solver paths bump it alongside the tier counter), but
    a successful *model probe* is recorded as a miss plus
    ``model_probe_hits`` — so queries answered without a solver search
    are ``hits + model_probe_hits`` out of ``hits + misses``.  Each
    tier is reported alongside the folded rate.
    """
    hits = counters.get("solver.cache.hits", 0)
    misses = counters.get("solver.cache.misses", 0)
    probes = counters.get("solver.cache.model_probe_hits", 0)
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "model_probe_hits": probes,
        "subsumption_hits":
            counters.get("solver.cache.subsumption_hits", 0),
        "disk_hits": counters.get("solver.cache.disk_hits", 0),
        "disk_hits_exact":
            counters.get("solver.cache.disk_hits_exact", 0),
        "disk_hits_values":
            counters.get("solver.cache.disk_hits_values", 0),
        "hit_rate": round((hits + probes) / total, 4) if total else 0.0,
    }


def fan_out(task: Callable[..., R], args_list: Sequence[tuple],
            width: int) -> List[R]:
    """``[task(*args) for args in args_list]`` on at most ``width``
    worker processes.

    Each call creates its own executor and joins its workers before it
    returns, so no process outlives the call.  Results come back in
    input order, and a task's exception re-raises here.  A worker that
    dies (killed, out of memory) fails the call with a
    :class:`~repro.errors.ReproError` instead of leaving it waiting.
    ``task`` and its arguments cross the process boundary by pickle.
    """
    # fork, not spawn: no caller runs threads when it fans out, and a
    # spawned worker re-imports the package first — on a 2-CPU host that
    # made a width-2 batch of the six heaviest workloads take 0.84-1.38 s
    # instead of 0.51-0.61 s (forkserver: 0.74-1.01 s)
    with ProcessPoolExecutor(min(width, len(args_list)),
                             mp_context=multiprocessing.get_context("fork")
                             ) as executor:
        futures = [executor.submit(task, *args) for args in args_list]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            raise ReproError(f"batch worker died: {exc}") from exc


def record_queue_wait(registry: telemetry.Telemetry,
                      submitted: float) -> None:
    """Record a fanned-out task's wait from submit (``time.time()`` in
    the caller) to start; the wall clock is the one the processes
    share."""
    registry.histogram("parallel.queue_wait_seconds").record(
        max(time.time() - submitted, 0.0))


def _reconstruct_one(name: str, capture_events: bool,
                     context: Optional[telemetry.TraceContext] = None,
                     submitted: Optional[float] = None) -> BatchItem:
    """Worker body: one workload under a private telemetry registry.

    Runs in a worker process (or inline for ``parallel=1``); must only
    return picklable data, so the report's module/test-case objects are
    reduced to scalars here rather than shipped back.  ``context`` links
    the registry into the parent's trace; ``submitted`` is the fan-out's
    submit time, for the queue-wait histogram.
    """
    sink = telemetry.MemorySink() if capture_events else None
    registry = telemetry.Telemetry(sink, context=context)
    if submitted is not None:
        record_queue_wait(registry, submitted)
    item = BatchItem(workload=name, worker=os.getpid())
    started = time.perf_counter()
    with telemetry.scoped(registry):
        try:
            workload = get_workload(name)
            reconstructor = ExecutionReconstructor(
                workload.module(),
                work_limit=workload.work_limit,
                max_occurrences=workload.max_occurrences)
            report = reconstructor.reconstruct(
                ProductionSite(workload.failing_env))
            item.success = report.success
            item.verified = report.verified
            item.occurrences = report.occurrences
            item.unrelated_occurrences = report.unrelated_occurrences
            item.symex_modelled_seconds = \
                report.total_symex_modelled_seconds
            item.recorded_bytes = report.total_recorded_bytes
        except Exception as exc:  # noqa: BLE001 — report, don't kill batch
            item.error = "".join(traceback.format_exception_only(
                type(exc), exc)).strip()
        if capture_events:
            registry.emit_snapshot()
    item.wall_seconds = time.perf_counter() - started
    item.telemetry = registry.snapshot()
    item.solver_cache = _solver_cache_stats(
        item.telemetry.get("counters", {}))
    if sink is not None:
        item.events = sink.events
    return item


def run_batch(names: Optional[Sequence[str]] = None, *,
              parallel: int = 1,
              capture_events: bool = False) -> BatchResult:
    """Reconstruct ``names`` (default: every workload), ``parallel``-wide.

    Results come back in input order regardless of completion order.  A
    workload that raises contributes a :class:`BatchItem` with ``error``
    set instead of aborting the batch; a worker process that dies fails
    the batch with a :class:`~repro.errors.ReproError`.  Each item's
    metrics are folded into the caller's registry, at every width, and
    the same fold of the items alone is the result's ``telemetry``.
    """
    names = list(names) if names is not None else workload_names()
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    tel = telemetry.get()
    started = time.perf_counter()
    with tel.span("parallel.batch", workloads=len(names),
                  parallel=parallel):
        context = tel.trace_context()
        if parallel == 1 or len(names) <= 1:
            items = [_reconstruct_one(name, capture_events, context)
                     for name in names]
        else:
            submitted = time.time()
            items = fan_out(_reconstruct_one,
                            [(name, capture_events, context, submitted)
                             for name in names],
                            parallel)
    wall = time.perf_counter() - started
    merged = telemetry.Telemetry()
    for item in items:
        merged.absorb(item.telemetry)
        tel.absorb(item.telemetry)
    telemetry.count("parallel.batches")
    telemetry.count("parallel.workloads", len(items))
    return BatchResult(items=items, parallelism=parallel,
                       wall_seconds=wall, telemetry=merged.snapshot())


def write_merged_jsonl(result: BatchResult,
                       path: Union[str, pathlib.Path]) -> int:
    """Write all workers' event streams as one combined JSONL log.

    Events keep their per-worker ``seq``/``ts`` and gain a ``workload``
    field; a final ``snapshot`` event carries the *merged* metrics so
    ``repro stats`` renders whole-batch counters.  The snapshot's
    ``seq`` is strictly past every merged event's (the per-worker
    sequences overlap, so a line count would collide with them) and its
    ``ts`` is the latest merged timestamp (a registry-relative instant,
    like every other event — not the batch duration).  Returns the
    number of lines written.
    """
    lines = 0
    max_seq = 0
    max_ts = 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for item in result.items:
            for event in item.events:
                if event.get("type") == "snapshot":
                    continue      # superseded by the merged snapshot
                seq = event.get("seq")
                if isinstance(seq, int):
                    max_seq = max(max_seq, seq)
                ts = event.get("ts")
                if isinstance(ts, (int, float)):
                    max_ts = max(max_ts, float(ts))
                fh.write(json.dumps({**event, "workload": item.workload},
                                    default=str) + "\n")
                lines += 1
        fh.write(json.dumps({
            "type": "snapshot", "name": "telemetry.snapshot",
            "seq": max_seq + 1, "ts": round(max_ts, 6),
            "metrics": result.telemetry,
        }) + "\n")
    return lines + 1
