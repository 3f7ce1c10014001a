"""Parallel batch reconstruction: many workloads, one merged report.

Reconstructions of distinct failures are embarrassingly parallel — each
one owns its module clone, production site, term space, and solver
cache — so the batch runner fans workloads out over a persistent
:class:`WorkerPool`.  Process (not thread) workers sidestep the GIL:
shepherded symbolic execution is pure Python and CPU-bound.

The pool is fork-server-style and process-wide: spawned lazily on the
first job, then *reused* across batch runs and Table-1 regenerations
instead of paying a fresh spin-up per call.  Jobs are generation-tagged
— each :meth:`WorkerPool.begin_job` broadcasts a new generation payload
(the parent's trace context) through per-worker control queues, so
redeploying a job is a message, not a respawn.  Workers batch their
telemetry: one stats message per job per worker instead of a snapshot
per task.  Idle pools reap their workers after
:data:`POOL_IDLE_REAP_SECONDS`; :func:`close_pool` (also registered
atexit) tears the shared pool down explicitly.

Every worker runs under its own telemetry registry and ships back a
picklable :class:`BatchItem` — outcome summary, metric snapshot, and
(optionally) the structured event stream.  The parent merges the
snapshots with :func:`repro.telemetry.merge_snapshots` and can write a
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
tree in the Perfetto exporter.  The pool also meters its own
coordination overhead: ``parallel.queue_wait_seconds`` (task enqueue →
dequeue, shared wall clock), ``parallel.worker_idle_seconds`` (workers
blocked on an empty task queue), and ``parallel.pool_spinup`` /
``pool_teardown`` spans — surfaced by ``repro stats`` as the
overhead-attribution table.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing
import os
import pathlib
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from queue import Empty
from typing import Any, Callable, Dict, Iterator, List, Optional, \
    Sequence, Tuple, Union

from . import telemetry
from .core import ExecutionReconstructor, ProductionSite
from .trace.degrade import gap_count
from .workloads import get_workload, workload_names

__all__ = ["BatchItem", "BatchResult", "WorkerPool", "close_pool",
           "get_pool", "in_pool_worker", "measure_incremental_ab",
           "private_pool", "run_batch", "write_merged_jsonl"]


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
    #: pid of the pool process that ran this workload (load balance)
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

    ``hits`` already includes exact, subsumption, and disk answers (the
    top-level solver paths bump it alongside the tier counter), but a
    successful *model probe* is recorded as a miss plus
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
        "disk_hits_subsume":
            counters.get("solver.cache.disk_hits_subsume", 0),
        "disk_hits_values":
            counters.get("solver.cache.disk_hits_values", 0),
        "hit_rate": round((hits + probes) / total, 4) if total else 0.0,
    }


def _reconstruct_one(name: str, capture_events: bool,
                     cache_dir: Optional[str] = None,
                     context: Optional[telemetry.TraceContext] = None
                     ) -> BatchItem:
    """Worker body: one workload under a private telemetry registry.

    Runs in a pool process (or inline for ``parallel=1``); must only
    return picklable data, so the report's module/test-case objects are
    reduced to scalars here rather than shipped back.  ``context`` links
    the registry into the parent's trace.
    """
    sink = telemetry.MemorySink() if capture_events else None
    registry = telemetry.Telemetry(sink, context=context)
    item = BatchItem(workload=name, worker=os.getpid())
    started = time.perf_counter()
    with telemetry.scoped(registry):
        try:
            workload = get_workload(name)
            reconstructor = ExecutionReconstructor(
                workload.fresh_module(),
                work_limit=workload.work_limit,
                max_occurrences=workload.max_occurrences,
                cache_dir=cache_dir)
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
              capture_events: bool = False,
              cache_dir: Optional[str] = None,
              pool: Optional[WorkerPool] = None) -> BatchResult:
    """Reconstruct ``names`` (default: every workload), ``parallel``-wide.

    Results come back in input order regardless of completion order.  A
    workload that raises contributes a :class:`BatchItem` with ``error``
    set instead of aborting the batch.  ``cache_dir`` points every
    worker at one shared persistent solver cache.  ``pool`` overrides
    the process-wide shared :class:`WorkerPool`; by default the batch
    reuses (and, first time, lazily spawns) the shared one, so repeated
    batches pay at most one spin-up.
    """
    names = list(names) if names is not None else workload_names()
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    tel = telemetry.get()
    # pool lifecycle costs live on a scratch registry so they can join
    # the *merged* snapshot (the parent's own registry is not part of
    # the per-item merge); a reused pool records nothing here — that is
    # the amortization the A/B benchmark measures
    overhead = telemetry.Telemetry()
    started = time.perf_counter()
    with tel.span("parallel.batch", workloads=len(names),
                  parallel=parallel):
        context = tel.trace_context()
        if parallel == 1 or len(names) <= 1:
            items = [_reconstruct_one(name, capture_events, cache_dir,
                                      context)
                     for name in names]
        else:
            workers = min(parallel, len(names))
            target = pool if pool is not None else get_pool(workers)
            # the job-level registry carries queue-wait/idle metering;
            # item event streams ride the BatchItem itself
            job = target.begin_job(context=context)
            if job.spinup_seconds:
                overhead.histogram("span.parallel.pool_spinup").record(
                    job.spinup_seconds)
            results: Dict[int, BatchItem] = {}
            errors: List[BaseException] = []
            try:
                for name in names:
                    job.submit(_reconstruct_one, name, capture_events,
                               cache_dir, context)
                remaining = len(names)
                while remaining:
                    kind, task_id, body = job.next_message()
                    remaining -= 1
                    if kind == "err":
                        errors.append(RuntimeError(
                            f"batch task for workload "
                            f"{names[task_id]!r} failed: {body}"))
                        continue
                    results[task_id] = body
            finally:
                for snapshot in job.finish():
                    overhead.absorb(snapshot)
                if pool is None:
                    target.maybe_reap()
            if errors:
                raise errors[0]
            items = [results[index] for index in range(len(names))]
    wall = time.perf_counter() - started
    merged = telemetry.merge_snapshots(
        [item.telemetry for item in items] + [overhead.snapshot()])
    telemetry.count("parallel.batches")
    telemetry.count("parallel.workloads", len(items))
    return BatchResult(items=items, parallelism=parallel,
                       wall_seconds=wall, telemetry=merged)


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


# ----------------------------------------------------------------------
# the worker pool

#: how long an idle worker waits on the task queue before re-checking
#: its control queue, and how long the parent waits on the results
#: queue before health-checking its workers
_WORKER_POLL = 0.05
_PARENT_POLL = 0.1

#: a pool whose last job ended this long ago reaps its workers on the
#: next :meth:`WorkerPool.maybe_reap` touch (``None`` disables)
POOL_IDLE_REAP_SECONDS = 300.0

#: how long :meth:`_PoolJob.finish` waits for per-worker stats replies
_STATS_DEADLINE = 30.0


def _pool_worker_main(slot: int, control_q, task_q, results_q) -> None:
    """Persistent worker main loop: generations of tasks, one process.

    The worker alternates between its private control queue (generation
    payloads, end-of-job markers, stop) and the shared task queue.  A
    ``("gen", id, context)`` message opens a fresh per-job telemetry
    registry joined to the parent's trace; every task of that generation
    runs scoped to it.  A task tagged with a *newer* generation than the
    worker has seen makes the worker block on its control queue — the
    parent always broadcasts the payload before enqueueing the
    generation's tasks, so the message is already in flight.
    ``("end", id)`` ships the job's telemetry back as a single batched
    ``("stats", ...)`` message (one per job per worker, not one per
    task).

    Idle stretches and task queue-wait land in the job registry.  Task
    exceptions are shipped as ``("err", ...)`` messages — the worker
    itself never dies on a task failure.
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    gen = 0
    registry: Optional[telemetry.Telemetry] = None
    idle_since: Optional[float] = None

    def apply(message) -> bool:
        nonlocal gen, registry, idle_since
        kind = message[0]
        if kind == "gen":
            _, gen, context = message
            idle_since = None
            registry = telemetry.Telemetry(context=context)
            return True
        if kind == "end":
            _, end_gen = message
            if registry is not None:
                results_q.put(("stats", end_gen, slot,
                               registry.snapshot()))
            registry = None
            return True
        return False  # "stop"

    while True:
        try:
            message = control_q.get_nowait()
        except Empty:
            message = None
        if message is not None:
            if not apply(message):
                return
            continue
        try:
            task = task_q.get(timeout=_WORKER_POLL)
        except Empty:
            if registry is not None and idle_since is None:
                idle_since = time.perf_counter()
            continue
        task_id, task_gen, func, args, enqueued = task
        while task_gen > gen:
            # the payload for this task's generation precedes it in the
            # parent's send order; block on the control queue for it
            if not apply(control_q.get()):
                return
        if task_gen < gen or registry is None:
            continue  # stale task from an ended generation
        if idle_since is not None:
            registry.histogram("parallel.worker_idle_seconds").record(
                time.perf_counter() - idle_since)
            idle_since = None
        registry.histogram("parallel.queue_wait_seconds").record(
            max(time.time() - enqueued, 0.0))
        try:
            with telemetry.scoped(registry):
                result = func(*args)
            results_q.put(("done", task_id, task_gen, result))
        except Exception as exc:  # noqa: BLE001 — ship back, stay alive
            results_q.put(("err", task_id, task_gen, "".join(
                traceback.format_exception_only(type(exc), exc)).strip()))


#: set in pool worker processes: they must not spawn nested pools
_IN_POOL_WORKER = False


def in_pool_worker() -> bool:
    """True inside a pool worker (or any daemonic child) — callers use
    this to fall back to serial/inline paths instead of nesting pools."""
    return _IN_POOL_WORKER or multiprocessing.current_process().daemon


class _PoolJob:
    """One generation of tasks on a :class:`WorkerPool`.

    Created by :meth:`WorkerPool.begin_job`; the caller submits tasks,
    consumes exactly one message per task via :meth:`next_message`,
    then calls :meth:`finish` to collect the per-worker telemetry batch.
    """

    def __init__(self, pool: "WorkerPool", gen: int,
                 spinup_seconds: float):
        self.pool = pool
        self.gen = gen
        #: wall cost of the worker spawn this job triggered (0.0 when
        #: the job reused live workers — the whole point of the pool)
        self.spinup_seconds = spinup_seconds
        self.submitted = 0
        self._finished = False
        self._snapshots: List[Dict] = []

    def submit(self, func: Callable, *args) -> int:
        task_id = self.submitted
        self.submitted += 1
        telemetry.count("parallel.pool.tasks")
        self.pool._task_q.put((task_id, self.gen, func, args,
                               time.time()))
        return task_id

    def next_message(self) -> Tuple[str, int, Any]:
        """Next ``("done", task_id, result)`` or ``("err", task_id,
        msg)`` message; health-checks worker processes while the
        results queue is quiet."""
        pool = self.pool
        while True:
            try:
                message = pool._results_q.get(timeout=_PARENT_POLL)
            except Empty:
                for proc in pool._procs:
                    if not proc.is_alive():
                        raise RuntimeError(
                            f"pool worker pid {proc.pid} died (exit "
                            f"code {proc.exitcode}) mid-job")
                continue
            kind = message[0]
            if kind in ("done", "err"):
                _, task_id, gen, body = message
                if gen != self.gen:
                    continue  # leftover from an abandoned generation
                return (kind, task_id, body)
            # stray "stats" from a prior job's late worker: drop

    def finish(self) -> List[Dict]:
        """End the generation; collect each worker's batched stats.

        The caller must have consumed all its task outcomes first (the
        workers only see the ``end`` marker once they drain back to the
        control queue).  Returns one metric snapshot per worker.
        """
        if self._finished:
            return self._snapshots
        pool = self.pool
        for control in pool._controls:
            control.put(("end", self.gen))
        remaining = set(range(len(pool._procs)))
        deadline = time.monotonic() + _STATS_DEADLINE
        while remaining and time.monotonic() < deadline:
            try:
                message = pool._results_q.get(timeout=_PARENT_POLL)
            except Empty:
                for slot in list(remaining):
                    if not pool._procs[slot].is_alive():
                        remaining.discard(slot)  # crashed: no stats
                continue
            if message[0] == "stats":
                _, gen, slot, snapshot = message
                if gen != self.gen:
                    continue
                remaining.discard(slot)
                self._snapshots.append(snapshot)
            # outcomes of tasks the caller abandoned are dropped here
        pool._active_job = None
        pool._last_used = time.monotonic()
        self._finished = True
        return self._snapshots


class WorkerPool:
    """A persistent, generation-tagged pool of fork-server workers.

    Spawned lazily on the first job and reused across batch runs and
    Table-1 regenerations — redeploying work is a generation message on
    each worker's control queue, not a process respawn.  The shared
    queues are created before the workers so multiprocessing's
    inheritance path (not task pickling) carries them.  One job runs
    at a time; concurrency comes from the workers, not from
    overlapping jobs.
    """

    def __init__(self, workers: int, *,
                 idle_reap_seconds: Optional[float] =
                 POOL_IDLE_REAP_SECONDS):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.idle_reap_seconds = idle_reap_seconds
        self.closed = False
        #: lifetime counters (also mirrored into telemetry)
        self.spinups = 0
        self.jobs = 0
        self._ctx = multiprocessing.get_context()
        self._task_q = self._ctx.Queue()
        self._results_q = self._ctx.Queue()
        self._procs: List = []
        self._controls: List = []
        self._gen = 0
        self._active_job: Optional[_PoolJob] = None
        self._last_used = time.monotonic()

    @property
    def alive(self) -> bool:
        return bool(self._procs) and all(p.is_alive()
                                         for p in self._procs)

    def pids(self) -> List[int]:
        return [proc.pid for proc in self._procs]

    def grow(self, workers: int) -> None:
        """Raise the pool width (never shrinks); live pools spawn the
        extra workers immediately so the next job sees them."""
        if workers > self.workers:
            self.workers = workers
            if self._procs:
                self._spawn_missing()

    def ensure_workers(self) -> float:
        """Spawn (or respawn after a crash/reap) the worker processes.

        Returns the spin-up wall cost, 0.0 when live workers were
        reused.  The spin-up span lands on the ambient registry, so
        ``span.parallel.pool_spinup`` feeds the overhead-attribution
        table exactly as the per-call executor's did — but at most once
        per pool lifetime instead of once per batch.
        """
        if self.closed:
            raise RuntimeError("worker pool is closed")
        if self.alive and len(self._procs) >= self.workers:
            return 0.0
        if self._procs and not self.alive:
            self._stop_workers()  # a crashed worker poisons the pool
        tel = telemetry.get()
        with tel.span("parallel.pool_spinup",
                      workers=self.workers) as span:
            self._spawn_missing()
        self.spinups += 1
        telemetry.count("parallel.pool.spinups")
        return span.seconds

    def begin_job(self, *, context=None) -> _PoolJob:
        """Start a new generation: broadcast ``context`` (the parent's
        trace handoff, see :meth:`Telemetry.trace_context`) to every
        worker.  Counts a pool *reuse* when no spawn was needed — the
        telemetry the benchmark asserts amortization on.
        """
        if self._active_job is not None:
            raise RuntimeError("pool already has an active job")
        spinup = self.ensure_workers()
        self._gen += 1
        self.jobs += 1
        telemetry.count("parallel.pool.generations")
        if spinup == 0.0:
            telemetry.count("parallel.pool.reuses")
        for control in self._controls:
            control.put(("gen", self._gen, context))
        job = _PoolJob(self, self._gen, spinup)
        self._active_job = job
        self._last_used = time.monotonic()
        return job

    def maybe_reap(self, now: Optional[float] = None) -> bool:
        """Reap live workers if the pool has idled past the threshold.

        Called opportunistically (end of a batch); the pool stays open
        — the next job just pays a fresh spin-up.
        """
        if self.closed or not self._procs or self._active_job is not None:
            return False
        if self.idle_reap_seconds is None:
            return False
        now = time.monotonic() if now is None else now
        if now - self._last_used < self.idle_reap_seconds:
            return False
        self._stop_workers()
        telemetry.count("parallel.pool.reaps")
        return True

    def close(self) -> None:
        """Tear the pool down for good (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self._procs:
            tel = telemetry.get()
            with tel.span("parallel.pool_teardown",
                          workers=len(self._procs)):
                self._stop_workers()

    # -- internals -----------------------------------------------------

    def _spawn_missing(self) -> None:
        while len(self._procs) < self.workers:
            slot = len(self._procs)
            control = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_pool_worker_main,
                name=f"repro-pool-{slot}",
                args=(slot, control, self._task_q, self._results_q),
                daemon=True)
            proc.start()
            self._controls.append(control)
            self._procs.append(proc)

    def _stop_workers(self, join_timeout: float = 5.0) -> None:
        for control in self._controls:
            try:
                control.put(("stop",))
            except Exception:  # noqa: BLE001 — teardown best-effort
                pass
        for proc in self._procs:
            proc.join(timeout=join_timeout)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = []
        self._controls = []
        self._gen += 1  # invalidate any stale queued tasks
        for q in (self._task_q, self._results_q):
            self._drain(q)

    @staticmethod
    def _drain(q) -> None:
        while True:
            try:
                q.get_nowait()
            except Empty:
                return


#: the process-wide shared pool (lazily created, grown on demand)
_POOL: Optional[WorkerPool] = None


def get_pool(workers: int) -> WorkerPool:
    """The process-wide shared :class:`WorkerPool`, grown to at least
    ``workers`` wide.  All pool consumers (batches, Table 1) share it,
    which is what amortizes the spin-up."""
    global _POOL
    if in_pool_worker():
        raise RuntimeError("nested worker pools are not supported")
    if _POOL is None or _POOL.closed:
        _POOL = WorkerPool(workers)
    elif _POOL.workers < workers:
        _POOL.grow(workers)
    return _POOL


def close_pool() -> None:
    """Tear down the shared pool (atexit hook; also callable directly)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


atexit.register(close_pool)


@contextmanager
def private_pool(workers: int) -> Iterator[WorkerPool]:
    """A throwaway pool with per-call lifetime — the A/B baseline the
    benchmark compares the shared pool against."""
    pool = WorkerPool(workers, idle_reap_seconds=None)
    try:
        yield pool
    finally:
        pool.close()


def measure_incremental_ab(workload_name: str = "sqlite-7be932d", *,
                           mapping_loss: float = 0.085,
                           work_scale: int = 20) -> Dict:
    """A/B the assumption-stack reuse on the gap-recovery bench.

    Runs the same degraded trace through the serial gap search twice —
    ``incremental=False`` (every sibling attempt re-solved from scratch)
    then ``incremental=True`` (one
    :class:`~repro.solver.incremental.AssumptionStack` for the whole
    DFS) — each under a fresh telemetry registry, and totals the solver
    work actually charged (the ``solver.work_per_query`` histogram).
    Both legs are deterministic, so the measured reduction is
    reproducible.  Returns a JSON-ready dict with both legs and the
    relative ``solver_work_reduction``; correctness is part of the
    record (``verdicts_equal``/``models_equal`` — the two legs must
    agree bit for bit, incrementality is an optimization only).
    """
    from .symex.gaps import replay_with_gap_recovery

    workload = get_workload(workload_name)
    module = workload.fresh_module()
    occurrence = ProductionSite(workload.failing_env,
                                mapping_loss=mapping_loss,
                                per_cpu_buffers=True).run_once(module)
    kwargs = dict(work_limit=workload.work_limit * work_scale)
    legs: Dict[str, Dict] = {}
    models: Dict[str, Optional[Dict]] = {}
    statuses: Dict[str, str] = {}
    for label, incremental in (("scratch", False), ("incremental", True)):
        registry = telemetry.Telemetry()
        started = time.perf_counter()
        with telemetry.scoped(registry):
            result = replay_with_gap_recovery(
                module, occurrence.trace, occurrence.failure,
                incremental=incremental, **kwargs)
        wall = time.perf_counter() - started
        snapshot = registry.snapshot()
        work = snapshot.get("histograms", {}).get(
            "solver.work_per_query", {})
        counters = snapshot.get("counters", {})
        legs[label] = {
            "status": result.status,
            "gap_attempts": result.gap_attempts,
            "wall_seconds": round(wall, 4),
            "solver_work": int(work.get("sum", 0)),
            "solver_queries": int(work.get("count", 0)),
            "reused_terms": int(counters.get(
                "solver.incremental.reused_terms", 0)),
        }
        models[label] = (result.model.assignment
                         if result.model is not None else None)
        statuses[label] = result.status
    scratch_work = legs["scratch"]["solver_work"]
    incremental_work = legs["incremental"]["solver_work"]
    reduction = (1.0 - incremental_work / scratch_work
                 if scratch_work else 0.0)
    return {
        "workload": workload_name,
        "mapping_loss": mapping_loss,
        "gap_count": gap_count(occurrence.trace),
        "scratch": legs["scratch"],
        "incremental": legs["incremental"],
        "solver_work_reduction": round(reduction, 4),
        "verdicts_equal": statuses["scratch"] == statuses["incremental"],
        "models_equal": models["scratch"] == models["incremental"],
    }
