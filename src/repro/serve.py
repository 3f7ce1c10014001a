"""Fleet-mode reconstruction service: ``repro serve``.

ER's wait for a failure reoccurrence (§3.3) is the dominant latency in
a single-site deployment.  A real operator runs a *fleet*: many
instances execute the same deployed version, so the expected wait for
the next occurrence shrinks roughly with fleet size.  This module
simulates that: ``N`` production instances per workload (each its own
:class:`~repro.core.production.ProductionSite`, running on the
:class:`~repro.core.production.DeferredOccurrence` machinery) stream
failure reports into a queue; a dispatcher deduplicates them by
canonical fault signature (:mod:`repro.core.signature`) into
*buckets*, and one :class:`~repro.core.reconstructor.ExecutionReconstructor`
per bucket consumes occurrences from **any** instance — the iteration's
wait ends at the first fleet-wide reoccurrence.

Determinism / byte-identity
---------------------------
Every instance owns a private occurrence counter and runs every
deployed version exactly once (deploys are broadcast per iteration and
processed FIFO), so each instance's site evolves exactly like the
single-site path: the occurrence any instance ships for iteration *i*
is byte-identical to the one ``repro reproduce`` would have seen.
Which instance "wins" the race therefore never changes the
reconstruction — only how long the bucket waited.  The simulated
reoccurrence delay is jittered per ``(instance, version)`` (timing
only, never outcomes) so the min-over-N wait genuinely shrinks as the
fleet grows — the effect ``BENCH_serve.json`` records.

Queue protocol
--------------
Instance threads put :class:`FailureReport`/:class:`InstanceError`
items on one queue; a single dispatcher thread assigns arrival
sequence numbers, routes reports to buckets by signature digest
(creating bucket + reconstruction job on first sight), and tracks
per-workload settlement.  Buckets consume the **earliest-arriving**
report per deployed version; later same-version reports count as
deduplicated, reports for already-consumed or closed versions as
stale.  Reports from *older* versions than the bucket has deployed are
stale by construction (each version is consumed at most once).
"""

from __future__ import annotations

import dataclasses
import logging
import queue
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from . import telemetry
from .core.production import Occurrence, ProductionSite
from .core.reconstructor import ExecutionReconstructor
from .core.report import ReconstructionReport
from .core.signature import FaultSignature, canonical_signature
from .errors import ReconstructionError
from .ir.module import Module
from .solver import terms as T
from .telemetry.sinks import MemorySink
from .telemetry.stats import merge_snapshots
from .workloads.registry import get_workload, workload_names

logger = logging.getLogger(__name__)

__all__ = ["FleetService", "ServeSummary", "BucketSummary",
           "FailureReport", "jitter_factor"]

Progress = Callable[[str], None]


def jitter_factor(instance: int, version: int) -> float:
    """Deterministic reoccurrence-delay multiplier in ``[0.5, 1.5)``.

    Hash-derived so the "which instance reoccurs first" race is
    reproducible run-to-run, yet no instance is uniformly fastest: the
    min over a larger fleet is strictly smaller in expectation, which
    is the scalability effect the serve benchmark measures.
    """
    seed = zlib.crc32(f"jitter:{instance}:{version}".encode("ascii"))
    return 0.5 + (seed % 1000) / 1000.0


@dataclass
class FailureReport:
    """One instance's failure occurrence, as enqueued for dispatch."""

    instance: int            # per-workload instance id
    workload: str
    version: int             # deploy generation the instance ran
    signature: FaultSignature
    occurrence: Occurrence
    enqueued: float          # wall clock at ship time
    seq: int = 0             # arrival order, stamped by the dispatcher


@dataclass
class InstanceError:
    """An instance's production run raised instead of reporting."""

    instance: int
    workload: str
    version: int
    error: Exception


_STOP = object()


class FleetInstance:
    """One simulated production instance: a private site + worker thread.

    Deploys arrive on an inbox and are executed strictly in FIFO order
    (the version-lockstep that keeps per-instance occurrence counters —
    and therefore shipped traces — identical to the single-site path).
    Each run goes through ``ProductionSite.start()``/``wait()``, i.e.
    the deferred-occurrence machinery, and ships either a
    :class:`FailureReport` or an :class:`InstanceError`.
    """

    def __init__(self, instance_id: int, workload_name: str,
                 env_factory, outbox: "queue.Queue", *,
                 reoccurrence_delay: float,
                 registry: telemetry.Telemetry):
        self.id = instance_id
        self.workload = workload_name
        self.site = ProductionSite(env_factory)
        self.runs = 0
        self.registry = registry
        self._base_delay = reoccurrence_delay
        self._outbox = outbox
        self._inbox: "queue.Queue" = queue.Queue()
        self._stopping = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True,
            name=f"repro-serve-{workload_name}-{instance_id}")

    def start(self) -> None:
        self._thread.start()

    def deploy(self, version: int, module: Module) -> None:
        self._inbox.put((version, module))

    def stop(self) -> None:
        """Ask the worker to drain: backlog deploys are skipped (nothing
        consumes them once the bucket has converged)."""
        self._stopping.set()
        self._inbox.put(_STOP)

    def join(self, timeout: float) -> None:
        self._thread.join(timeout)

    def _loop(self) -> None:
        while True:
            item = self._inbox.get()
            if item is _STOP:
                return
            if self._stopping.is_set():
                continue  # shutdown: skip queued deploys nobody awaits
            version, module = item
            self._run(version, module)

    def _run(self, version: int, module: Module) -> None:
        # jittered wait: timing only — the race winner varies with the
        # fleet size, the shipped occurrence never does
        self.site.reoccurrence_delay = \
            self._base_delay * jitter_factor(self.id, version)
        reg = self.registry
        with reg.span("serve.instance_run", instance=self.id,
                      workload=self.workload, version=version):
            try:
                occurrence = self.site.start(module).wait()
            except Exception as exc:  # noqa: BLE001 — shipped as a report
                reg.count("serve.instance_errors")
                logger.warning("instance %s/%d version %d failed: %s",
                               self.workload, self.id, version, exc)
                self._outbox.put(InstanceError(
                    instance=self.id, workload=self.workload,
                    version=version, error=exc))
                return
        self.runs += 1
        reg.count("serve.instance_runs")
        signature = canonical_signature(module, occurrence.failure)
        self._outbox.put(FailureReport(
            instance=self.id, workload=self.workload, version=version,
            signature=signature, occurrence=occurrence,
            enqueued=time.time()))


class SignatureBucket:
    """All reports for one canonical fault signature.

    Lifecycle: *created* on first report → one reconstruction job is
    scheduled → per deployed version, the job consumes the
    earliest-arriving report (``take``) while later same-version
    arrivals count as deduplicated → *closed* when the job finishes;
    reports landing afterwards count as stale.
    """

    def __init__(self, signature: FaultSignature, workload: str,
                 instance_count: int, deploy_times: Dict[int, float],
                 version_errors: Dict[int, List[str]],
                 take_timeout: float):
        self.signature = signature
        self.workload = workload
        self.status = "pending"     # pending → waiting → running → done|error
        self.result: Optional[ReconstructionReport] = None
        self.error: Optional[str] = None
        self.wall_seconds = 0.0
        # counters (all mutated under _cond)
        self.reports = 0
        self.deduplicated = 0
        self.stale = 0
        self.consumed = 0
        self.wait_seconds = 0.0
        self.instances_reporting: Set[int] = set()
        self._instance_count = instance_count
        self._deploy_times = deploy_times     # shared with _WorkloadState
        self._version_errors = version_errors  # shared with _WorkloadState
        self._take_timeout = take_timeout
        self._pending: Dict[int, List[FailureReport]] = {}
        self._consumed_versions: Set[int] = set()
        self._closed = False
        self._cond = threading.Condition()

    def offer(self, report: FailureReport) -> str:
        """Route one report in; returns its disposition for telemetry."""
        with self._cond:
            self.reports += 1
            self.instances_reporting.add(report.instance)
            if self._closed or report.version in self._consumed_versions:
                disposition = ("stale" if self._closed else "deduplicated")
                if disposition == "stale":
                    self.stale += 1
                else:
                    self.deduplicated += 1
                return disposition
            self._pending.setdefault(report.version, []).append(report)
            self._cond.notify_all()
            return "pending"

    def notify(self) -> None:
        """Wake a blocked ``take`` after a version-error was recorded."""
        with self._cond:
            self._cond.notify_all()

    def take(self, version: int, *, block: bool) -> Optional[FailureReport]:
        """The earliest-arriving report for ``version`` (deterministic:
        dispatcher arrival order, not thread-scheduling luck).

        Raises when every instance errored for this version, or when
        ``block`` and nothing arrives within the take timeout.
        """
        deadline = time.monotonic() + self._take_timeout
        with self._cond:
            while True:
                pending = self._pending.pop(version, None)
                if pending:
                    pending.sort(key=lambda r: r.seq)
                    report = pending[0]
                    self.deduplicated += len(pending) - 1
                    self._consumed_versions.add(version)
                    self.consumed += 1
                    deployed_at = self._deploy_times.get(version)
                    if deployed_at is not None:
                        self.wait_seconds += max(
                            report.enqueued - deployed_at, 0.0)
                    return report
                errors = self._version_errors.get(version, ())
                if len(errors) >= self._instance_count:
                    raise ReconstructionError(
                        f"all {self._instance_count} instances failed at "
                        f"version {version}: {errors[0]}")
                if not block:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ReconstructionError(
                        f"no instance reported signature "
                        f"{self.signature.digest} for version {version} "
                        f"within {self._take_timeout:.0f}s")
                self._cond.wait(min(remaining, 0.25))

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def summary(self) -> "BucketSummary":
        report = self.result
        streams: Dict[str, str] = {}
        if report is not None and report.test_case is not None:
            streams = {name: data.hex() for name, data
                       in sorted(report.test_case.streams.items())}
        return BucketSummary(
            signature=self.signature.to_dict(),
            workload=self.workload,
            status=self.status,
            success=bool(report.success) if report else False,
            verified=bool(report.verified) if report else False,
            iterations=len(report.iterations) if report else 0,
            occurrences_consumed=self.consumed,
            reports=self.reports,
            deduplicated=self.deduplicated,
            stale=self.stale,
            instances_reporting=len(self.instances_reporting),
            wait_seconds=round(self.wait_seconds, 6),
            wall_seconds=round(self.wall_seconds, 6),
            streams=streams,
            error=self.error)


class _BucketSite:
    """Production-site facade handed to one bucket's reconstructor.

    ``run_once`` deploys the (possibly instrumented) module to every
    fleet instance of the workload and returns the first matching
    report's occurrence from **any** instance.  The first call consumes
    the seed deployment (version 0, shipped by the service before the
    bucket existed) without redeploying.
    """

    def __init__(self, service: "FleetService", state: "_WorkloadState",
                 bucket: SignatureBucket):
        self._service = service
        self._state = state
        self._bucket = bucket
        self._started = False

    def run_once(self, module: Module) -> Occurrence:
        if not self._started:
            self._started = True
            version = 0  # the seed deployment that spawned this bucket
        else:
            version = self._state.deploy(module)
        return self._bucket.take(version, block=True).occurrence

    @property
    def occurrences_so_far(self) -> int:
        return self._bucket.consumed


class _WorkloadState:
    """Per-workload fleet bookkeeping owned by the service."""

    def __init__(self, workload, instance_count: int):
        self.workload = workload
        self.instance_count = instance_count
        self.instances: List[FleetInstance] = []
        self.buckets: List[SignatureBucket] = []
        self.version = 0
        self.deploy_times: Dict[int, float] = {}
        self.version_errors: Dict[int, List[str]] = {}
        self.v0_outcomes = 0
        #: serializes bucket reconstructions of one workload — version
        #: numbering is per-workload, so two buckets redeploying
        #: concurrently would interleave generations
        self.job_lock = threading.Lock()

    def deploy(self, module: Module) -> int:
        """Broadcast a new module version to every instance."""
        self.version += 1
        version = self.version
        self.deploy_times[version] = time.time()
        telemetry.count("serve.redeployments")
        for instance in self.instances:
            instance.deploy(version, module.clone())
        return version

    def record_error(self, note: InstanceError) -> None:
        self.version_errors.setdefault(note.version, []).append(
            str(note.error))
        for bucket in self.buckets:
            bucket.notify()

    def settled(self) -> bool:
        """No more work can originate here: every instance's seed run
        has arrived and every bucket's job has finished."""
        if self.v0_outcomes < self.instance_count:
            return False
        return all(b.status in ("done", "error") for b in self.buckets)


@dataclass
class BucketSummary:
    """One bucket's convergence record (a ``BENCH_serve.json`` row)."""

    signature: Dict
    workload: str
    status: str
    success: bool
    verified: bool
    iterations: int
    occurrences_consumed: int
    reports: int
    deduplicated: int
    stale: int
    instances_reporting: int
    wait_seconds: float
    wall_seconds: float
    streams: Dict[str, str]
    error: Optional[str] = None

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


@dataclass
class ServeSummary:
    """Outcome of one :meth:`FleetService.run`."""

    workloads: List[str]
    instances: int
    parallel: int
    reoccurrence_delay: float
    wall_seconds: float
    buckets: List[BucketSummary]
    instance_runs: int
    reports: int
    #: workloads whose every instance errored at the seed version —
    #: no report ever arrived, so no bucket exists for them
    unserviced: Dict[str, str] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return (not self.unserviced
                and bool(self.buckets)
                and all(b.success for b in self.buckets))

    def bucket_for(self, workload: str) -> Optional[BucketSummary]:
        for bucket in self.buckets:
            if bucket.workload == workload:
                return bucket
        return None

    def to_dict(self) -> Dict:
        return {
            "workloads": self.workloads,
            "instances": self.instances,
            "parallel": self.parallel,
            "reoccurrence_delay": self.reoccurrence_delay,
            "wall_seconds": round(self.wall_seconds, 6),
            "succeeded": self.succeeded,
            "instance_runs": self.instance_runs,
            "reports": self.reports,
            "buckets": [b.to_dict() for b in self.buckets],
            "unserviced": dict(self.unserviced),
        }


class FleetService:
    """The long-running fleet-mode reconstruction service.

    One call to :meth:`run` deploys version 0 of every selected
    workload to ``instances`` fleet instances, routes their failure
    reports through the signature dispatcher, reconstructs every
    bucket that appears (at most ``parallel`` concurrently), and
    returns when the fleet has settled.
    """

    def __init__(self, workloads: Optional[Sequence[str]] = None, *,
                 instances: int = 2,
                 parallel: int = 1,
                 reoccurrence_delay: float = 0.0,
                 work_limit: Optional[int] = None,
                 max_occurrences: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 wait_timeout: float = 600.0,
                 progress: Optional[Progress] = None):
        if instances < 1:
            raise ValueError("instances must be >= 1")
        if parallel < 1:
            raise ValueError("parallel must be >= 1")
        self.workload_names = (list(workloads) if workloads
                               else workload_names())
        self.instances = instances
        self.parallel = parallel
        self.reoccurrence_delay = reoccurrence_delay
        self.work_limit = work_limit
        self.max_occurrences = max_occurrences
        self.cache_dir = cache_dir
        self.wait_timeout = wait_timeout
        self._progress = progress or (lambda message: None)
        self._queue: "queue.Queue" = queue.Queue()
        self._states: Dict[str, _WorkloadState] = {}
        self._buckets: Dict[str, SignatureBucket] = {}
        self._registries: List[telemetry.Telemetry] = []
        self._jobs: List[threading.Thread] = []
        self._slots = threading.BoundedSemaphore(parallel)
        self._lock = threading.Lock()
        self._settled = threading.Event()
        self._dispatch_error: Optional[Exception] = None
        self._seq = 0

    # -- service loop ----------------------------------------------------

    def run(self) -> ServeSummary:
        tel = telemetry.get()
        started = time.perf_counter()
        with tel.span("serve.run", instances=self.instances,
                      workloads=len(self.workload_names),
                      parallel=self.parallel):
            context = tel.trace_context()
            capture = tel.enabled
            for name in self.workload_names:
                workload = get_workload(name)
                state = _WorkloadState(workload, self.instances)
                self._states[name] = state
                for i in range(self.instances):
                    registry = telemetry.Telemetry(
                        sink=MemorySink() if capture else None,
                        context=context)
                    self._registries.append(registry)
                    state.instances.append(FleetInstance(
                        i, name, workload.failing_env, self._queue,
                        reoccurrence_delay=self.reoccurrence_delay,
                        registry=registry))
            dispatcher = threading.Thread(target=self._dispatch_loop,
                                          name="repro-serve-dispatch",
                                          daemon=True)
            dispatcher.start()
            for state in self._states.values():
                for instance in state.instances:
                    instance.start()
                # seed deployment: version 0 of the pristine module
                state.deploy_times[0] = time.time()
                for instance in state.instances:
                    instance.deploy(0, state.workload.fresh_module())
            try:
                self._await_settled()
            finally:
                for state in self._states.values():
                    for instance in state.instances:
                        instance.stop()
                grace = 10.0 + 2.0 * self.reoccurrence_delay
                for state in self._states.values():
                    for instance in state.instances:
                        instance.join(grace)
                self._queue.put(_STOP)
                dispatcher.join(5.0)
            for job in self._jobs:
                job.join(5.0)
            if self._dispatch_error is not None:
                raise self._dispatch_error
            self._fold_instance_telemetry(tel)
            summary = self._summarize(time.perf_counter() - started)
        tel.count("serve.runs")
        return summary

    def _await_settled(self) -> None:
        deadline = time.monotonic() + self.wait_timeout
        while not self._settled.wait(0.1):
            if self._dispatch_error is not None:
                return
            if time.monotonic() > deadline:
                raise ReconstructionError(
                    f"fleet did not settle within {self.wait_timeout:.0f}s")

    def _maybe_settled(self) -> None:
        with self._lock:
            if all(state.settled() for state in self._states.values()):
                self._settled.set()

    # -- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            try:
                if isinstance(item, FailureReport):
                    self._route(item)
                else:
                    self._note_error(item)
                self._maybe_settled()
            except Exception as exc:  # noqa: BLE001 — surfaced in run()
                logger.exception("serve dispatcher failed")
                self._dispatch_error = exc
                self._settled.set()
                return

    def _route(self, report: FailureReport) -> None:
        self._seq += 1
        report.seq = self._seq
        telemetry.count("serve.reports")
        state = self._states[report.workload]
        if report.version == 0:
            state.v0_outcomes += 1
        digest = report.signature.digest
        created = False
        with self._lock:
            bucket = self._buckets.get(digest)
            if bucket is None:
                created = True
                bucket = SignatureBucket(
                    report.signature, report.workload,
                    instance_count=state.instance_count,
                    deploy_times=state.deploy_times,
                    version_errors=state.version_errors,
                    take_timeout=self.wait_timeout)
                self._buckets[digest] = bucket
                state.buckets.append(bucket)
        if created:
            telemetry.count("serve.buckets")
            self._progress(f"[{report.workload}] new bucket "
                           f"{report.signature}")
            job = threading.Thread(
                target=self._run_bucket, args=(state, bucket),
                name=f"repro-serve-bucket-{digest}", daemon=True)
            self._jobs.append(job)
            job.start()
        disposition = bucket.offer(report)
        if disposition == "deduplicated":
            telemetry.count("serve.deduplicated_reports")
        elif disposition == "stale":
            telemetry.count("serve.stale_reports")

    def _note_error(self, note: InstanceError) -> None:
        state = self._states[note.workload]
        if note.version == 0:
            state.v0_outcomes += 1
        state.record_error(note)

    # -- bucket reconstruction jobs --------------------------------------

    def _run_bucket(self, state: _WorkloadState,
                    bucket: SignatureBucket) -> None:
        bucket.status = "waiting"
        try:
            with self._slots, state.job_lock:
                bucket.status = "running"
                started = time.perf_counter()
                site = _BucketSite(self, state, bucket)
                workload = state.workload
                try:
                    # term_scope: bucket jobs run concurrently in one
                    # process; each needs its own interning table
                    with T.term_scope(), \
                            telemetry.span("serve.bucket",
                                           workload=workload.name,
                                           signature=bucket.signature.digest):
                        reconstructor = ExecutionReconstructor(
                            workload.fresh_module(),
                            work_limit=(self.work_limit
                                        or workload.work_limit),
                            max_occurrences=(self.max_occurrences
                                             or workload.max_occurrences),
                            cache_dir=self.cache_dir)
                        bucket.result = reconstructor.reconstruct(site)
                except Exception as exc:  # noqa: BLE001 — per-bucket fault
                    logger.exception("bucket %s reconstruction failed",
                                     bucket.signature.digest)
                    bucket.error = str(exc)
                    bucket.status = "error"
                    telemetry.count("serve.bucket_errors")
                else:
                    bucket.status = "done"
                    telemetry.histogram(
                        "serve.first_reoccurrence_wait_seconds").record(
                        bucket.wait_seconds)
                bucket.wall_seconds = time.perf_counter() - started
        finally:
            bucket.close()
        outcome = ("ok" if bucket.result is not None
                   and bucket.result.success else bucket.error or "failed")
        self._progress(
            f"[{bucket.workload}] bucket {bucket.signature.digest} "
            f"{bucket.status} ({outcome}): {bucket.consumed} occurrences "
            f"consumed, {bucket.deduplicated} deduplicated, "
            f"wait {bucket.wait_seconds:.2f}s, "
            f"wall {bucket.wall_seconds:.2f}s")
        self._maybe_settled()

    # -- teardown --------------------------------------------------------

    def _fold_instance_telemetry(self, tel: telemetry.Telemetry) -> None:
        """Fold per-instance registries through the standard
        cross-registry path: merge snapshots, absorb the aggregate,
        forward the event streams onto the shared timeline."""
        snapshots = [r.snapshot() for r in self._registries]
        tel.absorb(merge_snapshots(snapshots))
        if tel.enabled:
            for registry in self._registries:
                if isinstance(registry.sink, MemorySink):
                    tel.forward(registry.sink.events)

    def _summarize(self, wall_seconds: float) -> ServeSummary:
        buckets = []
        unserviced: Dict[str, str] = {}
        for name, state in self._states.items():
            for bucket in state.buckets:
                buckets.append(bucket.summary())
            if not state.buckets:
                errors = state.version_errors.get(0, ["no failure report"])
                unserviced[name] = errors[0]
        return ServeSummary(
            workloads=list(self.workload_names),
            instances=self.instances,
            parallel=self.parallel,
            reoccurrence_delay=self.reoccurrence_delay,
            wall_seconds=wall_seconds,
            buckets=buckets,
            instance_runs=sum(
                inst.runs for state in self._states.values()
                for inst in state.instances),
            reports=self._seq,
            unserviced=unserviced)


def serve(workloads: Optional[Sequence[str]] = None,
          **kwargs) -> ServeSummary:
    """Convenience one-shot entry point (the ``repro serve`` body)."""
    return FleetService(workloads, **kwargs).run()
