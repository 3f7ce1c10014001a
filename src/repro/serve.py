"""Fleet-mode reconstruction service: ``repro serve``.

ER's wait for a failure reoccurrence (§3.3) is the dominant latency in
a single-site deployment.  A real operator runs a *fleet*: many
instances execute the same deployed version, so the expected wait for
the next occurrence shrinks roughly with fleet size.  This module
simulates that on one thread: ``N`` production instances per workload
(each its own :class:`~repro.core.production.ProductionSite`) report
failures, reports are deduplicated by canonical fault signature
(:mod:`repro.core.signature`) into *buckets*, and one
:class:`~repro.core.reconstructor.ExecutionReconstructor` per bucket
consumes occurrences from **any** instance.

Virtual clock
-------------
Each workload's fleet keeps its own clock in virtual seconds.
Deploying version *v* at time *t* runs every instance once, in
instance order; instance *i*'s report arrives at ``max(t, i's previous
arrival) + reoccurrence_delay × jitter_factor(i, v)``.  The arrivals
go to their buckets sorted by (arrival, instance): a bucket takes the
earliest report per version, later ones count as deduplicated (stale
once the bucket is closed).  Consuming a report moves the clock to its
arrival and adds ``arrival − t`` to the bucket's wait.  Buckets are
reconstructed one at a time, in creation order.

Determinism / byte-identity
---------------------------
Every instance owns a private occurrence counter and runs every
deployed version exactly once, so each instance's site evolves exactly
like the single-site path: the occurrence any instance ships for
iteration *i* is byte-identical to the one ``repro reproduce`` would
have seen.  Which instance arrives first changes only the bucket's
wait, never the reconstruction; waits and counts repeat exactly from
run to run.
"""

from __future__ import annotations

import dataclasses
import logging
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from . import telemetry
from .core.production import Occurrence, ProductionSite
from .core.reconstructor import ExecutionReconstructor
from .core.report import ReconstructionReport
from .core.signature import FaultSignature, canonical_signature
from .errors import ReconstructionError
from .ir.module import Module
from .solver import terms as T
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
    """One instance's failure occurrence, as routed to its bucket."""

    instance: int            # per-workload instance id
    workload: str
    version: int             # deploy generation the instance ran
    signature: FaultSignature
    occurrence: Occurrence
    arrival: float           # virtual seconds on the workload's clock


@dataclass
class InstanceError:
    """An instance's production run raised instead of reporting."""

    instance: int
    workload: str
    version: int
    error: Exception


class FleetInstance:
    """One simulated production instance: a private site and the
    virtual time its last run ended."""

    def __init__(self, instance_id: int, workload_name: str, env_factory):
        self.id = instance_id
        self.workload = workload_name
        self.site = ProductionSite(env_factory)
        self.runs = 0
        self.last_arrival = 0.0

    def run(self, version: int, module: Module, deployed_at: float,
            delay: float) -> Union[FailureReport, InstanceError]:
        # jittered wait: timing only — the earliest arrival varies with
        # the fleet size, the shipped occurrence never does
        arrival = (max(deployed_at, self.last_arrival)
                   + delay * jitter_factor(self.id, version))
        self.last_arrival = arrival
        with telemetry.span("serve.instance_run", instance=self.id,
                            workload=self.workload, version=version):
            try:
                occurrence = self.site.run_once(module)
            except Exception as exc:  # noqa: BLE001 — shipped as a report
                telemetry.count("serve.instance_errors")
                logger.warning("instance %s/%d version %d failed: %s",
                               self.workload, self.id, version, exc)
                return InstanceError(instance=self.id,
                                     workload=self.workload,
                                     version=version, error=exc)
        self.runs += 1
        telemetry.count("serve.instance_runs")
        return FailureReport(
            instance=self.id, workload=self.workload, version=version,
            signature=canonical_signature(module, occurrence.failure),
            occurrence=occurrence, arrival=arrival)


class SignatureBucket:
    """All reports for one canonical fault signature.

    Reports are offered in arrival order.  The first report for each
    version is held for the reconstruction to :meth:`take`; later
    same-version reports count as deduplicated, and every report after
    :meth:`close` as stale.
    """

    def __init__(self, signature: FaultSignature, workload: str):
        self.signature = signature
        self.workload = workload
        self.status = "pending"     # pending → done | error
        self.result: Optional[ReconstructionReport] = None
        self.error: Optional[str] = None
        self.wall_seconds = 0.0
        self.reports = 0
        self.deduplicated = 0
        self.stale = 0
        self.consumed = 0
        self.wait_seconds = 0.0
        self.instances_reporting: Set[int] = set()
        #: version -> its earliest report; None once taken
        self._held: Dict[int, Optional[FailureReport]] = {}
        self._closed = False

    def offer(self, report: FailureReport) -> str:
        """Route one report in; returns its disposition for telemetry."""
        self.reports += 1
        self.instances_reporting.add(report.instance)
        if self._closed:
            self.stale += 1
            return "stale"
        if report.version in self._held:
            self.deduplicated += 1
            return "deduplicated"
        self._held[report.version] = report
        return "pending"

    def take(self, version: int) -> Optional[FailureReport]:
        """The earliest report for ``version`` (once), or ``None`` when
        no instance reported this signature for it."""
        report = self._held.get(version)
        if report is not None:
            self._held[version] = None
            self.consumed += 1
        return report

    def close(self) -> None:
        self._closed = True
        self._held.clear()

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


class _WorkloadFleet:
    """One workload's instances, buckets and virtual clock."""

    def __init__(self, workload, instance_count: int, delay: float,
                 progress: Progress):
        self.workload = workload
        self.instances = [FleetInstance(i, workload.name,
                                        workload.failing_env)
                          for i in range(instance_count)]
        self.delay = delay
        self.clock = 0.0
        self.deploy_times: List[float] = []
        self.version_errors: Dict[int, List[str]] = {}
        self.buckets: List[SignatureBucket] = []
        self._by_digest: Dict[str, SignatureBucket] = {}
        self._progress = progress

    def deploy(self, module: Module) -> int:
        """Run ``module`` once on every instance at the current clock
        and route the reports; returns the new version number."""
        version = len(self.deploy_times)
        deployed_at = self.clock
        self.deploy_times.append(deployed_at)
        if version:
            telemetry.count("serve.redeployments")
        reports = []
        for instance in self.instances:
            outcome = instance.run(version, module, deployed_at, self.delay)
            if isinstance(outcome, InstanceError):
                self.version_errors.setdefault(version, []).append(
                    str(outcome.error))
            else:
                reports.append(outcome)
        reports.sort(key=lambda r: (r.arrival, r.instance))
        for report in reports:
            self._route(report)
        return version

    def _route(self, report: FailureReport) -> None:
        telemetry.count("serve.reports")
        bucket = self._by_digest.get(report.signature.digest)
        if bucket is None:
            bucket = SignatureBucket(report.signature, report.workload)
            self._by_digest[report.signature.digest] = bucket
            self.buckets.append(bucket)
            telemetry.count("serve.buckets")
            self._progress(f"[{report.workload}] new bucket "
                           f"{report.signature}")
        disposition = bucket.offer(report)
        if disposition == "deduplicated":
            telemetry.count("serve.deduplicated_reports")
        elif disposition == "stale":
            telemetry.count("serve.stale_reports")

    def consume(self, bucket: SignatureBucket, version: int) -> Occurrence:
        """The bucket's earliest report for ``version``; advances the
        clock to its arrival.  Every instance has run ``version`` by
        now, so a missing report can never still come."""
        report = bucket.take(version)
        if report is None:
            errors = self.version_errors.get(version, ())
            if len(errors) == len(self.instances):
                raise ReconstructionError(
                    f"all {len(self.instances)} instances failed at "
                    f"version {version}: {errors[0]}")
            raise ReconstructionError(
                f"no instance reported signature "
                f"{bucket.signature.digest} for version {version}")
        bucket.wait_seconds += report.arrival - self.deploy_times[version]
        # never backwards: a later bucket's seed report (version 0) may
        # have arrived before the clock's current time
        self.clock = max(self.clock, report.arrival)
        return report.occurrence


class _BucketSite:
    """Production-site facade handed to one bucket's reconstructor.

    The first ``run_once`` consumes the seed deployment (version 0, run
    before the bucket existed); every later one deploys the (possibly
    instrumented) module to the whole fleet and consumes the earliest
    matching report from **any** instance.
    """

    def __init__(self, fleet: _WorkloadFleet, bucket: SignatureBucket):
        self._fleet = fleet
        self._bucket = bucket
        self._started = False

    def run_once(self, module: Module) -> Occurrence:
        if self._started:
            version = self._fleet.deploy(module)
        else:
            self._started = True
            version = 0
        return self._fleet.consume(self._bucket, version)


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

    def to_dict(self) -> Dict:
        return {
            "workloads": self.workloads,
            "instances": self.instances,
            "reoccurrence_delay": self.reoccurrence_delay,
            "wall_seconds": round(self.wall_seconds, 6),
            "succeeded": self.succeeded,
            "instance_runs": self.instance_runs,
            "reports": self.reports,
            "buckets": [b.to_dict() for b in self.buckets],
            "unserviced": dict(self.unserviced),
        }


class FleetService:
    """The fleet-mode reconstruction service.

    One call to :meth:`run` takes the selected workloads in turn: it
    deploys version 0 to ``instances`` fleet instances, routes their
    reports into signature buckets, and reconstructs every bucket, one
    at a time in creation order.  ``reoccurrence_delay`` is the mean
    wait, in virtual seconds, before an instance's failure reoccurs.
    ``parallel`` is accepted for older callers and ignored.
    ``cache_dir`` gives every bucket's reconstruction one shared disk
    solver cache (:class:`~repro.solver.diskcache.DiskSolverCache`); it
    is kept only because the layer benchmark's ``fleet`` workload
    (``benchmarks/layers/worker.py``) passes it.
    """

    def __init__(self, workloads: Optional[Sequence[str]] = None, *,
                 instances: int = 2,
                 parallel: int = 1,
                 reoccurrence_delay: float = 0.0,
                 work_limit: Optional[int] = None,
                 max_occurrences: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 progress: Optional[Progress] = None):
        del parallel
        if instances < 1:
            raise ValueError("instances must be >= 1")
        if not reoccurrence_delay >= 0:
            raise ValueError("reoccurrence_delay must be >= 0")
        self.workload_names = (list(workloads) if workloads
                               else workload_names())
        self.instances = instances
        self.reoccurrence_delay = reoccurrence_delay
        self.work_limit = work_limit
        self.max_occurrences = max_occurrences
        self.cache_dir = cache_dir
        self._progress = progress or (lambda message: None)

    def run(self) -> ServeSummary:
        tel = telemetry.get()
        started = time.perf_counter()
        fleets: Dict[str, _WorkloadFleet] = {}
        with tel.span("serve.run", instances=self.instances,
                      workloads=len(self.workload_names)):
            for name in self.workload_names:
                # looked up at run time so callers can substitute it
                workload = get_workload(name)
                fleet = _WorkloadFleet(workload, self.instances,
                                       self.reoccurrence_delay,
                                       self._progress)
                fleets[name] = fleet
                fleet.deploy(workload.module())
                # a redeploy may create a bucket; the loop reaches it
                for bucket in fleet.buckets:
                    self._reconstruct(fleet, bucket)
            summary = self._summarize(fleets, time.perf_counter() - started)
        tel.count("serve.runs")
        return summary

    def _reconstruct(self, fleet: _WorkloadFleet,
                     bucket: SignatureBucket) -> None:
        started = time.perf_counter()
        workload = fleet.workload
        try:
            # one interning table per reconstruction, as in a
            # single-site run: no bucket sees another's terms
            with T.term_scope(), \
                    telemetry.span("serve.bucket", workload=workload.name,
                                   signature=bucket.signature.digest):
                reconstructor = ExecutionReconstructor(
                    workload.module(),
                    work_limit=self.work_limit or workload.work_limit,
                    max_occurrences=(self.max_occurrences
                                     or workload.max_occurrences),
                    cache_dir=self.cache_dir)
                bucket.result = reconstructor.reconstruct(
                    _BucketSite(fleet, bucket))
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
        bucket.close()
        outcome = ("ok" if bucket.result is not None
                   and bucket.result.success else bucket.error or "failed")
        self._progress(
            f"[{bucket.workload}] bucket {bucket.signature.digest} "
            f"{bucket.status} ({outcome}): {bucket.consumed} occurrences "
            f"consumed, {bucket.deduplicated} deduplicated, "
            f"wait {bucket.wait_seconds:.2f}s, "
            f"wall {bucket.wall_seconds:.2f}s")

    def _summarize(self, fleets: Dict[str, _WorkloadFleet],
                   wall_seconds: float) -> ServeSummary:
        buckets = []
        unserviced: Dict[str, str] = {}
        for name, fleet in fleets.items():
            buckets.extend(bucket.summary() for bucket in fleet.buckets)
            if not fleet.buckets:
                errors = fleet.version_errors.get(0, ["no failure report"])
                unserviced[name] = errors[0]
        return ServeSummary(
            workloads=list(self.workload_names),
            instances=self.instances,
            reoccurrence_delay=self.reoccurrence_delay,
            wall_seconds=wall_seconds,
            buckets=buckets,
            instance_runs=sum(inst.runs for fleet in fleets.values()
                              for inst in fleet.instances),
            reports=sum(bucket.reports for bucket in buckets),
            unserviced=unserviced)
