"""Fleet-mode reconstruction service (``repro serve``).

Pins the dedup/bucketing contract (satellite: identical failures from
distinct instances land in one bucket, distinct failures never merge,
convergence consumes the earliest-arriving occurrence
deterministically), the virtual clock (waits and counts are exact and
repeat from run to run, with no thread and no sleep), and the headline
property: the fleet's reconstruction is byte-identical to the
single-site path, because every instance runs every deployed version
exactly once.
"""

import itertools
import threading
import time
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.core import ExecutionReconstructor, ProductionSite
from repro.errors import ReconstructionError
from repro.serve import (FailureReport, FleetService, SignatureBucket,
                         _WorkloadFleet, jitter_factor)
from repro.core.signature import FaultSignature, canonical_signature
from repro.interp.env import Environment
from repro.workloads.registry import get_workload, workload_names

WORKLOAD = "sqlite-7be932d"


def _single_site(name):
    w = get_workload(name)
    reconstructor = ExecutionReconstructor(
        w.module(), work_limit=w.work_limit,
        max_occurrences=w.max_occurrences)
    return reconstructor.reconstruct(ProductionSite(w.failing_env))


def _streams(report):
    return {name: data.hex()
            for name, data in sorted(report.test_case.streams.items())}


def _sig(site="main:entry:0"):
    return FaultSignature("abort", site, ("main",))


def _report(instance, version, arrival, payload):
    return FailureReport(instance=instance, workload="w", version=version,
                         signature=_sig(), occurrence=payload,
                         arrival=arrival)


def _fake_workload(abort_module, env_factory):
    return SimpleNamespace(name="fake", failing_env=env_factory,
                           module=lambda: abort_module,
                           work_limit=100_000, max_occurrences=5)


class TestSignatureBucket:
    def test_earliest_arrival_consumed_deterministically(self):
        bucket = SignatureBucket(_sig(), "w")
        # offered in arrival order: instance 2's report arrived first
        assert bucket.offer(_report(2, 0, 0.3, "first-arrival")) \
            == "pending"
        assert bucket.offer(_report(0, 0, 0.7, "second-arrival")) \
            == "deduplicated"
        taken = bucket.take(0)
        assert taken.instance == 2
        assert taken.occurrence == "first-arrival"
        assert bucket.consumed == 1
        assert bucket.deduplicated == 1  # the later arrival

    def test_later_same_version_reports_deduplicated(self):
        bucket = SignatureBucket(_sig(), "w")
        bucket.offer(_report(0, 0, 0.1, "winner"))
        bucket.take(0)
        disposition = bucket.offer(_report(1, 0, 0.2, "late"))
        assert disposition == "deduplicated"
        assert bucket.deduplicated == 1
        assert bucket.reports == 2
        assert bucket.take(0) is None  # each version is consumed once
        assert bucket.consumed == 1

    def test_closed_bucket_counts_stale(self):
        bucket = SignatureBucket(_sig(), "w")
        bucket.close()
        assert bucket.offer(_report(0, 0, 0.1, "x")) == "stale"
        assert bucket.stale == 1
        assert bucket.take(0) is None

    def test_versions_isolated(self):
        bucket = SignatureBucket(_sig(), "w")
        bucket.offer(_report(0, 1, 0.1, "v1"))
        assert bucket.take(0) is None
        assert bucket.take(1).occurrence == "v1"

    def test_all_instances_errored_raises(self, abort_module):
        # the consuming path: every instance has run version 0 and
        # errored, so the bucket can never get a report for it
        def explode(occ):
            raise RuntimeError(f"boom-{occ}")

        fleet = _WorkloadFleet(_fake_workload(abort_module, explode),
                               2, 0.0, lambda message: None)
        fleet.deploy(abort_module)
        with pytest.raises(ReconstructionError,
                           match="all 2 instances failed at version 0: "
                                 "boom-1"):
            fleet.consume(SignatureBucket(_sig(), "fake"), 0)

    def test_instances_reporting_tracked(self):
        bucket = SignatureBucket(_sig(), "w")
        bucket.offer(_report(0, 0, 0.1, "a"))
        bucket.offer(_report(2, 0, 0.2, "b"))
        assert bucket.instances_reporting == {0, 2}


class TestJitter:
    def test_deterministic(self):
        assert jitter_factor(1, 3) == jitter_factor(1, 3)

    def test_bounded(self):
        for i in range(8):
            for v in range(8):
                assert 0.5 <= jitter_factor(i, v) < 1.5

    def test_min_wait_shrinks_with_fleet_size(self):
        # the scalability effect BENCH_serve.json records: the best
        # instance's wait over a 4-version reconstruction shrinks
        # strictly as the fleet grows 1 -> 2 -> 4
        def total(n):
            return sum(min(jitter_factor(i, v) for i in range(n))
                       for v in range(4))
        assert total(1) > total(2) > total(4)


class TestFleetService:
    def test_identical_failures_from_distinct_instances_one_bucket(self):
        summary = FleetService([WORKLOAD], instances=3).run()
        assert len(summary.buckets) == 1
        bucket = summary.buckets[0]
        assert bucket.success and bucket.status == "done"
        # every instance reported the same fault for every version; all
        # landed together and all but the earliest were deduplicated
        assert bucket.instances_reporting == 3
        assert bucket.reports == summary.instance_runs \
            == 3 * bucket.iterations
        assert bucket.deduplicated == 2 * bucket.iterations
        assert bucket.stale == 0
        assert summary.succeeded

    def test_distinct_failures_never_merge(self):
        summary = FleetService([WORKLOAD, "php-74194"],
                               instances=2).run()
        assert len(summary.buckets) == 2
        digests = {b.signature["digest"] for b in summary.buckets}
        workloads = {b.workload for b in summary.buckets}
        assert len(digests) == 2
        assert workloads == {WORKLOAD, "php-74194"}
        for bucket in summary.buckets:
            assert bucket.success

    def test_byte_identical_to_single_site(self):
        single = _single_site(WORKLOAD)
        expected = _streams(single)
        for instances in (1, 3):
            summary = FleetService([WORKLOAD], instances=instances).run()
            bucket = summary.buckets[0]
            assert bucket.streams == expected
            assert bucket.iterations == len(single.iterations)
            assert bucket.verified == single.verified

    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload_matches_single_site(self, name):
        # instances deploy, run and report on the fleet's virtual
        # clock; the bucket must still converge on exactly the
        # sequential loop's reconstruction
        single = _single_site(name)
        bucket = FleetService([name], instances=2).run().buckets[0]
        assert bucket.success and single.success
        assert bucket.streams == _streams(single)
        assert bucket.iterations == len(single.iterations)
        assert bucket.occurrences_consumed == single.occurrences
        assert bucket.verified == single.verified

    def test_deterministic_across_runs(self):
        first = FleetService([WORKLOAD], instances=3).run()
        second = FleetService([WORKLOAD], instances=3).run()
        assert first.buckets[0].streams == second.buckets[0].streams
        assert first.buckets[0].occurrences_consumed \
            == second.buckets[0].occurrences_consumed

    def test_counts_and_waits_repeat_across_runs(self):
        def observed():
            summary = FleetService(["pbzip2-uaf"], instances=3,
                                   reoccurrence_delay=0.3).run()
            return summary.instance_runs, [
                (b.reports, b.deduplicated, b.stale,
                 b.instances_reporting, b.wait_seconds)
                for b in summary.buckets]

        first, second = observed(), observed()
        assert first == second
        assert first[1]  # at least one bucket to compare

    @pytest.mark.parametrize("instances, wait", [
        (1, 1.2564), (2, 1.0800), (4, 0.8124)])
    def test_wait_follows_the_arrival_rule(self, instances, wait):
        # pbzip2-uaf consumes 4 versions; each version's wait is the
        # earliest max(t, previous arrival) + 0.3 x jitter over the fleet
        summary = FleetService(["pbzip2-uaf"], instances=instances,
                               reoccurrence_delay=0.3).run()
        bucket = summary.buckets[0]
        assert bucket.occurrences_consumed == 4
        assert bucket.wait_seconds == pytest.approx(wait, abs=1e-6)
        assert summary.instance_runs == 4 * instances

    def test_runs_without_threads_or_sleep(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the fleet must not thread or sleep")

        monkeypatch.setattr(threading.Thread, "start", forbidden)
        monkeypatch.setattr(time, "sleep", forbidden)
        summary = FleetService([WORKLOAD, "php-74194"], instances=2,
                               reoccurrence_delay=5.0).run()
        assert summary.succeeded
        assert all(b.wait_seconds > 0 for b in summary.buckets)

    def test_parallel_buckets(self):
        # ``parallel`` is still accepted (the layer benchmark passes
        # it) and ignored: buckets reconstruct one at a time
        summary = FleetService([WORKLOAD, "php-74194"], instances=2,
                               parallel=2).run()
        assert summary.succeeded
        assert len(summary.buckets) == 2
        assert "parallel" not in summary.to_dict()

    def test_warm_cache_dir_reconstructs_the_same(self, tmp_path):
        # FleetService(cache_dir=) is the one way into the disk tier: a
        # cold and a warm pass must reconstruct what the service does
        # without one, and the warm pass must read the store
        names = [WORKLOAD, "bash-108885"]

        def observed(**kwargs):
            registry = telemetry.Telemetry()
            with telemetry.scoped(registry):
                summary = FleetService(names, instances=2, **kwargs).run()
            assert summary.succeeded
            return ([(b.workload, b.streams, b.iterations)
                     for b in summary.buckets],
                    registry.snapshot()["counters"])

        plain, _ = observed()
        cold, _ = observed(cache_dir=str(tmp_path))
        warm, counters = observed(cache_dir=str(tmp_path))
        assert cold == plain and warm == plain
        assert counters.get("solver.cache.disk_hits_exact", 0) > 0
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["solver-cache.jsonl", "solver-cache.lock"]

    def test_summary_shape(self):
        summary = FleetService([WORKLOAD], instances=2).run()
        data = summary.to_dict()
        assert data["instances"] == 2
        assert data["succeeded"] is True
        assert data["reports"] == summary.reports
        bucket = data["buckets"][0]
        for key in ("signature", "occurrences_consumed", "reports",
                    "deduplicated", "wait_seconds", "wall_seconds",
                    "streams"):
            assert key in bucket
        assert bucket["signature"]["digest"]

    def test_telemetry_folded_through_trace_context(self):
        sink = telemetry.MemorySink()
        registry = telemetry.Telemetry(sink)
        with telemetry.scoped(registry):
            summary = FleetService([WORKLOAD], instances=2).run()
            counters = registry.snapshot()["counters"]
        bucket = summary.buckets[0]
        assert counters["serve.reports"] == bucket.reports \
            == 2 * bucket.iterations
        assert counters["serve.deduplicated_reports"] \
            == bucket.deduplicated == bucket.iterations
        assert counters["serve.buckets"] == 1
        assert counters["serve.instance_runs"] == summary.instance_runs
        assert counters["serve.runs"] == 1
        # instance spans land straight on the shared trace timeline
        spans = [e for e in sink.events
                 if e.get("name") == "serve.instance_run"]
        assert len(spans) == summary.instance_runs
        assert all(e.get("trace_id", registry.trace_id)
                   == registry.trace_id for e in sink.events
                   if "trace_id" in e)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FleetService([WORKLOAD], instances=0)
        # a negative delay would make a report arrive before its deploy
        with pytest.raises(ValueError):
            FleetService([WORKLOAD], reoccurrence_delay=-1.0)


class TestFleetErrors:
    def test_unserviced_when_every_instance_errors(self, monkeypatch,
                                                   abort_module):
        def explode(occ):
            raise RuntimeError("instance down")

        fake = _fake_workload(abort_module, explode)
        monkeypatch.setattr("repro.serve.get_workload", lambda name: fake)
        summary = FleetService(["fake"], instances=2).run()
        assert summary.buckets == []
        assert "fake" in summary.unserviced
        assert "instance down" in summary.unserviced["fake"]
        assert not summary.succeeded

    def test_healthy_instances_cover_a_failed_one(self, monkeypatch,
                                                  abort_module):
        # instance whose every run errors: the fleet still converges
        # off the healthy instances' reports
        calls = {"n": 0}

        def flaky(occ):
            calls["n"] += 1
            if calls["n"] % 2 == 0:  # every other run across the fleet
                raise RuntimeError("flaky instance")
            return Environment({"stdin": b"\xc8"})

        fake = _fake_workload(abort_module, flaky)
        monkeypatch.setattr("repro.serve.get_workload", lambda name: fake)
        summary = FleetService(["fake"], instances=2).run()
        assert len(summary.buckets) == 1
        assert summary.buckets[0].success

    def test_version_nobody_reports_fails_at_once(self, monkeypatch):
        # from version 1 on, every instance signs its report
        # differently, so the first bucket gets no report for version
        # 1 and the bucket born from those reports none for version 0:
        # both fail as soon as the version's arrivals are routed
        calls = itertools.count()

        def drifting(module, failure):
            if next(calls) < 2:  # version 0 on both instances
                return canonical_signature(module, failure)
            return _sig("main:elsewhere:0")

        monkeypatch.setattr("repro.serve.canonical_signature", drifting)
        summary = FleetService([WORKLOAD], instances=2).run()
        first, drifted = summary.buckets
        assert first.error == (f"no instance reported signature "
                               f"{first.signature['digest']} for version 1")
        assert drifted.error == (f"no instance reported signature "
                                 f"{drifted.signature['digest']} for "
                                 f"version 0")
        assert first.status == drifted.status == "error"
        assert not summary.succeeded
