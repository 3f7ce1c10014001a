"""ProductionSite operational modes: buffer growth, deferred tracing,
deferred (background-thread) occurrences."""

import pytest

from repro import telemetry
from repro.core.production import ProductionSite
from repro.core.reconstructor import ExecutionReconstructor
from repro.errors import ReconstructionError
from repro.interp.env import Environment
from repro.workloads import get_workload


def failing_factory(occ):
    return Environment({"stdin": b"\xc8"})


class TestAutoGrowBuffer:
    def test_tiny_buffer_grows_until_trace_fits(self, abort_module):
        site = ProductionSite(failing_factory, ring_capacity=4)
        occurrence = site.run_once(abort_module)
        assert occurrence.failure is not None
        assert site.ring_capacity >= occurrence.trace_bytes
        assert site.occurrences_so_far > 1  # retraced after growing

    def test_growth_disabled_raises(self, abort_module):
        site = ProductionSite(failing_factory, ring_capacity=4,
                              auto_grow_buffer=False)
        with pytest.raises(ReconstructionError, match="ring buffer"):
            site.run_once(abort_module)

    def test_wrap_and_grow_counters(self, abort_module):
        tel = telemetry.Telemetry()
        with telemetry.scoped(tel):
            site = ProductionSite(failing_factory, ring_capacity=4)
            site.run_once(abort_module)
        assert site.ring_wraps >= 1
        assert site.auto_grows >= 1
        # capacity doubled auto_grows times from the initial 4
        assert site.ring_capacity == 4 * 2 ** site.auto_grows
        counters = tel.snapshot()["counters"]
        assert counters["production.ring_wraps"] == site.ring_wraps
        assert counters["production.auto_grows"] == site.auto_grows
        assert tel.gauge("production.ring_capacity").value \
            == site.ring_capacity

    def test_wrap_event_emitted(self, abort_module):
        sink = telemetry.MemorySink()
        with telemetry.scoped(telemetry.Telemetry(sink)):
            ProductionSite(failing_factory,
                           ring_capacity=4).run_once(abort_module)
        wraps = sink.named("production.ring_wrap")
        assert wraps and wraps[0]["attrs"]["capacity"] == 4

    def test_no_wraps_counted_with_ample_buffer(self, abort_module):
        tel = telemetry.Telemetry()
        with telemetry.scoped(tel):
            site = ProductionSite(failing_factory)
            site.run_once(abort_module)
        assert site.ring_wraps == 0 and site.auto_grows == 0
        assert "production.ring_wraps" not in tel.snapshot()["counters"]

    def test_reconstruction_survives_small_initial_buffer(self,
                                                          abort_module):
        er = ExecutionReconstructor(abort_module)
        report = er.reconstruct(
            ProductionSite(failing_factory, ring_capacity=16))
        assert report.success and report.verified


class TestDeferredTracing:
    def test_first_failures_not_traced(self, abort_module):
        site = ProductionSite(failing_factory, trace_after=3)
        occurrence = site.run_once(abort_module)
        assert occurrence.failure is not None
        # 3 untraced failures + 1 traced one
        assert site.occurrences_so_far == 4

    def test_zero_means_always_on(self, abort_module):
        site = ProductionSite(failing_factory, trace_after=0)
        site.run_once(abort_module)
        assert site.occurrences_so_far == 1

    def test_reconstruction_with_deferred_tracing(self, abort_module):
        er = ExecutionReconstructor(abort_module)
        report = er.reconstruct(
            ProductionSite(failing_factory, trace_after=2))
        assert report.success


class TestDeferredOccurrence:
    def test_start_delivers_same_occurrence_as_run_once(self):
        workload = get_workload("objdump-2018-6323")
        site = ProductionSite(workload.failing_env)
        deferred = site.start(workload.fresh_module())
        occurrence = deferred.wait()
        assert deferred.done()
        assert deferred.wait() is occurrence
        assert occurrence.failure is not None
        assert occurrence.trace.chunks

    def test_only_one_deferred_run_at_a_time(self):
        workload = get_workload("objdump-2018-6323")
        site = ProductionSite(workload.failing_env,
                              reoccurrence_delay=0.5)
        module = workload.fresh_module()
        site.start(module)
        with pytest.raises(ReconstructionError, match="already active"):
            site.start(module)

    def test_start_returns_before_the_run_finishes(self):
        workload = get_workload("objdump-2018-6323")
        site = ProductionSite(workload.failing_env,
                              reoccurrence_delay=0.3)
        deferred = site.start(workload.fresh_module())
        assert not deferred.done()  # still sleeping
        assert deferred.wait().failure is not None

    def test_background_exception_reraised_on_wait(self):
        def exploding_env(_):
            raise RuntimeError("production environment down")

        site = ProductionSite(exploding_env)
        deferred = site.start(get_workload(
            "objdump-2018-6323").fresh_module())
        with pytest.raises(RuntimeError, match="environment down"):
            deferred.wait()


class TestDeferredErrorSurfacing:
    """A deferred run that fails *unobserved* must not vanish.

    Regression: ``ProductionSite.start()`` used to overwrite the
    previous ``DeferredOccurrence`` handle unconditionally, silently
    discarding a captured exception nobody had polled yet.
    """

    @staticmethod
    def _flaky_factory(fail_on):
        def factory(occ):
            if occ in fail_on:
                raise RuntimeError(f"env exploded at occurrence {occ}")
            return Environment({"stdin": b"\xc8"})
        return factory

    @staticmethod
    def _settle(deferred):
        deferred._thread.join(10.0)
        assert deferred.done()

    def test_unpolled_error_surfaces_on_next_start(self, abort_module):
        site = ProductionSite(self._flaky_factory({1}))
        deferred = site.start(abort_module)
        self._settle(deferred)
        # nobody polls; the next start must surface the loss, not
        # silently discard it
        with pytest.raises(RuntimeError, match="occurrence 1"):
            site.start(abort_module)
        # the stale handle is cleared: the site recovers afterwards
        occurrence = site.start(abort_module).wait()
        assert occurrence.failure is not None

    def test_polled_error_not_raised_twice(self, abort_module):
        site = ProductionSite(self._flaky_factory({1}))
        deferred = site.start(abort_module)
        with pytest.raises(RuntimeError):
            deferred.wait()  # consumed here...
        occurrence = site.start(abort_module).wait()  # ...not again
        assert occurrence.failure is not None

    def test_unraised_error_accessor(self, abort_module):
        site = ProductionSite(self._flaky_factory({1}))
        deferred = site.start(abort_module)
        self._settle(deferred)
        assert isinstance(deferred.unraised_error(), RuntimeError)
        with pytest.raises(RuntimeError):
            deferred.wait()
        assert deferred.unraised_error() is None  # delivered

    def test_successful_run_never_flagged(self, abort_module):
        site = ProductionSite(failing_factory)
        deferred = site.start(abort_module)
        self._settle(deferred)
        assert deferred.unraised_error() is None
        site.start(abort_module).wait()  # no spurious raise


class TestDeferredBaseException:
    """Interpreter-shutdown exceptions propagate; only ``Exception``
    subclasses are stashed for re-raise at poll/wait time."""

    class _Shutdown(BaseException):
        pass

    def test_base_exception_not_stashed(self, abort_module, monkeypatch):
        import threading

        def factory(occ):
            raise self._Shutdown()

        # the BaseException escapes the worker thread by design; keep
        # the default excepthook from spamming the test output
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        site = ProductionSite(factory)
        deferred = site.start(abort_module)
        deferred._thread.join(10.0)
        assert deferred._error is None  # not trapped
        with pytest.raises(ReconstructionError,
                           match="without a result"):
            deferred.wait()

    def test_plain_exception_still_captured(self, abort_module):
        site = ProductionSite(
            TestDeferredErrorSurfacing._flaky_factory({1}))
        deferred = site.start(abort_module)
        with pytest.raises(RuntimeError, match="env exploded"):
            deferred.wait()
