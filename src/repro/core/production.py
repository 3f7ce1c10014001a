"""The simulated production deployment where a failure keeps reoccurring.

ER's iterative algorithm (§3.3.4) assumes the failure reoccurs in a
large-scale deployment; each occurrence runs whatever program version ER
last shipped (possibly instrumented with more ``ptwrite``s) and produces
a fresh trace.  :class:`ProductionSite` packages that: an environment
factory (occurrences may differ subtly — different identifiers, clock
values, noise), the PT ring-buffer configuration, and the run loop.

Crucially, the analysis side of ER never sees the environment's secret
inputs — only the shipped trace and failure signature, like a real
deployment.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .. import telemetry
from ..errors import ReconstructionError, TraceTruncatedError
from ..interp.env import Environment
from ..interp.failures import FailureInfo
from ..interp.interpreter import Interpreter, RunResult
from ..ir.module import Module
from ..trace.decoder import DecodedTrace, decode
from ..trace.encoder import PTEncoder
from ..trace.ringbuffer import DEFAULT_CAPACITY, RingBuffer

EnvFactory = Callable[[int], Environment]

logger = logging.getLogger(__name__)


@dataclass
class Occurrence:
    """One production failure occurrence shipped to the analysis engine."""

    index: int
    failure: FailureInfo
    trace: DecodedTrace
    trace_bytes: int
    run: RunResult  # available to evaluation harnesses, not to ER's core


class DeferredOccurrence:
    """Handle to a production run executing on a background thread.

    Nothing in the package runs production this way: the fleet
    service calls :meth:`ProductionSite.run_once` on its one thread.
    This class and :meth:`ProductionSite.start` stay only because the
    layer benchmark wraps ``ProductionSite.start`` by name.  The thread
    runs the *same* ``run_once`` body against the process-global
    telemetry registry; exceptions are captured and re-raised on the
    consuming thread at :meth:`wait` time.
    """

    def __init__(self, site: "ProductionSite", module: Module):
        self._result: Optional[Occurrence] = None
        self._error: Optional[Exception] = None
        self._delivered = False
        self._thread = threading.Thread(
            target=self._run, args=(site, module),
            name="repro-production", daemon=True)
        self._thread.start()

    def _run(self, site: "ProductionSite", module: Module) -> None:
        # Exception only: KeyboardInterrupt/SystemExit on the daemon
        # thread must propagate (interpreter shutdown), not be stashed
        # and re-raised later at an arbitrary wait() call site
        try:
            self._result = site.run_once(module)
        except Exception as exc:  # noqa: BLE001 — re-raised on wait
            self._error = exc

    def done(self) -> bool:
        return not self._thread.is_alive()

    def unraised_error(self) -> Optional[Exception]:
        """The captured run exception, if it finished with one that no
        ``wait`` caller has consumed yet."""
        if self._delivered or self._thread.is_alive():
            return None
        return self._error

    def wait(self) -> Occurrence:
        """Block until the production run finishes; re-raises a failed
        run's exception."""
        self._thread.join()
        self._delivered = True
        if self._error is not None:
            raise self._error
        if self._result is None:
            # the thread died without setting either field — a
            # BaseException (interpreter shutdown, interrupt) tore it
            # down; there is no occurrence to deliver
            raise ReconstructionError(
                "deferred production run terminated without a result")
        return self._result


class ProductionSite:
    """Runs the deployed module until the monitored failure occurs.

    A run returns as soon as the failure occurs: the minutes-to-hours
    wait between occurrences (§3.3) is not slept here.  ``repro serve``
    models it on its virtual clock instead (:mod:`repro.serve`).
    """

    def __init__(self, env_factory: EnvFactory, *,
                 ring_capacity: int = DEFAULT_CAPACITY,
                 max_steps: int = 20_000_000,
                 max_attempts_per_occurrence: int = 50,
                 auto_grow_buffer: bool = True,
                 trace_after: int = 0,
                 mapping_loss: float = 0.0,
                 per_cpu_buffers: bool = False):
        self.env_factory = env_factory
        self.ring_capacity = ring_capacity
        self.max_steps = max_steps
        self.max_attempts = max_attempts_per_occurrence
        #: when the ring buffer wraps (trace longer than the buffer),
        #: double its capacity and wait for the next occurrence — the
        #: operational analog of the paper sizing its 64 MB buffer to
        #: the largest evaluated trace (§4)
        self.auto_grow_buffer = auto_grow_buffer
        #: §3.1: operators may enable tracing only after the failure has
        #: been seen this many times (zero-cost monitoring before that)
        self.trace_after = trace_after
        #: §4: fraction of TNT bits lost to control-flow mapping (the
        #: paper measures 8.5 %); lost bits become GapEvents
        self.mapping_loss = mapping_loss
        #: real PT writes one buffer per CPU; merging them by coarse
        #: timestamp loses the order of equal-timestamp chunks (§3.4)
        self.per_cpu_buffers = per_cpu_buffers
        self._occurrence = 0
        self._untraced_failures = 0
        self._deferred: Optional[DeferredOccurrence] = None
        #: ring-buffer wraps observed and capacity doublings performed
        self.ring_wraps = 0
        self.auto_grows = 0

    def start(self, module: Module) -> DeferredOccurrence:
        """Begin waiting for the next occurrence without blocking.

        Non-blocking counterpart of :meth:`run_once`: the production
        wait runs on a background thread until the caller ``wait()``s.
        Only one deferred run may be active at a time — ``run_once``
        mutates per-site state (occurrence index, ring capacity) that
        must not race.  Kept for the layer benchmark, which wraps this
        method by name; see :class:`DeferredOccurrence`.
        """
        if self._deferred is not None:
            if not self._deferred.done():
                raise ReconstructionError(
                    "a deferred production run is already active")
            stale = self._deferred.unraised_error()
            if stale is not None:
                # the previous run finished with an error nobody
                # polled; silently replacing the handle would discard
                # it — surface the failure before starting a new run
                logger.error("previous deferred production run failed "
                             "unobserved: %s", stale)
                self._deferred = None
                raise stale
        self._deferred = DeferredOccurrence(self, module)
        return self._deferred

    def run_once(self, module: Module) -> Occurrence:
        """Run the deployed module until it fails; ship the trace."""
        tel = telemetry.get()
        for _ in range(self.max_attempts):
            self._occurrence += 1
            env = self.env_factory(self._occurrence)
            tracing = self._untraced_failures >= self.trace_after
            encoder = PTEncoder(RingBuffer(self.ring_capacity)) \
                if tracing else None
            with tel.span("production.attempt",
                          occurrence=self._occurrence, tracing=tracing):
                result = Interpreter(module, env, tracer=encoder,
                                     max_steps=self.max_steps).run()
            tel.count("production.runs")
            if result.failure is None:
                tel.count("production.benign_runs")
                continue  # benign request; wait for the next one
            tel.count("production.failures")
            if not tracing:
                # seen, counted, but not yet traced (§3.1 deferred mode)
                self._untraced_failures += 1
                tel.count("production.untraced_failures")
                continue
            tel.count("production.trace_bytes", encoder.bytes_emitted)
            try:
                trace = decode(encoder.buffer)
            except TraceTruncatedError:
                self.ring_wraps += 1
                tel.count("production.ring_wraps")
                tel.event("production.ring_wrap",
                          occurrence=self._occurrence,
                          capacity=self.ring_capacity,
                          trace_bytes=encoder.bytes_emitted)
                if not self.auto_grow_buffer:
                    raise ReconstructionError(
                        f"trace ({encoder.bytes_emitted} bytes) overflowed "
                        f"the {self.ring_capacity}-byte ring buffer")
                while self.ring_capacity < encoder.bytes_emitted:
                    self.ring_capacity *= 2
                    self.auto_grows += 1
                    tel.count("production.auto_grows")
                tel.gauge("production.ring_capacity").set(self.ring_capacity)
                logger.info(
                    "occurrence %d: ring buffer wrapped (%d bytes); "
                    "grew capacity to %d and re-arming",
                    self._occurrence, encoder.bytes_emitted,
                    self.ring_capacity)
                continue  # re-trace at the next occurrence
            if self.per_cpu_buffers:
                from ..trace.merge import merge_trace_by_timestamp

                trace = merge_trace_by_timestamp(trace)
            if self.mapping_loss > 0.0:
                from ..trace.degrade import degrade_trace

                trace = degrade_trace(trace, loss=self.mapping_loss,
                                      seed=self._occurrence)
            logger.info(
                "occurrence %d: %s after %d instrs (%d trace bytes)",
                self._occurrence, result.failure, result.instr_count,
                encoder.bytes_emitted)
            return Occurrence(index=self._occurrence,
                              failure=result.failure,
                              trace=trace,
                              trace_bytes=encoder.bytes_emitted,
                              run=result)
        raise ReconstructionError(
            f"failure did not reoccur in {self.max_attempts} runs")

    @property
    def occurrences_so_far(self) -> int:
        return self._occurrence
