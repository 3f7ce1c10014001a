"""Use cases on top of ER: forensics attribution and seeded fuzzing."""

import pytest

from repro.core import ExecutionReconstructor, ProductionSite
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.symex.engine import ShepherdedSymex
from repro.trace.decoder import decode
from repro.trace.encoder import PTEncoder
from repro.trace.ringbuffer import RingBuffer
from repro.usecases import CoverageFuzzer, attribute_failure
from repro.workloads import get_workload


def completed_symex(workload_name, extra_budget=20):
    workload = get_workload(workload_name)
    module = workload.module()
    encoder = PTEncoder(RingBuffer())
    run = Interpreter(module, workload.failing_env(1),
                      tracer=encoder).run()
    result = ShepherdedSymex(module, decode(encoder.buffer), run.failure,
                             work_limit=workload.work_limit
                             * extra_budget).run()
    assert result.completed
    return workload, module, result


class TestForensics:
    def test_influential_bytes_found(self):
        _wl, _m, result = completed_symex("libpng-2004-0597")
        attribution = attribute_failure(result)
        assert "png" in attribution.influential
        # the tRNS length field (bytes 23..26 of the stream) must matter
        length_field = set(range(23, 27))
        assert length_field & set(attribution.influential["png"])

    def test_payload_bytes_not_influential(self):
        _wl, _m, result = completed_symex("libpng-2004-0597")
        attribution = attribute_failure(result)
        # the copied payload bytes were never branched on
        influential = set(attribution.influential.get("png", ()))
        payload = set(range(40, 200))
        assert not (payload & influential)

    def test_weights_positive(self):
        _wl, _m, result = completed_symex("bash-108885")
        attribution = attribute_failure(result)
        assert all(w > 0 for w in attribution.weight.values())
        assert attribution.total_constraints == len(result.constraints)

    def test_hottest_ranked(self):
        _wl, _m, result = completed_symex("libpng-2004-0597")
        hottest = attribute_failure(result).hottest(3)
        weights = [w for _s, _o, w in hottest]
        assert weights == sorted(weights, reverse=True)

    def test_render(self):
        _wl, _m, result = completed_symex("bash-108885")
        text = attribute_failure(result).render()
        assert "influential" in text


class TestFuzzing:
    def test_coverage_grows_from_empty(self):
        workload = get_workload("bash-108885")
        fuzzer = CoverageFuzzer(workload.module(), "sh", seed=5)
        report = fuzzer.run(budget=120)
        assert report.coverage_points > 2
        assert report.corpus_size >= 1

    def test_magic_bytes_gate_coverage(self):
        """libpng's 2-byte signature blocks a from-scratch fuzzer, and a
        valid-header seed unlocks the chunk machinery — the classic
        argument for good seeds."""
        workload = get_workload("libpng-2004-0597")
        blind = CoverageFuzzer(workload.module(), "png", seed=5)
        blind_report = blind.run(budget=120)
        seeded = CoverageFuzzer(workload.module(), "png", seed=5)
        seeded.add_seed(b"\x89P" + bytes(12))
        seeded_report = seeded.run(budget=120)
        assert seeded_report.coverage_points > blind_report.coverage_points

    def test_deterministic_given_seed(self):
        workload = get_workload("bash-108885")
        reports = []
        for _ in range(2):
            fuzzer = CoverageFuzzer(workload.module(), "sh", seed=9)
            reports.append(fuzzer.run(budget=150))
        assert reports[0].coverage_points == reports[1].coverage_points
        assert reports[0].crash_count == reports[1].crash_count

    def test_crash_dedup_by_signature(self):
        workload = get_workload("bash-108885")
        fuzzer = CoverageFuzzer(workload.module(), "sh", seed=1)
        fuzzer.add_seed(b")")    # the crasher itself
        fuzzer.add_seed(b")a")   # same signature
        assert fuzzer.crashes and len(fuzzer.crashes) == 1

    def test_er_seed_finds_crash_immediately(self):
        workload = get_workload("matrixssl-2014-1569")
        er = ExecutionReconstructor(workload.module(),
                                    work_limit=workload.work_limit)
        report = er.reconstruct(ProductionSite(workload.failing_env))
        seed_bytes = report.test_case.streams["tls"]

        seeded = CoverageFuzzer(workload.module(), "tls", seed=3)
        seeded.add_seed(seed_bytes)
        seeded_report = seeded.run(budget=150)

        unseeded = CoverageFuzzer(workload.module(), "tls", seed=3)
        unseeded_report = unseeded.run(budget=150)

        assert seeded_report.first_crash_at == 1  # the seed itself
        assert seeded_report.crash_count >= 1
        # from-scratch fuzzing needs more executions (or never finds it)
        assert (unseeded_report.first_crash_at is None
                or unseeded_report.first_crash_at
                > seeded_report.first_crash_at)
