"""Test-case minimization (ddmin over generated inputs)."""

import pytest

from repro.core import ExecutionReconstructor, ProductionSite
from repro.core.minimize import ddmin, minimize_test_case
from repro.core.report import TestCase
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.ir.builder import ModuleBuilder


class TestDdmin:
    def test_single_culprit_byte(self):
        data = b"aaaaXaaaa"
        result = ddmin(data, lambda c: b"X" in c)
        assert result == b"X"

    def test_pair_of_culprits(self):
        data = b"..A.....B.."
        result = ddmin(data, lambda c: b"A" in c and b"B" in c)
        assert set(result) >= {ord("A"), ord("B")}
        assert len(result) <= 4

    def test_requires_failing_input(self):
        with pytest.raises(AssertionError):
            ddmin(b"ok", lambda c: False)

    def test_order_sensitive_predicate(self):
        result = ddmin(b"zzBzzAzz", lambda c: c.find(b"B") >= 0
                       and c.find(b"B") < c.find(b"A"))
        assert result == b"BA"

    def test_already_minimal(self):
        assert ddmin(b"X", lambda c: c == b"X") == b"X"


def _service_module():
    """Processes 3-byte requests; crashes on a request with tag 0xEE."""
    b = ModuleBuilder("svc")
    f = b.function("main", [])
    f.block("entry")
    f.jmp("req")
    f.block("req")
    tag = f.input("net", 1, dest="%tag")
    end = f.cmp("eq", "%tag", 0, width=8)
    f.br(end, "out", "chk")
    f.block("chk")
    f.input("net", 1)
    f.input("net", 1)
    bad = f.cmp("eq", "%tag", 0xEE, width=8)
    f.br(bad, "boom", "req")
    f.block("boom")
    f.abort("evil request")
    f.block("out")
    f.ret(0)
    return b.build()


class TestMinimizeTestCase:
    def _reconstruct(self):
        module = _service_module()
        benign = bytes([1, 2, 3] * 6)
        crash = bytes([0xEE, 7, 7])

        def env(occ):
            return Environment({"net": benign + crash + b"\x00"})

        er = ExecutionReconstructor(module)
        report = er.reconstruct(ProductionSite(env))
        assert report.success
        return module, report

    def test_drops_benign_prefix(self):
        module, report = self._reconstruct()
        minimized = minimize_test_case(module, report.test_case,
                                       report.failure)
        original_len = len(report.test_case.streams["net"])
        new_len = len(minimized.streams["net"])
        assert new_len < original_len
        assert new_len <= 3  # just the evil request (terminator optional)

    def test_minimized_still_reproduces(self):
        module, report = self._reconstruct()
        minimized = minimize_test_case(module, report.test_case,
                                       report.failure)
        result = Interpreter(module, minimized.environment()).run()
        assert result.failure is not None
        assert result.failure.matches(report.failure)

    def test_zero_normalization(self):
        module, report = self._reconstruct()
        minimized = minimize_test_case(module, report.test_case,
                                       report.failure)
        data = minimized.streams["net"]
        # payload bytes after the evil tag normalize to zero
        assert all(byte in (0, 0xEE) for byte in data)

    def test_description_marked(self):
        module, report = self._reconstruct()
        minimized = minimize_test_case(module, report.test_case,
                                       report.failure)
        assert "minimized" in minimized.description

    def test_on_table1_workload(self):
        from repro.workloads import get_workload

        workload = get_workload("bash-108885")
        er = ExecutionReconstructor(workload.module(),
                                    work_limit=workload.work_limit)
        report = er.reconstruct(ProductionSite(workload.failing_env))
        minimized = minimize_test_case(workload.module(),
                                       report.test_case, report.failure)
        assert len(minimized.streams["sh"]) <= \
            len(report.test_case.streams["sh"])
