"""Every workload module survives the textual IR round-trip.

This is the parser/printer's integration test at application scale: the
13 Table-1 programs plus od/pr are serialized, reparsed, verified, and
re-executed with identical results.
"""

import pytest

from repro.interp.interpreter import Interpreter
from repro.ir import format_module, parse_module, verify_module
from repro.workloads import all_workloads
from repro.workloads.coreutils import coreutils_modules

WORKLOADS = all_workloads()
IDS = [w.name for w in WORKLOADS]


@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
class TestWorkloadRoundTrip:
    def test_format_parse_fixpoint(self, workload):
        text = format_module(workload.module())
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert format_module(reparsed) == text

    def test_reparsed_module_reproduces_failure(self, workload):
        reparsed = parse_module(format_module(workload.module()))
        original = Interpreter(workload.module(),
                               workload.failing_env(1)).run()
        again = Interpreter(reparsed, workload.failing_env(1)).run()
        assert again.failure is not None
        assert again.failure.matches(original.failure)
        assert again.instr_count == original.instr_count


@pytest.mark.parametrize("name,module", [
    (name, module) for name, module, _, _ in coreutils_modules()
])
def test_coreutils_roundtrip(name, module):
    text = format_module(module)
    reparsed = parse_module(text)
    verify_module(reparsed)
    assert format_module(reparsed) == text
