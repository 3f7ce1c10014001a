"""Reconstruction does not depend on the hash seed.

Term hashes mix in string hashes, which differ per process, and set and
dict layouts of terms follow them.  None of that may reach the work: two
Table-1 reconstructions run in processes with different
``PYTHONHASHSEED`` values use the same occurrences and solver calls,
spend the same modelled seconds and find the same test case.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: two workloads that stall, select and record before they reproduce
WORKLOADS = ("php-2012-2386", "sqlite-7be932d")

_RECONSTRUCT = """
import json, sys
from repro.core import ExecutionReconstructor, ProductionSite
from repro.workloads import get_workload

out = {}
for name in sys.argv[1:]:
    workload = get_workload(name)
    report = ExecutionReconstructor(
        workload.module(), work_limit=workload.work_limit,
        max_occurrences=workload.max_occurrences,
    ).reconstruct(ProductionSite(workload.failing_env))
    out[name] = {
        "verified": report.verified,
        "occurrences": report.occurrences,
        "streams": {stream: data.hex() for stream, data
                    in sorted(report.test_case.streams.items())},
        "iterations": [(it.status, it.symex_modelled_seconds,
                        it.solver_calls, it.stall_point)
                       for it in report.iterations],
    }
print(json.dumps(out))
"""


def _reconstruct(seed: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
    out = subprocess.run([sys.executable, "-c", _RECONSTRUCT, *WORKLOADS],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out)


def test_reconstructions_equal_under_two_hash_seeds():
    first, second = _reconstruct("1"), _reconstruct("2")
    assert first == second
    for name in WORKLOADS:
        assert first[name]["verified"]
        assert len(first[name]["iterations"]) > 1
