"""Every workload's production traces, pinned by one committed digest.

Faster interpreters and encoders may change wall time only: the PT bytes
and the run results of every workload stay what they were.  The digest
covers 13 workloads × (``failing_env(1)``, ``failing_env(2)``,
``benign_env(0)``) × three modules: the plain module, every 7th defining
point instrumented, and every 5th defining point outside ``main``
instrumented.  The instrumented modules run after the plain one, so the
blocks they share with it reuse its compiled code.

Each run contributes its trace bytes and its result's fields, spelled
out one by one as JSON of strings and integers; no ``repr`` goes in,
whose format may differ between Python versions.
"""

import hashlib
import json

from repro import telemetry
from repro.core.instrument import instrument
from repro.core.selection import RecordingItem
from repro.interp.interpreter import Interpreter
from repro.trace.encoder import PTEncoder
from repro.workloads import get_workload, workload_names

#: SHA-256 over every run below; computed before the interpreter fused
#: memory, input, ``ptwrite`` and division into its generated runs
DIGEST = "f81cb8a900a3c0592e6d76195ae99e0983d03b7464470d87bcec7132f35a19b8"


def _modules(module):
    """The plain module, every 7th defining point recorded, and every
    5th defining point outside ``main`` recorded."""
    defining = [(point, instr.dest_register())
                for point, instr in module.points()
                if instr.dest_register() is not None]
    every_7th = [RecordingItem(point, reg, 8)
                 for point, reg in defining[::7]]
    callees = [RecordingItem(point, reg, 8) for point, reg in
               [(p, r) for p, r in defining if p.func != "main"][::5]]
    return [module, instrument(module, every_7th).module,
            instrument(module, callees).module]


def _fields(result):
    """A run result as JSON-safe values, one field at a time."""
    failure = result.failure
    if failure is None:
        failed = None
    else:
        point = failure.point
        failed = [failure.kind.name, point.func, point.block, point.index,
                  list(failure.call_stack), failure.message, failure.tid,
                  failure.address]
    return [failed, result.return_value, result.instr_count,
            result.chunk_count, result.ptwrite_count, result.branch_count,
            sorted((stream, data.hex())
                   for stream, data in result.outputs.items())]


def trace_digest() -> str:
    digest = hashlib.sha256()
    for name in workload_names():
        workload = get_workload(name)
        for module in _modules(workload.module()):
            for env in (workload.failing_env(1), workload.failing_env(2),
                        workload.benign_env(0)):
                with telemetry.scoped(telemetry.Telemetry()):
                    encoder = PTEncoder()
                    result = Interpreter(module, env, tracer=encoder).run()
                raw = encoder.raw()
                record = json.dumps([name, _fields(result)],
                                    separators=(",", ":")).encode()
                for part in (raw, record):
                    digest.update(len(part).to_bytes(8, "little"))
                    digest.update(part)
    return digest.hexdigest()


def test_every_workload_trace_matches_the_pinned_digest():
    assert trace_digest() == DIGEST
