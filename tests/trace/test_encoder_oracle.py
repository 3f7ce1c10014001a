"""The per-chunk PT encoder against the per-event encoder it replaced.

Each case runs one program twice: :class:`ReferenceInterpreter` (one
tracer call per branch) feeding :class:`ReferencePTEncoder` (one ring
buffer write per packet), and :class:`Interpreter` (branch bits batched
per chunk) feeding :class:`PTEncoder` (one write per chunk).  Both sides
must produce the same trace bytes, the same ring-buffer loss, the same
run counts and the same ``trace.*`` counters, with a ring large enough
to hold the trace and with a 512-byte ring that wraps.
"""

import pytest

from repro import telemetry
from repro.interp.interpreter import Interpreter
from repro.trace.encoder import PTEncoder
from repro.trace.ringbuffer import RingBuffer
from repro.workloads import get_workload, workload_names
from tests.interp.reference_interpreter import ReferenceInterpreter
from tests.trace.reference_encoder import ReferencePTEncoder

#: counters both encoders define alike (the reference leaves PSB packets
#: out of ``trace.bytes_emitted`` and ``trace.packets_emitted``)
COUNTERS = ("trace.tnt_bits", "trace.ptw_packets", "trace.chunks_emitted")

RINGS = [None, 512]

THREADED = ("pbzip2-uaf", "memcached-2019-11596", "python-2018-1000030")


def observe(interp_cls, encoder_cls, module, env, capacity):
    """Everything one traced run leaves behind."""
    tel = telemetry.Telemetry()
    with telemetry.scoped(tel):
        buffer = RingBuffer() if capacity is None else RingBuffer(capacity)
        encoder = encoder_cls(buffer)
        result = interp_cls(module, env, tracer=encoder).run()
    counters = tel.snapshot()["counters"]
    return {
        "raw": encoder.raw(),
        "bytes_emitted": encoder.bytes_emitted,
        "wrapped": buffer.wrapped,
        "bytes_dropped": buffer.bytes_dropped,
        "run": (result.failure, result.return_value, result.instr_count,
                result.outputs, result.chunk_count, result.ptwrite_count,
                result.branch_count, result.thread_count),
        "counters": {name: counters.get(name, 0) for name in COUNTERS},
    }


def assert_same(module, env, capacity):
    new = observe(Interpreter, PTEncoder, module, env.clone(), capacity)
    old = observe(ReferenceInterpreter, ReferencePTEncoder, module,
                  env.clone(), capacity)
    assert new == old
    return new


@pytest.mark.parametrize("capacity", RINGS)
@pytest.mark.parametrize("name", workload_names())
def test_workload_traces_identical(name, capacity):
    workload = get_workload(name)
    module = workload.module()
    envs = ([workload.failing_env(i) for i in (1, 2, 3)]
            + [workload.benign_env(i) for i in range(3)])
    for env in envs:
        observed = assert_same(module, env, capacity)
        assert observed["counters"]["trace.chunks_emitted"] \
            == observed["run"][4]


@pytest.mark.parametrize("capacity", RINGS)
def test_instrumented_workload_identical(capacity):
    """PTW packets split the pending TNT bits exactly where the
    per-event encoder flushed them."""
    from repro.core.instrument import instrument
    from repro.core.selection import RecordingItem

    workload = get_workload("sqlite-7be932d")
    module = workload.module()
    items = [RecordingItem(point, instr.dest_register(), 8)
             for point, instr in module.points()
             if instr.dest_register() is not None][::7]
    deployed = instrument(module, items).module
    observed = assert_same(deployed, workload.failing_env(1), capacity)
    assert observed["counters"]["trace.ptw_packets"] > 0


@pytest.mark.parametrize("capacity", RINGS)
@pytest.mark.parametrize("quantum", [1, 3, 50])
@pytest.mark.parametrize("name", THREADED)
def test_threaded_workloads_identical(name, quantum, capacity):
    workload = get_workload(name)
    env = workload.failing_env(1).clone()
    env.quantum = quantum
    observed = assert_same(workload.module(), env, capacity)
    assert observed["run"][-1] > 1


def test_small_ring_wraps():
    """The 512-byte cases exercise loss: at least one trace overruns."""
    workload = get_workload("sqlite-7be932d")
    observed = assert_same(workload.module(), workload.benign_env(0), 512)
    assert observed["wrapped"] and observed["bytes_dropped"] > 0
