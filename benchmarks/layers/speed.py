"""The host-speed probe of the layer benchmark.

The benchmark's VM shares its host, and the host's load changes how
fast the guest's CPUs run, by up to ~2x for minutes at a time.  Clock
time and process CPU time move together, so no clock hides it, and a
slow phase outlasts any run.  Every timed part of a round is therefore
bracketed by calls of :func:`probe`, a fixed pure-Python kernel shaped
like ER's hot loops (recursive evaluation of expression trees through
tuple indexing and dict memos), and its time is reported at the host
speed at which the kernel takes :data:`REFERENCE_S`::

    scaled(seconds, probe_s) = seconds * REFERENCE_S / probe_s

The kernel is benchmark code, outside ``src/``, so no change to the
program moves it: a program change that slows the program shows in full.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Tuple

#: the kernel's time on the 2-vCPU x86-64 VM of README.md's baseline in a
#: calm minute; scaled times are seconds at that speed
REFERENCE_S = 0.018

_OPS = ("add", "mul", "xor", "and")


def _tree(rng: random.Random, depth: int) -> Tuple:
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return ("var", rng.randrange(16))
        return ("const", rng.randrange(1000))
    return (rng.choice(_OPS), _tree(rng, depth - 1), _tree(rng, depth - 1))


#: the kernel's fixed input: 20 random expression trees of depth <= 8
TREES = tuple(_tree(random.Random(index), 8) for index in range(20))


def _evaluate(tree: Tuple, env: Dict[int, int], memo: Dict[int, int]) -> int:
    value = memo.get(id(tree))
    if value is not None:
        return value
    op = tree[0]
    if op == "var":
        value = env[tree[1]]
    elif op == "const":
        value = tree[1]
    else:
        a = _evaluate(tree[1], env, memo)
        b = _evaluate(tree[2], env, memo)
        if op == "add":
            value = (a + b) & 0xFFFFFFFF
        elif op == "mul":
            value = (a * b) & 0xFFFFFFFF
        elif op == "xor":
            value = a ^ b
        else:
            value = a & b
    memo[id(tree)] = value
    return value


def probe() -> float:
    """Seconds the kernel takes now (about ``REFERENCE_S`` when calm)."""
    started = time.perf_counter()
    for round_ in range(32):
        env = {var: var * 7 + round_ for var in range(16)}
        for tree in TREES:
            _evaluate(tree, env, {})
    return time.perf_counter() - started


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the kernel took ``probe_s``, at the
    reference speed."""
    return seconds * REFERENCE_S / probe_s
