"""A yardstick for how fast this machine runs Python at the moment.

The benchmark is tuned on a virtual machine shared with other tenants,
whose speed drifts by 10–50% within minutes; operations per CPU second
move with it, and no statistic inside a run removes a drift that lasts
longer than the run.  So every workload runs a short chunk of a fixed
reference loop next to each measured slice and rescales the slice's
rate to a machine that runs the loop at :data:`REF_ITER_RATE` iterations
per CPU second.  The reported rate is the median of the rescaled slices.

The loop's speed swings more than the workloads' do: across runs on the
tuning machine, a workload's rate moved as the loop's rate to the power
0.63 (``sim-recovery``, whose large state is copied and hashed in C),
0.77 (``sim-ordered``) or about 0.9 (``live-rw``).  :data:`SENSITIVITY`
sits between them.  At a given machine speed the rescaled rate is the
measured rate times a constant, so a change to the program moves both
by the same share.

The loop uses the standard library only, so no change to the program
moves it.  Never change it: it is the unit the rescaled metric is in.
"""

from __future__ import annotations

import struct
import time

#: Iterations per CPU second of :func:`_loop` the rescaled rates assume.
REF_ITER_RATE = 1_000_000.0
#: How much a workload's rate moves with the loop's, as an exponent.
SENSITIVITY = 0.7

_PACK = struct.Struct(">IIQ").pack


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _loop(iterations: int) -> None:
    """Object creation, attribute reads, struct packing, a dict store
    and a short list: the interpreter work a message stack is made of."""
    table = {}
    for i in range(iterations):
        pair = _Pair(i, i + 1)
        table[i & 1023] = _PACK(pair.a & 0xFFFF, pair.b & 0xFFFF, i)
        _ = [pair, pair.a, str(i)]


def chunk_rate(iterations: int) -> tuple:
    """Run the loop; return (iterations per CPU second, CPU seconds)."""
    cpu0 = time.process_time()
    _loop(iterations)
    cpu = time.process_time() - cpu0
    return (iterations / cpu if cpu > 0 else REF_ITER_RATE), cpu


def rescale(ops_per_cpu_s: float, ref_rate: float) -> float:
    """A rate measured while the loop ran at ``ref_rate``, as it would be
    on a machine running the loop at :data:`REF_ITER_RATE`."""
    return ops_per_cpu_s * (REF_ITER_RATE / ref_rate) ** SENSITIVITY


def rescale_time(seconds: float, ref_rate: float) -> float:
    """The CPU-bound duration ``seconds``, rescaled as :func:`rescale`
    rescales a rate."""
    return seconds / (REF_ITER_RATE / ref_rate) ** SENSITIVITY
