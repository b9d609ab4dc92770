"""A fixed pure-Python probe of how fast the host runs the interpreter now.

The benchmark shares a host whose speed for interpreted code drifts by
up to about 1.7x over seconds to minutes, so raw wall times of the same
code differ more between runs than any change worth measuring.  The
probe is a fixed piece of work made of the two kinds of code volgap's
ops are made of:

- scalar arithmetic: frozen-dataclass scalars validated in
  __post_init__, as logdomain builds them, with math.log / exp / log1p;
- allocation: a chain of small objects several megabytes long, as a
  table or a claim grid is, walked once.

The host's fast spells speed up the first kind far more than the second,
and a probe of either kind alone tracked some workloads worse than the
mix.  The probe imports nothing from volgap, so no change to the program
changes it.

run.py runs a probe, in its own process and on the worker's CPU, each
time the worker has spent about worker.SEGMENT_S in ops, and the worker
scales each op's wall time by NOMINAL_S over the mean of the two probes
that bracket it: the time the op would have taken on a host that runs
one probe in exactly NOMINAL_S.  The garbage collector is off during a
probe.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass

# A typical probe time on a 2-vCPU VM host with Python 3.11; only the
# scale of the reported figures depends on it, never their ratios.
NOMINAL_S = 0.030
_SCALARS = 2_500
_NODES = 30_000


@dataclass(frozen=True)
class _Scalar:
    sign: int
    log_mag: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(self.sign)
        if math.isnan(self.log_mag) or self.log_mag == math.inf:
            raise ValueError(self.log_mag)


def _add(a: _Scalar, b: _Scalar) -> _Scalar:
    hi, lo = (a, b) if a.log_mag >= b.log_mag else (b, a)
    d = math.exp(lo.log_mag - hi.log_mag)
    if hi.sign == lo.sign:
        return _Scalar(hi.sign, hi.log_mag + math.log1p(d))
    return _Scalar(hi.sign, hi.log_mag + math.log1p(-d)) if d < 1.0 else _Scalar(0, -math.inf)


def _scalar_work() -> float:
    acc = _Scalar(1, 0.0)
    for i in range(_SCALARS):
        acc = _add(acc, _Scalar(1 if i % 3 else -1, math.log(0.5 + (i % 97) * 0.013) - 0.001 * i))
    return acc.log_mag


class _Node:
    __slots__ = ("value", "label", "next")

    def __init__(self, value, label, next_):
        self.value, self.label, self.next = value, label, next_


def _allocation_work() -> float:
    head = None
    for i in range(_NODES):
        head = _Node(i * 0.5, str(i), head)
    total, node = 0.0, head
    while node is not None:
        total += node.value
        node = node.next
    return total


def probe() -> float:
    """Seconds one fixed unit of interpreter work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _scalar_work()
        _allocation_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
