"""Reference kernel: a fixed yardstick for the host's current speed.

A shared host's speed can drift by half or more within minutes, in
process CPU time as much as in wall time.  The benchmark therefore times
this kernel next to every measured pass and every set-up, and reports
times scaled to a host that runs the kernel in ``REFERENCE_S`` seconds:

    scaled = measured * REFERENCE_S / kernel time

The kernel lives in the benchmark, not in the program, so a change to the
program moves the measured time and leaves the kernel time alone.  Its mix
follows the program's: a small scalar GA whose variation makes many NumPy
calls on short arrays (as ``offspring_pair`` does), a heap-ordered event
loop over dict records (as the cluster simulator does) and repeated small
LU solves (as the reactor problem's diffusion solver does).  The cyclic
garbage collector is off while it runs, so its time follows the host and
not the size of the process's heap.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

__all__ = ["REFERENCE_S", "kernel", "kernel_seconds"]

#: nominal kernel time, seconds; scaled times are seconds on a host that
#: runs the kernel this fast (about the median speed of a 2-vCPU shared VM)
REFERENCE_S = 0.16

_GENOME = 64
_POPULATION = 32
_GENERATIONS = 100
_EVENTS = 24_000
_MESH = 120
_SOLVES = 60


def _ga(rng: np.random.Generator) -> float:
    pop = [rng.random(_GENOME) < 0.5 for _ in range(_POPULATION)]
    fit = [float(g.sum()) for g in pop]
    for _ in range(_GENERATIONS):
        children = []
        while len(children) < _POPULATION:
            a, b = (max(rng.integers(0, _POPULATION, 2), key=fit.__getitem__) for _ in range(2))
            cut = int(rng.integers(1, _GENOME))
            ga = np.concatenate((pop[a][:cut], pop[b][cut:]))
            gb = np.concatenate((pop[b][:cut], pop[a][cut:]))
            for g in (ga, gb):
                flip = rng.random(_GENOME) < 1.0 / _GENOME
                children.append(g ^ flip)
        pop = children
        fit = [float(g.sum()) for g in pop]
    return max(fit)


def _events(rng: np.random.Generator) -> float:
    delays = rng.exponential(1.0, _EVENTS).tolist()
    queue = [(0.0, 0, {"kind": "start", "node": 0})]
    seq = 1
    total = 0.0
    for delay in delays:
        now, _, event = heapq.heappop(queue)
        total += now
        record = {"kind": "msg", "node": (event["node"] + 1) % 17, "t": now}
        heapq.heappush(queue, (now + delay, seq, record))
        seq += 1
        if seq % 3 == 0:
            heapq.heappush(queue, (now + 2 * delay, seq, dict(record, kind="ack")))
            seq += 1
    return total


def _solves() -> float:
    off = np.full(_MESH - 1, -1.0)
    total = 0.0
    for rep in range(_SOLVES):
        a = np.diag(np.full(_MESH, 2.0 + 0.01 * rep)) + np.diag(off, -1) + np.diag(off, 1)
        lu = lu_factor(a)
        x = np.ones(_MESH)
        for _ in range(60):
            x = lu_solve(lu, x)
            x /= np.abs(x).max()
        total += float(x.sum())
    return total


def kernel() -> float:
    """One fixed unit of work (same every call); returns a checksum."""
    rng = np.random.default_rng(20240601)
    return _ga(rng) + _events(rng) + _solves()


def kernel_seconds() -> float:
    """Wall time of one kernel call, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
