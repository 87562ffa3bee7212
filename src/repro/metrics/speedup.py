"""Speedup and efficiency metrics.

The survey's §1.2 gains list ("run time savings, speedup of finding
solutions … increase of computational efficiency") and the Alba (2002)
super-linear speedup discussion both hinge on precise definitions:

- *strong speedup*: serial time / parallel time for the same work;
- *speedup to solution* (the PGA-fair variant Alba advocates): time (or
  evaluations) for the 1-processor algorithm to hit the target divided by
  the p-processor algorithm's — this is the quantity that can legitimately
  exceed p, because the multi-deme search needs fewer total evaluations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpeedupPoint",
    "speedup",
    "efficiency",
    "speedup_curve",
    "amdahl_speedup",
]


@dataclass(frozen=True)
class SpeedupPoint:
    """One row of a speedup table."""

    workers: int
    time: float
    speedup: float
    efficiency: float

    def as_dict(self) -> dict[str, float]:
        return {
            "workers": self.workers,
            "time": self.time,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
        }


def speedup(serial_time: float, parallel_time: float) -> float:
    """S = T1 / Tp."""
    if serial_time < 0 or parallel_time <= 0:
        raise ValueError("times must be positive (serial >= 0, parallel > 0)")
    return serial_time / parallel_time


def efficiency(serial_time: float, parallel_time: float, workers: int) -> float:
    """E = S / p."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return speedup(serial_time, parallel_time) / workers


def speedup_curve(
    workers: list[int], times: list[float], *, baseline: float | None = None
) -> list[SpeedupPoint]:
    """Build a speedup table from measured times.

    ``baseline`` defaults to the time measured at ``workers == 1`` — the
    only honest T1 for a strong-speedup curve.  When no 1-worker
    measurement exists, the curve falls back to extrapolating an ideal
    ``t * w`` baseline from the smallest measured worker count (which by
    construction reports exactly-linear speedup at that point) and warns,
    so fabricated-looking numbers are never silent.
    """
    if len(workers) != len(times):
        raise ValueError("workers and times must have equal length")
    if not workers:
        return []
    order = np.argsort(workers)
    w = [workers[i] for i in order]
    t = [times[i] for i in order]
    if baseline is not None:
        base = baseline
    elif w[0] == 1:
        base = t[0]
    else:
        warnings.warn(
            f"speedup_curve has no 1-worker measurement (smallest is "
            f"{w[0]} workers); extrapolating baseline as t*w, which forces "
            f"speedup == {w[0]} at that point — measure workers=1 or pass "
            "an explicit baseline",
            stacklevel=2,
        )
        base = t[0] * w[0]
    return [
        SpeedupPoint(
            workers=wi,
            time=ti,
            speedup=speedup(base, ti),
            efficiency=efficiency(base, ti, wi),
        )
        for wi, ti in zip(w, t)
    ]


def amdahl_speedup(serial_fraction: float, workers: int) -> float:
    """Amdahl's-law prediction: 1 / (f + (1-f)/p).

    Bethke's 1976 bottleneck analysis in closed form: the serial fraction
    (the master's selection/variation work) caps master-slave speedup.
    """
    if not 0.0 <= serial_fraction <= 1.0:
        raise ValueError(f"serial fraction must be in [0,1], got {serial_fraction}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / workers)
