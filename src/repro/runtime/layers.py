"""Host-time layer split by stack sampling, inside the measured run.

While :func:`layer_sampling` is active, a ``SIGPROF`` timer fires every
2 ms of process CPU time, and the handler charges the CPU time since its
previous call to the innermost frame whose file is in ``repro``: its
module inside ``core``, its top-level package elsewhere, ``outside``
with no ``repro`` frame.  The kernel rounds the timer up to its tick,
and CPython runs the handler at the next bytecode, so one long NumPy
call gets one call carrying its whole time: seconds are charged, never
calls times the interval.  The timer does not survive ``fork``.
"""

from __future__ import annotations

import math
import os
import signal
import time
from contextlib import contextmanager
from functools import cache
from typing import Any, Iterator

__all__ = ["layer_of", "layer_samples", "layer_sampling", "layer_split"]

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep
_INTERVAL_S = 0.002

#: ``[handler calls, CPU seconds per layer]`` while armed; ``None`` unarmed
_TALLY: list | None = None

Snapshot = tuple[int, dict[str, float]]


@cache
def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to, or ``None`` outside ``repro``."""
    if not filename.startswith(_ROOT):
        return None
    parts = filename[len(_ROOT) : -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    if not parts:
        return "repro"
    return ".".join(parts) if parts[0] == "core" else parts[0]


def layer_samples() -> Snapshot | None:
    """A snapshot of the cumulative sample count and CPU seconds charged
    per layer, ``None`` when unarmed."""
    return None if _TALLY is None else (_TALLY[0], dict(_TALLY[1]))


def layer_split(before: Snapshot, after: Snapshot, cpu_s: float) -> dict[str, Any]:
    """The :class:`~repro.runtime.sweep.TrialCost` layer fields for the
    samples taken between two snapshots.

    The seconds charged to each layer are rescaled so that they sum to
    the measured ``cpu_s``.  The error is the largest binomial one of any
    layer, ``cpu_s * sqrt(p (1 - p) / n)`` with ``p`` its share.  A span
    without samples charges ``cpu_s`` to ``unsampled``.
    """
    samples = after[0] - before[0]
    charged = {k: s - before[1].get(k, 0.0) for k, s in after[1].items()}
    charged = {k: s for k, s in charged.items() if s > 0.0}
    total = sum(charged.values())
    if not samples or not total:
        return {"layer_s": {"unsampled": cpu_s}, "layer_samples": samples, "layer_se_s": cpu_s}
    worst = max(s / total * (1 - s / total) for s in charged.values())
    return {
        "layer_s": {k: round(cpu_s * s / total, 6) for k, s in sorted(charged.items())},
        "layer_samples": samples,
        "layer_se_s": round(cpu_s * math.sqrt(worst / samples), 6),
    }


@contextmanager
def layer_sampling() -> Iterator[None]:
    """Sample the stack within the block, then restore the previous
    ``SIGPROF`` handler and timer."""
    global _TALLY
    tally: list = [0, {}]
    seconds: dict[str, float] = tally[1]
    last = time.process_time()

    def on_sample(signum: int, frame) -> None:
        nonlocal last
        now = time.process_time()
        elapsed, last = now - last, now
        # a signal pending when this handler starts runs it again inside itself
        while frame is not None and frame.f_code is on_sample.__code__:
            frame = frame.f_back
        while frame is not None:
            layer = layer_of(frame.f_code.co_filename)
            if layer is not None:
                break
            frame = frame.f_back
        else:
            layer = "outside"
        seconds[layer] = seconds.get(layer, 0.0) + elapsed
        tally[0] += 1

    previous = signal.signal(signal.SIGPROF, on_sample)
    timer = signal.setitimer(signal.ITIMER_PROF, _INTERVAL_S, _INTERVAL_S)
    _TALLY = tally
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, previous)
        _TALLY = None
