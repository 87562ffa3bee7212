"""Discrete-event simulation kernel (generator-coroutine processes).

This is the deterministic stand-in for the paper's parallel hardware: a
minimal event-driven simulator in the style of SimPy, built from scratch so
the repository has no dependency beyond NumPy.  Processes are Python
generators that ``yield`` either a :class:`Timeout` (advance simulated
time) or an :class:`Inbox` get (wait for a message).  The
:class:`Simulator` interleaves them in strict timestamp order, with FIFO
tie-breaking, so runs are exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, Protocol


__all__ = ["Simulator", "Timeout", "Inbox", "Process", "SimulationError", "events_dispatched"]

# process-wide count of executed events, for perf telemetry only (the sweep
# harness diffs it around a trial); never part of traces or fingerprints
_EVENTS_DISPATCHED = 0


def events_dispatched() -> int:
    """Total events executed by every Simulator in this process so far."""
    return _EVENTS_DISPATCHED


class SimulationError(RuntimeError):
    """Raised on illegal simulator usage (negative delays, stalled runs…)."""


class Timeout:
    """Yield inside a process to advance simulated time by ``duration``."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        duration = float(duration)
        # NaN compares False against everything, so `duration < 0` alone
        # would let NaN through and poison the event-heap ordering
        if not math.isfinite(duration) or duration < 0:
            raise SimulationError(f"timeout must be finite and >= 0, got {duration}")
        self.duration = duration


class Inbox:
    """Unbounded FIFO message store; ``yield inbox`` suspends until non-empty.

    ``put`` is immediate (same-timestamp delivery); network latency is
    modelled by *scheduling* the put at a later time (see
    :meth:`Simulator.put_later`).
    """

    __slots__ = ("_sim", "name", "_items", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "inbox") -> None:
        self._sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._waiters: deque["Process"] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item now, waking one waiting process (FIFO)."""
        self._items.append(item)
        if self._waiters:
            proc = self._waiters.popleft()
            self._sim._schedule_trusted(0.0, proc._resume_with_item, self)

    def _try_get(self) -> tuple[bool, Any]:
        if self._items:
            return True, self._items.popleft()
        return False, None

    def __len__(self) -> int:
        return len(self._items)


ProcessGen = Generator[Any, Any, Any]


class Process:
    """One running coroutine inside the simulator.

    Pids are allocated by the owning :class:`Simulator` (not a module-wide
    counter), so the pids — and hence trace contents and digests — of one
    simulation never depend on how many simulators ran earlier in the
    process.
    """

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str | None = None) -> None:
        self._sim = sim
        self._gen = gen
        self.pid = next(sim._pids)
        self.name = name or f"proc-{self.pid}"
        self.finished = False
        self.value: Any = None

    # -- resumption paths --------------------------------------------------------
    def _step(self, send_value: Any = None) -> None:
        if self.finished:
            return
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.value = stop.value
            return
        self._handle(yielded)

    def _handle(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            # duration was validated by the Timeout constructor
            self._sim._schedule_trusted(yielded.duration, self._step, None)
        elif isinstance(yielded, Inbox):
            ok, item = yielded._try_get()
            if ok:
                self._sim._schedule_trusted(0.0, self._step, item)
            else:
                yielded._waiters.append(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {type(yielded).__name__}"
            )

    def _resume_with_item(self, inbox: Inbox) -> None:
        """Woken by an Inbox.put; the item may have been stolen by an
        intervening consumer, in which case we re-wait."""
        ok, item = inbox._try_get()
        if ok:
            self._step(item)
        else:
            inbox._waiters.append(self)


class JitterSource(Protocol):
    """Anything with ``random() -> float`` (a seeded RNG works)."""

    def random(self) -> float: ...


class Simulator:
    """Deterministic event loop over simulated time.

    Parameters
    ----------
    tiebreak_jitter:
        Optional seeded randomness source used to perturb the ordering of
        *same-timestamp* events.  ``None`` (the default) keeps strict FIFO
        tie-breaking.  With a seeded source the run is still exactly
        reproducible, but the tie-breaking order is shuffled — the seam the
        verification fuzzer uses to flush out hidden ordering assumptions.
        Events at different timestamps are never reordered.
    """

    def __init__(self, *, tiebreak_jitter: JitterSource | None = None) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self._pids = itertools.count()
        self._jitter = tiebreak_jitter
        self._processes: list[Process] = []

    # -- scheduling ------------------------------------------------------------
    def _schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        delay = float(delay)
        # guard NaN explicitly: NaN < 0 is False, and a NaN key breaks the
        # heap invariant silently (events then pop in arbitrary order)
        if not math.isfinite(delay) or delay < 0:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        jitter = self._jitter.random() if self._jitter is not None else 0.0
        heapq.heappush(self._heap, (self.now + delay, jitter, next(self._seq), fn, args))

    def _schedule_trusted(self, delay: float, fn: Callable, *args: Any) -> None:
        """Hot-path scheduling for delays already proven finite and >= 0
        (Timeout constructor, literal 0.0 resume paths) — skips the
        float()/isfinite re-validation of :meth:`_schedule`."""
        jitter = self._jitter.random() if self._jitter is not None else 0.0
        heapq.heappush(self._heap, (self.now + delay, jitter, next(self._seq), fn, args))

    def call_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        self._schedule(time - self.now, fn, *args)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        self._schedule(delay, fn, *args)

    def put_later(self, delay: float, inbox: Inbox, item: Any) -> None:
        """Deliver ``item`` into ``inbox`` after ``delay`` (message latency)."""
        self._schedule(delay, inbox.put, item)

    # -- processes ----------------------------------------------------------------
    def process(self, gen: ProcessGen, name: str | None = None) -> Process:
        """Register and start a generator as a process at the current time."""
        proc = Process(self, gen, name)
        self._processes.append(proc)
        self._schedule(0.0, proc._step, None)
        return proc

    def inbox(self, name: str = "inbox") -> Inbox:
        return Inbox(self, name)

    # -- execution ----------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Execute events until the queue empties (or ``until`` / event cap).

        Returns the final simulated time.
        """
        global _EVENTS_DISPATCHED
        events = 0
        heap = self._heap
        pop, push = heapq.heappop, heapq.heappush
        try:
            if until is None:
                # horizon-free loop: no per-event overshoot comparison
                while heap:
                    entry = pop(heap)  # single heap access per event
                    self.now = entry[0]
                    entry[3](*entry[4])
                    events += 1
                    if events >= max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events — livelock or runaway process?"
                        )
            else:
                while heap:
                    entry = pop(heap)
                    t = entry[0]
                    if t > until:
                        push(heap, entry)  # re-push only on overshoot
                        self.now = until
                        return self.now
                    self.now = t
                    entry[3](*entry[4])
                    events += 1
                    if events >= max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events — livelock or runaway process?"
                        )
        finally:
            _EVENTS_DISPATCHED += events
        return self.now

    def run_until_complete(self, procs: Iterable[Process], **kwargs: Any) -> float:
        """Run until every process in ``procs`` has finished."""
        procs = list(procs)
        final = self.run(**kwargs)
        stuck = [p.name for p in procs if not p.finished]
        if stuck:
            raise SimulationError(f"deadlock: processes never finished: {stuck}")
        return final
