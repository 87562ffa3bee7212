"""Per-layer attribution, timed from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer with a
span and keeps the spans on one stack.  A span's *self time* is its
duration minus the spans nested in it, so the self times of all layers
plus an ``unattributed`` remainder add up to the traced wall time.

A wrapper replaces the name each caller resolves: the class attribute for
a method, and for a function every ``repro`` module global bound to it
(``from … import`` copies the binding, e.g. ``offspring_pair`` in
``repro.core.engine``).  :meth:`LayerTracer.installed` puts the wrappers
in place for the duration of a ``with`` block and restores the originals
on exit, so untraced runs execute the program unmodified.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.cluster import sim as _sim
from repro.cluster.sim import Simulator
from repro.cluster.trace import Trace
from repro.core import engine as _engine
from repro.core import problem as _problem
from repro.core.engine import EvolutionEngine
from repro.core.problem import Problem
from repro.migration import policy as _policy
from repro.runtime import sweep as _sweep
from repro.runtime.deme import EpochLoop, TimedDemeRuntime
from repro.runtime.sweep import TrialCache
from repro.spec import engines as _spec_engines

__all__ = ["LAYERS", "LayerTracer"]

#: the program's layers, named after its packages
LAYERS = ("problems", "core", "deme", "migration", "cluster", "sweep", "spec")

_clock = time.perf_counter


class _TimedProcess:
    """A simulator process generator whose every resumption is a span
    (the simulator drives its processes through ``send`` only)."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen: Any, tracer: "LayerTracer") -> None:
        self._gen = gen
        self._tracer = tracer

    def send(self, value: Any) -> Any:
        frame = self._tracer._enter("deme.process", "deme")
        try:
            return self._gen.send(value)
        finally:
            self._tracer._exit(frame)


class LayerTracer:
    """Span-stack accounting of where a traced run's wall time goes.

    Span keys are ``<layer>.<entry>``; counts and times accumulate across
    every :meth:`installed` block until :meth:`metrics` reads them.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: layer -> inclusive time of its outermost spans
        self.busy_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        #: wall time inside :meth:`installed` blocks
        self.wall_s = 0.0
        #: ``evaluations_observed()`` / ``events_dispatched()`` deltas over
        #: the same blocks: the public counters the layer counts must match
        self.evaluations = 0
        self.events = 0
        self._stack: list[list[Any]] = []
        self._depth: Counter[str] = Counter()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span stack --------------------------------------------------------------
    def _enter(self, key: str, layer: str) -> list[Any]:
        stack = self._stack
        self.counts[key] += 1
        if stack and stack[-1][0] is key:
            self.counts[key + "#nested"] += 1
        self._depth[layer] += 1
        frame = [key, layer, 0.0, _clock()]
        stack.append(frame)
        return frame

    def _exit(self, frame: list[Any]) -> None:
        duration = _clock() - frame[3]
        stack = self._stack
        stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        layer = frame[1]
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.busy_s[layer] += duration

    def _wrap(
        self, fn: Callable[..., Any], key: str, after: Callable[..., None] | None = None
    ) -> Callable[..., Any]:
        layer = key.partition(".")[0]
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = enter(key, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _method(self, cls: type, name: str, key: str, after=None) -> None:
        self._set(cls, name, self._wrap(vars(cls)[name], key, after))

    def _function(self, module: Any, name: str, key: str, after=None) -> None:
        original = getattr(module, name)
        wrapped = self._wrap(original, key, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                vars(mod).get(name) is original
            ):
                self._set(mod, name, wrapped)

    def _install(self) -> None:
        count = self.counts

        # problems: every concrete evaluate / evaluate_batch / evaluate_many
        def genomes(args, result):
            count["problems.genomes"] += len(result)

        for cls in _subclasses(Problem):
            for name in ("evaluate", "evaluate_batch", "evaluate_many"):
                fn = vars(cls).get(name)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                # the base evaluate_many is where evaluations_observed() counts
                after = genomes if (cls, name) == (Problem, "evaluate_many") else None
                self._method(cls, name, f"problems.{name}", after)

        # core: the engine step and both variation paths
        def offspring(args, result):
            count["core.offspring"] += len(result)

        def vector_offspring(args, result):
            count["core.offspring"] += len(result[0])

        self._method(EvolutionEngine, "step", "core.step")
        self._method(EvolutionEngine, "run", "core.run")
        self._function(_engine, "offspring_pair", "core.variation", offspring)
        self._function(_engine, "vector_offspring", "core.variation", vector_offspring)

        # deme: the untimed epoch loop, timed deme processes, parallel run()
        def epochs(args, result):
            if not self._depth["deme"]:  # outermost run() only
                count["deme.epochs"] += int(getattr(result, "epochs", 0))

        self._method(EpochLoop, "step_epoch", "deme.epoch")
        process = vars(TimedDemeRuntime)["_deme_process"]

        @functools.wraps(process)
        def timed_process(*args: Any, **kwargs: Any) -> _TimedProcess:
            return _TimedProcess(process(*args, **kwargs), self)

        self._set(TimedDemeRuntime, "_deme_process", timed_process)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro.parallel."):
                continue
            for cls in [v for v in vars(mod).values() if isinstance(v, type)]:
                if cls.__module__ == name and "run" in vars(cls):
                    self._method(cls, "run", "deme.run", epochs)

        # migration
        def migrants(args, result):
            count["migration.migrants"] += len(result)

        self._function(_policy, "select_migrants", "migration.select", migrants)
        self._function(_policy, "integrate_immigrants", "migration.integrate")

        # cluster: the simulation kernel and trace record / digest
        run = vars(Simulator)["run"]
        enter, leave = self._enter, self._exit

        @functools.wraps(run)
        def sim_run(*args: Any, **kwargs: Any) -> Any:
            before = _sim.events_dispatched()
            frame = enter("cluster.sim", "cluster")
            try:
                return run(*args, **kwargs)
            finally:
                leave(frame)
                count["cluster.sim.events"] += _sim.events_dispatched() - before

        self._set(Simulator, "run", sim_run)
        self._method(Trace, "record", "cluster.trace.record")
        self._method(Trace, "digest_hex", "cluster.trace.digest")

        # sweep: orchestration, cache and content addressing
        def trials(args, result):
            count["sweep.trials"] += len(result)

        def load(args, result):
            count["sweep.cache.hits"] += bool(result[0])

        def store(args, result):
            cache, digest = args[0], args[1]
            # entry layout documented by TrialCache: <root>/<d[:2]>/<d[2:]>.pkl
            entry = Path(cache.root) / digest[:2] / f"{digest[2:]}.pkl"
            count["sweep.cache.bytes"] += entry.stat().st_size

        self._function(_sweep, "run_sweep", "sweep.run", trials)
        self._function(_sweep, "trial_digest", "sweep.digest")
        self._function(_sweep, "kernel_digest", "sweep.digest")
        self._method(TrialCache, "load", "sweep.cache.load", load)
        self._method(TrialCache, "store", "sweep.cache.store", store)

        # spec: building a run (the engine run itself is not part of it)
        self._function(_spec_engines, "build_run", "spec.build")

    def _uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Trace the enclosed block; the program is unpatched afterwards."""
        self._install()
        try:
            evaluations = _problem.evaluations_observed()
            events = _sim.events_dispatched()
            start = _clock()
            try:
                yield self
            finally:
                self.wall_s += _clock() - start
                self.evaluations += _problem.evaluations_observed() - evaluations
                self.events += _sim.events_dispatched() - events
        finally:
            self._uninstall()

    # -- results -----------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (sum over the layer's span keys)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.self_s.items():
            out[key.partition(".")[0]] += seconds
        return out

    def unattributed_s(self) -> float:
        """Traced wall time no layer span covers."""
        return self.wall_s - sum(self.self_s.values())

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced pass: name -> (value, unit)."""
        c, s, busy = self.counts, self.self_s, self.busy_s
        layer = self.layer_self_s()

        def per_pass(value: float) -> float:
            return value / passes

        def micro(seconds: float, n: float) -> float:
            return seconds / n * 1e6 if n else 0.0

        genomes = c["problems.genomes"]
        offspring = c["core.offspring"]
        events = c["cluster.sim.events"]
        return {
            "problems.genomes": (per_pass(genomes), "count"),
            "problems.calls_scalar": (
                per_pass(c["problems.evaluate"] - c["problems.evaluate#nested"]),
                "count",
            ),
            "problems.calls_batch": (
                per_pass(c["problems.evaluate_batch"] - c["problems.evaluate_batch#nested"]),
                "count",
            ),
            "problems.busy_s": (per_pass(busy["problems"]), "s"),
            "problems.self_s": (per_pass(layer["problems"]), "s"),
            "problems.us_per_genome": (micro(busy["problems"], genomes), "us"),
            "core.steps": (per_pass(c["core.step"]), "count"),
            "core.step_self_s": (per_pass(s["core.step"]), "s"),
            "core.offspring": (per_pass(offspring), "count"),
            "core.variation_s": (per_pass(s["core.variation"]), "s"),
            "core.us_per_offspring": (micro(s["core.variation"], offspring), "us"),
            "core.self_s": (per_pass(layer["core"]), "s"),
            "deme.epochs": (per_pass(c["deme.epochs"]), "count"),
            "deme.self_s": (per_pass(layer["deme"]), "s"),
            "migration.calls": (
                per_pass(c["migration.select"] + c["migration.integrate"]), "count"
            ),
            "migration.migrants": (per_pass(c["migration.migrants"]), "count"),
            "migration.busy_s": (per_pass(busy["migration"]), "s"),
            "migration.self_s": (per_pass(layer["migration"]), "s"),
            "cluster.sim.events": (per_pass(events), "count"),
            "cluster.sim.self_s": (per_pass(s["cluster.sim"]), "s"),
            "cluster.trace.records": (per_pass(c["cluster.trace.record"]), "count"),
            "cluster.trace.record_s": (per_pass(s["cluster.trace.record"]), "s"),
            "cluster.trace.digest_s": (per_pass(s["cluster.trace.digest"]), "s"),
            "cluster.us_per_event": (micro(layer["cluster"], events), "us"),
            "cluster.self_s": (per_pass(layer["cluster"]), "s"),
            "sweep.trials": (per_pass(c["sweep.trials"]), "count"),
            "sweep.overhead_s": (per_pass(layer["sweep"]), "s"),
            "sweep.cache.hits": (per_pass(c["sweep.cache.hits"]), "count"),
            "sweep.cache.store_s": (per_pass(s["sweep.cache.store"]), "s"),
            "sweep.cache.load_s": (per_pass(s["sweep.cache.load"]), "s"),
            "sweep.cache.bytes": (per_pass(c["sweep.cache.bytes"]), "bytes"),
            "spec.builds": (per_pass(c["spec.build"]), "count"),
            "spec.build_s": (per_pass(layer["spec"]), "s"),
            "unattributed_s": (per_pass(self.unattributed_s()), "s"),
            "traced_wall_s": (per_pass(self.wall_s), "s"),
        }


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return list(dict.fromkeys(out))
