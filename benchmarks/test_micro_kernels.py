"""Micro-benchmarks: operator, engine and simulator kernel throughput.

Not tied to a table/figure — these watch for performance regressions in the
hot paths every experiment exercises (per the profiling-first methodology:
the bottlenecks are variation, selection, fitness and the event loop).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.cluster import Simulator, Timeout
from repro.core import GAConfig, GenerationalEngine, SteadyStateEngine
from repro.core.operators.crossover import TwoPointCrossover, UniformCrossover
from repro.core.operators.mutation import BitFlipMutation, GaussianMutation
from repro.core.operators.selection import TournamentSelection
from repro.parallel import CellularGA, IslandModel
from repro.problems import OneMax, Rastrigin, Sphere
from repro.problems.applications import ReactorCoreDesign


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestOperatorThroughput:
    def test_two_point_crossover(self, benchmark, rng):
        a = rng.integers(0, 2, 256, dtype=np.int8)
        b = rng.integers(0, 2, 256, dtype=np.int8)
        benchmark(TwoPointCrossover(), rng, a, b)

    def test_uniform_crossover(self, benchmark, rng):
        a = rng.integers(0, 2, 256, dtype=np.int8)
        b = rng.integers(0, 2, 256, dtype=np.int8)
        benchmark(UniformCrossover(), rng, a, b)

    def test_bitflip_mutation(self, benchmark, rng):
        g = rng.integers(0, 2, 256, dtype=np.int8)
        benchmark(BitFlipMutation(), rng, g)

    def test_gaussian_mutation(self, benchmark, rng):
        g = rng.random(256)
        benchmark(GaussianMutation(sigma=0.1), rng, g)

    def test_tournament_selection(self, benchmark, rng):
        from repro.core import Individual

        pop = []
        for k in range(256):
            ind = Individual(genome=np.zeros(8))
            ind.fitness = float(k)
            pop.append(ind)
        benchmark(TournamentSelection(2), rng, pop, 256, True)


class TestEngineThroughput:
    def test_generational_generation(self, benchmark):
        eng = GenerationalEngine(OneMax(128), GAConfig(population_size=128), seed=1)
        eng.initialize()
        benchmark(eng.step)

    def test_steady_state_generation(self, benchmark):
        eng = SteadyStateEngine(OneMax(128), GAConfig(population_size=128), seed=1)
        eng.initialize()
        benchmark(eng.step)

    def test_continuous_generation(self, benchmark):
        eng = GenerationalEngine(Rastrigin(dims=32), GAConfig(population_size=64), seed=1)
        eng.initialize()
        benchmark(eng.step)

    def test_cellular_sweep(self, benchmark):
        cga = CellularGA(OneMax(64), rows=16, cols=16, seed=1)
        cga.initialize()
        benchmark(cga.step)

    def test_island_epoch(self, benchmark):
        model = IslandModel(OneMax(64), 8, GAConfig(population_size=16), seed=1)
        model.initialize()
        benchmark(model.step_epoch)


def _paired_cpu_ratio(slow, fast, *, rounds: int, inner: int) -> float:
    """How many times more process CPU time ``slow`` takes than ``fast``:
    the median over ``rounds`` of the ratio of two adjacent bursts of
    ``inner`` calls each.  On a shared host the speed of this process
    drifts by tens of percent over seconds; adjacent bursts see the same
    host state, so their ratio cancels the drift, while a best-of per
    side can pair a lucky minimum on one side with an unlucky one on the
    other.  CPU time leaves out time spent descheduled."""
    ratios = []
    for _ in range(rounds):
        spent = []
        for fn in (slow, fast):
            start = time.process_time()
            for _ in range(inner):
                fn()
            spent.append(time.process_time() - start)
        ratios.append(spent[0] / spent[1])
    return float(np.median(ratios))


def _best_rate(fn, *, repeats: int = 9, inner: int = 30) -> float:
    """Calls per second, best of ``repeats`` timed bursts (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return 1.0 / best


class TestBatchEvaluationThroughput:
    """The vectorized fast path must beat the scalar loop by a wide margin
    (acceptance floor: 5x on a population of 256; 2x for the reactor,
    whose block assembly is shared but whose eigen-solve is one LAPACK
    call per row, on a population of 96) while returning bit-identical
    fitnesses."""

    POP = 256

    def _compare(self, problem, *, pop=POP, floor=5.0, **timing):
        rng = np.random.default_rng(0)
        batch = np.stack([problem.spec.sample(rng) for _ in range(pop)])
        genomes = list(batch)
        scalar_rate = _best_rate(lambda: [problem.evaluate(g) for g in genomes], **timing)
        batch_rate = _best_rate(lambda: problem.evaluate_batch(batch), **timing)
        assert np.array_equal(
            problem.evaluate_batch(batch),
            np.asarray([problem.evaluate(g) for g in genomes], dtype=float),
        )
        ratio = batch_rate / scalar_rate
        assert ratio >= floor, (
            f"{problem.name}: batched evaluation only {ratio:.1f}x the scalar "
            f"loop (need >= {floor:g}x)"
        )
        return ratio

    def test_onemax_batch_vs_scalar(self):
        print(f"OneMax batch speedup: {self._compare(OneMax(256)):.0f}x")

    def test_sphere_batch_vs_scalar(self):
        print(f"Sphere batch speedup: {self._compare(Sphere(dims=64)):.0f}x")

    def test_reactor_batch_vs_scalar(self):
        # E12's generational population; one scalar pass costs ~0.02 s
        ratio = self._compare(
            ReactorCoreDesign(mesh_points=40), pop=96, floor=2.0, repeats=3, inner=1
        )
        print(f"ReactorCoreDesign batch speedup: {ratio:.1f}x")

    def test_onemax_batch_kernel(self, benchmark, rng):
        p = OneMax(256)
        batch = np.stack([p.spec.sample(rng) for _ in range(self.POP)])
        benchmark(p.evaluate_batch, batch)

    def test_sphere_batch_kernel(self, benchmark, rng):
        p = Sphere(dims=64)
        batch = np.stack([p.spec.sample(rng) for _ in range(self.POP)])
        benchmark(p.evaluate_batch, batch)


class TestSimulatorThroughput:
    #: dispatch floor for the heappop-once hot loop — with the horizon
    #: check hoisted out of the no-``until`` path the measured rate on a
    #: single shared CPU core is ~600-950k events/s, so 150k/s flags a
    #: real regression (peek+pop double access, re-validation on resume,
    #: per-event horizon compare) without flaking on slow CI runners
    EVENTS_PER_SEC_FLOOR = 150_000

    def test_event_dispatch_floor(self):
        from repro.cluster import sim as sim_mod

        n = 50_000

        def run_n():
            sim = Simulator()

            def ticker():
                for _ in range(n):
                    yield Timeout(1.0)

            sim.process(ticker())
            sim.run()

        best = 0.0
        for _ in range(3):
            before = sim_mod.events_dispatched()
            start = time.perf_counter()
            run_n()
            elapsed = time.perf_counter() - start
            dispatched = sim_mod.events_dispatched() - before
            assert dispatched >= n  # the counter must actually count
            best = max(best, dispatched / elapsed)
        assert best >= self.EVENTS_PER_SEC_FLOOR, (
            f"simulator kernel dispatched only {best:,.0f} events/s "
            f"(floor {self.EVENTS_PER_SEC_FLOOR:,})"
        )

    def test_event_dispatch_rate(self, benchmark):
        def run_10k_events():
            sim = Simulator()

            def ticker():
                for _ in range(10_000):
                    yield Timeout(1.0)

            sim.process(ticker())
            sim.run()
            return sim.now

        assert benchmark(run_10k_events) == 10_000.0

    def test_message_passing_rate(self, benchmark):
        def ping_pong_2k():
            sim = Simulator()
            a, b = sim.inbox("a"), sim.inbox("b")

            def ping():
                for _ in range(1_000):
                    b.put("ping")
                    yield a

            def pong():
                for _ in range(1_000):
                    yield b
                    a.put("pong")

            sim.process(ping())
            sim.process(pong())
            sim.run()

        benchmark(ping_pong_2k)


class TestObservabilityOverhead:
    """The zero-overhead-when-disabled promise, as an enforced floor.

    The simulator's dispatch loop carries no observability hook: its one
    count is the process counter :func:`repro.cluster.sim.events_dispatched`,
    so the disabled-mode dispatch rate must clear the same floor as the
    uninstrumented kernel, and an open session's measured overhead on
    this dispatch-only workload stays well under the documented 10%
    ceiling (``docs/observability.md``).
    """

    EVENTS_PER_SEC_FLOOR = 100_000
    ENABLED_OVERHEAD_CEILING = 0.10

    N = 50_000

    def _run_n(self):
        sim = Simulator()

        def ticker():
            for _ in range(self.N):
                yield Timeout(1.0)

        sim.process(ticker())
        sim.run()

    def _rate(self, repeats: int = 3) -> float:
        best = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            self._run_n()
            best = max(best, self.N / (time.perf_counter() - start))
        return best

    def test_disabled_mode_clears_dispatch_floor(self):
        from repro.obs import current_obs

        assert current_obs() is None  # the default: observability off
        assert self._rate() >= self.EVENTS_PER_SEC_FLOOR

    def test_enabled_mode_overhead_within_documented_ceiling(self):
        from repro.cluster.sim import events_dispatched
        from repro.obs import obs_session

        off = self._rate(repeats=5)
        before = events_dispatched()
        with obs_session(label="overhead-bench"):
            on = self._rate(repeats=5)
        assert events_dispatched() - before >= 5 * self.N
        overhead = max(0.0, (off - on) / off)
        assert overhead < self.ENABLED_OVERHEAD_CEILING, (
            f"obs-enabled dispatch overhead {overhead:.1%} exceeds the "
            f"documented <{self.ENABLED_OVERHEAD_CEILING:.0%} ceiling"
        )
        # enabled mode must also stay above the absolute floor
        assert on >= self.EVENTS_PER_SEC_FLOOR


class _PairwiseTwoPoint(TwoPointCrossover):
    """Two-point crossover that the block breeder does not take (it keys
    its arithmetic on the exact operator type), so an engine configured
    with it breeds pair by pair through ``offspring_pair``."""


def _pairwise_offspring(rng, cfg, spec, parents, count):
    """The per-pair cycle: ``offspring_pair`` over consecutive parents."""
    from repro.core.variation import offspring_pair

    out = []
    for k in range(0, count, 2):
        out.extend(offspring_pair(rng, cfg, spec, parents[k], parents[k + 1]))
    return out[:count]


class TestVariationThroughput:
    """ISSUE 7 acceptance floor: the vectorized selection-crossover-mutation
    cycle must produce offspring >= 10x faster than the scalar per-Individual
    cycle on a 1k-individual OneMax generation.  The stream-exact block
    breeder (``breed``) must beat that per-pair cycle too, by
    >= 1.3x on a 20-member generation of 32-bit genomes, the size of an
    island deme; and its raw-word replay of the draw loop must beat the
    loop by >= 1.4x on 10 pairs of 64-gene genomes."""

    POP = 1000
    LENGTH = 128
    FLOOR = 10.0
    DEME_POP = 20
    DEME_LENGTH = 32
    BREEDER_FLOOR = 1.3
    REPLAY_PAIRS = 10
    REPLAY_LENGTH = 64
    REPLAY_FLOOR = 1.4

    def _offspring_rates(self):
        from repro.core.vectorized import vector_offspring
        from repro.core import Individual

        problem = OneMax(self.LENGTH)
        spec = problem.spec
        cfg = GAConfig(population_size=self.POP).resolved_for(spec)
        rng = np.random.default_rng(0)
        genomes = np.stack(spec.sample_population(rng, self.POP))
        inds = []
        for g in genomes:
            ind = Individual(genome=g)
            ind.fitness = float(g.sum())
            inds.append(ind)
        fits = np.asarray([i.fitness for i in inds], dtype=float)

        def scalar_generation():
            parents = cfg.selection(rng, inds, self.POP, True)
            _pairwise_offspring(rng, cfg, spec, parents, self.POP)

        def vector_generation():
            idx = cfg.selection.indices(rng, fits, self.POP, True)
            vector_offspring(rng, cfg, spec, genomes[idx], self.POP)

        # the scalar cycle is slow — small bursts keep the benchmark honest
        # without dominating suite runtime
        scalar_rate = _best_rate(scalar_generation, repeats=3, inner=2) * self.POP
        vector_rate = _best_rate(vector_generation, repeats=5, inner=5) * self.POP
        return scalar_rate, vector_rate

    def test_vectorized_offspring_floor(self):
        scalar_rate, vector_rate = self._offspring_rates()
        ratio = vector_rate / scalar_rate
        print(
            f"variation throughput: scalar {scalar_rate:,.0f} vs vectorized "
            f"{vector_rate:,.0f} offspring/s ({ratio:.1f}x)"
        )
        assert ratio >= self.FLOOR, (
            f"vectorized variation only {ratio:.1f}x the scalar cycle "
            f"(need >= {self.FLOOR}x)"
        )

    def test_block_breeder_beats_the_per_pair_cycle(self):
        from repro.core import Individual
        from repro.core.variation import breed

        spec = OneMax(self.DEME_LENGTH).spec
        cfg = GAConfig(population_size=self.DEME_POP).resolved_for(spec)
        rng = np.random.default_rng(0)
        parents = [Individual(genome=g) for g in spec.sample_population(rng, self.DEME_POP)]

        def pairwise():
            _pairwise_offspring(rng, cfg, spec, parents, self.DEME_POP)

        def block():
            breed(rng, cfg, spec, parents, self.DEME_POP)

        ratio = _paired_cpu_ratio(pairwise, block, rounds=100, inner=20)
        print(
            f"deme breeding ({self.DEME_POP} x {self.DEME_LENGTH}): block "
            f"breeder {ratio:.2f}x the per-pair cycle"
        )
        assert ratio >= self.BREEDER_FLOOR, (
            f"block breeder only {ratio:.2f}x the per-pair cycle "
            f"(need >= {self.BREEDER_FLOOR}x)"
        )

    def test_replayed_draws_beat_the_draw_loop(self):
        """The block breeder's draw phase for one deme of 20: the PCG64
        raw-word replay against the loop of generator calls it replaces
        (bit-identical values and final state: tests/core/test_rng_replay.py)."""
        from repro.core import variation

        spec = OneMax(self.REPLAY_LENGTH).spec
        cfg = GAConfig(crossover_prob=0.9, mutation_prob=1.0).resolved_for(spec)
        rng = np.random.default_rng(0)
        n, pairs = self.REPLAY_LENGTH, self.REPLAY_PAIRS
        assert variation._replayed_draws(rng, cfg, n, pairs) is not None

        def loop():
            variation._draw_loop(rng, cfg, n, pairs)

        def replay():
            variation._replayed_draws(rng, cfg, n, pairs)

        ratio = _paired_cpu_ratio(loop, replay, rounds=100, inner=20)
        print(
            f"breed draws ({pairs} pairs x {n} genes): replay {ratio:.2f}x the "
            f"draw loop"
        )
        assert ratio >= self.REPLAY_FLOOR, (
            f"replayed draws only {ratio:.2f}x the draw loop "
            f"(need >= {self.REPLAY_FLOOR}x)"
        )

    def test_vectorized_engine_step_beats_scalar(self):
        """End-to-end: whole engine generations, evaluation included,
        against an engine that breeds pair by pair."""
        scalar = GenerationalEngine(
            OneMax(self.LENGTH),
            GAConfig(population_size=self.POP, crossover=_PairwiseTwoPoint()),
            seed=1,
        )
        scalar.initialize()
        vector = GenerationalEngine(
            OneMax(self.LENGTH),
            GAConfig(population_size=self.POP, vectorized_variation=True),
            seed=1,
        )
        vector.initialize()
        ratio = _paired_cpu_ratio(scalar.step, vector.step, rounds=25, inner=2)
        print(f"engine step speedup with vectorized variation: {ratio:.2f}x")
        assert ratio >= 3.0, (
            f"vectorized engine step only {ratio:.1f}x scalar (need >= 3x "
            f"with evaluation included)"
        )


def _pool_bench_task(n: int) -> float:
    """A few milliseconds of real NumPy work — the amortized-task regime
    the supervised pool is designed for (one trial >> one pipe hop)."""
    rng = np.random.default_rng(n)
    x = rng.random(n)
    total = 0.0
    for _ in range(40):
        total += float(np.sum(np.sqrt(x) * np.sin(x)))
    return total


@pytest.mark.skipif(os.name != "posix", reason="pool benchmark forks workers")
class TestSupervisedPoolOverhead:
    """ISSUE 8 acceptance: the supervision layer (explicit workers, one
    pipe round-trip and deadline bookkeeping per task) must stay within
    5% of a bare ``multiprocessing.Pool`` on fault-free runs with
    amortized trial-scale tasks.  Measured: ~0.93x — at this task size
    one-task-at-a-time dispatch balances the batch tail *better* than
    ``Pool.map``'s chunked dispatch, more than paying for the extra pipe
    hop (see docs/resilient_execution.md)."""

    JOBS = 4
    TASKS = 32
    PAYLOAD = 60_000
    CEILING = 1.05

    def _bare_seconds(self) -> float:
        from multiprocessing import get_context

        payloads = [self.PAYLOAD] * self.TASKS
        best = float("inf")
        ctx = get_context("fork")
        with ctx.Pool(self.JOBS) as pool:
            for _ in range(3):
                start = time.perf_counter()
                pool.map(_pool_bench_task, payloads)
                best = min(best, time.perf_counter() - start)
        return best

    def _supervised_seconds(self) -> float:
        from repro.runtime.resilient import SupervisedPool

        payloads = [self.PAYLOAD] * self.TASKS
        best = float("inf")
        with SupervisedPool(_pool_bench_task, self.JOBS) as pool:
            for _ in range(3):
                start = time.perf_counter()
                pool.run_batch(payloads)
                best = min(best, time.perf_counter() - start)
        return best

    def test_fault_free_overhead_within_ceiling(self):
        bare = self._bare_seconds()
        supervised = self._supervised_seconds()
        ratio = supervised / bare
        print(
            f"supervised pool overhead: bare {bare * 1e3:.1f}ms vs "
            f"supervised {supervised * 1e3:.1f}ms ({ratio:.3f}x)"
        )
        assert ratio <= self.CEILING, (
            f"supervised pool {ratio:.2f}x the bare pool on fault-free "
            f"amortized tasks (ceiling {self.CEILING}x)"
        )

    def test_results_identical_to_bare_pool(self):
        from multiprocessing import get_context

        from repro.runtime.resilient import SupervisedPool

        payloads = [self.PAYLOAD + i for i in range(8)]
        with get_context("fork").Pool(2) as pool:
            bare = pool.map(_pool_bench_task, payloads)
        with SupervisedPool(_pool_bench_task, 2) as pool:
            supervised = pool.run_batch(payloads)
        assert supervised == bare


class TestTraceThroughput:
    """The streaming trace pipeline's acceptance floors.

    ``Trace.record`` canonicalises every event into the pinned digest-line
    format *as it happens* (interned columnar storage + an incrementally
    updated sha256), so these floors watch the whole per-event cost:
    bookkeeping, line assembly and the amortised hash.  The workload is
    the shape simulations actually produce — bursts of small int-field
    events sharing one timestamp object (``sim.now``).
    """

    #: record floor for compact retention on a kind it does not keep (so
    #: only bookkeeping, line assembly and hashing run); measured
    #: ~450-650k ev/s on one shared core, so half that flags a real
    #: hot-path regression
    RECORD_EVENTS_PER_SEC_FLOOR = 250_000
    #: what the issue-level acceptance asks of an idle machine; asserted
    #: only when REPRO_BENCH_STRICT=1 (CI smoke uses the floor above)
    RECORD_EVENTS_PER_SEC_TARGET = 500_000
    #: O(1) finalize must beat the legacy O(n) re-walk by at least this
    #: factor on a 100k-event trace (measured: >1000x)
    FINALIZE_SPEEDUP_FLOOR = 10.0
    N_EVENTS = 100_000

    def _record_rate(self, retention: str) -> float:
        from repro.cluster.trace import Trace

        n = self.N_EVENTS
        best = 0.0
        for _ in range(5):
            trace = Trace(retention)
            record = trace.record
            now = 0.5  # one timestamp object per burst, like sim.now
            start = time.perf_counter()
            for _ in range(n):
                record(now, "dispatch", node=3, chunk=7)
            best = max(best, n / (time.perf_counter() - start))
        return best

    def test_record_floor_compact(self):
        rate = self._record_rate("compact")
        floor = (
            self.RECORD_EVENTS_PER_SEC_TARGET
            if os.environ.get("REPRO_BENCH_STRICT") == "1"
            else self.RECORD_EVENTS_PER_SEC_FLOOR
        )
        print(f"trace record (compact, unkept kind): {rate:,.0f} events/s")
        assert rate >= floor, (
            f"compact Trace.record ran {rate:,.0f} events/s "
            f"(floor {floor:,})"
        )

    def test_record_compact_not_slower_than_full(self):
        """Retention modes exist to *cut* cost; compact must never lose
        badly to full (they share the whole digest path and compact skips
        storage for non-retained kinds)."""
        full = self._record_rate("full")
        compact = self._record_rate("compact")
        print(f"trace record: full {full:,.0f} vs compact {compact:,.0f} events/s")
        assert compact >= 0.8 * full

    def test_digest_finalize_speedup_vs_walker(self):
        from repro.cluster.trace import Trace
        from repro.verify.digest import trace_digest_walk

        trace = Trace("full")
        record = trace.record
        for i in range(self.N_EVENTS):
            record(i * 0.001, "msg", src=1, dst=2, mid=i)
        # finalize: flush the <=256 buffered lines and read the hash...
        start = time.perf_counter()
        incremental = trace.digest_hex()
        finalize = time.perf_counter() - start
        # ...vs the legacy walker re-canonicalising all 100k events
        start = time.perf_counter()
        legacy = trace_digest_walk(trace)
        walk = time.perf_counter() - start
        assert incremental == legacy  # same pinned byte format
        speedup = walk / max(finalize, 1e-9)
        print(
            f"digest finalize {finalize * 1e6:,.0f}us vs walker "
            f"{walk * 1e3:,.0f}ms ({speedup:,.0f}x)"
        )
        assert speedup >= self.FINALIZE_SPEEDUP_FLOOR, (
            f"incremental finalize only {speedup:.1f}x faster than the "
            f"legacy walk (floor {self.FINALIZE_SPEEDUP_FLOOR}x)"
        )

    def test_compact_transport_payload_smaller(self):
        """The sweep-worker story: a compact trace pickles far smaller
        than a full one over the same event stream."""
        import pickle

        from repro.cluster.trace import Trace, trace_retention

        def build(mode):
            with trace_retention(mode):
                trace = Trace()
            for i in range(5_000):
                trace.record(i * 0.01, "msg", src=i % 8, dst=(i + 1) % 8, mid=i)
                if i % 50 == 0:
                    trace.record(i * 0.01, "generation", deme=i % 8, generation=i // 50, best=1.0)
            return trace

        full, compact = build("full"), build("compact")
        assert full.digest_hex() == compact.digest_hex()
        full_bytes = len(pickle.dumps(full))
        compact_bytes = len(pickle.dumps(compact))
        print(f"trace pickle: full {full_bytes:,}B vs compact {compact_bytes:,}B")
        assert compact_bytes < full_bytes / 5
