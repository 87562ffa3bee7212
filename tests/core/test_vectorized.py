"""Scalar-vs-vectorized equivalence suite for ``repro.core.vectorized``.

Three tiers of guarantee, each tested here:

* **rng-stream parity** — the selection operators' index path and the
  single-row forms of most crossover/mutation kernels consume the
  generator identically to the member-level calls, so same-state calls
  give bit-identical output;
* **distributional equivalence** — kernels that sample differently
  (two-point cuts, swap/inversion positions, permutation repair's
  missing-value shuffle) match the scalar operators' distributions and
  invariants, not their streams;
* **engine equivalence** — ``vectorized_variation=True`` runs the same
  algorithm to the same quality, falls back cleanly on unsupported
  operators, and leaves the default-off scalar path untouched.
"""

import numpy as np
import pytest

from repro.core import (
    GAConfig,
    GenerationalEngine,
    Individual,
    Population,
    SteadyStateEngine,
    supports_vectorized_variation,
    vector_offspring,
)
from repro.core.genome import (
    BinarySpec,
    IntegerVectorSpec,
    PermutationSpec,
    RealVectorSpec,
)
from repro.core.operators.crossover import (
    ArithmeticCrossover,
    BlendCrossover,
    OnePointCrossover,
    OrderCrossover,
    SimulatedBinaryCrossover,
    TwoPointCrossover,
    UniformCrossover,
)
from repro.core.operators.mutation import (
    BitFlipMutation,
    CreepMutation,
    GaussianMutation,
    InversionMutation,
    PolynomialMutation,
    SwapMutation,
    UniformResetMutation,
)
from repro.core.operators.selection import (
    BestSelection,
    BoltzmannSelection,
    IndexSelection,
    LinearRankSelection,
    RandomSelection,
    RouletteWheelSelection,
    StochasticUniversalSampling,
    TournamentSelection,
    TruncationSelection,
)
from repro.core.vectorized import kernels as K
from repro.problems import OneMax


def make_pop(fitnesses, maximize=True):
    inds = []
    for k, f in enumerate(fitnesses):
        ind = Individual(genome=np.array([k], dtype=np.int64))
        ind.fitness = float(f)
        inds.append(ind)
    return Population(inds, maximize=maximize)


EXACT_PARITY_SELECTIONS = [
    TournamentSelection(size=3),
    RouletteWheelSelection(),
    LinearRankSelection(sp=1.5),
    TruncationSelection(fraction=0.4),
    BoltzmannSelection(temperature=0.7),
    RandomSelection(),
    BestSelection(),
]


class TestSelectionKernelParity:
    """The index path (``op.indices`` on a fitness vector, which the
    vectorized engine calls) and the member path (``op(...)`` on
    individuals, which the scalar engines call) pick the same rows from
    the same generator state.  ``tests/core/test_selection_pins.py`` pins
    both against recorded picks."""

    @pytest.mark.parametrize("op", EXACT_PARITY_SELECTIONS, ids=lambda o: type(o).__name__)
    @pytest.mark.parametrize("maximize", [True, False])
    def test_kernel_picks_identical_indices(self, op, maximize):
        """Same generator state -> literally the same parents as the member call."""
        fits = [5.0, 2.0, 8.0, 8.0, 1.0, 4.0, 4.0, 7.0]
        pop = make_pop(fits, maximize=maximize)
        r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
        picked = op(r1, pop.individuals, 12, maximize)
        index_of = {id(ind): k for k, ind in enumerate(pop.individuals)}
        scalar_idx = [index_of[id(p)] for p in picked]
        vec_idx = op.indices(r2, np.asarray(fits), 12, maximize)
        assert scalar_idx == vec_idx.tolist()
        assert r1.random() == r2.random()

    @pytest.mark.parametrize("maximize", [True, False])
    def test_sus_same_multiset(self, maximize):
        """SUS shuffles its index array before mapping it to members, so the
        two paths agree on the order too, not just the multiset."""
        fits = [5.0, 2.0, 8.0, 1.0, 4.0]
        pop = make_pop(fits, maximize=maximize)
        op = StochasticUniversalSampling()
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        picked = op(r1, pop.individuals, 9, maximize)
        index_of = {id(ind): k for k, ind in enumerate(pop.individuals)}
        scalar_idx = [index_of[id(p)] for p in picked]
        assert scalar_idx == op.indices(r2, np.asarray(fits), 9, maximize).tolist()

    def test_single_member_pool(self):
        fits = np.asarray([3.0])
        for op in EXACT_PARITY_SELECTIONS + [StochasticUniversalSampling()]:
            idx = op.indices(np.random.default_rng(0), fits, 4, True)
            assert idx.tolist() == [0, 0, 0, 0]
            assert idx.dtype == np.int64

    def test_kernels_reject_nonfinite_fitness(self):
        for bad in (np.nan, np.inf, -np.inf):
            fits = np.asarray([1.0, bad, 2.0])
            for op in EXACT_PARITY_SELECTIONS + [StochasticUniversalSampling()]:
                with pytest.raises(ValueError, match=r"non-finite.*\[1\]"):
                    op.indices(np.random.default_rng(0), fits, 5, True)

    def test_empty_pool_is_rejected_before_any_draw(self):
        for op in EXACT_PARITY_SELECTIONS + [StochasticUniversalSampling()]:
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match="non-empty 1-D"):
                op.indices(rng, np.empty(0), 3, True)
            with pytest.raises(ValueError, match="non-empty 1-D"):
                op(rng, [], 3, True)
            assert rng.random() == np.random.default_rng(0).random()

    def test_unknown_operator_has_no_kernel(self):
        """Every built-in scheme has an index path; a custom operator that
        only defines the member call has none, so the engine maps its picks
        back to rows by identity."""

        class Custom:
            def __call__(self, rng, individuals, n, maximize):
                return [individuals[0]] * n

        for op in EXACT_PARITY_SELECTIONS + [StochasticUniversalSampling()]:
            assert isinstance(op, IndexSelection)
        assert not isinstance(Custom(), IndexSelection)
        assert not hasattr(Custom(), "indices")
        e = GenerationalEngine(
            OneMax(8),
            GAConfig(population_size=4, selection=Custom(), vectorized_variation=True),
            seed=0,
        )
        e.initialize()
        assert e._select_indices(e.population.fitness_array(), 3).tolist() == [0, 0, 0]


PAIR_EXACT_CROSSOVERS = [
    (OnePointCrossover(), np.arange(10), np.arange(10)[::-1].copy()),
    (UniformCrossover(swap_prob=0.3), np.arange(10), np.arange(10)[::-1].copy()),
    (SimulatedBinaryCrossover(eta=10.0), np.linspace(0, 1, 8), np.linspace(1, 0, 8)),
    (ArithmeticCrossover(), np.linspace(0, 1, 8), np.linspace(1, 0, 8)),
    (ArithmeticCrossover(alpha=0.25), np.linspace(0, 1, 8), np.linspace(1, 0, 8)),
    (BlendCrossover(alpha=0.3), np.linspace(0, 1, 8), np.linspace(1, 0, 8)),
]


class TestCrossoverKernels:
    @pytest.mark.parametrize(
        "op,a,b", PAIR_EXACT_CROSSOVERS, ids=lambda v: type(v).__name__ if hasattr(v, "__call__") else None
    )
    def test_single_pair_matches_scalar_bit_for_bit(self, op, a, b):
        kernel = K.crossover_kernel(op)
        assert kernel is not None
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        ca, cb = op(r1, a, b)
        CA, CB = kernel(r2, a[None, :], b[None, :])
        np.testing.assert_allclose(np.asarray(ca, float), np.asarray(CA[0], float))
        np.testing.assert_allclose(np.asarray(cb, float), np.asarray(CB[0], float))

    def test_two_point_gene_conservation_per_locus(self):
        """Two-point samples its cuts differently from the scalar op, so the
        guarantee is the structural one: every locus holds {a_i, b_i}."""
        rng = np.random.default_rng(1)
        A = rng.integers(0, 10, size=(40, 12))
        B = rng.integers(0, 10, size=(40, 12))
        CA, CB = K.two_point_crossover_batch(rng, A, B)
        assert np.all((CA == A) | (CA == B))
        assert np.all(np.where(CA == A, CB == B, CB == A))

    def test_two_point_short_genomes_delegate_to_one_point(self):
        rng = np.random.default_rng(2)
        A = np.zeros((5, 2), dtype=np.int64)
        B = np.ones((5, 2), dtype=np.int64)
        CA, CB = K.two_point_crossover_batch(rng, A, B)
        assert np.all(CA + CB == 1)

    def test_length_one_genomes_pass_through_one_point(self):
        rng = np.random.default_rng(0)
        A = np.zeros((4, 1), dtype=np.int8)
        B = np.ones((4, 1), dtype=np.int8)
        CA, CB = K.one_point_crossover_batch(rng, A, B)
        assert np.array_equal(CA, A) and np.array_equal(CB, B)

    def test_cut_distribution_matches_scalar(self):
        """One-point cut positions are uniform over 1..L-1 on both paths."""
        L, trials = 6, 4000
        a = np.zeros(L, dtype=np.int8)
        b = np.ones(L, dtype=np.int8)
        op = OnePointCrossover()
        r1, r2 = np.random.default_rng(11), np.random.default_rng(12)
        scalar_cuts = np.asarray(
            [int(op(r1, a, b)[0].sum()) for _ in range(trials)]
        )  # child = a[:cut] + b[cut:], so sum(child) = L - cut
        A = np.broadcast_to(a, (trials, L))
        B = np.broadcast_to(b, (trials, L))
        CA, _ = K.one_point_crossover_batch(r2, A, B)
        vec_cuts = CA.sum(axis=1)
        sc = np.bincount(scalar_cuts, minlength=L) / trials
        vc = np.bincount(vec_cuts, minlength=L) / trials
        np.testing.assert_allclose(sc, vc, atol=0.05)


ROW_EXACT_MUTATIONS = [
    (BitFlipMutation(rate=0.4), (np.arange(12) % 2).astype(np.int8)),
    (
        GaussianMutation(sigma=0.3, rate=0.5, lower=0.0, upper=1.0),
        np.linspace(0, 1, 9),
    ),
    (UniformResetMutation(lower=0.0, upper=1.0, rate=0.5), np.linspace(0, 1, 9)),
    (PolynomialMutation(lower=0.0, upper=1.0, rate=0.5), np.linspace(0.05, 0.95, 9)),
    (CreepMutation(low=0, high=9, step=2, rate=0.5), np.arange(10)),
]


class TestMutationKernels:
    @pytest.mark.parametrize(
        "op,g", ROW_EXACT_MUTATIONS, ids=lambda v: type(v).__name__ if hasattr(v, "__call__") else None
    )
    def test_single_row_matches_scalar_bit_for_bit(self, op, g):
        kernel = K.mutation_kernel(op)
        assert kernel is not None
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        out = op(r1, g)
        OUT = kernel(r2, g[None, :])
        np.testing.assert_allclose(np.asarray(out, float), np.asarray(OUT[0], float))

    def test_swap_and_inversion_preserve_permutations(self):
        rng = np.random.default_rng(4)
        G = np.stack([rng.permutation(11) for _ in range(50)])
        for kernel in (K.swap_mutation_batch, K.inversion_mutation_batch):
            out = kernel(rng, G)
            assert out.shape == G.shape
            assert np.all(np.sort(out, axis=1) == np.arange(11))
            assert not np.array_equal(out, G)  # something moved somewhere

    def test_swap_changes_exactly_two_positions_per_row(self):
        rng = np.random.default_rng(5)
        G = np.stack([rng.permutation(9) for _ in range(30)])
        out = K.swap_mutation_batch(rng, G)
        assert np.all((out != G).sum(axis=1) == 2)

    def test_length_one_rows_pass_through(self):
        G = np.zeros((3, 1), dtype=np.int64)
        rng = np.random.default_rng(0)
        assert np.array_equal(K.swap_mutation_batch(rng, G), G)
        assert np.array_equal(K.inversion_mutation_batch(rng, G), G)


class TestRepairBatch:
    def test_deterministic_specs_match_rowwise_repair(self):
        rng = np.random.default_rng(6)
        cases = [
            (BinarySpec(8), rng.normal(0.5, 1.0, size=(20, 8))),
            (RealVectorSpec(5, lower=-1.0, upper=1.0), rng.normal(0, 3, size=(20, 5))),
            (IntegerVectorSpec(6, low=0, high=9), rng.normal(4, 8, size=(20, 6))),
        ]
        for spec, block in cases:
            batch = spec.repair_batch(block, np.random.default_rng(0))
            rows = np.stack(
                [spec.repair(g, np.random.default_rng(0)) for g in block]
            )
            assert batch.dtype == rows.dtype
            np.testing.assert_array_equal(batch, rows)

    def test_permutation_batch_valid_and_keeps_first_occurrence_order(self):
        spec = PermutationSpec(7)
        rng = np.random.default_rng(8)
        block = rng.integers(-2, 9, size=(40, 7))
        out = spec.repair_batch(block, rng)
        assert out.shape == (40, 7)
        assert np.all(np.sort(out, axis=1) == np.arange(7))
        for row_in, row_out in zip(block, out):
            expected_prefix = []
            for v in row_in:
                v = int(v)
                if 0 <= v < 7 and v not in expected_prefix:
                    expected_prefix.append(v)
            # the deterministic part of scalar repair: kept values, in order
            assert row_out[: len(expected_prefix)].tolist() == expected_prefix

    def test_permutation_batch_is_identity_on_valid_rows(self):
        spec = PermutationSpec(9)
        rng = np.random.default_rng(10)
        G = np.stack([rng.permutation(9) for _ in range(25)])
        out = spec.repair_batch(G, rng)
        np.testing.assert_array_equal(out, G)

    def test_default_base_implementation_loops_over_repair(self):
        # exercise the GenomeSpec default via a spec that doesn't override it
        class Offset(BinarySpec):
            def repair_batch(self, genomes, rng):
                return super(BinarySpec, self).repair_batch(genomes, rng)

        spec = Offset(4)
        block = np.asarray([[2.0, -1.0, 0.6, 0.2], [0.0, 1.0, 1.0, 0.0]])
        out = spec.repair_batch(block, np.random.default_rng(0))
        np.testing.assert_array_equal(
            out, np.asarray([[1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.int8)
        )

    def test_batch_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            BinarySpec(4).repair_batch(np.zeros(4), np.random.default_rng(0))


class TestVectorOffspring:
    def spec_config(self, **kw):
        spec = BinarySpec(16)
        cfg = GAConfig(population_size=8, **kw).resolved_for(spec)
        return spec, cfg

    def test_exact_count_odd_and_even(self):
        spec, cfg = self.spec_config()
        rng = np.random.default_rng(0)
        parents = np.stack(spec.sample_population(rng, 8))
        for count in (1, 2, 3, 7, 8):
            children, origins = vector_offspring(rng, cfg, spec, parents, count)
            assert children.shape == (count, 16)
            assert origins.shape == (count,)

    def test_origin_tags_follow_probabilities(self):
        spec = BinarySpec(16)
        rng = np.random.default_rng(1)
        parents = np.stack(spec.sample_population(rng, 6))
        cfg = GAConfig(population_size=6, crossover_prob=1.0, mutation_prob=0.0).resolved_for(spec)
        _, origins = vector_offspring(rng, cfg, spec, parents, 6)
        assert set(origins.tolist()) == {"cx"}
        cfg = GAConfig(population_size=6, crossover_prob=0.0, mutation_prob=1.0).resolved_for(spec)
        _, origins = vector_offspring(rng, cfg, spec, parents, 6)
        assert set(origins.tolist()) == {"clone+mut"}

    def test_children_are_valid_for_spec(self):
        spec = BinarySpec(12)
        cfg = GAConfig(population_size=10).resolved_for(spec)
        rng = np.random.default_rng(2)
        parents = np.stack(spec.sample_population(rng, 10))
        children, _ = vector_offspring(rng, cfg, spec, parents, 9)
        for child in children:
            assert spec.is_valid(child)

    def test_count_zero_and_errors(self):
        spec, cfg = self.spec_config()
        rng = np.random.default_rng(3)
        parents = np.stack(spec.sample_population(rng, 4))
        children, origins = vector_offspring(rng, cfg, spec, parents, 0)
        assert children.shape == (0, 16) and origins.shape == (0,)
        with pytest.raises(ValueError, match=">= 0"):
            vector_offspring(rng, cfg, spec, parents, -1)
        with pytest.raises(ValueError, match="two parent rows"):
            vector_offspring(rng, cfg, spec, parents[:1], 2)
        with pytest.raises(ValueError, match="2-D"):
            vector_offspring(rng, cfg, spec, parents[0], 2)

    def test_unsupported_operator_raises_and_gate_reports_it(self):
        spec = PermutationSpec(8)
        cfg = GAConfig(population_size=4, mutation=SwapMutation()).resolved_for(spec)
        # default permutation crossover (OrderCrossover) has no batch kernel
        assert isinstance(cfg.crossover, OrderCrossover)
        assert not supports_vectorized_variation(cfg)
        rng = np.random.default_rng(4)
        parents = np.stack(spec.sample_population(rng, 4))
        with pytest.raises(ValueError, match="no batch kernel"):
            vector_offspring(rng, cfg, spec, parents, 4)

    def test_supports_gate_accepts_kernelled_pairs(self):
        spec = BinarySpec(8)
        assert supports_vectorized_variation(GAConfig().resolved_for(spec))
        real = RealVectorSpec(4)
        assert supports_vectorized_variation(GAConfig().resolved_for(real))


def _spy_variation(monkeypatch) -> dict[str, int]:
    """Count what each variation path of ``repro.core.engine`` breeds:
    children from ``vector_offspring``, sibling pairs from
    ``offspring_pair``."""
    import repro.core.engine as engine_mod

    calls = {"vector_offspring": 0, "offspring_pair": 0}
    real_vector, real_pair = engine_mod.vector_offspring, engine_mod.offspring_pair

    def vector(*args, **kwargs):
        genomes, origins = real_vector(*args, **kwargs)
        calls["vector_offspring"] += len(genomes)
        return genomes, origins

    def pair(*args, **kwargs):
        calls["offspring_pair"] += 1
        return real_pair(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "vector_offspring", vector)
    monkeypatch.setattr(engine_mod, "offspring_pair", pair)
    return calls


class TestVectorizedEngines:
    def test_default_off_scalar_path_untouched(self):
        """The toggle defaults off and same-seed scalar runs are unchanged
        (rng pin values recorded before the vectorized path existed)."""
        e = GenerationalEngine(
            OneMax(32), GAConfig(population_size=10, elitism=1), seed=123
        )
        r = e.run(5)
        assert r.best_fitness == 25.0
        assert e.rng.random() == pytest.approx(0.6815664837107825, abs=0, rel=0)

    @pytest.mark.parametrize("engine_cls", [GenerationalEngine, SteadyStateEngine])
    def test_vectorized_solves_onemax(self, engine_cls):
        e = engine_cls(
            OneMax(32),
            GAConfig(population_size=40, vectorized_variation=True),
            seed=5,
        )
        r = e.run(60)
        assert r.best_fitness == 32.0

    @pytest.mark.parametrize("engine_cls", [GenerationalEngine, SteadyStateEngine])
    def test_vectorized_offspring_carry_provenance(self, engine_cls):
        e = engine_cls(
            OneMax(24),
            GAConfig(population_size=12, vectorized_variation=True),
            seed=6,
        )
        e.run(3)
        tags = {ind.origin for ind in e.population}
        assert tags <= {"init", "cx", "clone", "cx+mut", "clone+mut"}
        assert tags & {"cx", "cx+mut", "clone", "clone+mut"}
        assert all(ind.evaluated for ind in e.population)

    def test_custom_selection_falls_back_to_index_mapping(self):
        class FirstTwo:
            def __call__(self, rng, individuals, n, maximize):
                return [individuals[k % 2] for k in range(n)]

        e = GenerationalEngine(
            OneMax(16),
            GAConfig(
                population_size=8, selection=FirstTwo(), vectorized_variation=True
            ),
            seed=7,
        )
        e.initialize()
        assert not hasattr(e.config.selection, "indices")  # no index path
        fits = e.population.fitness_array()
        idx = e._select_indices(fits, 6)
        assert idx.tolist() == [0, 1, 0, 1, 0, 1]
        r = e.run(3)
        assert r.generations == 3

    def test_mixed_dtype_parents_are_promoted_not_rejected(self):
        # seeded members need not share the spec's dtype; such a parent block
        # cannot take the homogeneous stack_genomes path and is promoted
        rng = np.random.default_rng(0)
        seeds = [
            Individual(
                genome=rng.integers(0, 2, 8).astype(np.int64 if k < 2 else np.int8)
            )
            for k in range(6)
        ]
        e = GenerationalEngine(
            OneMax(8), GAConfig(population_size=6, vectorized_variation=True), seed=3
        )
        e.initialize(seeds)
        children, block = e._vector_offspring(np.array([0, 2, 1, 3]), 4)
        assert len(children) == 4
        assert np.array_equal(block, np.stack([c.genome for c in children]))
        assert all(c.genome.dtype == np.int8 for c in children)
        assert all(c.genome.shape == (8,) for c in children)
        e.run(3)
        assert e.state.generation == 3

    def test_unsupported_crossover_falls_back_to_scalar_cycle(self):
        from repro.core.problem import Problem

        class TinyTour(Problem):
            def __init__(self):
                self.spec = PermutationSpec(10)
                self.maximize = False

            def evaluate(self, genome):
                return float(np.abs(np.diff(genome)).sum())

        e = GenerationalEngine(
            TinyTour(), GAConfig(population_size=8, vectorized_variation=True), seed=8
        )
        e.run(3)
        assert e._use_vectorized() is False
        assert e.state.generation == 3

    def test_vectorized_path_breeds_via_block_kernel(self, monkeypatch):
        from repro.obs import obs_session

        calls = _spy_variation(monkeypatch)
        with obs_session(label="vec-test") as session:
            e = GenerationalEngine(
                OneMax(16),
                GAConfig(population_size=10, elitism=2, vectorized_variation=True),
                seed=9,
            )
            e.run(4)
        assert calls == {"vector_offspring": 4 * 8, "offspring_pair": 0}
        # spans run on simulated time only: an untimed engine records none
        assert session.spans.spans == []

    def test_scalar_path_breeds_through_offspring_pair(self, monkeypatch):
        calls = _spy_variation(monkeypatch)
        e = SteadyStateEngine(OneMax(16), GAConfig(population_size=6), seed=10)
        e.run(2)
        # one pair per birth
        assert calls == {"vector_offspring": 0, "offspring_pair": 2 * 6}
