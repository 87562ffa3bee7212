"""Property-based tests (hypothesis) for the vectorized variation kernels.

The core claim of ``repro.core.vectorized`` is *equivalence*: for every
population size, genome length and fitness landscape — including n=1,
L=1, all-equal and tie-heavy pools — the selection operators' index
path picks the same rows as their member path, and the batch kernels
produce offspring satisfying the same structural invariants, and repair
to the same domain, as the scalar operators they replace.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, vector_offspring
from repro.core.genome import BinarySpec, PermutationSpec, RealVectorSpec
from repro.core.operators.crossover import (
    OnePointCrossover,
    SimulatedBinaryCrossover,
    TwoPointCrossover,
    UniformCrossover,
)
from repro.core.operators.mutation import BitFlipMutation, GaussianMutation
from repro.core.operators.selection import (
    BoltzmannSelection,
    LinearRankSelection,
    RandomSelection,
    RouletteWheelSelection,
    StochasticUniversalSampling,
    TournamentSelection,
    TruncationSelection,
)
from repro.core.vectorized import kernels as K

from ..conftest import make_population

seeds = st.integers(min_value=0, max_value=2**31 - 1)

# tie-heavy by construction: few distinct values over up to 12 members,
# so argsort ordering, weight floors and rank ties all get exercised
fitness_pools = st.lists(
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 5.0, 5.0, -3.0]), min_size=1, max_size=12
)

EXACT_SELECTIONS = [
    TournamentSelection(2),
    TournamentSelection(4),
    RouletteWheelSelection(),
    LinearRankSelection(1.7),
    TruncationSelection(0.5),
    BoltzmannSelection(1.0),
    RandomSelection(),
]


@given(seed=seeds, fits=fitness_pools, n=st.integers(1, 20), maximize=st.booleans())
@settings(max_examples=60, deadline=None)
def test_selection_kernels_pick_identical_indices(seed, fits, n, maximize):
    """``op.indices`` (the vectorized engine's path) and ``op(...)`` (the
    scalar engines' path) pick the same rows and leave the same state."""
    pop = make_population(fits, maximize=maximize)
    for op in EXACT_SELECTIONS:
        r1 = np.random.default_rng(seed)
        r2 = np.random.default_rng(seed)
        picked = op(r1, pop.individuals, n, maximize)
        index_of = {id(ind): k for k, ind in enumerate(pop.individuals)}
        scalar_idx = [index_of[id(p)] for p in picked]
        vec_idx = op.indices(r2, np.asarray(fits, dtype=float), n, maximize)
        assert scalar_idx == vec_idx.tolist(), type(op).__name__
        assert r1.random() == r2.random(), type(op).__name__


@given(seed=seeds, fits=fitness_pools, n=st.integers(1, 20), maximize=st.booleans())
@settings(max_examples=60, deadline=None)
def test_sus_kernel_selects_same_multiset(seed, fits, n, maximize):
    """SUS shuffles its index array before mapping, so the order agrees too."""
    pop = make_population(fits, maximize=maximize)
    op = StochasticUniversalSampling()
    r1 = np.random.default_rng(seed)
    r2 = np.random.default_rng(seed)
    picked = op(r1, pop.individuals, n, maximize)
    index_of = {id(ind): k for k, ind in enumerate(pop.individuals)}
    scalar_idx = [index_of[id(p)] for p in picked]
    vec_idx = op.indices(r2, np.asarray(fits, dtype=float), n, maximize)
    assert scalar_idx == vec_idx.tolist()


@given(seed=seeds, p=st.integers(1, 16), length=st.integers(1, 32))
@settings(max_examples=60, deadline=None)
def test_discrete_crossover_batches_conserve_genes_per_locus(seed, p, length):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 5, size=(p, length))
    B = rng.integers(0, 5, size=(p, length))
    for kernel in (
        K.one_point_crossover_batch,
        K.two_point_crossover_batch,
        K.uniform_crossover_batch,
    ):
        CA, CB = kernel(rng, A.copy(), B.copy())
        assert CA.shape == A.shape and CB.shape == B.shape
        assert np.all((CA == A) | (CA == B))
        # the sibling takes the complementary gene at every locus
        assert np.all(np.where(CA == A, CB == B, CB == A) | (A == B))


@given(seed=seeds, p=st.integers(1, 16), length=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_real_crossover_batches_stay_in_blend_box(seed, p, length):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, size=(p, length))
    B = rng.uniform(-1, 1, size=(p, length))
    lo, hi = np.minimum(A, B), np.maximum(A, B)
    CA, CB = K.arithmetic_crossover_batch(rng, A, B)
    assert np.all(CA >= lo - 1e-12) and np.all(CA <= hi + 1e-12)
    assert np.all(CB >= lo - 1e-12) and np.all(CB <= hi + 1e-12)
    alpha = 0.5
    CA, CB = K.blend_crossover_batch(rng, A, B, alpha=alpha)
    span = hi - lo
    assert np.all(CA >= lo - alpha * span - 1e-12)
    assert np.all(CA <= hi + alpha * span + 1e-12)


@given(seed=seeds, m=st.integers(1, 16), length=st.integers(1, 32))
@settings(max_examples=60, deadline=None)
def test_bit_flip_batch_stays_binary(seed, m, length):
    rng = np.random.default_rng(seed)
    G = rng.integers(0, 2, size=(m, length)).astype(np.int8)
    out = K.bit_flip_mutation_batch(rng, G, rate=0.3)
    assert out.shape == G.shape
    assert np.all((out == 0) | (out == 1))


@given(seed=seeds, m=st.integers(1, 16), length=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_bounded_mutation_batches_respect_bounds(seed, m, length):
    rng = np.random.default_rng(seed)
    G = rng.uniform(0, 1, size=(m, length))
    for out in (
        K.gaussian_mutation_batch(rng, G, sigma=0.5, rate=1.0, lower=0.0, upper=1.0),
        K.uniform_reset_mutation_batch(rng, G, lower=0.0, upper=1.0, rate=1.0),
        K.polynomial_mutation_batch(rng, G, lower=0.0, upper=1.0, rate=1.0),
    ):
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


@given(seed=seeds, m=st.integers(1, 16), length=st.integers(2, 24))
@settings(max_examples=60, deadline=None)
def test_permutation_mutation_batches_preserve_validity(seed, m, length):
    rng = np.random.default_rng(seed)
    G = np.stack([rng.permutation(length) for _ in range(m)])
    for kernel in (K.swap_mutation_batch, K.inversion_mutation_batch):
        out = kernel(rng, G)
        assert np.all(np.sort(out, axis=1) == np.arange(length))


@given(seed=seeds, m=st.integers(1, 12), length=st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_permutation_repair_batch_matches_scalar_deterministic_part(seed, m, length):
    """Batch repair must keep exactly the scalar repair's first-occurrence
    prefix; only the shuffled missing-value tail may differ between paths."""
    spec = PermutationSpec(length)
    rng = np.random.default_rng(seed)
    block = rng.integers(-length, 2 * length, size=(m, length))
    out = spec.repair_batch(block, rng)
    assert np.all(np.sort(out, axis=1) == np.arange(length))
    for row_in, row_out in zip(block, out):
        scalar = spec.repair(row_in, np.random.default_rng(0))
        kept = []
        for v in row_in:
            v = int(v)
            if 0 <= v < length and v not in kept:
                kept.append(v)
        assert row_out[: len(kept)].tolist() == kept
        assert scalar[: len(kept)].tolist() == kept


@given(seed=seeds, m=st.integers(1, 12), length=st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_repair_batch_is_idempotent(seed, m, length):
    """Repairing an already-valid block is the identity, for every spec."""
    rng = np.random.default_rng(seed)
    cases = [
        (BinarySpec(length), rng.integers(0, 2, size=(m, length)).astype(np.int8)),
        (RealVectorSpec(length), rng.uniform(0, 1, size=(m, length))),
        (PermutationSpec(length), np.stack([rng.permutation(length) for _ in range(m)])),
    ]
    for spec, valid in cases:
        once = spec.repair_batch(valid, rng)
        np.testing.assert_array_equal(np.asarray(once, dtype=float), np.asarray(valid, dtype=float))


@given(
    seed=seeds,
    n_parents=st.integers(2, 12),
    count=st.integers(0, 15),
    length=st.integers(1, 24),
    cx_prob=st.sampled_from([0.0, 0.5, 1.0]),
    mut_prob=st.sampled_from([0.0, 0.5, 1.0]),
)
@settings(max_examples=80, deadline=None)
def test_vector_offspring_count_validity_and_origins(
    seed, n_parents, count, length, cx_prob, mut_prob
):
    spec = BinarySpec(length)
    cfg = GAConfig(
        population_size=max(2, n_parents),
        crossover_prob=cx_prob,
        mutation_prob=mut_prob,
    ).resolved_for(spec)
    rng = np.random.default_rng(seed)
    parents = np.stack(spec.sample_population(rng, n_parents))
    children, origins = vector_offspring(rng, cfg, spec, parents, count)
    assert children.shape == (count, length)
    assert origins.shape == (count,)
    for child in children:
        assert spec.is_valid(child)
    allowed = set()
    base = {"cx"} if cx_prob == 1.0 else {"clone"} if cx_prob == 0.0 else {"cx", "clone"}
    for b in base:
        if mut_prob > 0.0:
            allowed.add(b + "+mut")
        if mut_prob < 1.0:
            allowed.add(b)
    assert set(origins.tolist()) <= allowed


@given(seed=seeds, count=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_vector_offspring_real_vectors_stay_in_bounds(seed, count):
    spec = RealVectorSpec(6, lower=-2.0, upper=3.0)
    cfg = GAConfig(
        population_size=4,
        crossover=SimulatedBinaryCrossover(),
        mutation=GaussianMutation(sigma=2.0, lower=-2.0, upper=3.0),
    ).resolved_for(spec)
    rng = np.random.default_rng(seed)
    parents = np.stack(spec.sample_population(rng, 4))
    children, _ = vector_offspring(rng, cfg, spec, parents, count)
    for child in children:
        assert spec.is_valid(child)
