"""The stream-exact block breeder against the per-pair cycle.

:func:`breed` draws every pair's random numbers in the order
:func:`offspring_pair` does, then crosses, mutates and repairs whole
blocks.  Each test here breeds the same parents twice from the same
generator state, once through :func:`breed` and once through a
reference loop of :func:`offspring_pair` calls, and requires the same
children (bytes, dtype, origin, birth generation) and the same next draw.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, Individual
from repro.core.genome import BinarySpec, IntegerVectorSpec, PermutationSpec, RealVectorSpec
from repro.core.operators import adaptive
from repro.core.operators import crossover as cx
from repro.core.operators import mutation as mut
from repro.core.variation import breed, offspring_pair

L = 12  # genome length of every case (TwoDimensionalCrossover reads it as 3 x 4)

# blend crossover can leave the box, where polynomial mutation's power
# goes NaN; both paths must produce the same NaNs, so the warning is noise
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in power:RuntimeWarning"
)


def _binary(dtype):
    def parents(rng, k):
        return [(rng.random(L) < 0.5).astype(dtype) for _ in range(k)]

    return BinarySpec(L), parents


def _integer():
    spec = IntegerVectorSpec(L, low=0, high=4)
    return spec, lambda rng, k: [spec.sample(rng) for _ in range(k)]


def _real(int_seeded: bool):
    spec = RealVectorSpec(L, -2.0, 2.0)
    if int_seeded:
        return spec, lambda rng, k: [rng.integers(-2, 3, size=L) for _ in range(k)]
    return spec, lambda rng, k: [spec.sample(rng) for _ in range(k)]


def _permutation():
    spec = PermutationSpec(L)
    return spec, lambda rng, k: [spec.sample(rng) for _ in range(k)]


_STRING_CROSSOVERS = [
    cx.OnePointCrossover(),
    cx.TwoPointCrossover(),
    cx.KPointCrossover(k=3),
    cx.UniformCrossover(swap_prob=0.3),
    cx.TwoDimensionalCrossover(rows=3, cols=4),
]
_REAL_CROSSOVERS = _STRING_CROSSOVERS + [
    cx.ArithmeticCrossover(),
    cx.BlendCrossover(),
    cx.SimulatedBinaryCrossover(),
]
_PERMUTATION_CROSSOVERS = [
    cx.PartiallyMappedCrossover(),
    cx.OrderCrossover(),
    cx.CycleCrossover(),
]

#: (spec factory, crossovers, mutations) for every representation
_FAMILIES = {
    "binary-int8": (lambda: _binary(np.int8), _STRING_CROSSOVERS, [mut.BitFlipMutation()]),
    "binary-bool": (lambda: _binary(bool), _STRING_CROSSOVERS, [mut.BitFlipMutation()]),
    "binary-int64": (
        lambda: _binary(np.int64),
        _STRING_CROSSOVERS,
        [mut.BitFlipMutation(), mut.BitFlipMutation(rate=0.3)],
    ),
    "integer": (
        _integer,
        _STRING_CROSSOVERS,
        [mut.CreepMutation(low=0, high=4, step=2), mut.UniformResetMutation(0, 4)],
    ),
    **{
        f"real-{kind}": (
            lambda seeded=seeded: _real(seeded),
            _REAL_CROSSOVERS,
            [
                mut.GaussianMutation(sigma=0.5, lower=-2.0, upper=2.0),
                mut.GaussianMutation(sigma=0.3, rate=0.5),
                mut.PolynomialMutation(lower=-2.0, upper=2.0),
                mut.UniformResetMutation(-2.0, 2.0),
                adaptive.DecayingGaussianMutation(lower=-2.0, upper=2.0, calls_per_generation=3),
            ],
        )
        for kind, seeded in (("float64", False), ("int-seeded", True))
    },
    "permutation": (
        _permutation,
        _PERMUTATION_CROSSOVERS,
        [
            mut.SwapMutation(),
            mut.InversionMutation(),
            mut.ScrambleMutation(),
            mut.InsertionMutation(),
        ],
    ),
}

_CASES = [
    (family, crossover, mutation)
    for family, (_, crossovers, mutations) in _FAMILIES.items()
    for crossover in crossovers
    for mutation in mutations
]


def _individuals(genomes):
    return [Individual(genome=g) for g in genomes]


def _reference(rng, config, spec, parents, count, generation):
    """The per-pair cycle :func:`breed` must reproduce."""
    out = []
    i = 0
    while len(out) < count:
        a = parents[i % len(parents)]
        b = parents[(i + 1) % len(parents)]
        out.extend(offspring_pair(rng, config, spec, a, b, generation=generation))
        i += 2
    return out[:count]


def assert_same_brood(config, spec, parents, count, seed, generation=3):
    # stateful operators (the decaying mutation) get a fresh copy per side
    rng_block, rng_pair = np.random.default_rng(seed), np.random.default_rng(seed)
    got, _ = breed(
        rng_block, copy.deepcopy(config), spec, parents, count, generation=generation
    )
    want = _reference(rng_pair, copy.deepcopy(config), spec, parents, count, generation)
    assert len(got) == len(want) == count
    for g, w in zip(got, want):
        assert g.genome.dtype == w.genome.dtype
        assert g.genome.tobytes() == w.genome.tobytes()
        assert g.genome.flags.c_contiguous and g.genome.flags.owndata
        assert (g.origin, g.birth_generation, g.fitness) == (w.origin, w.birth_generation, None)
    assert rng_block.random() == rng_pair.random()


@pytest.mark.parametrize(
    "family,crossover,mutation",
    _CASES,
    ids=[f"{f}-{type(c).__name__}-{type(m).__name__}" for f, c, m in _CASES],
)
def test_block_breeder_matches_the_per_pair_cycle(family, crossover, mutation):
    make_spec = _FAMILIES[family][0]
    spec, sample = make_spec()
    parents = _individuals(sample(np.random.default_rng(7), 6))
    for cx_prob in (0.0, 0.5, 1.0):
        for mut_prob in (0.3, 1.0):
            config = GAConfig(
                population_size=10,
                crossover=crossover,
                mutation=mutation,
                crossover_prob=cx_prob,
                mutation_prob=mut_prob,
            )
            # odd, even, and larger than the pool (wrap-around)
            for count in (5, 6, 9):
                assert_same_brood(config, spec, parents, count, seed=count * 31 + 1)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(_CASES),
    pool=st.integers(2, 7),
    count=st.integers(0, 11),
    cx_prob=st.sampled_from([0.0, 0.5, 1.0]),
    mut_prob=st.sampled_from([0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_breeder_property(case, pool, count, cx_prob, mut_prob, seed):
    family, crossover, mutation = case
    spec, sample = _FAMILIES[family][0]()
    parents = _individuals(sample(np.random.default_rng(seed ^ 0x5EED), pool))
    config = GAConfig(
        crossover=crossover,
        mutation=mutation,
        crossover_prob=cx_prob,
        mutation_prob=mut_prob,
    )
    assert_same_brood(config, spec, parents, count, seed)


def test_mixed_dtype_parents_breed_pair_by_pair():
    spec = BinarySpec(L)
    rng = np.random.default_rng(3)
    genomes = [(rng.random(L) < 0.5).astype(dt) for dt in (np.int8, np.int64, np.int8, bool)]
    config = GAConfig().resolved_for(spec)
    assert_same_brood(config, spec, _individuals(genomes), 4, seed=11)
    children, block = breed(np.random.default_rng(11), config, spec, _individuals(genomes), 4)
    assert block is None and len(children) == 4


def test_block_is_the_children_stacked():
    spec = BinarySpec(32)
    config = GAConfig().resolved_for(spec)
    rng = np.random.default_rng(5)
    parents = _individuals(spec.sample_population(rng, 20))
    children, block = breed(rng, config, spec, parents, 19)
    assert block.shape == (19, 32) and block.flags.c_contiguous
    assert np.array_equal(np.stack([c.genome for c in children]), block)
    assert all(not np.shares_memory(c.genome, block) for c in children)


def test_subclassed_operators_keep_the_per_pair_path():
    class Reversed(cx.TwoPointCrossover):
        def __call__(self, rng, a, b):
            cb, ca = super().__call__(rng, a, b)
            return ca, cb

    spec = BinarySpec(L)
    config = GAConfig(crossover=Reversed()).resolved_for(spec)
    parents = _individuals(spec.sample_population(np.random.default_rng(1), 4))
    assert breed(np.random.default_rng(2), config, spec, parents, 4)[1] is None
    assert_same_brood(config, spec, parents, 4, seed=2)


def test_count_validation():
    spec = BinarySpec(L)
    config = GAConfig().resolved_for(spec)
    parents = _individuals(spec.sample_population(np.random.default_rng(1), 2))
    with pytest.raises(ValueError, match="count"):
        breed(np.random.default_rng(0), config, spec, parents, -1)
    with pytest.raises(ValueError, match="two parents"):
        breed(np.random.default_rng(0), config, spec, parents[:1], 2)
    with pytest.raises(ValueError, match="unresolved"):
        breed(np.random.default_rng(0), GAConfig(), spec, parents, 2)
    assert breed(np.random.default_rng(0), config, spec, parents[:1], 0) == ([], None)


# -- the two-point cut draw ------------------------------------------------------

_BIT_GENERATORS = [
    np.random.PCG64,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
    np.random.PCG64DXSM,
]


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("m", [2, 3, 4, 31, 47, 1000, 70000, 2**20])
def test_two_point_draw_equals_choice(bit_generator, m):
    """``TwoPointCrossover.draw(rng, m + 1)`` takes the cuts that
    ``choice(m, 2, replace=False) + 1`` does, sorted, and leaves the
    generator where ``choice`` leaves it.  A 32-bit draw before the cut
    leaves PCG64's spare-half buffer full on odd seeds."""
    op = cx.TwoPointCrossover()
    for seed in range(40):
        ours = np.random.Generator(bit_generator(seed))
        ref = np.random.Generator(bit_generator(seed))
        for g in (ours, ref):
            if seed % 2:
                g.integers(0, 5, dtype=np.uint32)
            g.random()
        for _ in range(3):
            want = tuple(sorted((ref.choice(m, size=2, replace=False) + 1).tolist()))
            assert op.draw(ours, m + 1) == want
            assert ours.integers(0, 1000) == ref.integers(0, 1000)
            assert ours.random() == ref.random()
        assert _same_state(ours.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_two_point_draw_below_three_genes_is_one_point(n):
    ours, ref = np.random.default_rng(4), np.random.default_rng(4)
    a, b = np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)
    i, j = cx.TwoPointCrossover().draw(ours, n)
    assert j == n
    ca, cb = cx.OnePointCrossover()(ref, a, b)
    assert np.array_equal(ca[i:], b[i:]) and np.array_equal(ca[:i], a[:i])
    assert ours.random() == ref.random()


# -- the generational engine ---------------------------------------------------------


class _PairwiseTwoPoint(cx.TwoPointCrossover):
    """Not the exact type, so the block breeder leaves it to the per-pair cycle."""


class _PairwiseSBX(cx.SimulatedBinaryCrossover):
    """Not the exact type, so the block breeder leaves it to the per-pair cycle."""


@pytest.mark.parametrize(
    "problem,pairwise",
    [("onemax", _PairwiseTwoPoint()), ("sphere", _PairwiseSBX())],
)
def test_generational_engine_breeds_blocks_bit_identically(monkeypatch, problem, pairwise):
    import repro.core.engine as engine_mod
    from repro.core import GenerationalEngine
    from repro.problems import OneMax, Sphere

    make = {"onemax": lambda: OneMax(32), "sphere": lambda: Sphere(6)}[problem]
    blocks = []
    real_breed = engine_mod.breed

    def spy(*args, **kwargs):
        children, block = real_breed(*args, **kwargs)
        blocks.append(block is not None)
        return children, block

    monkeypatch.setattr(engine_mod, "breed", spy)
    runs = []
    for crossover in (None, pairwise):
        eng = GenerationalEngine(
            make(), GAConfig(population_size=11, elitism=2, crossover=crossover), seed=5
        )
        eng.run(6)
        runs.append(
            ([i.fitness for i in eng.population], [i.origin for i in eng.population],
             [i.genome.tobytes() for i in eng.population], eng.rng.random())
        )
    assert blocks == [True] * 6 + [False] * 6
    assert runs[0] == runs[1]
