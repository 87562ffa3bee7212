"""The PCG64 raw-word replay of the block breeder's draw loop.

On a ``PCG64`` generator with one-point, two-point or uniform crossover
and bit-flip mutation, :func:`breed` decodes its draw loop from one block
of raw generator words (:func:`repro.core.variation._replay`).  Each
equality test here breeds the same parents twice from the same generator
state, once through the replay (with the draw loop patched to raise, so a
silent fallback fails) and once through the draw loop, and requires the
same children, block, origins, final generator state and next draw.  The
fallback tests check that every case the replay does not cover breeds
exactly as the per-pair cycle does, without entering the replay.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, Individual
from repro.core import variation
from repro.core.genome import BinarySpec, RealVectorSpec
from repro.core.operators import crossover as cx
from repro.core.operators import mutation as mut
from repro.core.rng import PCG64Words, coin_threshold
from repro.core.variation import breed

_REPLAYED_CROSSOVERS = [
    cx.OnePointCrossover(),
    cx.TwoPointCrossover(),
    cx.UniformCrossover(swap_prob=0.3),
]


def _must_not_run(*args, **kwargs):
    raise AssertionError("breed took a path this test rules out")


def _generator(seed: int, full_buffer: bool):
    rng = np.random.default_rng(seed)
    if full_buffer:
        rng.integers(0, 5)  # a bounded 32-bit draw leaves the high half buffered
    assert rng.bit_generator.state["has_uint32"] == full_buffer
    return rng


def _parents(spec, k, seed):
    return [Individual(genome=g) for g in spec.sample_population(np.random.default_rng(seed), k)]


def _breed(monkeypatch, *, replay, config, spec, parents, count, seed, full_buffer):
    with monkeypatch.context() as m:
        if replay:
            m.setattr(variation, "_draw_loop", _must_not_run)
        else:
            m.setattr(variation, "_REPLAY", False)
        rng = _generator(seed, full_buffer)
        children, block = breed(rng, config, spec, parents, count, generation=4)
    return children, block, rng


def assert_replay_matches_loop(monkeypatch, config, spec, parents, count, seed, full_buffer):
    kwargs = dict(config=config, spec=spec, parents=parents, count=count, seed=seed,
                  full_buffer=full_buffer)
    got, got_block, got_rng = _breed(monkeypatch, replay=True, **kwargs)
    want, want_block, want_rng = _breed(monkeypatch, replay=False, **kwargs)
    assert len(got) == len(want) == count
    for g, w in zip(got, want):
        assert g.genome.dtype == w.genome.dtype
        assert g.genome.tobytes() == w.genome.tobytes()
        assert (g.origin, g.birth_generation) == (w.origin, w.birth_generation)
    assert got_block.dtype == want_block.dtype
    assert got_block.tobytes() == want_block.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.integers(0, 1000) == want_rng.integers(0, 1000)
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("crossover", _REPLAYED_CROSSOVERS, ids=lambda c: type(c).__name__)
@pytest.mark.parametrize("length", [3, 4, 17, 64])
@pytest.mark.parametrize("full_buffer", [False, True], ids=["empty-buffer", "full-buffer"])
def test_replay_matches_the_draw_loop(monkeypatch, crossover, length, full_buffer):
    spec = BinarySpec(length)
    parents = _parents(spec, 6, seed=length)
    for cx_prob in (0.0, 0.9, 1.0):
        for mut_prob in (0.0, 0.3, 1.0):
            config = GAConfig(
                crossover=crossover,
                mutation=mut.BitFlipMutation(),
                crossover_prob=cx_prob,
                mutation_prob=mut_prob,
            )
            # odd (the dropped sibling's draws are taken), even, and wrapping
            for count in (7, 8, 19):
                assert_replay_matches_loop(
                    monkeypatch, config, spec, parents, count,
                    seed=count * 101 + length, full_buffer=full_buffer,
                )


def test_replay_keeps_the_mutation_rate_and_genome_dtype(monkeypatch):
    spec = BinarySpec(40)
    parents = [
        Individual(genome=g.astype(np.int64)) for g in spec.sample_population(np.random.default_rng(0), 5)
    ]
    config = GAConfig(crossover=cx.TwoPointCrossover(), mutation=mut.BitFlipMutation(rate=0.2))
    assert_replay_matches_loop(monkeypatch, config, spec, parents, 9, seed=3, full_buffer=True)


@settings(max_examples=60, deadline=None)
@given(
    crossover=st.sampled_from(_REPLAYED_CROSSOVERS),
    length=st.integers(1, 70),
    pool=st.integers(2, 9),
    count=st.integers(2 * variation._REPLAY_MIN_PAIRS - 1, 24),
    cx_prob=st.sampled_from([0.0, 0.25, 0.9, 1.0]),
    mut_prob=st.sampled_from([0.0, 0.3, 1.0]),
    full_buffer=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_replay_property(crossover, length, pool, count, cx_prob, mut_prob, full_buffer, seed):
    spec = BinarySpec(length)
    config = GAConfig(
        crossover=crossover,
        mutation=mut.BitFlipMutation(),
        crossover_prob=cx_prob,
        mutation_prob=mut_prob,
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_replay_matches_loop(
            monkeypatch, config, spec, _parents(spec, pool, seed ^ 0xB00D), count, seed,
            full_buffer,
        )


# -- the decoder --------------------------------------------------------------------


@pytest.mark.parametrize("full_buffer", [False, True], ids=["empty-buffer", "full-buffer"])
@pytest.mark.parametrize(
    "high",
    [2, 3, 63, 1000, 2**31 + 1, 2**32 - 1, 2**32],
)
def test_bounded_draws_decode_integers(full_buffer, high):
    """Each value and the final state equal ``Generator.integers(0, high)``;
    at ``2**31 + 1`` about half of all draws are rejected and redrawn."""
    want_rng, got_rng = _generator(9, full_buffer), _generator(9, full_buffer)
    words = PCG64Words(got_rng, 200)
    got = [words.integers(0, high) for _ in range(100)]
    words.commit()
    assert got == [int(want_rng.integers(0, high)) for _ in range(100)]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_rejections_are_taken():
    """The large bound really exercises the redraw: more 32-bit halves are
    read than values returned."""
    words = PCG64Words(np.random.default_rng(9), 200)
    for _ in range(100):
        words.integers(0, 2**31 + 1)
    assert words.pos > 60  # 100 values without a rejection read 50 words


def test_a_range_of_one_takes_no_word():
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    words = PCG64Words(rng, 4)
    assert words.integers(5, 6) == 5 == rng.integers(5, 6)
    words.commit()
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("p", [0.0, 1e-300, 2**-53, 0.3, 0.9, 1.0 - 2**-53, 1.0])
def test_coins_decode_random(p):
    want_rng, got_rng = np.random.default_rng(4), np.random.default_rng(4)
    words = PCG64Words(got_rng, 500)
    threshold = coin_threshold(p)
    got = [words.coin(threshold) for _ in range(500)]
    words.commit()
    assert got == [want_rng.random() < p for _ in range(500)]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_coin_threshold_is_exact_at_its_edge():
    """A word just below the threshold passes and the threshold itself
    fails, for the value ``random()`` would build from each."""
    for p in (0.3, 0.9, 1.0 - 2**-53, 2**-40):
        t = coin_threshold(p)
        assert ((t - 1) >> 11) * 2**-53 < p
        assert not (t >> 11) * 2**-53 < p


def test_uniforms_gather_random():
    want_rng, got_rng = np.random.default_rng(6), np.random.default_rng(6)
    words = PCG64Words(got_rng, 50)
    first = words.skip(7)
    words.coin(0)
    second = words.skip(7)
    words.commit()
    want = [want_rng.random(7)]
    want_rng.random()
    want.append(want_rng.random(7))
    got = words.uniforms([first, second], 7)
    assert got.dtype == np.float64
    assert got.tobytes() == np.stack(want).tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_reading_past_the_block_raises():
    words = PCG64Words(np.random.default_rng(0), 3)
    words.skip(3)
    with pytest.raises(IndexError):
        words.coin(0)
    with pytest.raises(IndexError):
        PCG64Words(np.random.default_rng(0), 3).skip(4)


def test_restore_rewinds():
    rng = _generator(8, True)
    before = rng.bit_generator.state
    words = PCG64Words(rng, 10)
    words.integers(0, 9)
    words.coin(0)
    words.restore()
    assert rng.bit_generator.state == before


def test_only_pcg64_is_decoded():
    with pytest.raises(TypeError):
        PCG64Words(np.random.Generator(np.random.PCG64DXSM(0)), 4)


# -- when breed does not replay -----------------------------------------------------


def _binary_case(crossover=None, mutation=None, length=24):
    spec = BinarySpec(length)
    config = GAConfig(
        crossover=crossover or cx.TwoPointCrossover(),
        mutation=mutation or mut.BitFlipMutation(),
    ).resolved_for(spec)
    return config, spec, _parents(spec, 8, seed=length)


def _assert_matches_pairs(config, spec, parents, count, rng_factory):
    """breed equals the per-pair cycle from the same generator."""
    got_rng, want_rng = rng_factory(), rng_factory()
    got, _ = breed(got_rng, config, spec, parents, count)
    want = []
    for k in range(0, count + count % 2, 2):
        a, b = parents[k % len(parents)], parents[(k + 1) % len(parents)]
        want.extend(variation.offspring_pair(want_rng, config, spec, a, b))
    want = want[:count]
    assert [g.genome.tobytes() for g in got] == [w.genome.tobytes() for w in want]
    assert [g.origin for g in got] == [w.origin for w in want]
    # the next draws, 32-bit ones first: states of some bit generators hold arrays
    assert [got_rng.integers(0, 1000) for _ in range(3)] == [
        want_rng.integers(0, 1000) for _ in range(3)
    ]
    assert got_rng.random(4).tobytes() == want_rng.random(4).tobytes()


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM],
    ids=lambda b: b.__name__,
)
def test_other_bit_generators_fall_back(monkeypatch, bit_generator):
    config, spec, parents = _binary_case()
    monkeypatch.setattr(variation, "_replay", _must_not_run)
    children, block = breed(np.random.Generator(bit_generator(5)), config, spec, parents, 9)
    assert block is not None and len(children) == 9
    _assert_matches_pairs(config, spec, parents, 9, lambda: np.random.Generator(bit_generator(5)))


def test_gaussian_mutation_falls_back(monkeypatch):
    spec = RealVectorSpec(16, -2.0, 2.0)
    config = GAConfig(
        crossover=cx.TwoPointCrossover(),
        mutation=mut.GaussianMutation(sigma=0.3, lower=-2.0, upper=2.0),
    )
    parents = _parents(spec, 8, seed=1)
    monkeypatch.setattr(variation, "_replay", _must_not_run)
    assert breed(np.random.default_rng(1), config, spec, parents, 9)[1] is not None
    _assert_matches_pairs(config, spec, parents, 9, lambda: np.random.default_rng(1))


def test_subclassed_operators_fall_back(monkeypatch):
    class Flip(mut.BitFlipMutation):
        pass

    class Cut(cx.TwoPointCrossover):
        pass

    monkeypatch.setattr(variation, "_replay", _must_not_run)
    for crossover, mutation in ((Cut(), None), (None, Flip())):
        config, spec, parents = _binary_case(crossover, mutation)
        _assert_matches_pairs(config, spec, parents, 9, lambda: np.random.default_rng(3))


def test_small_broods_fall_back(monkeypatch):
    config, spec, parents = _binary_case()
    monkeypatch.setattr(variation, "_replay", _must_not_run)
    count = 2 * variation._REPLAY_MIN_PAIRS - 2
    _assert_matches_pairs(config, spec, parents, count, lambda: np.random.default_rng(3))


def test_an_exhausted_block_rewinds_and_falls_back(monkeypatch):
    """Should Lemire rejections outrun the block, the generator is rewound
    and the draw loop draws from where it was."""
    taken, looped = [], []
    draw_loop = variation._draw_loop

    class ShortWords(PCG64Words):
        def __init__(self, rng, size):
            super().__init__(rng, size // 3)
            taken.append(size)

    def counted_loop(*args):
        looped.append(args)
        return draw_loop(*args)

    monkeypatch.setattr(variation, "PCG64Words", ShortWords)
    monkeypatch.setattr(variation, "_draw_loop", counted_loop)
    config, spec, parents = _binary_case(length=32)
    _assert_matches_pairs(config, spec, parents, 19, lambda: _generator(12, True))
    assert len(taken) == len(looped) == 1  # the replay was entered, gave up, and the loop drew


def test_a_failed_probe_disables_the_replay(monkeypatch):
    assert variation._REPLAY, "the replay should be exact on the installed numpy"
    monkeypatch.setattr(PCG64Words, "integers", lambda self, low, high: low)
    assert not variation._replay_agrees()
    monkeypatch.undo()
    assert variation._replay_agrees()

    monkeypatch.setattr(variation, "_REPLAY", False)
    monkeypatch.setattr(variation, "_replay", _must_not_run)
    config, spec, parents = _binary_case()
    _assert_matches_pairs(config, spec, parents, 9, lambda: np.random.default_rng(4))


def test_island_demes_take_the_replay(monkeypatch):
    """The island workloads' shape — two-point crossover and bit-flip
    mutation on PCG64, 19 children of 64 genes — never calls the
    operators' own ``draw``."""
    spec = BinarySpec(64)
    config = GAConfig(crossover_prob=0.9, mutation_prob=1.0).resolved_for(spec)
    assert type(config.crossover) is cx.TwoPointCrossover
    assert type(config.mutation) is mut.BitFlipMutation
    parents = _parents(spec, 20, seed=2)
    with monkeypatch.context() as m:
        m.setattr(variation, "_REPLAY", False)
        want, _ = breed(np.random.default_rng(2), config, spec, parents, 19)
    monkeypatch.setattr(cx.TwoPointCrossover, "draw", _must_not_run)
    monkeypatch.setattr(mut.BitFlipMutation, "draw", _must_not_run)
    got, block = breed(np.random.default_rng(2), config, spec, parents, 19)
    assert block.shape == (19, 64)
    assert [g.genome.tobytes() for g in got] == [w.genome.tobytes() for w in want]
    assert [g.origin for g in got] == [w.origin for w in want]
