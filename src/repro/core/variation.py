"""Variation pipeline: selection-crossover-mutation as reusable functions.

"In PGA, there is always a selection-crossover-mutation cycle as in GAs"
(survey §1.1).  Sequential engines, island demes, cellular cells and
simulated master-slave farms all produce offspring through these helpers,
so the cycle is implemented exactly once.

:func:`offspring_pair` is the per-pair cycle.  :func:`breed` breeds a
whole generation with the same random stream: one loop draws every pair's
random numbers in the order :func:`offspring_pair` would, then crossover,
mutation and repair run once each on ``(n, L)`` blocks.  On a ``PCG64``
generator, with operators whose draws it can decode, that loop is replayed
from one block of raw generator words instead (:func:`_replayed_draws`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import GAConfig
from .genome import BinarySpec, GenomeSpec, IntegerVectorSpec, RealVectorSpec
from .individual import Individual
from .operators.crossover import (
    OnePointCrossover,
    TwoPointCrossover,
    UniformCrossover,
    one_point_cut,
    two_point_cuts,
)
from .operators.mutation import BitFlipMutation
from .problem import stack_genomes
from .rng import PCG64Words, coin_threshold
from .vectorized.kernels import crossover_arithmetic, mutation_arithmetic

__all__ = ["offspring_pair", "breed"]

#: specs whose repair draws no random numbers, so repairing the whole
#: generation after its last draw leaves the stream as the per-pair cycle
#: has it (a permutation repair shuffles the missing values)
_DRAW_FREE_REPAIR = (BinarySpec, RealVectorSpec, IntegerVectorSpec)


def _check_resolved(config: GAConfig) -> None:
    if config.crossover is None or config.mutation is None:
        raise ValueError("config operators unresolved; call config.resolved_for(spec)")


def offspring_pair(
    rng: np.random.Generator,
    config: GAConfig,
    spec: GenomeSpec,
    parent_a: Individual,
    parent_b: Individual,
    *,
    generation: int = 0,
) -> tuple[Individual, Individual]:
    """Recombine (with probability) and mutate (with probability) one pair.

    Parents are never modified; children are unevaluated.
    """
    _check_resolved(config)
    if rng.random() < config.crossover_prob:
        ga, gb = config.crossover(rng, parent_a.genome, parent_b.genome)
        origin = "cx"
    else:
        ga, gb = parent_a.genome.copy(), parent_b.genome.copy()
        origin = "clone"
    children = []
    for g in (ga, gb):
        if rng.random() < config.mutation_prob:
            g = config.mutation(rng, g)
            child_origin = origin + "+mut"
        else:
            child_origin = origin
        g = spec.repair(g, rng)
        children.append(
            Individual(genome=g, birth_generation=generation, origin=child_origin)
        )
    return children[0], children[1]


def breed(
    rng: np.random.Generator,
    config: GAConfig,
    spec: GenomeSpec,
    parents: Sequence[Individual],
    count: int,
    *,
    generation: int = 0,
) -> tuple[list[Individual], np.ndarray | None]:
    """Produce exactly ``count`` unevaluated offspring from a parent pool,
    plus their ``(count, L)`` genome block (``None`` when they were bred
    pair by pair).

    Parents are consumed pairwise in order; the pool wraps around if it is
    smaller than needed.  With an odd ``count`` the last pair's second
    child is bred, its draws consumed, and dropped.  The children and the
    generator's final state equal those of the same :func:`offspring_pair`
    calls in a loop.

    The block path needs both operators to expose ``draw`` with matching
    block arithmetic (:func:`~repro.core.vectorized.kernels.crossover_arithmetic`),
    a spec whose repair draws nothing, and parents that stack to one
    dtype.  Its draw loop consumes the generator exactly as
    :func:`offspring_pair` does — per pair the crossover coin and the
    crossover's draws, then per child the mutation coin and the mutation's
    draws — and only then crosses, mutates and repairs whole blocks.  Where
    it can, the loop's values are decoded from raw ``PCG64`` words instead
    (:func:`_replayed_draws`), with the same final generator state.  Every
    other case breeds pair by pair through :func:`offspring_pair`.
    """
    _check_resolved(config)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count and len(parents) < 2:
        raise ValueError("need at least two parents to produce offspring")
    pairs = (count + 1) // 2
    pool = [parents[i % len(parents)] for i in range(2 * pairs)]
    cross = crossover_arithmetic(config.crossover)
    mutate = mutation_arithmetic(config.mutation)
    block = None
    if count and cross and mutate and type(spec) in _DRAW_FREE_REPAIR:
        block = stack_genomes([p.genome for p in pool])
    if block is None:
        out: list[Individual] = []
        for k in range(0, 2 * pairs, 2):
            out.extend(
                offspring_pair(rng, config, spec, pool[k], pool[k + 1], generation=generation)
            )
        return out[:count], None

    # draws: the per-pair cycle's order, the dropped odd sibling included
    n = block.shape[1]
    draws = _replayed_draws(rng, config, n, pairs) or _draw_loop(rng, config, n, pairs)
    crossed, cx_draws, mutated, mut_draws, origins = draws
    if mutated and mutated[-1] == count:  # the dropped sibling
        mutated.pop()
        mut_draws = mut_draws[:-1]

    # arithmetic: rows 2k and 2k+1 of `block` become pair k's children
    if crossed:
        rows = 2 * np.asarray(crossed)
        ca, cb = cross(block[rows], block[rows + 1], cx_draws)
        block = block.astype(np.result_type(block.dtype, ca.dtype), copy=False)
        block[rows], block[rows + 1] = ca, cb
    block = block[:count]
    if mutated:
        rows = np.asarray(mutated)
        out_rows = mutate(block[rows], mut_draws)
        block = block.astype(np.result_type(block.dtype, out_rows.dtype), copy=False)
        block[rows] = out_rows
    block = spec.repair_batch(block, rng)
    children = [
        Individual(genome=g.copy(), birth_generation=generation, origin=o)
        for g, o in zip(block, origins)
    ]
    return children, block


#: what both draw forms return: the crossed pairs, their stacked crossover
#: draws, the mutated children, their stacked mutation draws, and every
#: child's origin
_Draws = tuple[list[int], np.ndarray, list[int], np.ndarray, list[str]]


def _draw_loop(rng: np.random.Generator, config: GAConfig, n: int, pairs: int) -> _Draws:
    """Draw ``pairs`` pairs' random numbers through the operators' ``draw``:
    per pair the crossover coin and the crossover's draws, then per child
    the mutation coin and the mutation's draws."""
    coin = rng.random
    draw_cx, draw_mut = config.crossover.draw, config.mutation.draw
    cx_prob, mut_prob = config.crossover_prob, config.mutation_prob
    crossed: list[int] = []
    cx_draws: list = []
    mutated: list[int] = []
    mut_draws: list = []
    origins: list[str] = []
    for k in range(pairs):
        if coin() < cx_prob:
            crossed.append(k)
            cx_draws.append(draw_cx(rng, n))
            origin = "cx"
        else:
            origin = "clone"
        for child in (2 * k, 2 * k + 1):
            if coin() < mut_prob:
                mutated.append(child)
                mut_draws.append(draw_mut(rng, n))
                origins.append(origin + "+mut")
            else:
                origins.append(origin)
    return crossed, np.array(cx_draws), mutated, np.array(mut_draws), origins


#: crossovers whose draw is a few bounded integers, by exact type: the
#: replay runs the same cut function on the raw words
#: (:meth:`PCG64Words.integers`) that their ``draw`` runs on the generator
_REPLAYED_CUTS = {OnePointCrossover: one_point_cut, TwoPointCrossover: two_point_cuts}

#: below this many pairs the replay's fixed cost (saving, setting and
#: advancing the generator state) outweighs the calls it saves
_REPLAY_MIN_PAIRS = 3


def _replayed_draws(
    rng: np.random.Generator, config: GAConfig, n: int, pairs: int
) -> _Draws | None:
    """:func:`_draw_loop`'s values and final generator state from
    :func:`_replay`, or ``None`` when the replay does not apply and the
    loop must draw.

    It applies to a ``PCG64`` generator, a one-point, two-point or uniform
    crossover and a bit-flip mutation, matched by exact type, at least
    :data:`_REPLAY_MIN_PAIRS` pairs and a non-empty genome; and only if
    the import-time probe (:func:`_replay_agrees`) found the decoding
    exact on this numpy.
    """
    kind = type(config.crossover)
    if (
        _REPLAY
        and pairs >= _REPLAY_MIN_PAIRS
        and type(rng.bit_generator) is np.random.PCG64
        and type(config.mutation) is BitFlipMutation
        and (kind is UniformCrossover or kind in _REPLAYED_CUTS)
        and 0 < n < 2**32
    ):
        return _replay(rng, config, n, pairs)
    return None


def _replay(rng: np.random.Generator, config: GAConfig, n: int, pairs: int) -> _Draws | None:
    """:func:`_draw_loop` decoded from one block of PCG64 raw words.

    The walk reads each coin as one word against an integer threshold,
    decodes a crossover's cuts from 32-bit halves and notes where each
    run of ``n`` uniforms starts; one gather per operator then builds the
    uniform blocks.  The block holds every pair's worst case without
    Lemire rejections; should rejections run it dry, the generator is
    rewound and ``None`` returned.
    """
    cuts = _REPLAYED_CUTS.get(type(config.crossover))
    uniform_cx = cuts is None
    # per pair: three coins, n words per mutation, and a uniform
    # crossover's n words or at most two words of 32-bit cut draws
    words = PCG64Words(rng, pairs * (3 + 2 * n + (n if uniform_cx else 2)))
    coin, skip, integers = words.coin, words.skip, words.integers
    cx_at = coin_threshold(config.crossover_prob)
    mut_at = coin_threshold(config.mutation_prob)
    crossed: list[int] = []
    cx_draws: list = []  # cuts, or where a uniform crossover's words start
    mutated: list[int] = []
    mut_starts: list[int] = []
    origins: list[str] = []
    try:
        for k in range(pairs):
            if coin(cx_at):
                crossed.append(k)
                cx_draws.append(skip(n) if uniform_cx else cuts(integers, n))
                origin = "cx"
            else:
                origin = "clone"
            for child in (2 * k, 2 * k + 1):
                if coin(mut_at):
                    mutated.append(child)
                    mut_starts.append(skip(n))
                    origins.append(origin + "+mut")
                else:
                    origins.append(origin)
    except IndexError:
        words.restore()
        return None
    cx_block = words.uniforms(cx_draws, n) if uniform_cx else np.array(cx_draws)
    mut_block = words.uniforms(mut_starts, n)
    words.commit()
    return crossed, cx_block, mutated, mut_block, origins


def _replay_agrees() -> bool:
    """Whether :func:`_replayed_draws` reproduces :func:`_draw_loop` on this
    numpy: values, origins and the generator's final state, with an empty
    and a full 32-bit buffer, at 3 and 4 genes (where a cut range of one
    draws nothing) and more, plus Lemire rejections at a large bound.  Any
    difference, or any error, disables the replay."""
    try:
        for crossover, n in (
            (TwoPointCrossover(), 3),
            (TwoPointCrossover(), 4),
            (TwoPointCrossover(), 33),
            (OnePointCrossover(), 9),
            (UniformCrossover(0.3), 5),
        ):
            config = GAConfig(
                crossover=crossover,
                mutation=BitFlipMutation(),
                crossover_prob=0.7,
                mutation_prob=0.6,
            )
            for full_buffer in (False, True):
                loop, replay = np.random.default_rng(n), np.random.default_rng(n)
                if full_buffer:
                    loop.integers(0, 3), replay.integers(0, 3)
                want = _draw_loop(loop, config, n, 6)
                got = _replay(replay, config, n, 6)
                if got is None or not _same_draws(want, got):
                    return False
                if replay.bit_generator.state != loop.bit_generator.state:
                    return False
        bound = 2**31 + 1  # rejects about half of all 32-bit draws
        loop, replay = np.random.default_rng(1), np.random.default_rng(1)
        words = PCG64Words(replay, 64)
        want = [int(loop.integers(0, bound)) for _ in range(24)]
        got = [words.integers(0, bound) for _ in range(24)]
        words.commit()
        return want == got and replay.bit_generator.state == loop.bit_generator.state
    except Exception:
        return False


def _same_draws(a: _Draws, b: _Draws) -> bool:
    """Equal lists, and equal arrays (dtype included) where either is non-empty."""
    for x, y in zip(a, b):
        if not isinstance(x, np.ndarray):
            if x != y:
                return False
        elif (x.size or y.size) and not (x.dtype == y.dtype and np.array_equal(x, y)):
            return False
    return True


_REPLAY = _replay_agrees()
