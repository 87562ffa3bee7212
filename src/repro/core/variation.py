"""Variation pipeline: selection-crossover-mutation as reusable functions.

"In PGA, there is always a selection-crossover-mutation cycle as in GAs"
(survey §1.1).  Sequential engines, island demes, cellular cells and
simulated master-slave farms all produce offspring through these helpers,
so the cycle is implemented exactly once.

:func:`offspring_pair` is the per-pair cycle.  :func:`breed` breeds a
whole generation with the same random stream: one loop draws every pair's
random numbers in the order :func:`offspring_pair` would, then crossover,
mutation and repair run once each on ``(n, L)`` blocks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import GAConfig
from .genome import BinarySpec, GenomeSpec, IntegerVectorSpec, RealVectorSpec
from .individual import Individual
from .problem import stack_genomes
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
    draws — and only then crosses, mutates and repairs whole blocks.  Every
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
    if mutated and mutated[-1] == count:  # the dropped sibling
        mutated.pop()
        mut_draws.pop()

    # arithmetic: rows 2k and 2k+1 of `block` become pair k's children
    if crossed:
        rows = 2 * np.asarray(crossed)
        ca, cb = cross(block[rows], block[rows + 1], np.array(cx_draws))
        block = block.astype(np.result_type(block.dtype, ca.dtype), copy=False)
        block[rows], block[rows + 1] = ca, cb
    block = block[:count]
    if mutated:
        rows = np.asarray(mutated)
        out_rows = mutate(block[rows], np.array(mut_draws))
        block = block.astype(np.result_type(block.dtype, out_rows.dtype), copy=False)
        block[rows] = out_rows
    block = spec.repair_batch(block, rng)
    children = [
        Individual(genome=g.copy(), birth_generation=generation, origin=o)
        for g, o in zip(block, origins)
    ]
    return children, block
