"""Batched NumPy kernels for crossover and mutation.

Selection has no kernels here: each selection operator is already
written once on a fitness vector (``indices`` in
:mod:`repro.core.operators.selection`), and both paths call it.

Crossover kernels map ``(p, L)`` parent blocks to two ``(p, L)`` child
blocks; mutation kernels map an ``(m, L)`` block to a mutated copy.
They draw per-row (not per-individual-call) randomness, so they are
*distributionally* equivalent to their scalar counterparts: identical
cut-point and mask distributions, different rng stream consumption.

Each operator that has a ``draw(rng, n)`` method splits its kernel in
two: the block draw, and an arithmetic function (``two_point_exchange``,
``bit_flip`` …) that takes values already drawn (or the masks they
give: a kernel compares its large uniform block at once, so the block
is freed before the arithmetic allocates).  The distributional
kernel feeds it block-drawn values; the stream-exact breeder
(:func:`repro.core.variation.make_offspring`) feeds it the operator's own
per-call draws, stacked over the generation, through
:func:`crossover_arithmetic` / :func:`mutation_arithmetic`.

This module is loop-free by contract — no ``for``/``while`` statements
and no comprehensions may appear here (or in
:mod:`repro.core.vectorized.variation`); the rule is enforced by
``scripts/check_engine_contract.py`` so the fast path can never silently
regress to per-individual Python dispatch.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..operators import crossover as cx_ops
from ..operators import mutation as mut_ops
from ..operators.mutation import _per_gene_rate

__all__ = [
    "one_point_exchange",
    "two_point_exchange",
    "uniform_exchange",
    "sbx_blend",
    "bit_flip",
    "gaussian_perturb",
    "one_point_crossover_batch",
    "two_point_crossover_batch",
    "uniform_crossover_batch",
    "sbx_crossover_batch",
    "arithmetic_crossover_batch",
    "blend_crossover_batch",
    "bit_flip_mutation_batch",
    "gaussian_mutation_batch",
    "uniform_reset_mutation_batch",
    "polynomial_mutation_batch",
    "creep_mutation_batch",
    "swap_mutation_batch",
    "inversion_mutation_batch",
    "crossover_kernel",
    "mutation_kernel",
    "crossover_arithmetic",
    "mutation_arithmetic",
    "supports_vectorized_variation",
]


# -- crossover: block kernels -------------------------------------------------

def _check_blocks(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise ValueError(f"parent block shapes differ: {A.shape} vs {B.shape}")
    if A.ndim != 2:
        raise ValueError(f"parent blocks must be 2-D (p, L), got ndim={A.ndim}")


def _distinct_pairs(
    rng: np.random.Generator, p: int, low: int, high: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row uniform distinct ordered pairs from ``[low, high)``.

    ``i`` is uniform over the range; ``j`` is uniform over the range minus
    ``i`` (drawn from a one-smaller range and shifted past ``i``), which is
    exactly the distribution of sampling two values without replacement.
    """
    i = rng.integers(low, high, size=p)
    j = rng.integers(low, high - 1, size=p)
    j = j + (j >= i)
    return np.minimum(i, j), np.maximum(i, j)


def one_point_exchange(
    A: np.ndarray, B: np.ndarray, cuts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row ``r`` exchanges its genes from ``cuts[r]`` on (a cut of ``L``
    exchanges nothing)."""
    keep = np.arange(A.shape[1])[None, :] < cuts[:, None]
    return np.where(keep, A, B), np.where(keep, B, A)


def two_point_exchange(
    A: np.ndarray, B: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row ``r`` exchanges the segment ``[lo[r], hi[r])``."""
    cols = np.arange(A.shape[1])[None, :]
    swap = (cols >= lo[:, None]) & (cols < hi[:, None])
    return np.where(swap, B, A), np.where(swap, A, B)


def uniform_exchange(
    A: np.ndarray, B: np.ndarray, swap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Genes where the mask ``swap`` is set are exchanged."""
    return np.where(swap, B, A), np.where(swap, A, B)


def sbx_blend(
    A: np.ndarray, B: np.ndarray, U: np.ndarray, apply: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """SBX children from spread uniforms ``U``, on the genes where the mask
    ``apply`` is set."""
    beta = np.where(
        U <= 0.5,
        (2.0 * U) ** (1.0 / (eta + 1.0)),
        (1.0 / (2.0 * (1.0 - U))) ** (1.0 / (eta + 1.0)),
    )
    beta = np.where(apply, beta, 1.0)
    CA = 0.5 * ((1.0 + beta) * A + (1.0 - beta) * B)
    CB = 0.5 * ((1.0 - beta) * A + (1.0 + beta) * B)
    return CA, CB


def one_point_crossover_batch(
    rng: np.random.Generator, A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single cut per pair: same cut distribution as :class:`OnePointCrossover`."""
    _check_blocks(A, B)
    p, L = A.shape
    if L < 2 or p == 0:
        return A.copy(), B.copy()
    return one_point_exchange(A, B, rng.integers(1, L, size=p))


def two_point_crossover_batch(
    rng: np.random.Generator, A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Segment exchange between two distinct cuts per pair."""
    _check_blocks(A, B)
    p, L = A.shape
    if L < 3:
        return one_point_crossover_batch(rng, A, B)
    if p == 0:
        return A.copy(), B.copy()
    lo, hi = _distinct_pairs(rng, p, 1, L)
    return two_point_exchange(A, B, lo, hi)


def uniform_crossover_batch(
    rng: np.random.Generator,
    A: np.ndarray,
    B: np.ndarray,
    *,
    swap_prob: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene coin-flip exchange over the whole block."""
    _check_blocks(A, B)
    return uniform_exchange(A, B, rng.random(A.shape) < swap_prob)


def sbx_crossover_batch(
    rng: np.random.Generator,
    A: np.ndarray,
    B: np.ndarray,
    *,
    eta: float = 15.0,
    per_gene_prob: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover on a whole block of real-vector pairs."""
    _check_blocks(A, B)
    U = rng.random(A.shape)
    return sbx_blend(A, B, U, rng.random(A.shape) < per_gene_prob, eta)


def arithmetic_crossover_batch(
    rng: np.random.Generator,
    A: np.ndarray,
    B: np.ndarray,
    *,
    alpha: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-arithmetic convex mix, one weight per mating (row)."""
    _check_blocks(A, B)
    p = A.shape[0]
    w = np.full((p, 1), alpha, dtype=float) if alpha is not None else rng.random((p, 1))
    return w * A + (1.0 - w) * B, (1.0 - w) * A + w * B


def blend_crossover_batch(
    rng: np.random.Generator,
    A: np.ndarray,
    B: np.ndarray,
    *,
    alpha: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """BLX-α: both children sampled from the expanded per-gene box."""
    _check_blocks(A, B)
    lo = np.minimum(A, B)
    hi = np.maximum(A, B)
    spread = hi - lo
    low = lo - alpha * spread
    high = hi + alpha * spread
    return rng.uniform(low, high), rng.uniform(low, high)


# -- mutation: block kernels --------------------------------------------------

def _check_block(G: np.ndarray) -> None:
    if G.ndim != 2:
        raise ValueError(f"genome block must be 2-D (m, L), got ndim={G.ndim}")


def bit_flip(G: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Flip the bits where the mask ``flip`` is set; the block keeps its dtype."""
    return np.where(flip, 1 - G, G).astype(G.dtype, copy=False)


def gaussian_perturb(
    G: np.ndarray,
    mask: np.ndarray,
    noise: np.ndarray,
    lower: float | np.ndarray | None,
    upper: float | np.ndarray | None,
) -> np.ndarray:
    """Add ``noise`` where ``mask`` is set, clipped to the optional bounds."""
    out = G.astype(float) + np.where(mask, noise, 0.0)
    if lower is not None or upper is not None:
        out = np.clip(
            out,
            -np.inf if lower is None else lower,
            np.inf if upper is None else upper,
        )
    return out


def bit_flip_mutation_batch(
    rng: np.random.Generator, G: np.ndarray, *, rate: float | None = None
) -> np.ndarray:
    """Independent per-bit flips at ``rate`` (default 1/L) over the block."""
    _check_block(G)
    return bit_flip(G, rng.random(G.shape) < _per_gene_rate(rate, G.shape[1]))


def gaussian_mutation_batch(
    rng: np.random.Generator,
    G: np.ndarray,
    *,
    sigma: float = 0.1,
    rate: float | None = None,
    lower: float | np.ndarray | None = None,
    upper: float | np.ndarray | None = None,
) -> np.ndarray:
    """Per-gene N(0, sigma) noise at ``rate``, clipped to optional bounds."""
    _check_block(G)
    mask = rng.random(G.shape) < _per_gene_rate(rate, G.shape[1])
    noise = rng.normal(0.0, sigma, size=G.shape)
    return gaussian_perturb(G, mask, noise, lower, upper)


def uniform_reset_mutation_batch(
    rng: np.random.Generator,
    G: np.ndarray,
    *,
    lower: float | np.ndarray,
    upper: float | np.ndarray,
    rate: float | None = None,
) -> np.ndarray:
    """Uniform per-gene resample from the box at ``rate``."""
    _check_block(G)
    m, L = G.shape
    r = _per_gene_rate(rate, L)
    mask = rng.random(G.shape) < r
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (L,))
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (L,))
    fresh = rng.uniform(np.broadcast_to(lo, (m, L)), np.broadcast_to(hi, (m, L)))
    return np.where(mask, fresh, G.astype(float))


def polynomial_mutation_batch(
    rng: np.random.Generator,
    G: np.ndarray,
    *,
    lower: float | np.ndarray,
    upper: float | np.ndarray,
    eta: float = 20.0,
    rate: float | None = None,
) -> np.ndarray:
    """Deb's polynomial mutation over the whole block."""
    _check_block(G)
    m, L = G.shape
    r = _per_gene_rate(rate, L)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (L,))
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (L,))
    span = hi - lo
    x = G.astype(float)
    mask = rng.random(G.shape) < r
    u = rng.random(G.shape)
    mpow = 1.0 / (eta + 1.0)
    d_lo = (x - lo) / span
    d_hi = (hi - x) / span
    delta = np.where(
        u < 0.5,
        (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d_lo) ** (eta + 1.0)) ** mpow - 1.0,
        1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d_hi) ** (eta + 1.0)) ** mpow,
    )
    out = x + np.where(mask, delta * span, 0.0)
    return np.clip(out, lo, hi)


def creep_mutation_batch(
    rng: np.random.Generator,
    G: np.ndarray,
    *,
    low: int,
    high: int,
    step: int = 1,
    rate: float | None = None,
) -> np.ndarray:
    """Integer creep: +/- small steps at ``rate``, clipped to [low, high]."""
    _check_block(G)
    r = _per_gene_rate(rate, G.shape[1])
    mask = rng.random(G.shape) < r
    steps = rng.integers(1, step + 1, size=G.shape) * rng.choice([-1, 1], size=G.shape)
    out = G.astype(np.int64) + np.where(mask, steps, 0)
    return np.clip(out, low, high)


def swap_mutation_batch(rng: np.random.Generator, G: np.ndarray) -> np.ndarray:
    """Exchange two distinct positions per row (permutation-safe)."""
    _check_block(G)
    m, L = G.shape
    if L < 2 or m == 0:
        return G.copy()
    i, j = _distinct_pairs(rng, m, 0, L)
    out = G.copy()
    rows = np.arange(m)
    out[rows, i], out[rows, j] = G[rows, j], G[rows, i]
    return out


def inversion_mutation_batch(rng: np.random.Generator, G: np.ndarray) -> np.ndarray:
    """Reverse one random segment per row (2-opt style, permutation-safe)."""
    _check_block(G)
    m, L = G.shape
    if L < 2 or m == 0:
        return G.copy()
    i, j = _distinct_pairs(rng, m, 0, L)
    cols = np.broadcast_to(np.arange(L)[None, :], (m, L))
    inside = (cols >= i[:, None]) & (cols <= j[:, None])
    src = np.where(inside, (i + j)[:, None] - cols, cols)
    return np.take_along_axis(G, src, axis=1)


# -- operator → kernel registries ---------------------------------------------
# Each resolver closes over the operator's own parameters, so the kernel
# call sites stay parameter-free: kernel(rng, ...blocks...).

def crossover_kernel(
    op,
) -> Callable[
    [np.random.Generator, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]
] | None:
    """Block kernel for a crossover operator, or ``None`` if unsupported."""
    if isinstance(op, cx_ops.OnePointCrossover):
        return one_point_crossover_batch
    if isinstance(op, cx_ops.TwoPointCrossover):
        return two_point_crossover_batch
    if isinstance(op, cx_ops.UniformCrossover):
        return lambda rng, A, B: uniform_crossover_batch(
            rng, A, B, swap_prob=op.swap_prob
        )
    if isinstance(op, cx_ops.SimulatedBinaryCrossover):
        return lambda rng, A, B: sbx_crossover_batch(
            rng, A, B, eta=op.eta, per_gene_prob=op.per_gene_prob
        )
    if isinstance(op, cx_ops.ArithmeticCrossover):
        return lambda rng, A, B: arithmetic_crossover_batch(rng, A, B, alpha=op.alpha)
    if isinstance(op, cx_ops.BlendCrossover):
        return lambda rng, A, B: blend_crossover_batch(rng, A, B, alpha=op.alpha)
    return None


def mutation_kernel(
    op,
) -> Callable[[np.random.Generator, np.ndarray], np.ndarray] | None:
    """Block kernel for a mutation operator, or ``None`` if unsupported."""
    if isinstance(op, mut_ops.BitFlipMutation):
        return lambda rng, G: bit_flip_mutation_batch(rng, G, rate=op.rate)
    if isinstance(op, mut_ops.GaussianMutation):
        return lambda rng, G: gaussian_mutation_batch(
            rng, G, sigma=op.sigma, rate=op.rate, lower=op.lower, upper=op.upper
        )
    if isinstance(op, mut_ops.UniformResetMutation):
        return lambda rng, G: uniform_reset_mutation_batch(
            rng, G, lower=op.lower, upper=op.upper, rate=op.rate
        )
    if isinstance(op, mut_ops.PolynomialMutation):
        return lambda rng, G: polynomial_mutation_batch(
            rng, G, lower=op.lower, upper=op.upper, eta=op.eta, rate=op.rate
        )
    if isinstance(op, mut_ops.CreepMutation):
        return lambda rng, G: creep_mutation_batch(
            rng, G, low=op.low, high=op.high, step=op.step, rate=op.rate
        )
    if isinstance(op, mut_ops.SwapMutation):
        return swap_mutation_batch
    if isinstance(op, mut_ops.InversionMutation):
        return inversion_mutation_batch
    return None


def crossover_arithmetic(
    op,
) -> Callable[
    [np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]
] | None:
    """Block arithmetic matching ``op.draw``, or ``None``.

    The returned ``f(A, B, D)`` crosses row ``r`` of the ``(p, L)`` parent
    blocks with the values ``op.draw(rng, L)`` returned for that pair,
    stacked as ``D = np.array(draws)``.  Keyed on the exact type, so a
    subclass that overrides ``__call__`` never takes this path.
    """
    kind = type(op)
    if kind is cx_ops.OnePointCrossover:
        return one_point_exchange
    if kind is cx_ops.TwoPointCrossover:
        return lambda A, B, D: two_point_exchange(A, B, D[:, 0], D[:, 1])
    if kind is cx_ops.UniformCrossover:
        return lambda A, B, D: uniform_exchange(A, B, D < op.swap_prob)
    if kind is cx_ops.SimulatedBinaryCrossover:
        return lambda A, B, D: sbx_blend(
            A, B, D[:, 0], D[:, 1] < op.per_gene_prob, op.eta
        )
    return None


def mutation_arithmetic(
    op,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray] | None:
    """Block arithmetic matching ``op.draw``, or ``None``.

    The returned ``f(G, D)`` mutates row ``r`` of ``G`` with the values
    ``op.draw(rng, L)`` returned for that child, stacked as
    ``D = np.array(draws)``.  Keyed on the exact type, like
    :func:`crossover_arithmetic`.
    """
    kind = type(op)
    if kind is mut_ops.BitFlipMutation:
        return lambda G, D: bit_flip(G, D < _per_gene_rate(op.rate, G.shape[1]))
    if kind is mut_ops.GaussianMutation:
        return lambda G, D: gaussian_perturb(
            G, D[:, 0] < _per_gene_rate(op.rate, G.shape[1]), D[:, 1], op.lower, op.upper
        )
    return None


def supports_vectorized_variation(config) -> bool:
    """Whether a resolved :class:`GAConfig` has block kernels for both
    variation operators.  Selection never gates the fast path: a custom
    operator without ``indices`` is called on the members and its picks
    are mapped back to rows (identical picks, object-level cost ``O(n)``)."""
    return (
        crossover_kernel(config.crossover) is not None
        and mutation_kernel(config.mutation) is not None
    )
