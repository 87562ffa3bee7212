"""Mutation operators.

The survey: "Mutation is an operator for a slight change of one
individual … It is random, so it is against staying in the local minimum.
Low mutation parameter means low probability of mutation."

Every operator is a callable ``(rng, genome) -> genome`` returning a *new*
array; inputs are never modified in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "Mutation",
    "BitFlipMutation",
    "GaussianMutation",
    "UniformResetMutation",
    "PolynomialMutation",
    "CreepMutation",
    "SwapMutation",
    "InversionMutation",
    "ScrambleMutation",
    "InsertionMutation",
    "mutation_for_spec",
]


class Mutation(Protocol):
    """Callable protocol all mutation operators satisfy."""

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray: ...


def _per_gene_rate(rate: float | None, n: int) -> float:
    """Default per-gene rate 1/L, the classic GA setting."""
    return (1.0 / n) if rate is None else rate


def _check_rate(rate: float | None) -> None:
    # the comparison chain is False for NaN and the infinities too
    if rate is not None and not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be None or in [0, 1], got {rate!r}")


@dataclass(frozen=True)
class BitFlipMutation:
    """Flip each bit independently with probability ``rate`` (default 1/L)."""

    rate: float | None = None

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        rate = _per_gene_rate(self.rate, genome.shape[0])
        mask = rng.random(genome.shape[0]) < rate
        # astype keeps the genome's dtype: bare np.where promotes bool to int64
        return np.where(mask, 1 - genome, genome).astype(genome.dtype, copy=False)


@dataclass(frozen=True)
class GaussianMutation:
    """Add N(0, sigma) noise per gene with probability ``rate``; clip to bounds."""

    sigma: float = 0.1
    rate: float | None = None
    lower: float | np.ndarray | None = None
    upper: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        _check_rate(self.rate)

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        n = genome.shape[0]
        rate = _per_gene_rate(self.rate, n)
        mask = rng.random(n) < rate
        noise = rng.normal(0.0, self.sigma, size=n)
        out = genome.astype(float) + np.where(mask, noise, 0.0)
        if self.lower is not None or self.upper is not None:
            out = np.clip(
                out,
                -np.inf if self.lower is None else self.lower,
                np.inf if self.upper is None else self.upper,
            )
        return out


@dataclass(frozen=True)
class UniformResetMutation:
    """Resample a gene uniformly from its box with probability ``rate``."""

    lower: float | np.ndarray
    upper: float | np.ndarray
    rate: float | None = None

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        n = genome.shape[0]
        rate = _per_gene_rate(self.rate, n)
        mask = rng.random(n) < rate
        lo = np.broadcast_to(np.asarray(self.lower, dtype=float), (n,))
        hi = np.broadcast_to(np.asarray(self.upper, dtype=float), (n,))
        fresh = rng.uniform(lo, hi)
        return np.where(mask, fresh, genome.astype(float))


@dataclass(frozen=True)
class PolynomialMutation:
    """Deb's polynomial mutation: bounded perturbation with shape ``eta``."""

    lower: float | np.ndarray
    upper: float | np.ndarray
    eta: float = 20.0
    rate: float | None = None

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        n = genome.shape[0]
        rate = _per_gene_rate(self.rate, n)
        lo = np.broadcast_to(np.asarray(self.lower, dtype=float), (n,))
        hi = np.broadcast_to(np.asarray(self.upper, dtype=float), (n,))
        span = hi - lo
        x = genome.astype(float)
        mask = rng.random(n) < rate
        u = rng.random(n)
        mpow = 1.0 / (self.eta + 1.0)
        # distance to each bound, normalised
        d_lo = (x - lo) / span
        d_hi = (hi - x) / span
        delta = np.where(
            u < 0.5,
            (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d_lo) ** (self.eta + 1.0)) ** mpow - 1.0,
            1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d_hi) ** (self.eta + 1.0)) ** mpow,
        )
        out = x + np.where(mask, delta * span, 0.0)
        return np.clip(out, lo, hi)


@dataclass(frozen=True)
class CreepMutation:
    """Integer creep: +/- a small step, clipped to ``[low, high]``."""

    low: int
    high: int
    step: int = 1
    rate: float | None = None

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        n = genome.shape[0]
        rate = _per_gene_rate(self.rate, n)
        mask = rng.random(n) < rate
        steps = rng.integers(1, self.step + 1, size=n) * rng.choice([-1, 1], size=n)
        out = genome.astype(np.int64) + np.where(mask, steps, 0)
        return np.clip(out, self.low, self.high)


@dataclass(frozen=True)
class SwapMutation:
    """Exchange two random positions (permutation-safe)."""

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        out = genome.copy()
        n = out.shape[0]
        if n < 2:
            return out
        i, j = rng.choice(n, size=2, replace=False)
        out[i], out[j] = out[j], out[i]
        return out


@dataclass(frozen=True)
class InversionMutation:
    """Reverse a random segment (2-opt style; permutation-safe)."""

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        out = genome.copy()
        n = out.shape[0]
        if n < 2:
            return out
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        out[i : j + 1] = out[i : j + 1][::-1]
        return out


@dataclass(frozen=True)
class ScrambleMutation:
    """Shuffle a random segment (permutation-safe)."""

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        out = genome.copy()
        n = out.shape[0]
        if n < 2:
            return out
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        segment = out[i : j + 1].copy()
        rng.shuffle(segment)
        out[i : j + 1] = segment
        return out


@dataclass(frozen=True)
class InsertionMutation:
    """Remove one element and reinsert it elsewhere (permutation-safe)."""

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        n = genome.shape[0]
        if n < 2:
            return genome.copy()
        src = int(rng.integers(0, n))
        dst = int(rng.integers(0, n - 1))
        out = np.delete(genome, src)
        return np.insert(out, dst, genome[src])


def mutation_for_spec(spec) -> Mutation:
    """Sensible default mutation for a genome spec (used by quickstart)."""
    from ..genome import BinarySpec, IntegerVectorSpec, PermutationSpec, RealVectorSpec

    if isinstance(spec, BinarySpec):
        return BitFlipMutation()
    if isinstance(spec, RealVectorSpec):
        lo, hi = spec.bounds()
        return GaussianMutation(sigma=float(np.mean(hi - lo)) * 0.1, lower=lo, upper=hi)
    if isinstance(spec, PermutationSpec):
        return SwapMutation()
    if isinstance(spec, IntegerVectorSpec):
        return CreepMutation(low=spec.low, high=spec.high)
    raise TypeError(f"no default mutation for spec type {type(spec).__name__}")
