"""Nuclear reactor core design optimisation (Pereira & Lapa 2003).

"The optimization problem consisted of adjusting several reactor cell
parameters, such as dimensions, enrichment and materials, in order to
minimize the average peak-factor in a three-enrichment-zone reactor,
considering the restrictions on the average thermal flux, criticality and
sub-moderation."

Substitution: a one-group, one-dimensional slab-reactor *diffusion solver*
(finite differences + the operator's lowest eigenpair) computes the flux
shape and effective multiplication factor k_eff for a 3-zone core.  It is
a genuine neutronics eigenvalue computation — tiny, but with the same
objective structure the original code had: flatter flux ↔ lower peaking
factor, with criticality and moderation constraints penalised.

Genome (normalised to [0, 1] per gene):
    [enrich_1, enrich_2, enrich_3, width_1, width_2, moderation]
Zone 3's width is the remainder of the core.

The criticality problem ``A φ = (1/k) F φ`` (``A`` the symmetric
tridiagonal diffusion operator, ``F = diag(νΣ_f) > 0``) is solved exactly:
scaled to the symmetric tridiagonal ``F^-½ A F^-½``, its lowest eigenpair
gives ``1/k_eff`` and the fundamental mode, one
:func:`scipy.linalg.eigh_tridiagonal` call (LAPACK ``stebz``/``stein``)
per design.

One solver serves every entry point: :meth:`ReactorCoreDesign.evaluate_batch`
runs decode, materials and operator assembly over the whole ``(m, 6)``
block, then the eigen-solve row by row.  :meth:`~ReactorCoreDesign.evaluate`,
:meth:`~ReactorCoreDesign.solve` and :meth:`~ReactorCoreDesign.solve_batch`
are views of it, so scalar and batched results are bit-identical by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ...core.genome import RealVectorSpec
from ...core.problem import Problem

__all__ = ["ReactorCoreDesign", "CoreSolution"]


def _positive_part(values: np.ndarray) -> np.ndarray:
    """``max(0.0, v)`` per element, with Python's ``max`` tie and NaN rules."""
    return np.where(values > 0.0, values, 0.0)


@dataclass
class CoreSolution:
    """Full diffusion solution for one design."""

    k_eff: float
    flux: np.ndarray
    power: np.ndarray
    peaking_factor: float
    mean_flux: float


@dataclass
class _BlockSolution:
    """Diffusion solutions of an ``(m, 6)`` genome block, one row each."""

    moderation: np.ndarray      # (m,)
    k_eff: np.ndarray           # (m,)
    flux: np.ndarray            # (m, n)
    power: np.ndarray           # (m, n)
    peaking_factor: np.ndarray  # (m,)
    mean_flux: np.ndarray       # (m,)


class ReactorCoreDesign(Problem):
    """Minimise power peaking factor subject to criticality & moderation.

    Fitness (minimised) = peaking + w_k·|k_eff − 1| + w_m·moderation-violation
    + w_f·flux-shortfall.  A perfectly flat critical core would score ~1.
    """

    #: physical ranges
    ENRICH_RANGE = (0.015, 0.05)    # U-235 fraction per zone
    MODERATION_RANGE = (1.0, 3.0)   # moderator/fuel ratio
    MIN_ZONE_FRACTION = 0.15        # no zone thinner than 15% of the core

    def __init__(
        self,
        *,
        core_length: float = 300.0,   # cm
        mesh_points: int = 60,
        target_mean_flux: float = 1.0,
        criticality_weight: float = 20.0,
        moderation_weight: float = 5.0,
        flux_weight: float = 2.0,
    ) -> None:
        if mesh_points < 12:
            raise ValueError(f"mesh_points must be >= 12, got {mesh_points}")
        if not (math.isfinite(core_length) and core_length > 0):
            raise ValueError(f"core_length must be positive and finite, got {core_length}")
        for name, weight in (
            ("criticality_weight", criticality_weight),
            ("moderation_weight", moderation_weight),
            ("flux_weight", flux_weight),
        ):
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {weight}")
        self.core_length = core_length
        self.n = mesh_points
        self.h = core_length / (mesh_points + 1)
        self.target_mean_flux = target_mean_flux
        self.criticality_weight = criticality_weight
        self.moderation_weight = moderation_weight
        self.flux_weight = flux_weight
        self.spec = RealVectorSpec(6, 0.0, 1.0)
        self.maximize = False

    # -- decoding -----------------------------------------------------------------------
    def _genome_block(self, genomes: np.ndarray) -> np.ndarray:
        """``genomes`` as a finite ``(m, 6)`` float block (typed boundary check)."""
        block = np.asarray(genomes, dtype=float)
        if block.ndim != 2 or block.shape[1] != self.spec.length:
            raise ValueError(
                f"expected an (m, {self.spec.length}) genome block, got shape {block.shape}"
            )
        if not np.isfinite(block).all():
            raise ValueError("reactor genomes must be finite")
        return block

    def _decode_block(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row enrichment ``(m, 3)``, zone widths ``(m, 3)``, moderation ``(m,)``."""
        e_lo, e_hi = self.ENRICH_RANGE
        enrich = e_lo + block[:, :3] * (e_hi - e_lo)
        # zone widths: map (w1, w2) to a simplex respecting minimum fractions
        f_min = self.MIN_ZONE_FRACTION
        free = 1.0 - 3 * f_min
        a = block[:, 3] * free
        b = block[:, 4] * (free - a)
        widths = np.stack([f_min + a, f_min + b, f_min + (free - a - b)], axis=1)
        m_lo, m_hi = self.MODERATION_RANGE
        moderation = m_lo + block[:, 5] * (m_hi - m_lo)
        return enrich, widths, moderation

    def decode(self, genome: np.ndarray) -> dict[str, np.ndarray | float]:
        block = self._genome_block(np.asarray(genome)[None])
        enrich, widths, moderation = self._decode_block(block)
        return {"enrichment": enrich[0], "widths": widths[0], "moderation": float(moderation[0])}

    # -- cross sections -------------------------------------------------------------------
    def _materials(
        self, enrich: np.ndarray, moderation: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-zone (D, Σ_a, νΣ_f), each ``(m, 3)``, from enrichment & moderator ratio.

        Linearised one-group constants: fission and absorption grow with
        enrichment; moderation trades absorption for slowing-down, with an
        *under-moderated* optimum (the sub-moderation restriction).
        """
        nu_sigma_f = 0.005 + 0.30 * enrich           # cm^-1
        detune = moderation - 2.0
        sigma_a = 0.0105 + 0.11 * enrich + (0.0012 * (detune * detune))[:, None]
        d = np.full_like(enrich, 1.30) / np.sqrt(moderation / 2.0)[:, None]
        return d, sigma_a, nu_sigma_f

    def _zone_of_mesh(self, widths: np.ndarray) -> np.ndarray:
        """Zone index (0/1/2) of each interior mesh point, ``(m, n)``."""
        x = (np.arange(1, self.n + 1)) * self.h / self.core_length
        bounds = np.cumsum(widths, axis=1)
        return np.minimum((bounds[:, None, :] <= x[None, :, None]).sum(axis=2), 2)

    # -- diffusion solve ---------------------------------------------------------------------
    def _solve_block(self, genomes: np.ndarray) -> _BlockSolution:
        block = self._genome_block(genomes)
        enrich, widths, moderation = self._decode_block(block)
        d_z, sa_z, nsf_z = self._materials(enrich, moderation)
        zones = self._zone_of_mesh(widths)
        d = np.take_along_axis(d_z, zones, axis=1)
        sa = np.take_along_axis(sa_z, zones, axis=1)
        nsf = np.take_along_axis(nsf_z, zones, axis=1)
        h2 = self.h * self.h
        # -d/dx (D d/dx) + Σa with harmonic-mean interface diffusion; face j
        # sits between cells j-1 and j (the boundary faces reuse the edge D)
        d_ext = np.concatenate([d[:, :1], d, d[:, -1:]], axis=1)
        face = 2.0 * d_ext[:, :-1] * d_ext[:, 1:] / (d_ext[:, :-1] + d_ext[:, 1:])
        main = (face[:, :-1] + face[:, 1:]) / h2 + sa
        off = -face[:, 1:-1] / h2
        # A φ = (1/k) F φ with F = diag(νΣ_f) > 0: ψ = F^½ φ solves the
        # symmetric tridiagonal F^-½ A F^-½ ψ = (1/k) ψ, whose lowest
        # eigenpair is 1/k_eff and the fundamental mode
        b_main = main / nsf
        b_off = off / np.sqrt(nsf[:, :-1] * nsf[:, 1:])
        k_eff, flux = np.empty(len(block)), np.empty(nsf.shape)
        for i, row in enumerate(zip(b_main, b_off)):
            lam, vec = eigh_tridiagonal(*row, select="i", select_range=(0, 0))
            k_eff[i], flux[i] = 1.0 / lam[0], vec[:, 0]
        flux = np.abs(flux / np.sqrt(nsf))
        # normalise to the target mean flux (power level is a free scaling)
        mean = flux.mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = self.target_mean_flux / mean
            flux = np.where((mean > 0)[:, None], flux * scale[:, None], flux)
            power = nsf * flux
            mean_power = power.mean(axis=1)
            peaking = np.where(mean_power > 0, power.max(axis=1) / mean_power, np.inf)
        return _BlockSolution(
            moderation=moderation,
            k_eff=k_eff,
            flux=flux,
            power=power,
            peaking_factor=peaking,
            mean_flux=flux.mean(axis=1),
        )

    def solve_batch(self, genomes: np.ndarray) -> list[CoreSolution]:
        """Diffusion solutions of an ``(m, 6)`` block of designs, one per row."""
        s = self._solve_block(genomes)
        return [
            CoreSolution(
                k_eff=float(s.k_eff[i]),
                flux=s.flux[i],
                power=s.power[i],
                peaking_factor=float(s.peaking_factor[i]),
                mean_flux=float(s.mean_flux[i]),
            )
            for i in range(len(s.k_eff))
        ]

    def solve(self, genome: np.ndarray) -> CoreSolution:
        """Fundamental mode of the one-group diffusion eigenproblem."""
        return self.solve_batch(np.asarray(genome)[None])[0]

    # -- Problem interface -------------------------------------------------------------------
    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        s = self._solve_block(genomes)
        penalty = self.criticality_weight * np.abs(s.k_eff - 1.0)
        # sub-moderation restriction: stay below moderation 2.5 (penalise over)
        over = _positive_part(s.moderation - 2.5)
        penalty = penalty + self.moderation_weight * (over * over)
        shortfall = _positive_part(self.target_mean_flux - s.mean_flux)
        penalty = penalty + self.flux_weight * shortfall
        return s.peaking_factor + penalty

    def evaluate(self, genome: np.ndarray) -> float:
        return float(self.evaluate_batch(np.asarray(genome)[None])[0])
