"""Bit-identity of every vectorized ``evaluate_batch`` kernel.

The batch contract (docs/batch_evaluation.md) demands results bit-identical
to the scalar ``evaluate`` loop — not merely close: the deterministic
-simulation digests hash fitness ``repr``s, so a single flipped ulp breaks
replay.  This suite pins that contract for every problem that overrides
the default scalar-loop ``evaluate_batch``.
"""

import numpy as np
import pytest
from scipy.linalg import LinAlgError, eigh, eigh_tridiagonal

from repro.core.problem import Problem, stack_genomes
from repro.problems import (
    Ackley,
    DeceptiveTrap,
    GraphBipartition,
    Griewank,
    Knapsack,
    LeadingOnes,
    MaxSat,
    NKLandscape,
    OneMax,
    PPeaks,
    Rastrigin,
    Rosenbrock,
    RoyalRoad,
    Schwefel,
    Sphere,
    SubsetSum,
    TravelingSalesman,
    Weierstrass,
    ZeroMax,
)
from repro.problems.applications import ReactorCoreDesign, StockPrediction
from repro.problems.applications.reactor import _check_info

from ..conftest import ScalarOnly

VECTORIZED_PROBLEMS = [
    OneMax(37),
    ZeroMax(37),
    LeadingOnes(24),
    DeceptiveTrap(blocks=6, k=4),
    RoyalRoad(blocks=5, block_size=4),
    NKLandscape(n=14, k=3, seed=1),
    PPeaks(p=20, length=32, seed=2),
    Sphere(dims=11),
    Rastrigin(dims=11),
    Ackley(dims=11),
    Griewank(dims=11),
    Schwefel(dims=11),
    Rosenbrock(dims=11),
    Weierstrass(dims=7),
    SubsetSum(n=18, seed=3),
    MaxSat(n_vars=20, n_clauses=60, seed=4),
    Knapsack(n=18, seed=5),
    TravelingSalesman.random(n_cities=12, seed=6),
    GraphBipartition(n=12, seed=7),
    ReactorCoreDesign(mesh_points=20),
    ReactorCoreDesign(mesh_points=40),
    ReactorCoreDesign(mesh_points=60),
    StockPrediction(seed=5100, hidden=4),  # E12's networks
    StockPrediction(seed=0, hidden=6),
]


def _problem_id(problem):
    if isinstance(problem, ReactorCoreDesign):
        return f"ReactorCoreDesign-mesh{problem.n}"
    if isinstance(problem, StockPrediction):
        return f"StockPrediction-hidden{problem.hidden}"
    return type(problem).__name__


@pytest.mark.parametrize("problem", VECTORIZED_PROBLEMS, ids=_problem_id)
class TestBatchScalarIdentity:
    def _batch(self, problem, n=33, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack([problem.spec.sample(rng) for _ in range(n)])

    def test_batch_matches_scalar_bit_for_bit(self, problem):
        batch = self._batch(problem)
        scalar = np.asarray([problem.evaluate(g) for g in batch], dtype=float)
        out = problem.evaluate_batch(batch)
        assert out.dtype == np.float64
        assert out.shape == (len(batch),)
        assert np.array_equal(out, scalar), (
            f"{problem.name}: vectorized kernel is not bit-identical"
        )

    def test_evaluate_many_both_modes_agree(self, problem):
        genomes = list(self._batch(problem, n=17, seed=1))
        fast = problem.evaluate_many(genomes)
        slow = ScalarOnly(problem).evaluate_many(genomes)
        assert fast == slow
        assert all(isinstance(f, float) for f in fast)

    def test_single_row_batch(self, problem):
        batch = self._batch(problem, n=1, seed=2)
        assert problem.evaluate_batch(batch)[0] == problem.evaluate(batch[0])


def _reference_reactor_operator(p, genome):
    """One design's diffusion operator by the plain scalar algorithm
    (Python-float decode, per-cell assembly): its diagonal, super-diagonal,
    ``νΣ_f`` per cell and moderation ratio."""
    (e_lo, e_hi), (m_lo, m_hi) = p.ENRICH_RANGE, p.MODERATION_RANGE
    enrich = e_lo + genome[:3] * (e_hi - e_lo)
    f_min = p.MIN_ZONE_FRACTION
    free = 1.0 - 3 * f_min
    a = float(genome[3]) * free
    b = float(genome[4]) * (free - a)
    widths = np.array([f_min + a, f_min + b, f_min + (free - a - b)])
    moderation = m_lo + float(genome[5]) * (m_hi - m_lo)
    nsf_z = 0.005 + 0.30 * enrich
    detune = moderation - 2.0
    sa_z = 0.0105 + 0.11 * enrich + 0.0012 * (detune * detune)
    d_z = np.full_like(enrich, 1.30) / np.sqrt(moderation / 2.0)
    x = np.arange(1, p.n + 1) * p.h / p.core_length
    zones = np.searchsorted(np.cumsum(widths), x, side="right").clip(0, 2)
    d, sa, nsf = d_z[zones], sa_z[zones], nsf_z[zones]
    h2 = p.h * p.h
    d_ext = np.concatenate([[d[0]], d, [d[-1]]])
    main, upper = np.empty(p.n), np.empty(p.n - 1)
    for i in range(p.n):
        d_w = 2.0 * d_ext[i] * d_ext[i + 1] / (d_ext[i] + d_ext[i + 1])
        d_e = 2.0 * d_ext[i + 1] * d_ext[i + 2] / (d_ext[i + 1] + d_ext[i + 2])
        main[i] = (d_w + d_e) / h2 + sa[i]
        if i < p.n - 1:
            upper[i] = -d_e / h2
    return main, upper, nsf, moderation


def _reference_reactor_fitness(p, genome):
    """One design's fitness from the scalar operator and one tridiagonal
    eigen-solve: the oracle the batched solver must match bit for bit."""
    main, upper, nsf, moderation = _reference_reactor_operator(p, genome)
    # A φ = (1/k) diag(nsf) φ, scaled to a symmetric tridiagonal eigenproblem
    lam, vec = eigh_tridiagonal(
        main / nsf, upper / np.sqrt(nsf[:-1] * nsf[1:]), select="i", select_range=(0, 0)
    )
    k = 1.0 / lam[0]
    flux = np.abs(vec[:, 0] / np.sqrt(nsf))
    flux = flux * (p.target_mean_flux / float(flux.mean()))
    power = nsf * flux
    peaking = float(power.max() / float(power.mean()))
    penalty = p.criticality_weight * abs(k - 1.0)
    over = max(0.0, moderation - 2.5)
    penalty += p.moderation_weight * (over * over)
    penalty += p.flux_weight * max(0.0, p.target_mean_flux - float(flux.mean()))
    return peaking + penalty


def _dense_reactor_mode(p, genome):
    """k_eff and mean-normalised flux of one design from the dense generalized
    eigenproblem ``A φ = (1/k) diag(νΣ_f) φ``, without the scaling."""
    main, upper, nsf, _ = _reference_reactor_operator(p, genome)
    a = np.diag(main) + np.diag(upper, 1) + np.diag(upper, -1)
    lam, vec = eigh(a, np.diag(nsf), subset_by_index=[0, 0])
    flux = np.abs(vec[:, 0])
    return 1.0 / lam[0], flux * (p.target_mean_flux / flux.mean())


class TestReactorBatchSolver:
    """The reactor's criticality eigen-solve, one row at a time."""

    def _mixed_batch(self):
        rng = np.random.default_rng(11)
        return np.vstack([np.zeros(6), rng.random((5, 6)), np.ones(6), rng.random((5, 6))])

    @pytest.mark.parametrize("mesh_points", [20, 40, 60])
    def test_batch_matches_reference_loop(self, mesh_points):
        p = ReactorCoreDesign(mesh_points=mesh_points)
        # moderation genes whose (m - 2.0) ** 2 and (m - 2.5) ** 2 round
        # differently under libm pow than as the product (m - c) * (m - c):
        # both sides must square by the product
        pow_rows = np.full((2, 6), 0.5)
        pow_rows[:, 5] = [0.186497, 0.92038]
        wide = np.random.default_rng(3).random((512, 6))
        batch = np.vstack([self._mixed_batch(), pow_rows, wide])
        expected = np.asarray([_reference_reactor_fitness(p, g) for g in batch])
        assert np.array_equal(p.evaluate_batch(batch), expected)

    def test_edge_rows_and_solve_fields(self):
        p = ReactorCoreDesign(mesh_points=40)
        batch = self._mixed_batch()
        assert np.array_equal(
            p.evaluate_batch(batch), np.asarray([p.evaluate(g) for g in batch])
        )
        for g, row in zip(batch, p.solve_batch(batch)):
            one = p.solve(g)
            assert one.k_eff == row.k_eff
            assert np.array_equal(one.flux, row.flux)
            assert np.array_equal(one.power, row.power)
            assert one.peaking_factor == row.peaking_factor
            assert one.mean_flux == row.mean_flux

    def test_k_eff_and_flux_match_dense_eigenproblem(self):
        # a batch on which a 200-iteration inverse power iteration leaves
        # 127 rows short of a 1e-8 k-update
        p = ReactorCoreDesign(mesh_points=40)
        batch = np.random.default_rng(3).random((512, 6))
        for g, sol in zip(batch, p.solve_batch(batch)):
            k, flux = _dense_reactor_mode(p, g)
            assert abs(sol.k_eff - k) <= 1e-12 * k
            assert np.abs(sol.flux - flux).max() <= 1e-10
            assert (sol.flux > 0).all()

    def test_non_finite_genomes_rejected(self):
        p = ReactorCoreDesign(mesh_points=20)
        batch = self._mixed_batch()
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = batch.copy()
            poisoned[3, 4] = bad
            with pytest.raises(ValueError, match="finite"):
                p.evaluate_batch(poisoned)
            with pytest.raises(ValueError, match="finite"):
                p.evaluate(poisoned[3])

    def test_lapack_info_is_a_typed_error(self):
        _check_info(0, "stebz")
        with pytest.raises(ValueError, match="argument 3 of internal stebz"):
            _check_info(-3, "stebz")
        with pytest.raises(LinAlgError, match="stein did not converge"):
            _check_info(1, "stein")

    def test_malformed_block_rejected(self):
        p = ReactorCoreDesign(mesh_points=20)
        with pytest.raises(ValueError, match="genome block"):
            p.evaluate_batch(np.zeros((4, 5)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"core_length": 0.0},
            {"core_length": -300.0},
            {"core_length": float("nan")},
            {"core_length": float("inf")},
            {"criticality_weight": -1.0},
            {"moderation_weight": -0.5},
            {"flux_weight": -2.0},
            {"flux_weight": float("nan")},
        ],
    )
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReactorCoreDesign(**kwargs)


class TestStackGenomes:
    def test_stacks_homogeneous_lists(self):
        gs = [np.zeros(4, dtype=np.int8), np.ones(4, dtype=np.int8)]
        out = stack_genomes(gs)
        assert out.shape == (2, 4) and out.dtype == np.int8

    def test_passes_2d_arrays_through(self):
        batch = np.zeros((3, 5))
        assert stack_genomes(batch) is batch

    def test_rejects_ragged(self):
        assert stack_genomes([np.zeros(4), np.zeros(5)]) is None

    def test_rejects_mixed_dtype(self):
        assert stack_genomes([np.zeros(4, dtype=np.int8), np.zeros(4)]) is None

    def test_rejects_empty_and_non_arrays(self):
        assert stack_genomes([]) is None
        assert stack_genomes([[0, 1], [1, 0]]) is None
        assert stack_genomes(np.zeros(4)) is None


class _Recording(Problem):
    """Tracks which evaluation path ran."""

    def __init__(self):
        self.spec = OneMax(4).spec
        self.maximize = True
        self.batch_calls = 0

    def evaluate(self, genome):
        return float(genome.sum())

    def evaluate_batch(self, genomes):
        self.batch_calls += 1
        return genomes.sum(axis=1).astype(float)


class TestBatchToggle:
    """``evaluate_many`` routing: stacked batches take the kernel, batches
    that cannot stack take the scalar loop."""

    def test_stackable_batch_uses_kernel(self):
        p = _Recording()
        assert p.evaluate_many([np.ones(4, dtype=np.int8)] * 3) == [4.0] * 3
        assert p.batch_calls == 1

    def test_ragged_batch_falls_back_to_scalar(self):
        p = _Recording()
        ragged = [np.ones(4, dtype=np.int8), np.ones(5, dtype=np.int8)]
        assert p.evaluate_many(ragged) == [4.0, 5.0]
        assert p.batch_calls == 0
