"""Built-in component registrations: every shipped problem, operator and
topology resolves through the spec registries.

Importing this module (which ``repro.spec`` does) populates
:data:`~repro.spec.registry.PROBLEMS`, :data:`~repro.spec.registry.OPERATORS`
and :data:`~repro.spec.registry.TOPOLOGIES`.  Each registration carries an
*exemplar* params dict known to build a valid instance — the round-trip
property suite and the spec fuzzer iterate these, so adding a component
here automatically adds it to both.
"""

from __future__ import annotations

from ..core.operators.crossover import (
    ArithmeticCrossover,
    BlendCrossover,
    CycleCrossover,
    KPointCrossover,
    OnePointCrossover,
    OrderCrossover,
    PartiallyMappedCrossover,
    SimulatedBinaryCrossover,
    TwoDimensionalCrossover,
    TwoPointCrossover,
    UniformCrossover,
)
from ..core.operators.mutation import (
    BitFlipMutation,
    CreepMutation,
    GaussianMutation,
    InsertionMutation,
    InversionMutation,
    PolynomialMutation,
    ScrambleMutation,
    SwapMutation,
    UniformResetMutation,
)
from ..core.operators.replacement import (
    ReplaceOldest,
    ReplaceRandom,
    ReplaceWorst,
    ReplaceWorstIfBetter,
)
from ..core.operators.selection import (
    BestSelection,
    BoltzmannSelection,
    LinearRankSelection,
    RandomSelection,
    RouletteWheelSelection,
    StochasticUniversalSampling,
    TournamentSelection,
    TruncationSelection,
)
from ..core.termination import (
    AllOf,
    AnyOf,
    MaxEvaluations,
    MaxGenerations,
    Never,
    Stagnation,
    TargetFitness,
)
from ..migration.policy import MigrationPolicy
from ..migration.schedule import (
    NeverSchedule,
    PeriodicSchedule,
    ProbabilisticSchedule,
    StagnationTriggeredSchedule,
)
from ..migration.synchrony import Synchrony
from ..parallel.specialized import SIMScenario, standard_scenarios
from ..problems import (
    SPECTRUM,
    Ackley,
    DeceptiveTrap,
    FonsecaFleming,
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
    SchafferF2,
    Schwefel,
    Sphere,
    SubsetSum,
    TaskGraphScheduling,
    TravelingSalesman,
    Weierstrass,
    ZDT1,
    ZDT2,
    ZDT3,
    ZeroMax,
)
from ..problems.applications.feature_selection import FeatureSelection
from ..problems.applications.reactor import ReactorCoreDesign
from ..problems.applications.stock import StockPrediction
from ..problems.applications.wing import TransonicWingDesign
from ..topology.static import topology_by_name
from .components import OperatorSpec
from .registry import register_operator, register_problem, register_topology

# -- problems ----------------------------------------------------------------------

register_problem("onemax", OneMax, exemplar={"length": 32})
register_problem("zeromax", ZeroMax, exemplar={"length": 32})
register_problem("leading-ones", LeadingOnes, exemplar={"length": 32})
register_problem("deceptive-trap", DeceptiveTrap, exemplar={"blocks": 4, "k": 4})
register_problem("royal-road", RoyalRoad, exemplar={"blocks": 4, "block_size": 8})
register_problem(
    "nk-landscape", NKLandscape, exemplar={"n": 24, "k": 2, "seed": 0}
)
register_problem("p-peaks", PPeaks, exemplar={"p": 16, "length": 32, "seed": 0})
register_problem(
    "subset-sum", SubsetSum, exemplar={"n": 24, "seed": 0}
)
register_problem(
    "max-sat", MaxSat, exemplar={"n_vars": 24, "n_clauses": 100, "seed": 0}
)
register_problem("knapsack", Knapsack, exemplar={"n": 24, "seed": 0})
register_problem(
    "graph-bipartition", GraphBipartition, exemplar={"n": 24, "seed": 0}
)
register_problem(
    "task-graph-scheduling", TaskGraphScheduling, exemplar={"n_tasks": 16, "seed": 0}
)
register_problem("tsp-circular", TravelingSalesman.circular, exemplar={"n_cities": 12})
register_problem("sphere", Sphere, exemplar={"dims": 8})
register_problem("rastrigin", Rastrigin, exemplar={"dims": 8})
register_problem("ackley", Ackley, exemplar={"dims": 8})
register_problem("griewank", Griewank, exemplar={"dims": 8})
register_problem("schwefel", Schwefel, exemplar={"dims": 8})
register_problem("rosenbrock", Rosenbrock, exemplar={"dims": 8})
register_problem("weierstrass", Weierstrass, exemplar={"dims": 6})
register_problem("zdt1", ZDT1, exemplar={"dims": 12})
register_problem("zdt2", ZDT2, exemplar={"dims": 12})
register_problem("zdt3", ZDT3, exemplar={"dims": 12})
register_problem("schaffer-f2", SchafferF2, exemplar={})
register_problem("fonseca-fleming", FonsecaFleming, exemplar={"dims": 3})
register_problem("transonic-wing", TransonicWingDesign, exemplar={})
register_problem(
    "stock-prediction", StockPrediction, exemplar={"seed": 0, "hidden": 4}
)
register_problem("reactor-core", ReactorCoreDesign, exemplar={"mesh_points": 20})
register_problem(
    "feature-selection-synthetic",
    FeatureSelection.synthetic,
    exemplar={"n_features": 40, "n_informative": 8, "n_samples": 60, "seed": 0},
)


@register_problem("transonic-wing-truth", exemplar={})
def _transonic_wing_truth(mach: float = 0.82, cl_required: float = 0.5):
    """Truth-fidelity view of the transonic wing (E7's all-complex arm)."""
    mf = TransonicWingDesign(mach, cl_required)
    return mf.view(mf.highest_fidelity())


@register_problem("spectrum", exemplar={"name": "easy", "seed": 0})
def _spectrum_problem(name: str, seed: int = 0):
    """One named member of the difficulty spectrum (E4's problem suite)."""
    if name not in SPECTRUM:
        from .registry import suggest

        raise ValueError(f"unknown spectrum problem {name!r}{suggest(name, SPECTRUM)}")
    return SPECTRUM[name](seed)


# -- operators: selection ----------------------------------------------------------

register_operator("tournament", TournamentSelection, exemplar={"size": 2})
register_operator("roulette", RouletteWheelSelection, exemplar={})
register_operator("linear-rank", LinearRankSelection, exemplar={})
register_operator("sus", StochasticUniversalSampling, exemplar={})
register_operator("truncation", TruncationSelection, exemplar={})
register_operator("boltzmann", BoltzmannSelection, exemplar={})
register_operator("random-selection", RandomSelection, exemplar={})
register_operator("best-selection", BestSelection, exemplar={})

# -- operators: crossover ----------------------------------------------------------

register_operator("one-point", OnePointCrossover, exemplar={})
register_operator("two-point", TwoPointCrossover, exemplar={})
register_operator("k-point", KPointCrossover, exemplar={"k": 3})
register_operator("uniform", UniformCrossover, exemplar={})
register_operator("arithmetic", ArithmeticCrossover, exemplar={})
register_operator("blend", BlendCrossover, exemplar={})
register_operator("sbx", SimulatedBinaryCrossover, exemplar={})
register_operator("pmx", PartiallyMappedCrossover, exemplar={})
register_operator("order", OrderCrossover, exemplar={})
register_operator("cycle", CycleCrossover, exemplar={})
register_operator(
    "two-dimensional", TwoDimensionalCrossover, exemplar={"rows": 4, "cols": 4}
)

# -- operators: mutation -----------------------------------------------------------

register_operator("bit-flip", BitFlipMutation, exemplar={})
register_operator("gaussian", GaussianMutation, exemplar={})
register_operator(
    "uniform-reset", UniformResetMutation, exemplar={"lower": 0.0, "upper": 1.0}
)
register_operator(
    "polynomial", PolynomialMutation, exemplar={"lower": 0.0, "upper": 1.0}
)
register_operator("creep", CreepMutation, exemplar={"low": 0, "high": 7})
register_operator("swap", SwapMutation, exemplar={})
register_operator("inversion", InversionMutation, exemplar={})
register_operator("scramble", ScrambleMutation, exemplar={})
register_operator("insertion", InsertionMutation, exemplar={})

# -- operators: replacement --------------------------------------------------------

register_operator("replace-worst", ReplaceWorst, exemplar={})
register_operator("replace-worst-if-better", ReplaceWorstIfBetter, exemplar={})
register_operator("replace-random", ReplaceRandom, exemplar={})
register_operator("replace-oldest", ReplaceOldest, exemplar={})

# -- operators: migration ----------------------------------------------------------

register_operator(
    "migration-policy",
    MigrationPolicy,
    exemplar={"rate": 1, "selection": "best", "replacement": "worst-if-better"},
)
register_operator("periodic", PeriodicSchedule, exemplar={"interval": 4})
register_operator("probabilistic", ProbabilisticSchedule, exemplar={"prob": 0.2})
register_operator(
    "stagnation-triggered", StagnationTriggeredSchedule, exemplar={"patience": 5}
)
register_operator("never", NeverSchedule, exemplar={})
register_operator("synchrony", Synchrony, exemplar={"synchronous": True})

# -- operators: termination --------------------------------------------------------

register_operator("max-generations", MaxGenerations, exemplar={"limit": 5})
register_operator("max-evaluations", MaxEvaluations, exemplar={"limit": 500})
register_operator("target-fitness", TargetFitness, exemplar={"target": 0.0})
register_operator("stagnation", Stagnation, exemplar={"patience": 5})
register_operator("never-terminate", Never, exemplar={})


_EX_CRITERIA = [
    OperatorSpec("max-generations", {"limit": 5}),
    OperatorSpec("target-fitness", {"target": 0.0}),
]


@register_operator("any-of", exemplar={"criteria": _EX_CRITERIA})
def _any_of(criteria):
    return AnyOf(*criteria)


@register_operator("all-of", exemplar={"criteria": _EX_CRITERIA})
def _all_of(criteria):
    return AllOf(*criteria)


# -- operators: specialized-island scenarios ---------------------------------------


@register_operator(
    "sim-scenario",
    exemplar={"name": "S", "weights": [[1.0, 0.0], [0.0, 1.0]]},
)
def _sim_scenario(
    name: str,
    weights,
    topology: str = "complete",
    migration_interval: int = 5,
) -> SIMScenario:
    return SIMScenario(
        name=name,
        weights=tuple(tuple(float(w) for w in row) for row in weights),
        topology=topology,
        migration_interval=migration_interval,
    )


@register_operator("standard-scenario", exemplar={"index": 0})
def _standard_scenario(index: int, n_objectives: int = 2) -> SIMScenario:
    scenarios = standard_scenarios(n_objectives)
    return scenarios[index]


# -- topologies --------------------------------------------------------------------

for _name, _exemplar in [
    ("ring", {"size": 4}),
    ("bidirectional-ring", {"size": 4}),
    ("complete", {"size": 4}),
    ("star", {"size": 4}),
    ("pipeline", {"size": 4}),
    ("isolated", {"size": 4}),
    ("grid", {"size": 4}),
    ("torus", {"size": 4}),
    ("hypercube", {"size": 4}),
]:
    register_topology(
        _name,
        (lambda name: lambda size, **kwargs: topology_by_name(name, size, **kwargs))(
            _name
        ),
        exemplar=_exemplar,
    )
