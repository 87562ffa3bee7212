"""Benchmark problems: the survey's problem spectrum plus its applications.

``SPECTRUM`` holds the five-class problem suite of Alba & Troya (2000):
easy, deceptive, multimodal, NP-complete and epistatic landscapes, each
built by name from the suite's seed.
"""

from typing import Callable

from ..core.problem import Problem
from .binary import (
    DeceptiveTrap,
    LeadingOnes,
    NKLandscape,
    OneMax,
    PPeaks,
    RoyalRoad,
    ZeroMax,
)
from .combinatorial import (
    GraphBipartition,
    Knapsack,
    MaxSat,
    SubsetSum,
    TaskGraphScheduling,
    TravelingSalesman,
    random_tsp_instance,
)
from .continuous import (
    Ackley,
    Griewank,
    Rastrigin,
    Rosenbrock,
    Schwefel,
    Sphere,
    Weierstrass,
)
from .multifidelity import FidelityView, MultiFidelityProblem
from .multiobjective import (
    ZDT1,
    ZDT2,
    ZDT3,
    FonsecaFleming,
    MultiObjectiveProblem,
    ScalarizedObjective,
    SchafferF2,
    dominates,
    hypervolume_2d,
    pareto_front,
)

__all__ = [
    "Problem",
    # binary
    "OneMax",
    "ZeroMax",
    "LeadingOnes",
    "DeceptiveTrap",
    "RoyalRoad",
    "NKLandscape",
    "PPeaks",
    # combinatorial
    "SubsetSum",
    "MaxSat",
    "Knapsack",
    "TravelingSalesman",
    "GraphBipartition",
    "TaskGraphScheduling",
    "random_tsp_instance",
    # continuous
    "Sphere",
    "Rastrigin",
    "Ackley",
    "Griewank",
    "Schwefel",
    "Rosenbrock",
    "Weierstrass",
    # multi-fidelity
    "MultiFidelityProblem",
    "FidelityView",
    # multiobjective
    "MultiObjectiveProblem",
    "ScalarizedObjective",
    "SchafferF2",
    "FonsecaFleming",
    "ZDT1",
    "ZDT2",
    "ZDT3",
    "dominates",
    "pareto_front",
    "hypervolume_2d",
    # suites
    "SPECTRUM",
]


#: the spectrum's members by name (the difficulty class the survey cites:
#: "easy, deceptive, multimodal, NP-Complete, and epistatic search
#: landscapes"), each built from the suite's seed alone — every seeded
#: member draws from its own generator
SPECTRUM: dict[str, Callable[[int], Problem]] = {
    "easy": lambda seed: OneMax(64),
    "deceptive": lambda seed: DeceptiveTrap(blocks=16, k=4),
    "multimodal": lambda seed: PPeaks(p=64, length=64, seed=seed),
    "np-complete": lambda seed: MaxSat(n_vars=48, n_clauses=200, seed=seed),
    "epistatic": lambda seed: NKLandscape(n=48, k=4, seed=seed, exact_optimum=False),
}
