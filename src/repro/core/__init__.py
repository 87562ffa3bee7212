"""Core sequential GA machinery: genomes, operators, engines.

Everything a *simple GA* (the survey's §1.1) needs; parallel models in
:mod:`repro.parallel` are built by composing these pieces with topologies,
migration and a (simulated or real) parallel machine.
"""

from .callbacks import Callback, CallbackList, History, LambdaCallback
from .checkpoint import (
    EngineSnapshot,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
    snapshot_engine,
)
from .config import GAConfig
from .engine import (
    EvolutionEngine,
    EvolutionResult,
    FitnessEvaluator,
    GenerationalEngine,
    SerialEvaluator,
    SteadyStateEngine,
)
from .genome import (
    BinarySpec,
    GenomeSpec,
    IntegerVectorSpec,
    PermutationSpec,
    RealVectorSpec,
)
from .individual import Individual, best_of, better, sort_by_fitness, worst_of
from .niching import SharedFitnessProblem, distinct_peaks, niche_counts
from .population import Population, PopulationStats
from .problem import CountingProblem, FitnessBudgetExceeded, Problem, stack_genomes
from .rng import derive_rng, ensure_rng, spawn_rngs, spawn_seeds
from .variation import offspring_pair
from .vectorized import (
    ArrayPopulation,
    supports_vectorized_variation,
    vector_offspring,
)
from .termination import (
    AllOf,
    AnyOf,
    EvolutionState,
    MaxEvaluations,
    MaxGenerations,
    Never,
    Stagnation,
    TargetFitness,
    Termination,
)

__all__ = [
    "Callback",
    "CallbackList",
    "History",
    "LambdaCallback",
    "GAConfig",
    "EvolutionEngine",
    "EvolutionResult",
    "FitnessEvaluator",
    "GenerationalEngine",
    "SerialEvaluator",
    "SteadyStateEngine",
    "GenomeSpec",
    "BinarySpec",
    "RealVectorSpec",
    "PermutationSpec",
    "IntegerVectorSpec",
    "Individual",
    "better",
    "best_of",
    "worst_of",
    "sort_by_fitness",
    "Population",
    "PopulationStats",
    "SharedFitnessProblem",
    "niche_counts",
    "distinct_peaks",
    "Problem",
    "CountingProblem",
    "stack_genomes",
    "FitnessBudgetExceeded",
    "ensure_rng",
    "spawn_rngs",
    "spawn_seeds",
    "derive_rng",
    "EvolutionState",
    "Termination",
    "MaxGenerations",
    "MaxEvaluations",
    "TargetFitness",
    "Stagnation",
    "Never",
    "AnyOf",
    "AllOf",
    "offspring_pair",
    "ArrayPopulation",
    "supports_vectorized_variation",
    "vector_offspring",
    "EngineSnapshot",
    "snapshot_engine",
    "restore_engine",
    "save_checkpoint",
    "load_checkpoint",
]
