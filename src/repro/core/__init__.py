"""Core sequential GA machinery: genomes, operators, engines.

Everything a *simple GA* (the survey's §1.1) needs; parallel models in
:mod:`repro.parallel` are built by composing these pieces with topologies,
migration and a (simulated or real) parallel machine.
"""

from .callbacks import Callback
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
from .individual import Individual, best_of, sort_by_fitness
from .population import Population
from .problem import Problem, stack_genomes
from .rng import ensure_rng, spawn_rngs
from .variation import offspring_pair
from .vectorized import supports_vectorized_variation, vector_offspring
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
    "best_of",
    "sort_by_fitness",
    "Population",
    "Problem",
    "stack_genomes",
    "ensure_rng",
    "spawn_rngs",
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
    "supports_vectorized_variation",
    "vector_offspring",
    "EngineSnapshot",
    "snapshot_engine",
    "restore_engine",
    "save_checkpoint",
    "load_checkpoint",
]
