"""Engine checkpointing: save/resume long evolutionary runs.

Gagné's *transparency/robustness* requirements apply to the driver process
too: a cluster run that dies at generation 900 of 1000 should resume, not
restart.  Engines (and island ensembles, which are lists of engines) are
plain Python objects over NumPy state, so checkpoints are pickles of a
narrow, versioned snapshot — populations, RNG state, counters — rather
than of whole engine objects (which would drag problem closures along).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .callbacks import GenerationRecord
from .engine import EvolutionEngine
from .individual import Individual
from .population import Population

__all__ = ["EngineSnapshot", "snapshot_engine", "restore_engine", "save_checkpoint", "load_checkpoint"]

# v2: adds best-individual provenance (birth_generation, origin) and the
# History records, so resumed runs report the same trajectory they lived
# v3: adds per-individual `origins`, so a resumed population keeps its
# provenance tags instead of reporting every member as freshly initialized
_FORMAT_VERSION = 3
_OLDEST_SUPPORTED_VERSION = 3


@dataclass
class EngineSnapshot:
    """Pickled engine state (not the engine object itself)."""

    version: int
    generation: int
    evaluations: int
    stagnant_generations: int
    genomes: list[np.ndarray]
    fitnesses: list[float]
    birth_generations: list[int]
    origins: list[str]
    best_genome: np.ndarray
    best_fitness: float
    rng_state: dict[str, Any]
    best_birth_generation: int = 0
    best_origin: str = "init"
    history_records: list[GenerationRecord] = field(default_factory=list)


def snapshot_engine(engine: EvolutionEngine) -> EngineSnapshot:
    """Capture everything needed to resume ``engine`` deterministically."""
    if engine.population is None:
        raise ValueError("cannot snapshot an uninitialised engine")
    best = engine.best_so_far
    return EngineSnapshot(
        version=_FORMAT_VERSION,
        generation=engine.state.generation,
        evaluations=engine.state.evaluations,
        stagnant_generations=engine.state.stagnant_generations,
        genomes=[ind.genome.copy() for ind in engine.population],
        fitnesses=[ind.require_fitness() for ind in engine.population],
        birth_generations=[ind.birth_generation for ind in engine.population],
        origins=[ind.origin for ind in engine.population],
        best_genome=best.genome.copy(),
        best_fitness=best.require_fitness(),
        rng_state=engine.rng.bit_generator.state,
        best_birth_generation=best.birth_generation,
        best_origin=best.origin,
        history_records=list(engine.history.records),
    )


def restore_engine(engine: EvolutionEngine, snapshot: EngineSnapshot) -> None:
    """Load ``snapshot`` into a freshly constructed engine.

    The engine must wrap the same problem/config; resuming then continues
    the exact trajectory the snapshotted run would have taken, and the
    engine's :class:`~repro.core.callbacks.History` picks up exactly where
    the snapshotted run's left off (pre-restore records are discarded).
    """
    if not _OLDEST_SUPPORTED_VERSION <= snapshot.version <= _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {snapshot.version} not in supported range "
            f"[{_OLDEST_SUPPORTED_VERSION}, {_FORMAT_VERSION}]"
        )
    # zip would silently truncate the population to the shortest list
    n = len(snapshot.genomes)
    for name in ("fitnesses", "birth_generations", "origins"):
        count = len(getattr(snapshot, name))
        if count != n:
            raise ValueError(f"checkpoint has {count} {name} for {n} genomes")
    individuals = []
    for genome, fitness, birth, origin in zip(
        snapshot.genomes, snapshot.fitnesses, snapshot.birth_generations, snapshot.origins
    ):
        ind = Individual(genome=genome.copy(), birth_generation=birth, origin=origin)
        ind.fitness = fitness
        individuals.append(ind)
    engine.population = Population(individuals, maximize=engine.problem.maximize)
    engine.state.generation = snapshot.generation
    engine.state.evaluations = snapshot.evaluations
    engine.state.stagnant_generations = snapshot.stagnant_generations
    engine.state.best_fitness = snapshot.best_fitness
    engine.state.maximize = engine.problem.maximize
    best = Individual(
        genome=snapshot.best_genome.copy(),
        birth_generation=snapshot.best_birth_generation,
        origin=snapshot.best_origin,
    )
    best.fitness = snapshot.best_fitness
    engine._best_so_far = best
    engine.history.records[:] = list(snapshot.history_records)
    engine.rng.bit_generator.state = snapshot.rng_state


def save_checkpoint(engine: EvolutionEngine, path: str | Path) -> Path:
    """Snapshot ``engine`` to ``path`` (atomic-ish: write then rename)."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(snapshot_engine(engine), fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.rename(path)
    return path


def load_checkpoint(engine: EvolutionEngine, path: str | Path) -> EvolutionEngine:
    """Restore ``engine`` in place from ``path``; returns the engine."""
    with open(path, "rb") as fh:
        try:
            snapshot = pickle.load(fh)
        except Exception as exc:  # truncated or garbage bytes raise assorted types
            raise ValueError(f"{path}: not a readable checkpoint") from exc
    if not isinstance(snapshot, EngineSnapshot):
        raise ValueError(f"{path} does not contain an EngineSnapshot")
    restore_engine(engine, snapshot)
    return engine
