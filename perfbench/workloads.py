"""Workload generators: re-seeded slices of the experiment suite's spec grid.

Every workload starts from the ``experiment_specs(<id>, quick=True)``
templates, keeps each distinct configuration once, cuts or widens its
budget so that one pass takes a few seconds, and re-derives every
top-level ``RunSpec.seed`` from the workload seed.  The program only ever
receives the generated specs, run through ``repro.runtime.sweep.run_sweep``
as spec-backed trials.

Why each workload exists (see ``README.md`` for the layer map):

``islands``
    Variation-bound island runs (E3, E4, E6) on problems with a batched
    ``evaluate_batch`` kernel.  The scalar ``offspring_pair`` cycle
    dominates; fitness evaluation is a small share.
``apps``
    Evaluation-bound E12 runs: ``ReactorCoreDesign`` costs milliseconds
    per genome and has no batch kernel, so the problem layer dominates and
    variation barely matters.
``farm``
    Message-heavy cluster-timed runs (E2 master-slave widened to 256
    one-chunk workers, E13 supervised islands under fault plans) with full
    trace retention, dispatched cold then warm through a fresh sweep cache.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.config import GAConfig
from repro.experiments import experiment_specs
from repro.runtime.sweep import Trial
from repro.spec import OperatorSpec, RunSpec, spec_digest

__all__ = [
    "WORKLOADS",
    "Workload",
    "generate",
    "derive_seed",
    "summarize",
    "evaluation_budget",
]

# -- budgets: one pass of each workload fits a few seconds on one core ---------------

#: islands: evaluation cap of the E3/E4/E6 ``island`` specs
ISLAND_EVALUATIONS = 1_500
#: islands: generation cap of the E6 convergence-speed specs
ISLAND_GENERATIONS = 12
#: islands: epoch cap of the E3 ``sim-island`` specs
SIM_ISLAND_EPOCHS = 10
#: apps: evaluation caps (a reactor genome costs ~7 ms, a stock genome ~40 us)
REACTOR_EVALUATIONS = 150
STOCK_EVALUATIONS = 1_000
#: apps: seeds per distinct configuration.  Six stock and four reactor trials
#: a pass put the latency p50 among stock runs and the p75 among reactor runs,
#: away from the jump between the two
REACTOR_REPLICAS = 2
STOCK_REPLICAS = 3
#: farm: workers of every E2 master-slave farm (the quick grid has 1-16), one
#: chunk each; a 64-genome generation then costs far more dispatch than variation
FARM_WORKERS = 256
#: farm: generations per E2 master-slave run (the quick grid uses 5)
FARM_GENERATIONS = 10


@dataclass(frozen=True)
class Workload:
    """One generated workload: the trials of a pass and how to run them."""

    name: str
    seed: int
    trials: tuple[Trial, ...]
    #: run every pass twice through one fresh on-disk cache (cold, then warm)
    cached: bool
    #: passes a run makes at least, so the latency tail has enough trials
    min_passes: int


def derive_seed(workload: str, seed: int, index: int) -> int:
    """Engine seed of trial ``index``: a hash of the workload seed."""
    blob = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(blob[:4], "big")


def _templates(*experiment_ids: str) -> list[dict[str, Any]]:
    """Distinct configurations of the experiments' quick grids, as spec
    documents in dispatch order; specs that differ only by seed count once."""
    seen: set[str] = set()
    docs = []
    for eid in experiment_ids:
        for spec in experiment_specs(eid, quick=True):
            doc = spec.to_dict()
            doc["seed"] = None
            key = spec_digest(doc)
            if key not in seen:
                seen.add(key)
                docs.append(doc)
    return docs


def _cap_termination(doc: dict[str, Any], *, evaluations: int, generations: int) -> None:
    term = doc["run"]["termination"]
    if isinstance(term, int):
        doc["run"]["termination"] = min(term, generations)
        return
    params = term["params"]
    if term["name"] == "max-evaluations":
        params["limit"] = min(params["limit"], evaluations)
    elif term["name"] == "max-generations":
        params["limit"] = min(params["limit"], generations)
    else:
        raise ValueError(f"no budget rule for termination {term['name']!r}")


def _islands() -> list[dict[str, Any]]:
    docs = _templates("E3", "E4", "E6")
    for doc in docs:
        if doc["engine"]["name"] == "sim-island":
            params = doc["engine"]["params"]
            params["max_epochs"] = min(params["max_epochs"], SIM_ISLAND_EPOCHS)
        else:
            _cap_termination(
                doc, evaluations=ISLAND_EVALUATIONS, generations=ISLAND_GENERATIONS
            )
    return docs


def _apps() -> list[dict[str, Any]]:
    stock, reactor = [], []
    for doc in _templates("E12"):
        if doc["engine"]["params"]["problem"]["name"] == "reactor-core":
            _cap_termination(doc, evaluations=REACTOR_EVALUATIONS, generations=0)
            reactor += [copy.deepcopy(doc) for _ in range(REACTOR_REPLICAS)]
        else:
            _cap_termination(doc, evaluations=STOCK_EVALUATIONS, generations=0)
            stock += [copy.deepcopy(doc) for _ in range(STOCK_REPLICAS)]
    # a light stock run first: the set-up warm-up runs the first trial
    return stock + reactor


def _farm() -> list[dict[str, Any]]:
    docs = []
    for doc in _templates("E2"):
        params = doc["engine"]["params"]
        params["cluster"]["n_nodes"] = FARM_WORKERS + 1
        params["chunks_per_worker"] = 1
        doc["run"]["termination"] = FARM_GENERATIONS
        docs.append(doc)
    for doc in _templates("E13"):
        params = doc["engine"]["params"]
        # the reliable+supervisor arm under a fault plan
        if params["supervised"] and params["cluster"]["fault_plan"] is not None:
            docs.append(doc)
    return docs


_GENERATORS: dict[str, tuple[Callable[[], list[dict[str, Any]]], str, bool, int]] = {
    # name: (documents, trace retention, cached, min passes)
    # islands: five passes of 43 trials put the tail at p95, among the few
    # heavy trials; the p75 sat among many close ones and wandered between runs
    "islands": (_islands, "compact", False, 5),
    "apps": (_apps, "compact", False, 4),
    # farm: five passes of 23 executed trials put the tail at p90
    "farm": (_farm, "full", True, 5),
}

WORKLOADS = tuple(_GENERATORS)


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for workload seed ``seed`` (deterministic)."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    documents, retention, cached, min_passes = _GENERATORS[name]
    trials = []
    for index, doc in enumerate(documents()):
        doc["seed"] = derive_seed(name, seed, index)
        spec = RunSpec.from_dict(doc)
        trials.append(Trial(summarize, spec=spec, seed=spec.seed, retention=retention))
    return Workload(name, seed, tuple(trials), cached, min_passes)


def summarize(result: Any) -> dict[str, Any]:
    """Trial extraction: the plain data the correctness gate checks."""
    best = result.best
    return {
        "best_fitness": float(best.require_fitness()),
        "genome": best.genome.copy(),
        "evaluations": int(result.evaluations),
        "recoveries": int(getattr(result, "recoveries", 0)),
    }


def _generation_size(spec: RunSpec) -> int:
    """Evaluations one generation (or epoch) of the run costs."""
    params = spec.engine.params
    if params.get("total_population") is not None:
        return int(params["total_population"])
    config = params.get("config")
    pop = config.params.get("population_size") if config is not None else None
    pop = int(pop) if pop is not None else GAConfig().population_size
    return pop * int(params.get("n_islands", 1))


def evaluation_budget(spec: RunSpec, recoveries: int = 0) -> int:
    """Most evaluations a correct run of ``spec`` may spend.

    An evaluation cap may be overshot by at most the generation that
    crosses it; a generation cap allows generation 0 plus the cap.  Each
    supervised recovery may replay a deme's generations once more.
    """
    size = _generation_size(spec)
    params = spec.engine.params
    if "max_epochs" in params:
        return (int(params["max_epochs"]) + 1) * size * (1 + recoveries)
    term = spec.run.get("termination")
    if isinstance(term, int):
        return (term + 1) * size
    if isinstance(term, OperatorSpec) and term.name == "max-evaluations":
        return int(term.params["limit"]) + size
    if isinstance(term, OperatorSpec) and term.name == "max-generations":
        return (int(term.params["limit"]) + 1) * size
    raise ValueError(f"no evaluation budget rule for {spec.engine.name!r} run {spec.run!r}")
