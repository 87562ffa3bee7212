"""Pinned trajectories of the two generation-free farms.

Each case runs one seeded :class:`~repro.parallel.SimulatedAsyncMasterSlave`
(the asynchronous master-slave farm) or :class:`~repro.parallel.PooledEvolution`
(the DRM-style pool) and pins: the result fingerprint of its report, the
trace digest, a sha256 over the final population's genomes and fitnesses,
and the farm's (the pool's) generator's next draw afterwards — so a change
that breeds, scores or evicts through a different path, or consumes a
different amount of randomness, fails here.

The async grid crosses OneMax(24) and Rastrigin(4) with the worst,
random, worst-if-better, oldest and similar replacement rules, tournament
and roulette selection, a homogeneous and a heterogeneous speed set, a
fault-free cluster and one with a permanent slave crash plus an outage,
seeds 0-1 and budgets of 60 and 400 evaluations (population 10).  The
pool grid crosses OneMax(24) and SubsetSum(24) with 3 and 5 nodes, the
same fault switch, seeds 0-2, batches of 2-4 and 10 or 60 transactions.

Regenerate (only for an intentional stream change):
``PYTHONPATH=src python tests/parallel/test_farm_pins.py > tests/parallel/fixtures/farm_streams.json``
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import pytest

from repro.cluster import FaultPlan, Network, SimulatedCluster, wan_internet
from repro.core import GAConfig
from repro.core.operators import (
    ReplaceOldest,
    ReplaceRandom,
    ReplaceSimilar,
    ReplaceWorst,
    ReplaceWorstIfBetter,
    RouletteWheelSelection,
    TournamentSelection,
)
from repro.parallel import PooledEvolution, SimulatedAsyncMasterSlave
from repro.problems import OneMax, Rastrigin, SubsetSum
from repro.verify.digest import result_fingerprint

PINS = Path(__file__).parent / "fixtures" / "farm_streams.json"

POPULATION = 10

PROBLEMS = {"onemax-24": lambda: OneMax(24), "rastrigin-4": lambda: Rastrigin(4)}

POOL_PROBLEMS = {
    "onemax-24": lambda: OneMax(24),
    "subset-sum-24": lambda: SubsetSum(n=24, seed=2),
}

REPLACEMENTS = {
    "worst": ReplaceWorst,
    "random": ReplaceRandom,
    "worst-if-better": ReplaceWorstIfBetter,
    "oldest": ReplaceOldest,
    "similar": ReplaceSimilar,
}

SELECTIONS = {"tournament": TournamentSelection, "roulette": RouletteWheelSelection}

SPEEDS = {"even": (1.0, 1.0, 1.0, 1.0), "mixed": (1.0, 2.0, 0.5, 1.0)}

INF = math.inf


def async_cases():
    for problem in PROBLEMS:
        for replacement in REPLACEMENTS:
            for selection in SELECTIONS:
                for speeds in SPEEDS:
                    for faults in ("clean", "faults"):
                        for seed in (0, 1):
                            for budget in (60, 400):
                                yield (
                                    f"async/{problem}/{replacement}/{selection}/"
                                    f"{speeds}/{faults}/s{seed}/b{budget}"
                                )


def pool_cases():
    for problem in POOL_PROBLEMS:
        for nodes in (3, 5):
            for faults in ("clean", "faults"):
                for seed in (0, 1, 2):
                    for batch in (2, 3, 4):
                        for transactions in (10, 60):
                            yield (
                                f"pool/{problem}/n{nodes}/{faults}/s{seed}/"
                                f"k{batch}/t{transactions}"
                            )


def cases():
    yield from async_cases()
    yield from pool_cases()


def _fault_plan(n: int, crash: float, outage: tuple[float, float]) -> FaultPlan:
    """Node 1 crashes for good at ``crash``; node 2 is down over ``outage``."""
    intervals = [(), ((crash, INF),), (outage,)] + [()] * (n - 3)
    return FaultPlan(intervals=tuple(intervals))


def _build(case: str):
    """The case's model and a thunk that runs it."""
    kind, *rest = case.split("/")
    if kind == "async":
        problem, replacement, selection, speeds, faults, seed, budget = rest
        config = GAConfig(
            population_size=POPULATION,
            selection=SELECTIONS[selection](),
            replacement=REPLACEMENTS[replacement](),
        )
        n = len(SPEEDS[speeds])
        cluster = SimulatedCluster(
            n,
            speeds=SPEEDS[speeds],
            network=Network(n, latency=1e-4, bandwidth=1e7),
            fault_plan=_fault_plan(n, 0.05, (0.02, 0.1)) if faults == "faults" else None,
        )
        model = SimulatedAsyncMasterSlave(
            PROBLEMS[problem](), config, cluster=cluster, eval_cost=1e-2,
            seed=int(seed[1:]),
        )
        return model, lambda: model.run(max_evaluations=int(budget[1:]))
    problem, nodes, faults, seed, batch, transactions = rest
    n = int(nodes[1:])
    cluster = SimulatedCluster(
        n,
        network=wan_internet().build(n),
        fault_plan=_fault_plan(n, 0.35, (0.15, 0.45)) if faults == "faults" else None,
    )
    model = PooledEvolution(
        POOL_PROBLEMS[problem](),
        GAConfig(population_size=POPULATION),
        cluster=cluster,
        eval_cost=1e-3,
        batch=int(batch[1:]),
        max_transactions=int(transactions[1:]),
        seed=int(seed[1:]),
    )
    return model, model.run


def run_case(case: str) -> dict:
    model, run = _build(case)
    report = run()
    h = hashlib.sha256()
    for ind in model.engine.population:
        h.update(ind.genome.tobytes())
        h.update(struct.pack("<d", ind.require_fitness()))
    return {
        "result": result_fingerprint(report),
        "trace": model.cluster.trace.digest_hex(),
        "population": h.hexdigest(),
        "next_draw": int(model.engine.rng.integers(0, 2**62)),
    }


def _pinned() -> dict:
    return json.loads(PINS.read_text())


def test_table_covers_every_case():
    assert sorted(_pinned()) == sorted(cases())


@pytest.mark.parametrize("case", list(cases()))
def test_farm_reproduces_pinned_trajectory(case):
    assert run_case(case) == _pinned()[case]


if __name__ == "__main__":
    rows = [f"{json.dumps(case)}: {json.dumps(run_case(case))}" for case in cases()]
    print("{\n" + ",\n".join(rows) + "\n}")
