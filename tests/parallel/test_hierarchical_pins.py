"""Pinned trajectories of the hierarchical GA.

Each case runs one seeded :class:`~repro.parallel.hierarchical.HierarchicalGA`
on :class:`~repro.problems.applications.TransonicWingDesign`, traced, and
pins: a sha256 over every deme's genomes, fitnesses and birth generations
(demes in breadth-first order, top deme first); each deme's evaluation
count, best-so-far fitness and ``stagnant_generations``; the work units;
the best and work curves; the trace digest; and the model generator's
next draw afterwards (so a change that consumes a different amount of
exchange randomness still fails).

Origins are not pinned.  A migrant's origin label names where it came
from, and the result and trace fingerprints (``repro.canon``) exclude
origins, so a relabelling of arrivals is not a stream change.

The ``stagnant_generations`` pin matters: an arrival that beats a deme's
best-so-far becomes it during the exchange, so the deme's next step sees
no improvement and counts a stagnant generation.  Deferring that update
to the next step diverges as soon as elitism is off.

The table in ``fixtures/hierarchical_streams.json`` covers E7's two
configurations (3 layers, branching 2, interval 3, elitism 1, population
16 for 20 epochs and 24 for 50), the registered exemplar, and every tree
of 1-4 layers x branching 1-3 under exchange intervals 1 and 5, with and
without elitism.

Regenerate (only for an intentional stream change, with a re-pin of the
experiment fingerprints):
``PYTHONPATH=src python tests/parallel/test_hierarchical_pins.py > tests/parallel/fixtures/hierarchical_streams.json``
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.cluster import Trace
from repro.core import GAConfig
from repro.parallel import HierarchicalGA
from repro.problems.applications import TransonicWingDesign
from repro.verify.specs import execute, exemplar_spec

PINS = Path(__file__).parent / "fixtures" / "hierarchical_streams.json"

GRID_EPOCHS, GRID_POPULATION = 12, 8

#: E7's hierarchy: (population, epochs) of its quick and full runs
E7_RUNS = {"pop16": (16, 20), "pop24": (24, 50)}
E7_SEED = 900


def cases():
    for name in E7_RUNS:
        yield f"e7/{name}"
    for seed in (0, 1):
        yield f"exemplar/seed{seed}"
    for layers in (1, 2, 3, 4):
        for branching in (1, 2, 3):
            for interval in (1, 5):
                for elitism in (0, 1):
                    yield f"tree/L{layers}-b{branching}/i{interval}/e{elitism}"


def _build(case: str) -> tuple[HierarchicalGA, Trace, object]:
    kind, *rest = case.split("/")
    if kind == "exemplar":
        model, trace, report = execute(exemplar_spec("hierarchical", seed=int(rest[0][4:])))
        return model, trace, report
    trace = Trace()
    if kind == "e7":
        population, epochs = E7_RUNS[rest[0]]
        model = HierarchicalGA(
            TransonicWingDesign(),
            GAConfig(population_size=population, elitism=1),
            layers=3,
            branching=2,
            migration_interval=3,
            seed=E7_SEED,
            trace=trace,
        )
        return model, trace, model.run(max_epochs=epochs)
    shape, interval, elitism = rest
    layers, branching = (int(part[1:]) for part in shape.split("-"))
    model = HierarchicalGA(
        TransonicWingDesign(),
        GAConfig(population_size=GRID_POPULATION, elitism=int(elitism[1:])),
        layers=layers,
        branching=branching,
        migration_interval=int(interval[1:]),
        seed=zlib.crc32(case.encode()),
        trace=trace,
    )
    return model, trace, model.run(max_epochs=GRID_EPOCHS)


def run_case(case: str) -> dict:
    model, trace, report = _build(case)
    h = hashlib.sha256()
    for i, deme in enumerate(model.demes):
        h.update(f"deme {i}\n".encode())
        for ind in deme.population:
            h.update(ind.genome.tobytes())
            h.update(struct.pack("<d", ind.require_fitness()))
            h.update(f"|{ind.birth_generation}\n".encode())
    return {
        "demes": h.hexdigest(),
        "evaluations": [d.state.evaluations for d in model.demes],
        "best_so_far": [d.best_so_far.require_fitness() for d in model.demes],
        "stagnant": [d.state.stagnant_generations for d in model.demes],
        "work_units": report.work_units,
        "best_curve": report.best_curve,
        "work_curve": report.work_curve,
        "trace": trace.digest_hex(),
        "next_draw": int(model.rng.integers(0, 2**62)),
    }


def _pinned() -> dict:
    return json.loads(PINS.read_text())


def test_table_covers_every_case():
    assert sorted(_pinned()) == sorted(cases())


@pytest.mark.parametrize("case", list(cases()))
def test_epochs_reproduce_pinned_trajectory(case):
    assert run_case(case) == _pinned()[case]


if __name__ == "__main__":
    rows = [f"{json.dumps(case)}: {json.dumps(run_case(case))}" for case in cases()]
    print("{\n" + ",\n".join(rows) + "\n}")
