"""Pinned trajectories of the specialized island model, both drivers.

Each case runs one seeded SIM model (the untimed
:class:`~repro.parallel.specialized.SpecializedIslandModel` or the
cluster-timed :class:`~repro.parallel.specialized.SimulatedSpecializedIslandModel`)
for ``EPOCHS`` epochs and pins: a sha256 over every subEA's genomes,
fitnesses, origins and birth generations; the evaluation count; migrants
sent and accepted; a sha256 of the archive's objective bytes; the
hypervolume; the trace digest; and the model generator's next draw
afterwards (so a change that consumes a different amount of migration
randomness still fails).

The table in ``fixtures/specialized_streams.json`` covers the seven
standard scenarios plus a two-subEA scenario that migrates every epoch,
on SchafferF2 and ZDT1(6), under every migrant selection
``best``/``random``/``roulette`` crossed with every immigrant replacement
``worst``/``worst-if-better``/``similar`` (rate 1 or 3, alternating).
``EPOCHS`` exceeds the standard scenarios' migration interval, so every
multi-subEA case migrates at least once.

Regenerate (only for an intentional stream change, with a re-pin of the
experiment fingerprints):
``PYTHONPATH=src python tests/parallel/test_specialized_pins.py > tests/parallel/fixtures/specialized_streams.json``
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
from repro.migration import MigrationPolicy
from repro.parallel import (
    SIMScenario,
    SimulatedSpecializedIslandModel,
    SpecializedIslandModel,
    standard_scenarios,
)
from repro.problems import ZDT1, SchafferF2

PINS = Path(__file__).parent / "fixtures" / "specialized_streams.json"

EPOCHS, POPULATION = 6, 8

SCENARIOS = {
    s.name: s
    for s in [
        *standard_scenarios(),
        SIMScenario("every-epoch", ((1.0, 0.0), (0.0, 1.0)), migration_interval=1),
    ]
}

PROBLEMS = {
    "schaffer-f2": SchafferF2,
    "zdt1-6": lambda: ZDT1(dims=6),
}

POLICIES = {
    f"r{1 + 2 * ((s + r) % 2)}-{selection}-{replacement}": MigrationPolicy(
        rate=1 + 2 * ((s + r) % 2), selection=selection, replacement=replacement
    )
    for s, selection in enumerate(("best", "random", "roulette"))
    for r, replacement in enumerate(("worst", "worst-if-better", "similar"))
}


def cases():
    for driver in ("untimed", "timed"):
        for scenario in SCENARIOS:
            for problem in PROBLEMS:
                for policy in POLICIES:
                    yield f"{driver}/{scenario}/{problem}/{policy}"


def run_case(case: str) -> dict:
    driver, scenario, problem, policy = case.split("/")
    args = (PROBLEMS[problem](), SCENARIOS[scenario], GAConfig(population_size=POPULATION))
    kwargs = {"policy": POLICIES[policy], "seed": zlib.crc32(case.encode())}
    if driver == "untimed":
        trace = Trace()
        model = SpecializedIslandModel(*args, trace=trace, **kwargs)
        report = model.run(epochs=EPOCHS)
    else:
        model = SimulatedSpecializedIslandModel(*args, max_epochs=EPOCHS, **kwargs)
        report = model.run()
        trace = model.cluster.trace
    h = hashlib.sha256()
    for i, deme in enumerate(model.demes):
        h.update(f"deme {i}\n".encode())
        for ind in deme.population:
            h.update(ind.genome.tobytes())
            h.update(struct.pack("<d", ind.require_fitness()))
            h.update(f"|{ind.origin}|{ind.birth_generation}\n".encode())
    archive = report.archive_objectives
    return {
        "demes": h.hexdigest(),
        "evaluations": report.evaluations,
        "sent": report.migrants_sent,
        "accepted": report.migrants_accepted,
        "archive": hashlib.sha256(
            f"{archive.shape}".encode() + archive.tobytes()
        ).hexdigest(),
        "hypervolume": report.hypervolume,
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
