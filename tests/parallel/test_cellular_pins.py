"""Pinned trajectories of the cellular GA under every update policy.

Each case runs one seeded :class:`~repro.parallel.cellular.CellularGA` for
``SWEEPS`` sweeps and pins three things: a sha256 over every cell's genome
bytes, fitness, origin and birth generation; the evaluation count; and the
generator's next draw afterwards (so a change that leaves the grid alone
but consumes a different amount of randomness still fails).  The table in
``fixtures/cellular_streams.json`` covers each update policy on a
maximising, a minimising and a real-coded problem, under the default
variation rates and under ``crossover_prob=1, mutation_prob=0.5``.

The two cellular exemplars' trace digests are pinned alongside, since the
island-of-grids hybrid and the strip-distributed host drive the same
sweeps.

Regenerate (only for an intentional stream change, with a re-pin of the
experiment fingerprints):
``PYTHONPATH=src python tests/parallel/test_cellular_pins.py > tests/parallel/fixtures/cellular_streams.json``
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.core import GAConfig
from repro.parallel import UPDATE_POLICIES, CellularGA
from repro.problems import OneMax, Rastrigin, ZeroMax
from repro.verify.engines import contract_run

PINS = Path(__file__).parent / "fixtures" / "cellular_streams.json"

ROWS, COLS, SWEEPS = 4, 5, 6

PROBLEMS = {
    "onemax": lambda: OneMax(16),
    "zeromax": lambda: ZeroMax(16),
    "rastrigin": lambda: Rastrigin(4),
}

CONFIGS = {
    "default": lambda: None,
    "cx1-mut0.5": lambda: GAConfig(crossover_prob=1.0, mutation_prob=0.5),
}

#: sha256 of each exemplar's trace (``python -m repro.verify engines``)
EXEMPLAR_DIGESTS = {
    "cellular-island": (
        "4381db688e22562ecd8a1a44a2c1d324444699f9bca413e5b6799aa29bcafc66"
    ),
    "distributed-cellular": (
        "6f4684bc3e9c7a13d98e53c5b7416c47ef0bed3c7893c7a433a8c676c36f460a"
    ),
}


def cases():
    for policy in UPDATE_POLICIES:
        for problem in PROBLEMS:
            for config in CONFIGS:
                yield f"{policy}/{problem}/{config}"


def run_case(case: str) -> dict:
    policy, problem, config = case.split("/")
    cga = CellularGA(
        PROBLEMS[problem](),
        CONFIGS[config](),
        rows=ROWS,
        cols=COLS,
        update=policy,
        seed=zlib.crc32(case.encode()),
    )
    cga.initialize()
    for _ in range(SWEEPS):
        cga.step()
    h = hashlib.sha256()
    for cell in cga.population:
        h.update(cell.genome.tobytes())
        h.update(struct.pack("<d", cell.require_fitness()))
        h.update(f"|{cell.origin}|{cell.birth_generation}\n".encode())
    return {
        "cells": h.hexdigest(),
        "evaluations": cga.state.evaluations,
        "next_draw": int(cga.rng.integers(0, 2**62)),
    }


def _pinned() -> dict:
    return json.loads(PINS.read_text())


def test_table_covers_every_case():
    assert sorted(_pinned()) == sorted(cases())


@pytest.mark.parametrize("case", list(cases()))
def test_sweeps_reproduce_pinned_trajectory(case):
    assert run_case(case) == _pinned()[case]


@pytest.mark.parametrize("name", sorted(EXEMPLAR_DIGESTS))
def test_exemplar_trace_digest_is_pinned(name):
    trace, _ = contract_run(name)
    assert trace.digest_hex() == EXEMPLAR_DIGESTS[name]


if __name__ == "__main__":
    rows = [f"{json.dumps(case)}: {json.dumps(run_case(case))}" for case in cases()]
    print("{\n" + ",\n".join(rows) + "\n}")
