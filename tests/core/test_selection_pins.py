"""Pinned picks of the built-in selection operators.

Each case runs one operator on one fitness pool from a fixed generator
state and pins two things: the row indices it picks and the generator's
next draw after the call (so a change that picks the same rows but
consumes a different amount of randomness still fails).  The table in
``fixtures/selection_picks.json`` was recorded from the operators'
``__call__`` before selection was rewritten around ``indices``; both
entry points must keep reproducing it exactly, since every engine
fingerprint downstream depends on these streams.

Regenerate (only for an intentional stream change, with a re-pin of the
experiment fingerprints):
``PYTHONPATH=src python tests/core/test_selection_pins.py > tests/core/fixtures/selection_picks.json``
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.individual import Individual
from repro.core.operators.selection import (
    BestSelection,
    BoltzmannSelection,
    LinearRankSelection,
    RandomSelection,
    RouletteWheelSelection,
    StochasticUniversalSampling,
    TournamentSelection,
    TruncationSelection,
)

PINS = Path(__file__).parent / "fixtures" / "selection_picks.json"

OPERATORS = {
    "tournament2": TournamentSelection(2),
    "tournament3": TournamentSelection(3),
    "roulette": RouletteWheelSelection(),
    "rank1.7": LinearRankSelection(),
    "rank1.2": LinearRankSelection(sp=1.2),
    "sus": StochasticUniversalSampling(),
    "truncation0.5": TruncationSelection(),
    "truncation0.3": TruncationSelection(0.3),
    "boltzmann1": BoltzmannSelection(),
    "boltzmann0.4": BoltzmannSelection(temperature=0.4),
    "random": RandomSelection(),
    "best": BestSelection(),
}

POOLS = {
    "distinct": [5.0, 2.0, 8.0, 1.0, 4.0, 7.0, 3.0],
    "ties": [4.0, 4.0, 1.0, 4.0, 1.0, 9.0, 9.0, 4.0],
    "all-equal": [2.5, 2.5, 2.5, 2.5, 2.5],
    "signed": [-3.0, 0.5, -0.25, 12.0, -3.0, 6.0],
    "one": [3.0],
}

COUNTS = (1, 6, 7)


def cases():
    for op_name in OPERATORS:
        for pool_name in POOLS:
            for n in COUNTS:
                for maximize in (True, False):
                    yield f"{op_name}/{pool_name}/n{n}/{'max' if maximize else 'min'}"


def parse(case: str):
    op_name, pool_name, n, direction = case.split("/")
    return OPERATORS[op_name], POOLS[pool_name], int(n[1:]), direction == "max"


def rng_for(case: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(case.encode()))


def next_draw(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def members(pool):
    return [Individual(genome=np.zeros(2), fitness=f) for f in pool]


def picks_via_call(case: str) -> tuple[list[int], int]:
    op, pool, n, maximize = parse(case)
    individuals = members(pool)
    rng = rng_for(case)
    picked = op(rng, individuals, n, maximize)
    row = {id(ind): i for i, ind in enumerate(individuals)}
    return [row[id(ind)] for ind in picked], next_draw(rng)


def picks_via_indices(case: str) -> tuple[list[int], int]:
    op, pool, n, maximize = parse(case)
    rng = rng_for(case)
    idx = op.indices(rng, np.asarray(pool), n, maximize)
    assert idx.dtype == np.int64 and idx.shape == (n,)
    return idx.tolist(), next_draw(rng)


def _pinned() -> dict:
    return json.loads(PINS.read_text())


def test_table_covers_every_case():
    assert sorted(_pinned()) == sorted(cases())


@pytest.mark.parametrize("case", list(cases()))
def test_call_reproduces_pinned_picks(case):
    picks, draw = _pinned()[case]
    assert picks_via_call(case) == (picks, draw)


@pytest.mark.parametrize("case", list(cases()))
def test_indices_reproduces_pinned_picks(case):
    picks, draw = _pinned()[case]
    assert picks_via_indices(case) == (picks, draw)


if __name__ == "__main__":
    rows = [f"{json.dumps(case)}: {json.dumps(picks_via_call(case))}" for case in cases()]
    print("{\n" + ",\n".join(rows) + "\n}")
