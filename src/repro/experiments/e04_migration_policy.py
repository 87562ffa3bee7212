"""E4 — influence of the migration policy (Alba & Troya 2000).

"A key issue in such a coarse grain PGA was the migration policy, since it
governs the exchange of individuals among the islands.  They also
investigated the influence of migration frequency and migrant selection in
a ring of islands running either steady-state, generational, or cellular
GAs with different problem types, namely easy, deceptive, multimodal,
NP-Complete, and epistatic search landscapes."

Grid: {migration interval} x {migrant selection} x {reproduction loop} over
the five-class problem spectrum, at a fixed evaluation budget.  Shapes to
hold: migrating islands beat isolated ones on the hard classes; migrant
selection matters; both reproduction loops behave sensibly.
"""

from __future__ import annotations

import numpy as np

from ..problems import SPECTRUM
from ..runtime.sweep import Trial, run_sweep
from ..spec import RunSpec, engine, ga_config, operator, problem
from .report import ExperimentReport, TableSpec

__all__ = ["run", "trial_specs"]

N_ISLANDS = 8


def _policy_spec(
    problem_name: str,
    *,
    interval: int | None,
    selection: str,
    loop: str,
    seed: int,
    budget: int,
    pop: int,
) -> RunSpec:
    schedule = (
        operator("never") if interval is None else operator("periodic", interval=interval)
    )
    return RunSpec(
        engine=engine(
            "island",
            problem=problem("spectrum", name=problem_name, seed=7),
            n_islands=N_ISLANDS,
            config=ga_config(population_size=pop, elitism=1),
            policy=operator(
                "migration-policy",
                rate=1,
                selection=selection,
                replacement="worst-if-better",
            ),
            schedule=schedule,
            engine=loop,
        ),
        seed=seed,
        run={"termination": operator("max-evaluations", limit=budget)},
    )


def _normalised_best(report, *, problem_name: str) -> float:
    """Best fitness (normalised to optimum where known) after the budget.

    The (seeded, deterministic) spectrum problem is rebuilt by name so only
    plain data crosses the process boundary."""
    prob = SPECTRUM[problem_name](7)
    best = report.best_fitness
    if prob.optimum is not None and prob.optimum != 0:
        return best / prob.optimum if prob.maximize else prob.optimum / best
    return best


_INTERVALS: list[int | None] = [1, 4, 16, None]  # None = isolated demes
_SELECTIONS = ["best", "random", "worst"]
_LOOPS = ("generational", "steady-state")


def _grid(quick: bool) -> tuple[list[str], int, list[Trial], list[Trial], list[Trial]]:
    seeds = range(2) if quick else range(5)
    budget = 20_000 if quick else 60_000
    pop = 20 if quick else 32
    names = list(SPECTRUM)
    if quick:
        names = [k for k in names if k in ("easy", "deceptive", "np-complete")]

    def trial(name, *, interval, selection, loop, seed):
        return Trial(
            _normalised_best,
            dict(problem_name=name),
            spec=_policy_spec(
                name,
                interval=interval,
                selection=selection,
                loop=loop,
                seed=seed,
                budget=budget,
                pop=pop,
            ),
            seed=seed,
        )

    freq_trials = [
        trial(name, interval=interval, selection="best", loop="generational", seed=300 + s)
        for name in names
        for interval in _INTERVALS
        for s in seeds
    ]
    sel_trials = [
        trial(name, interval=4, selection=sel, loop="generational", seed=400 + s)
        for name in names
        for sel in _SELECTIONS
        for s in seeds
    ]
    loop_trials = [
        trial(name, interval=4, selection="best", loop=loop, seed=500 + s)
        for name in names
        for loop in _LOOPS
        for s in seeds
    ]
    return names, len(seeds), freq_trials, sel_trials, loop_trials


def trial_specs(quick: bool = False) -> list[RunSpec]:
    """Every declarative run this experiment dispatches (CLI ``specs`` verb)."""
    _, _, freq_trials, sel_trials, loop_trials = _grid(quick)
    return [s for t in freq_trials + sel_trials + loop_trials for s in t.specs]


def run(quick: bool = False) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E4",
        title="Migration frequency, migrant selection and reproduction loop "
        "across the problem spectrum",
    )
    names, n_seeds, freq_trials, sel_trials, loop_trials = _grid(quick)

    # --- frequency sweep (best-migrant, generational) -----------------------------
    intervals = _INTERVALS
    freq_table = TableSpec(
        title="Mean normalised best fitness vs migration interval "
        "(ring of 8, best-migrant, generational)",
        columns=["problem"] + [("isolated" if i is None else f"every {i}") for i in intervals],
    )
    freq_vals = iter(run_sweep("E4", freq_trials, quick=quick))
    freq_scores: dict[str, dict[int | None, float]] = {}
    for name in names:
        row: dict[int | None, float] = {}
        for interval in intervals:
            vals = [next(freq_vals) for _ in range(n_seeds)]
            row[interval] = float(np.mean(vals))
        freq_scores[name] = row
        freq_table.add_row(name, *[round(row[i], 4) for i in intervals])
    report.tables.append(freq_table)

    # --- migrant selection sweep (interval 4) ---------------------------------------
    selections = _SELECTIONS
    sel_table = TableSpec(
        title="Mean normalised best fitness vs migrant selection (interval 4)",
        columns=["problem"] + selections,
    )
    sel_vals = iter(run_sweep("E4", sel_trials, quick=quick))
    sel_scores: dict[str, dict[str, float]] = {}
    for name in names:
        row2: dict[str, float] = {}
        for sel in selections:
            vals = [next(sel_vals) for _ in range(n_seeds)]
            row2[sel] = float(np.mean(vals))
        sel_scores[name] = row2
        sel_table.add_row(name, *[round(row2[s], 4) for s in selections])
    report.tables.append(sel_table)

    # --- reproduction loop comparison -------------------------------------------------
    loop_table = TableSpec(
        title="Generational vs steady-state islands (interval 4, best-migrant)",
        columns=["problem", "generational", "steady-state"],
    )
    loop_vals = iter(run_sweep("E4", loop_trials, quick=quick))
    loop_scores: dict[str, dict[str, float]] = {}
    for name in names:
        row3: dict[str, float] = {}
        for loop in _LOOPS:
            vals = [next(loop_vals) for _ in range(n_seeds)]
            row3[loop] = float(np.mean(vals))
        loop_scores[name] = row3
        loop_table.add_row(
            name, round(row3["generational"], 4), round(row3["steady-state"], 4)
        )
    report.tables.append(loop_table)

    # --- expectations --------------------------------------------------------------------
    hard = "deceptive"
    migrating_best = max(
        freq_scores[hard][i] for i in intervals if i is not None
    )
    report.expect(
        "migration-beats-isolation-on-deceptive",
        migrating_best >= freq_scores[hard][None],
        f"best migrating {migrating_best:.4f} vs isolated "
        f"{freq_scores[hard][None]:.4f}",
    )
    easy_ok = all(v > 0.95 for v in freq_scores["easy"].values())
    report.expect(
        "easy-problem-insensitive-to-policy",
        easy_ok,
        "all OneMax configs reach > 95% of optimum",
    )
    sel_hard = sel_scores[hard]
    report.expect(
        "migrant-selection-matters-on-hard-problems",
        sel_hard["best"] >= sel_hard["worst"],
        f"best-migrant {sel_hard['best']:.4f} vs worst-migrant "
        f"{sel_hard['worst']:.4f}",
    )
    both_loops_work = all(
        min(loop_scores[p].values()) > 0.6 for p in loop_scores
    )
    report.expect(
        "both-reproduction-loops-viable",
        both_loops_work,
        "every problem reaches > 60% of optimum under both loops",
    )
    return report
