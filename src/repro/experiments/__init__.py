"""Experiment harness: one runner per table/figure-shaped claim (E1–E13).

``REGISTRY`` maps experiment ids to their runners; each runner has the
signature ``run(quick: bool = False) -> ExperimentReport``.  Quick mode
shrinks seeds/budgets for CI-speed benchmark runs; full mode is what
EXPERIMENTS.md records.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from . import (
    e02_masterslave,
    e03_island_speedup,
    e04_migration_policy,
    e05_cellular_pressure,
    e06_cantupaz_design,
    e07_hierarchical,
    e08_sim_scenarios,
    e09_fault_tolerance,
    e10_punctuated,
    e11_applications,
    e12_stock_reactor,
    e13_island_resilience,
    table1,
)
from ..runtime.sweep import SweepConfig, sweep_context
from .report import Expectation, ExperimentReport, SeriesSpec, TableSpec

__all__ = [
    "REGISTRY",
    "run_experiment",
    "experiment_specs",
    "ExperimentReport",
    "TableSpec",
    "SeriesSpec",
    "Expectation",
]

_MODULES = {
    "E1": table1,
    "E2": e02_masterslave,
    "E3": e03_island_speedup,
    "E4": e04_migration_policy,
    "E5": e05_cellular_pressure,
    "E6": e06_cantupaz_design,
    "E7": e07_hierarchical,
    "E8": e08_sim_scenarios,
    "E9": e09_fault_tolerance,
    "E10": e10_punctuated,
    "E11": e11_applications,
    "E12": e12_stock_reactor,
    "E13": e13_island_resilience,
}

REGISTRY: dict[str, Callable[..., ExperimentReport]] = {
    key: module.run for key, module in _MODULES.items()
}


def experiment_specs(experiment_id: str, quick: bool = False) -> list:
    """The declarative :class:`~repro.spec.RunSpec` list an experiment
    dispatches, in dispatch order.

    Experiments whose trials are raw callables (E1's literature table has
    no runs at all) contribute an empty list; the rest expose a
    ``trial_specs(quick)`` hook covering every spec-backed trial.
    """
    key = experiment_id.upper()
    if key not in _MODULES:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(_MODULES)}"
        )
    hook = getattr(_MODULES[key], "trial_specs", None)
    return list(hook(quick=quick)) if hook is not None else []


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    *,
    audit: bool = False,
    config: SweepConfig | None = None,
) -> ExperimentReport:
    """Run one experiment by id ('E1' … 'E13').

    ``config`` sets how the experiment's trials execute — process
    fan-out, the content-addressed trial cache, telemetry and the fork
    pool's supervision policy (see :mod:`repro.runtime.sweep`); the
    default is the hermetic serial, uncached configuration.

    With ``audit=True`` the runner executes *twice* and a
    ``determinism-audit`` expectation is appended comparing the two
    reports' canonical fingerprints — every experiment is seeded, so two
    fresh runs must be behaviourally identical (same tables, same series,
    same expectation outcomes).  The audit re-run always executes with
    the cache and telemetry disabled: replaying cached values would audit
    the cache, not the experiment.
    """
    key = experiment_id.upper()
    if key not in REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(REGISTRY)}"
        )
    config = config if config is not None else SweepConfig()
    with sweep_context(config):
        report = REGISTRY[key](quick=quick)
    if audit:
        from ..verify.digest import result_fingerprint

        first = result_fingerprint(report)
        rerun = dataclasses.replace(config, cache_dir=None, telemetry=None)
        with sweep_context(rerun):
            second = result_fingerprint(REGISTRY[key](quick=quick))
        report.expect(
            "determinism-audit",
            first == second,
            f"run fingerprints {first[:16]}… vs {second[:16]}…",
        )
    return report
