"""Engine builders: one registered constructor per parallel model.

This is the only engine registry.  Every parallel engine (each declares
its builder's name as ``engine_name``) has a builder here, plus the two
sequential engines, ``generational`` and ``steady-state``, so
:func:`build_run` can construct *any* engine the framework ships from a
:class:`~repro.spec.components.RunSpec` and :func:`run_spec` can
execute it.

Each builder's exemplar spec is that engine's contract scenario: a
small fully seeded run (several epochs; migration on wherever the model
migrates) that ``python -m repro.verify spec-fuzz`` replays as a
document and ``python -m repro.verify engines`` audits for schema,
determinism, trace invariants and observability
(:mod:`repro.verify.engines`).

Builders receive already-built params (problems, configs, clusters,
operators — :func:`~repro.spec.components.build_value` lowers the nested
specs first) and forward them to the engine constructor, so a spec-built
engine is *the same object graph* a hand-written construction produces:
same-seed runs are fingerprint-identical either way.

``run_spec`` stamps ``extras["spec_digest"]`` on the returned
:class:`~repro.parallel.base.RunReport` — the provenance companion to
the trace digest: the report names both what ran (spec digest) and what
it did (trace digest).
"""

from __future__ import annotations

from typing import Any

from ..core.engine import GenerationalEngine, SteadyStateEngine
from ..parallel.async_master_slave import SimulatedAsyncMasterSlave
from ..parallel.base import RunReport
from ..parallel.cellular_distributed import DistributedCellularGA
from ..parallel.hierarchical import HierarchicalGA
from ..parallel.hybrid import (
    CellularIslandModel,
    MasterSlaveIslandModel,
    SimulatedMasterSlaveIslandModel,
)
from ..parallel.island import IslandModel, SimulatedIslandModel
from ..parallel.master_slave import SimulatedMasterSlave
from ..parallel.pool import PooledEvolution
from ..parallel.specialized import (
    SpecializedIslandModel,
    SimulatedSpecializedIslandModel,
)
from .components import (
    ClusterSpec,
    GAConfigSpec,
    OperatorSpec,
    ProblemSpec,
    RunSpec,
    build_value,
)
from .registry import register_engine

__all__ = ["build_run", "run_spec"]


def _island_like(cls):
    """Builder for the island family: ``total_population`` selects the
    :meth:`partitioned` classmethod (equal split, remainder to the first
    demes), otherwise ``config`` is per-deme."""

    def build(
        *,
        problem,
        n_islands,
        config=None,
        total_population=None,
        seed=None,
        **kwargs,
    ):
        if total_population is not None:
            return cls.partitioned(
                problem, total_population, n_islands, config, seed=seed, **kwargs
            )
        return cls(problem, n_islands, config, seed=seed, **kwargs)

    return build


_EX_PROBLEM = ProblemSpec("onemax", {"length": 24})
_EX_CONFIG = GAConfigSpec({"population_size": 12, "elitism": 1})
_EX_POLICY = OperatorSpec(
    "migration-policy", {"rate": 1, "replacement": "worst-if-better"}
)

register_engine(
    "island",
    _island_like(IslandModel),
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "n_islands": 3,
            "config": _EX_CONFIG,
            "policy": _EX_POLICY,
        },
        "run": {"termination": 8},
    },
)
register_engine(
    "sim-island",
    _island_like(SimulatedIslandModel),
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "n_islands": 3,
            "config": _EX_CONFIG,
            "cluster": ClusterSpec(3),
            "max_epochs": 8,
            "policy": _EX_POLICY,
        },
        "run": {},
    },
)
register_engine(
    "sim-master-slave-island",
    _island_like(SimulatedMasterSlaveIslandModel),
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "n_islands": 3,
            "config": _EX_CONFIG,
            "cluster": ClusterSpec(3),
            "max_epochs": 8,
            "local_workers": 4,
            "policy": _EX_POLICY,
        },
        "run": {},
    },
)
register_engine(
    "cellular-island",
    _island_like(CellularIslandModel),
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "n_islands": 2,
            "config": GAConfigSpec(),
            "rows": 4,
            "cols": 4,
        },
        "run": {"epochs": 6},
    },
)
register_engine(
    "master-slave-island",
    _island_like(MasterSlaveIslandModel),
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "n_islands": 3,
            "config": _EX_CONFIG,
            "policy": _EX_POLICY,
        },
        "run": {"termination": 6},
    },
)


@register_engine(
    "sim-master-slave",
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "config": GAConfigSpec({"population_size": 16, "elitism": 1}),
            "cluster": ClusterSpec(4),
        },
        "run": {"termination": 6},
    },
)
def _sim_master_slave(*, problem, config=None, seed=None, **kwargs):
    return SimulatedMasterSlave(problem, config, seed=seed, **kwargs)


@register_engine(
    "async-master-slave",
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "config": GAConfigSpec({"population_size": 16}),
            "cluster": ClusterSpec(4),
        },
        "run": {"max_evaluations": 200},
    },
)
def _async_master_slave(*, problem, config=None, seed=None, **kwargs):
    return SimulatedAsyncMasterSlave(problem, config, seed=seed, **kwargs)


@register_engine(
    "pool",
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "config": GAConfigSpec({"population_size": 20}),
            "cluster": ClusterSpec(4),
            "max_transactions": 40,
        },
        "run": {},
    },
)
def _pool(*, problem, config=None, seed=None, **kwargs):
    return PooledEvolution(problem, config, seed=seed, **kwargs)


@register_engine(
    "distributed-cellular",
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "config": GAConfigSpec(),
            "rows": 8,
            "cols": 8,
            "cluster": ClusterSpec(4),
        },
        "run": {"max_sweeps": 6},
    },
)
def _distributed_cellular(*, problem, config=None, seed=None, **kwargs):
    return DistributedCellularGA(problem, config, seed=seed, **kwargs)


@register_engine(
    "hierarchical",
    exemplar={
        "params": {
            "problem": ProblemSpec("transonic-wing"),
            "config": GAConfigSpec({"population_size": 10, "elitism": 1}),
            "layers": 2,
            "branching": 2,
        },
        "run": {"max_epochs": 6},
    },
)
def _hierarchical(*, problem, config=None, seed=None, **kwargs):
    return HierarchicalGA(problem, config, seed=seed, **kwargs)


_EX_SCENARIO = OperatorSpec(
    "sim-scenario",
    {"name": "S3-spec-ring", "weights": [[1.0, 0.0], [0.0, 1.0]], "topology": "ring"},
)


@register_engine(
    "specialized",
    exemplar={
        "params": {
            "problem": ProblemSpec("schaffer-f2"),
            "scenario": _EX_SCENARIO,
            "config": GAConfigSpec({"population_size": 12}),
        },
        "run": {"epochs": 6},
    },
)
def _specialized(*, problem, scenario, config=None, seed=None, **kwargs):
    return SpecializedIslandModel(problem, scenario, config, seed=seed, **kwargs)


@register_engine(
    "sim-specialized",
    exemplar={
        "params": {
            "problem": ProblemSpec("schaffer-f2"),
            "scenario": _EX_SCENARIO,
            "config": GAConfigSpec({"population_size": 12}),
            "cluster": ClusterSpec(2),
            "max_epochs": 6,
        },
        "run": {},
    },
)
def _sim_specialized(*, problem, scenario, config=None, seed=None, **kwargs):
    return SimulatedSpecializedIslandModel(problem, scenario, config, seed=seed, **kwargs)


@register_engine(
    "generational",
    exemplar={
        "params": {"problem": _EX_PROBLEM, "config": _EX_CONFIG},
        "run": {"termination": 3},
    },
)
def _generational(*, problem, config=None, seed=None, **kwargs):
    return GenerationalEngine(problem, config, seed=seed, **kwargs)


@register_engine(
    "steady-state",
    exemplar={
        "params": {"problem": _EX_PROBLEM, "config": _EX_CONFIG},
        "run": {"termination": 3},
    },
)
def _steady_state(*, problem, config=None, seed=None, **kwargs):
    return SteadyStateEngine(problem, config, seed=seed, **kwargs)


# -- construction + execution ------------------------------------------------------


def build_run(spec: RunSpec) -> Any:
    """Construct the engine a :class:`RunSpec` describes (without running).

    Pure construction: the returned engine is indistinguishable from a
    hand-written one, so callers that need mid-run access (stepping
    loops, trace audits, population inspection) drive it exactly as
    before.
    """
    return spec.engine.build(seed=spec.seed)


def run_spec(spec: RunSpec) -> Any:
    """Build and execute one :class:`RunSpec`.

    Parallel engines return a :class:`~repro.parallel.base.RunReport`
    with ``extras["spec_digest"]`` stamped for provenance; the two
    sequential engines return their native
    :class:`~repro.core.engine.EvolutionResult` unchanged.
    """
    engine = build_run(spec)
    run_kwargs = {k: build_value(v) for k, v in spec.run.items()}
    report = engine.run(**run_kwargs)
    if isinstance(report, RunReport):
        report.extras["spec_digest"] = spec.digest()
    return report
