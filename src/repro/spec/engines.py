"""Engine builders: one registered constructor per parallel model.

This is the only engine registry.  Every parallel engine (each declares
its builder's name as ``engine_name``) has a builder here, plus the two
sequential engines, ``generational`` and ``steady-state``, so
:func:`build_run` can construct *any* engine the framework ships from a
:class:`~repro.spec.components.RunSpec` and :func:`run_spec` can
execute it.

Each builder's exemplar spec is that engine's contract scenario: a
small fully seeded run (several epochs; migration on wherever the model
migrates) that ``python -m repro.verify engines`` checks as a document
for round-trip, determinism, schema, trace invariants and observability
(:mod:`repro.verify.engines`).

A builder is the engine class itself, except for the island family,
whose builder picks the :meth:`partitioned` constructor (not
``cellular-island``: a grid shape sizes its demes).  Either way it
receives already-built params by keyword (problems, configs, clusters,
operators — :func:`~repro.spec.components.build_value` lowers the nested
specs first), so a spec-built engine is *the same object graph* a
hand-written construction produces: same-seed runs are
fingerprint-identical either way.

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
    :meth:`partitioned` classmethod (``total_population // n_islands``
    per deme; the remainder is dropped), otherwise ``config`` is
    per-deme."""

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
    CellularIslandModel,
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
register_engine(
    "sim-master-slave",
    SimulatedMasterSlave,
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "config": GAConfigSpec({"population_size": 16, "elitism": 1}),
            "cluster": ClusterSpec(4),
        },
        "run": {"termination": 6},
    },
)
register_engine(
    "async-master-slave",
    SimulatedAsyncMasterSlave,
    exemplar={
        "params": {
            "problem": _EX_PROBLEM,
            "config": GAConfigSpec({"population_size": 16}),
            "cluster": ClusterSpec(4),
        },
        "run": {"max_evaluations": 200},
    },
)
register_engine(
    "pool",
    PooledEvolution,
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
register_engine(
    "distributed-cellular",
    DistributedCellularGA,
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
register_engine(
    "hierarchical",
    HierarchicalGA,
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


_EX_SCENARIO = OperatorSpec(
    "sim-scenario",
    {"name": "S3-spec-ring", "weights": [[1.0, 0.0], [0.0, 1.0]], "topology": "ring"},
)

register_engine(
    "specialized",
    SpecializedIslandModel,
    exemplar={
        "params": {
            "problem": ProblemSpec("schaffer-f2"),
            "scenario": _EX_SCENARIO,
            "config": GAConfigSpec({"population_size": 12}),
        },
        "run": {"epochs": 6},
    },
)
register_engine(
    "sim-specialized",
    SimulatedSpecializedIslandModel,
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
register_engine(
    "generational",
    GenerationalEngine,
    exemplar={
        "params": {"problem": _EX_PROBLEM, "config": _EX_CONFIG},
        "run": {"termination": 3},
    },
)
register_engine(
    "steady-state",
    SteadyStateEngine,
    exemplar={
        "params": {"problem": _EX_PROBLEM, "config": _EX_CONFIG},
        "run": {"termination": 3},
    },
)


# -- construction + execution ------------------------------------------------------


def build_run(spec: RunSpec) -> Any:
    """Construct the engine a :class:`RunSpec` describes (without running).

    Pure construction: the returned engine is indistinguishable from a
    hand-written one, so callers that need mid-run access (stepping
    loops, trace audits, population inspection) drive it exactly as
    before.
    """
    return spec.engine.build(seed=spec.seed)


def run_spec(spec: RunSpec, engine: Any = None) -> Any:
    """Build and execute one :class:`RunSpec`.

    ``engine``, when given, is the not-yet-run engine :func:`build_run`
    made from ``spec`` (callers that attach a trace before running).
    Parallel engines return a :class:`~repro.parallel.base.RunReport`
    with ``extras["spec_digest"]`` stamped for provenance; the two
    sequential engines return their native
    :class:`~repro.core.engine.EvolutionResult` unchanged.
    """
    if engine is None:
        engine = build_run(spec)
    run_kwargs = {k: build_value(v) for k, v in spec.run.items()}
    report = engine.run(**run_kwargs)
    if isinstance(report, RunReport):
        report.extras["spec_digest"] = spec.digest()
    return report
