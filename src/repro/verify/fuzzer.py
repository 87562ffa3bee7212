"""Randomised simulation fuzzing with seed replay.

Each fuzz run samples a small scenario — model, cluster size, GA sizes,
fault plan, optional scheduler tie-break jitter — as a
``repro-runspec/v1`` document and checks it with
:func:`~repro.verify.specs.check_spec`: every invariant and engine
property, plus a same-seed determinism audit (the run is executed twice
and the trace digests must match).

The three scenarios are the ``sim-master-slave``, ``sim-island`` and
``island`` engine builders.  Faults travel in the cluster's fault plan
and jitter as the cluster's ``tiebreak_jitter`` seed, so a failing run
is fully described by its document: the fuzzer prints it on one line
after a greedy shrink pass has minimised the fault plan, and
``python -m repro.verify replay -`` reproduces it exactly from stdin.

The jitter seam deserves a note: with ``tiebreak_jitter`` set, events
that share a timestamp are reordered by a seeded random key instead of
FIFO.  Any code that silently relies on insertion order at timestamp
ties — instead of on actual causal ordering — fails under some jitter
seed, which is exactly the class of bug deterministic-simulation testing
exists to flush out (FoundationDB's "simulation is only as good as the
chaos you inject").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.faults import FaultPlan
from ..spec import (
    ClusterSpec,
    EngineSpec,
    GAConfigSpec,
    OperatorSpec,
    ProblemSpec,
    RunSpec,
)
from .shrink import fault_plan, shrink_spec
from .specs import check_spec

__all__ = ["FuzzFailure", "FuzzReport", "sample_spec", "fuzz"]


@dataclass(frozen=True)
class FuzzFailure:
    """One failing fuzz case, shrunk and ready to replay."""

    spec: RunSpec             # minimal (shrunk) failing spec
    original: RunSpec         # spec as originally sampled
    signature: str
    detail: str

    def line(self) -> str:
        return self.spec.to_json()


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz session."""

    seed: int
    runs: int
    failures: list[FuzzFailure] = field(default_factory=list)
    scenarios: dict[str, int] = field(default_factory=dict)
    faulty_runs: int = 0
    jittered_runs: int = 0
    #: trace digest of every run, in sampling order
    digests: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        mix = ", ".join(f"{k}x{v}" for k, v in sorted(self.scenarios.items()))
        verdict = "all green" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"fuzz seed={self.seed}: {self.runs} runs ({mix}; "
            f"{self.faulty_runs} with faults, {self.jittered_runs} with "
            f"schedule jitter) — {verdict}"
        )


def sample_spec(rng: np.random.Generator) -> RunSpec:
    """Draw one random scenario as a run spec.

    Sizes are deliberately small — the point is many cheap runs across the
    configuration space, not a few big ones.
    """
    scenario = str(rng.choice(["master-slave", "sim-island", "island"]))
    if scenario == "master-slave":
        n_nodes = int(rng.integers(3, 9))       # master + 2..7 slaves
    else:
        n_nodes = int(rng.integers(2, 7))       # demes
    pop = int(rng.integers(12, 25))
    generations = int(rng.integers(3, 7))
    genome_len = int(rng.integers(16, 33))
    eval_cost = float(10 ** rng.uniform(-3, -2))
    seed = int(rng.integers(0, 2**31))
    jitter_seed = int(rng.integers(0, 2**31)) if rng.random() < 0.5 else None
    fault_tolerant = bool(rng.random() < 0.7)

    fault_intervals: tuple[tuple[tuple[float, float], ...], ...] = ()
    latency_spikes: tuple[tuple[float, float, float], ...] = ()
    loss_rate = dup_rate = 0.0
    partitions: tuple[tuple[float, float, tuple[int, ...]], ...] = ()
    link_seed = 0
    reliable = False
    if scenario == "sim-island":
        # the lossy-network seam: loss/duplication probabilities, timed
        # bisections and (sometimes) the reliable migration channel that
        # must mask them while keeping application exactly-once
        reliable = bool(rng.random() < 0.5)
        if rng.random() < 0.5:
            loss_rate = float(rng.uniform(0.05, 0.4))
        if rng.random() < 0.4:
            dup_rate = float(rng.uniform(0.05, 0.3))
        if loss_rate or dup_rate:
            link_seed = int(rng.integers(0, 2**31))
    if scenario != "island":
        # rough wall-clock of the run: every generation evaluates ~pop
        # individuals at eval_cost each (plus messaging, ignored here)
        horizon = (generations + 1) * pop * eval_cost
        if scenario == "sim-island" and n_nodes >= 2 and rng.random() < 0.3:
            start = float(rng.uniform(0, horizon * 0.8))
            duration = float(rng.uniform(horizon * 0.05, horizon * 0.4))
            side = int(rng.integers(1, n_nodes))
            group = tuple(
                int(n) for n in rng.choice(n_nodes, size=side, replace=False)
            )
            partitions = ((start, start + duration, group),)
        if rng.random() < 0.6:
            per_node = []
            for node in range(n_nodes):
                if node == 0 or rng.random() < 0.6:
                    # node 0 spared: both scenarios assume a reliable
                    # master/coordinator host (Gagné's model)
                    per_node.append(())
                    continue
                start = float(rng.uniform(horizon * 0.01, horizon))
                if rng.random() < 0.5:
                    end = float("inf")          # permanent crash
                else:
                    end = start + float(rng.uniform(horizon * 0.05, horizon * 0.5))
                per_node.append(((start, end),))
            fault_intervals = tuple(per_node)
        if rng.random() < 0.4:
            spikes = []
            for _ in range(int(rng.integers(1, 3))):
                start = float(rng.uniform(0, horizon))
                spikes.append(
                    (
                        start,
                        start + float(rng.uniform(horizon * 0.05, horizon * 0.3)),
                        float(rng.uniform(2.0, 20.0)),
                    )
                )
            latency_spikes = tuple(spikes)
    problem = ProblemSpec("onemax", {"length": genome_len})
    config = GAConfigSpec({"population_size": pop, "elitism": 1})
    policy = OperatorSpec(
        "migration-policy", {"rate": 1, "replacement": "worst-if-better"}
    )
    if scenario == "island":
        engine = EngineSpec(
            "island",
            {"problem": problem, "n_islands": n_nodes, "config": config, "policy": policy},
        )
        return RunSpec(engine=engine, seed=seed, run={"termination": generations})
    plan = None
    if any(fault_intervals) or latency_spikes or partitions or loss_rate or dup_rate:
        plan = FaultPlan(
            intervals=fault_intervals or ((),) * n_nodes,
            latency_spikes=latency_spikes,
            loss_rate=loss_rate,
            dup_rate=dup_rate,
            partitions=partitions,
            link_seed=link_seed,
        )
    cluster = ClusterSpec(
        n_nodes, latency=1e-3, bandwidth=1e6, fault_plan=plan, tiebreak_jitter=jitter_seed
    )
    params = {
        "problem": problem, "config": config, "cluster": cluster, "eval_cost": eval_cost
    }
    if scenario == "master-slave":
        params["fault_tolerant"] = fault_tolerant
        engine = EngineSpec("sim-master-slave", params)
        return RunSpec(engine=engine, seed=seed, run={"termination": generations})
    params.update(
        n_islands=n_nodes,
        max_epochs=generations,
        policy=policy,
        reliable_migration=reliable,
    )
    return RunSpec(engine=EngineSpec("sim-island", params), seed=seed)


def fuzz(
    seed: int = 0,
    runs: int = 25,
    *,
    shrink: bool = True,
    verbose: bool = False,
    audit: bool = True,
) -> FuzzReport:
    """Run ``runs`` randomised scenarios from master ``seed``.

    Returns a :class:`FuzzReport`; failures carry shrunk run specs.  With
    ``verbose`` each failure (and the final summary) is printed as it
    happens.
    """
    rng = np.random.default_rng(seed)
    report = FuzzReport(seed=seed, runs=runs)
    for i in range(runs):
        spec = sample_spec(rng)
        name = spec.engine.name
        report.scenarios[name] = report.scenarios.get(name, 0) + 1
        cluster = spec.engine.params.get("cluster")
        plan = fault_plan(spec)
        if plan is not None:
            report.faulty_runs += 1
        if cluster is not None and cluster.tiebreak_jitter is not None:
            report.jittered_runs += 1
        outcome = check_spec(spec, label=f"run {i}", runs=2 if audit else 1)
        report.digests.append(outcome.trace_digest)
        if outcome.ok:
            continue
        minimal = spec
        if shrink and plan is not None and (any(plan.intervals) or plan.latency_spikes):
            try:
                minimal = shrink_spec(spec, signature=outcome.signature).spec
            except ValueError:
                pass  # flaky failure (should not happen: runs are seeded)
        failure = FuzzFailure(
            spec=minimal,
            original=spec,
            signature=outcome.signature,
            detail=outcome.describe(),
        )
        report.failures.append(failure)
        if verbose:
            print(f"{failure.signature}: {failure.detail}")
            print(
                f"  reproduce with: echo '{failure.line()}' "
                "| python -m repro.verify replay -"
            )
    if verbose:
        print(report.summary())
    return report
