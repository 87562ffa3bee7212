"""Greedy fault-plan shrinking for failing fuzz cases.

A randomly sampled failure usually carries far more chaos than the bug
needs — six downtime intervals and three latency spikes when one dead
node would do.  :func:`shrink_spec` is a delta-debugging pass over the
*fault plan only* — the :class:`~repro.cluster.faults.FaultPlan` inside
the run spec's cluster (the genetics are already minimal: the fuzzer
samples small populations): repeatedly try removing

1. a whole node's interval list,
2. a single downtime interval,
3. a single latency spike,

keeping each removal iff the run still fails with the *same signature*
(same first violated rule / same failed property), until a fixpoint.
Greedy single-element removal is quadratic in plan size but plans are
tiny, and it cannot loop: every accepted edit strictly shrinks the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from ..cluster.faults import FaultPlan
from ..spec import EngineSpec, RunSpec
from .specs import SpecCheckResult, check_spec

__all__ = ["ShrinkResult", "fault_plan", "shrink_spec"]


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of a shrink session."""

    spec: RunSpec             # minimal failing spec
    outcome: SpecCheckResult  # its (still-failing) check result
    executions: int           # checks spent shrinking
    removed: int              # fault-plan elements removed


def fault_plan(spec: RunSpec) -> FaultPlan | None:
    """The fault plan of ``spec``'s cluster, or ``None`` if fault-free."""
    cluster = spec.engine.params.get("cluster")
    return None if cluster is None else cluster.fault_plan


def _with_faults(spec: RunSpec, intervals, latency_spikes) -> RunSpec:
    """Copy of ``spec`` with a different fault plan (the shrinker's edit)."""
    params = dict(spec.engine.params)
    cluster = params["cluster"]
    plan = replace(cluster.fault_plan, intervals=intervals, latency_spikes=latency_spikes)
    params["cluster"] = replace(cluster, fault_plan=plan)
    return replace(spec, engine=EngineSpec(spec.engine.name, params))


def _fault_size(spec: RunSpec) -> int:
    plan = fault_plan(spec)
    return sum(len(node) for node in plan.intervals) + len(plan.latency_spikes)


def shrink_spec(
    spec: RunSpec,
    *,
    signature: str | None = None,
    run: Callable[[RunSpec], SpecCheckResult] = partial(check_spec, runs=1),
    max_executions: int = 200,
) -> ShrinkResult:
    """Minimise ``spec``'s fault plan while it keeps failing the same way.

    ``signature`` defaults to the failure signature of running ``spec``
    itself (one extra execution).  ``run`` is injectable so mutation tests
    can shrink under a patched cluster.
    """
    executions = 0
    outcome = run(spec)
    executions += 1
    if signature is None:
        signature = outcome.signature
    if signature == "ok":
        raise ValueError("cannot shrink a passing spec")

    def still_fails(candidate: RunSpec) -> SpecCheckResult | None:
        nonlocal executions
        if executions >= max_executions:
            return None
        result = run(candidate)
        executions += 1
        return result if result.signature == signature else None

    original_size = _fault_size(spec)
    changed = True
    while changed and executions < max_executions:
        changed = False
        plan = fault_plan(spec)
        # pass 1: drop a whole node's downtime list
        for node in range(len(plan.intervals)):
            if not plan.intervals[node]:
                continue
            candidate_intervals = tuple(
                () if i == node else iv for i, iv in enumerate(plan.intervals)
            )
            candidate = _with_faults(spec, candidate_intervals, plan.latency_spikes)
            result = still_fails(candidate)
            if result is not None:
                spec, outcome, changed = candidate, result, True
                break
        if changed:
            continue
        # pass 2: drop one interval
        for node in range(len(plan.intervals)):
            for k in range(len(plan.intervals[node])):
                candidate_intervals = tuple(
                    iv[:k] + iv[k + 1:] if i == node else iv
                    for i, iv in enumerate(plan.intervals)
                )
                candidate = _with_faults(spec, candidate_intervals, plan.latency_spikes)
                result = still_fails(candidate)
                if result is not None:
                    spec, outcome, changed = candidate, result, True
                    break
            if changed:
                break
        if changed:
            continue
        # pass 3: drop one latency spike
        for k in range(len(plan.latency_spikes)):
            candidate = _with_faults(
                spec,
                plan.intervals,
                plan.latency_spikes[:k] + plan.latency_spikes[k + 1:],
            )
            result = still_fails(candidate)
            if result is not None:
                spec, outcome, changed = candidate, result, True
                break
    return ShrinkResult(
        spec=spec,
        outcome=outcome,
        executions=executions,
        removed=original_size - _fault_size(spec),
    )
