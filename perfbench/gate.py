"""Correctness gate: every trial of a pass is checked before it counts.

Three checks, none of them a pinned fingerprint (intentional re-pins must
not have to edit the benchmark):

* the run's best genome, re-evaluated on a fresh problem built from its
  spec, reproduces the reported best fitness exactly;
* the evaluations the run reported, and the evaluations the process
  observed while it ran, stay within the spec's budget;
* with a cache, every warm (cache-read) result equals its cold result by
  ``result_fingerprint``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.problem import Problem
from repro.spec import RunSpec, encode_value, spec_digest
from repro.verify.digest import result_fingerprint

from .workloads import evaluation_budget

__all__ = ["Gate", "quality"]


def quality(problem: Problem, best: float) -> float:
    """Best fitness oriented higher-is-better, normalised by the known
    optimum (or success threshold) where the problem has one."""
    threshold = problem.success_threshold
    if threshold:
        return best / threshold if problem.maximize else threshold / best
    return best if problem.maximize else 1.0 / best


class Gate:
    """Checks trial results; fresh problems are built once per spec."""

    def __init__(self) -> None:
        self._problems: dict[str, Problem] = {}

    def _problem(self, spec: RunSpec) -> Problem:
        ref = spec.engine.params["problem"]
        key = spec_digest({"problem": encode_value(ref)})
        if key not in self._problems:
            self._problems[key] = ref.build()
        return self._problems[key]

    def check(
        self,
        specs: Sequence[RunSpec],
        results: Sequence[dict[str, Any]],
        observed: Sequence[int],
        warm: Sequence[dict[str, Any]] | None = None,
    ) -> tuple[list[str], list[float]]:
        """Failure messages (one per failed trial) and per-trial quality."""
        failures, qualities = [], []
        for i, (spec, result) in enumerate(zip(specs, results)):
            problem = self._problem(spec)
            best = result["best_fitness"]
            errors = []
            refit = float(problem.evaluate(result["genome"]))
            if refit != best:
                errors.append(f"best genome re-evaluates to {refit!r}, reported {best!r}")
            budget = evaluation_budget(spec, result["recoveries"])
            spent = max(result["evaluations"], observed[i])
            if spent > budget:
                errors.append(f"{spent} evaluations exceed the budget of {budget}")
            if warm is not None and result_fingerprint(warm[i]) != result_fingerprint(result):
                errors.append("warm (cached) result differs from the cold result")
            if errors:
                failures.append(f"trial {i} ({spec.engine.name}): " + "; ".join(errors))
            qualities.append(quality(problem, best))
        return failures, qualities
