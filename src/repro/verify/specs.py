"""Spec-level verification: replay and fuzz serialized run specs.

Two checks fall out of "every run is data" (see ``docs/run_specs.md``):

- *replay*: a ``repro-runspec/v1`` document must survive the canonical
  JSON round-trip unchanged and execute to the same result fingerprint
  every time — the spec digest is only a trustworthy cache/provenance
  key if the document pins the behaviour;
- *fuzz*: every registered engine builder carries a buildable exemplar
  (:class:`~repro.spec.registry.RegistryEntry`), so the whole engine
  surface can be swept generically: round-trip each exemplar spec, run
  it twice, and schema-validate the resulting report.  An engine's
  exemplar spec is also its contract scenario, which
  :mod:`repro.verify.engines` audits for trace invariants.

Both are exposed on the CLI as ``python -m repro.verify spec-replay``
and ``spec-fuzz``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..parallel.base import RunReport, validate_report
from ..spec import ENGINE_BUILDERS, EngineSpec, RunSpec, run_spec
from .digest import result_fingerprint

__all__ = ["SpecCheckResult", "check_spec", "exemplar_spec", "fuzz_specs"]


@dataclass
class SpecCheckResult:
    """Outcome of replaying one spec: digest, fingerprint, problems."""

    label: str
    digest: str
    fingerprint: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        head = f"{self.label}: digest {self.digest[:16]}…"
        if self.ok:
            return f"{head} ok (result {self.fingerprint[:16]}…)"
        lines = "\n".join(f"  - {p}" for p in self.problems)
        return f"{head} FAILED\n{lines}"


def check_spec(spec: RunSpec, *, label: str | None = None, runs: int = 2) -> SpecCheckResult:
    """Round-trip ``spec`` through canonical JSON, execute it ``runs``
    times from the revived document, and validate every report."""
    problems: list[str] = []
    digest = spec.digest()
    doc = spec.to_json()
    revived = RunSpec.from_json(doc)
    if revived != spec:
        problems.append("round-trip: from_json(to_json(spec)) != spec")
    if revived.digest() != digest:
        problems.append(
            f"digest unstable across round-trip: {digest[:16]}… != "
            f"{revived.digest()[:16]}…"
        )
    fingerprints: list[str] = []
    for _ in range(max(1, runs)):
        result = run_spec(RunSpec.from_json(doc))
        fingerprints.append(result_fingerprint(result))
        if isinstance(result, RunReport):
            problems.extend(f"report: {p}" for p in validate_report(result))
            if result.extras.get("spec_digest") != digest:
                problems.append(
                    "extras['spec_digest'] missing or != the spec's digest"
                )
    if len(set(fingerprints)) > 1:
        problems.append(
            "nondeterministic: same spec produced fingerprints "
            + ", ".join(f"{f[:16]}…" for f in dict.fromkeys(fingerprints))
        )
    return SpecCheckResult(
        label=label or spec.engine.name,
        digest=digest,
        fingerprint=fingerprints[0],
        problems=problems,
    )


def exemplar_spec(name: str, *, seed: int = 0) -> RunSpec:
    """The registered exemplar of engine ``name`` as a ready :class:`RunSpec`."""
    exemplar = ENGINE_BUILDERS.get(name).exemplar
    return RunSpec(
        engine=EngineSpec(name, dict(exemplar.get("params", {}))),
        seed=seed,
        run=dict(exemplar.get("run", {})),
    )


def fuzz_specs(
    *, seed: int = 0, names: list[str] | None = None, runs: int = 2
) -> list[SpecCheckResult]:
    """Sweep every registered engine builder's exemplar through
    :func:`check_spec`, each at a seed derived from the master ``seed``."""
    targets = names if names is not None else list(ENGINE_BUILDERS)
    return [
        check_spec(exemplar_spec(name, seed=seed + i), label=name, runs=runs)
        for i, name in enumerate(targets)
    ]
