#!/usr/bin/env python
"""AST lint: engine modules must stay on the shared deme runtime.

The deme-runtime refactor centralised two things that used to be
copy-pasted per engine, and this check keeps them centralised:

1. **The wire.**  Only the runtime layer (``repro/runtime/``) and the
   wire-protocol modules (``reliable.py``, ``supervisor.py``) may call
   ``.send(...)`` on a cluster/channel.  An engine that sends directly
   bypasses reliable delivery, the message-conservation receipts and the
   supervisor's view of traffic.

2. **The report schema.**  Engine modules must not define bespoke
   ``*Result`` / ``*Report`` dataclasses (every engine returns
   :class:`repro.parallel.base.RunReport`) and must not construct
   ``RunReport`` directly — reports go through
   ``ParallelEngine._report``, which stamps the engine name and trace
   digest.

3. **The sweep orchestrator.**  Experiment runner modules
   (``repro/experiments/e*.py`` and ``table1.py``) must declare their
   trial grids through :func:`repro.runtime.sweep.run_sweep` rather than
   hand-rolling nested seed loops: each runner must import and call
   ``run_sweep``, and must not call a ``.run(...)`` method inside a
   ``for``/``while`` loop in its driver ``run()`` (model executions
   belong in module-level trial functions, where the sweep can fan them
   out and cache them).

4. **One owner per count.**  A new counter-like run statistic becomes a
   ``RunReport`` field listed in
   :data:`repro.parallel.base.REPORT_COUNTERS` (which ``validate_report``
   checks and an observability run note copies by name), not a bare
   ``extras`` dict key.  ``extras`` stays for engine-specific payloads
   (curves, archives, per-worker vectors); any *new* key in an
   ``extras={...}`` literal must either join the allowlist below (with a
   non-scalar payload justification) or become a ``RunReport`` field.

5. **The vectorized fast path.**  ``repro/core/vectorized`` exists to
   replace per-individual Python loops with whole-block NumPy kernels,
   so its modules must contain no ``for``/``while`` statements,
   comprehensions or generator expressions.

6. **The supervised pool.**  Real-process fan-out must go through
   :class:`repro.runtime.resilient.SupervisedPool` — a bare
   ``multiprocessing`` ``Pool(...)`` / ``.imap_unordered(...)`` hangs
   forever on a worker death and deadlocks on ``close(); join()`` with a
   hung worker.  Only ``repro/runtime/resilient.py`` (the layer itself)
   may touch the raw primitives.

7. **Declarative runs.**  Experiment modules must not construct engines
   inline — no calls to engine class constructors
   (``IslandModel(...)``, ``GenerationalEngine(...)``, …) and no
   ``.partitioned(...)`` calls.  Runs are :class:`repro.spec.RunSpec`
   documents dispatched through spec-backed trials (see
   ``docs/run_specs.md``); importing an engine class for typing or
   docs is fine, *calling* one bypasses the registry, the spec digest
   cache key and the ``verify replay`` path.  The allowlist below
   names the deliberate exceptions (trials whose construction depends
   on results only known at execution time).

8. **Columnar traces.**  ``Trace.events`` is a lazily rebuilt read-only
   view over interned columnar storage — mutating the returned list
   (``trace.events.append(...)``, ``trace.events[...] = ...``,
   ``trace.events = ...``) silently bypasses the incremental digest and
   the per-kind indexes.  Events enter a trace through
   ``Trace.record`` only; no module outside ``repro/cluster/`` may
   mutate an ``.events`` attribute.

9. **Retired compatibility surfaces.**  No module under ``repro/`` may
   bind a module-level name to ``RunReport`` (the deleted per-engine
   result aliases such as ``IslandResult = RunReport``), nor define,
   assign or import the retired global toggles ``batch_evaluation``,
   ``use_batch_evaluation``, ``set_verify_digest`` or
   ``DigestMismatchError``, the second engine registry
   ``ENGINE_REGISTRY`` / ``EngineInfo``, ``SerialExecutor``, or the
   fuzzer's second run format and its checkers ``ReplaySpec``,
   ``run_replay``, ``fuzz_specs`` and ``EngineAudit``, the sweep resume
   journal ``SweepJournal`` and ``run_all``, the fitness memo-cache
   ``FitnessCache`` / ``MemoizingEvaluator``, the in-line trace checker
   ``TraceChecker`` / ``InvariantViolation``, the wall-clock backoff
   span ``_record_backoff_span``, or the second counter copies
   ``MetricRegistry``, ``metrics_snapshot``, ``check_metrics``,
   ``METRICS_SCHEMA`` and the session host clock ``wall_now``, or the
   duplicate selection kernels ``selection_kernel`` and
   ``tournament_indices`` … ``best_indices``, the second digest-line
   encoder ``canonical_line`` / ``_fast_norm``, the trace summary type
   ``TraceSummary``, the timed-runtime wrapper ``RuntimeCapabilities``,
   the cellular result type ``CellularResult``, the array population
   ``ArrayPopulation``, the cellular islands' own migrant placement
   ``_place_migrants``, or the components only their own tests ran
   (the Doppler and camera-placement workloads, the adaptive mutations,
   fitness sharing, the dynamic topologies, the efficacy summary and
   the helpers ``derive_rng`` … ``spectrum``); no module
   under ``repro/parallel/`` may bring back ``register_engine`` or
   ``contract_run``, and none under ``repro/verify/`` ``SCENARIOS``.
   Callers name ``RunReport`` directly, batch
   evaluation is always on, the digest walker is a test oracle,
   ``ENGINE_BUILDERS`` is the one engine registry (its exemplar specs
   are the contract scenarios, run by ``repro.verify.engines``),
   ``SerialEvaluator`` is the one serial evaluator, and
   ``repro-runspec/v1`` documents checked by
   ``repro.verify.specs.check_spec`` are the one replayable run format,
   the ``TrialCache`` entry (result + measured ``TrialCost``) is the
   one per-trial sweep record, configured by one ``SweepConfig``,
   ``check_trace`` checks trace invariants post-hoc only, spans run
   on simulated time only, every count has one owner (a process
   counter, ``PoolStats``, the sweep telemetry or a ``RunReport`` field),
   each selection scheme is written once, as its operator's
   ``indices`` method, ``Trace.record`` is the one producer of the
   pinned digest line, a timed host passes its resilience keywords
   to ``TimedDemeRuntime`` directly, ``CellularGA`` is an
   ``EvolutionEngine`` that returns ``EvolutionResult``, the
   batched cycle works on plain arrays taken from a ``Population``, and
   islands of cellular grids migrate through ``IslandModel``'s policy.
   An import counts under either name: ``from m import X as Y`` is
   flagged when ``X`` or ``Y`` is retired.

10. **Knob reachability.**  Every keyword of the engine classes rule 7
    names, of ``CellularGA``, ``MasterSlaveGA``, ``GAConfig`` and
    ``ResilienceConfig`` (a keyword forwarded through ``**kwargs``
    belongs to the base-most class that declares it) must be set by
    name — a call keyword or a string key of a dict literal — somewhere
    under ``src/repro/{spec,verify,experiments}``, ``examples/``,
    ``perfbench/`` or ``scripts/``, or sit in the reasoned allowlist
    below.  An option that no experiment,
    exemplar or example sets is a default: inline it and delete the
    parameter.  An allowlist entry that names no checked keyword, or a
    keyword some caller now sets, is stale and flagged too.

11. **One eviction path.**  Only the replacement operators in
    ``repro/core/operators/replacement.py`` may call
    ``Population.replace_worst``.  Steady-state insertion
    (``SteadyStateEngine.insert``, which the asynchronous farm's
    completions and the pool's pushes go through too) and migrant
    integration (``integrate_immigrants``, which the hierarchical GA's
    promotion and demotion go through too) each apply one of those
    rules, so "whom a newcomer replaces" is written once per rule.

12. **One migration path.**  Only the island machinery
    (``repro/parallel/island.py`` and ``repro/parallel/hybrid.py``) may
    call ``select_migrants`` or ``integrate_immigrants``.  Every
    island-shaped engine migrates through ``_IslandBase._select_parcel``
    and ``_integrate_parcel`` — from ``_emigrate`` / ``_immigrate``, the
    timed runtime's ``_send_migrants`` or its own exchange — and
    ``_integrate_parcel`` re-scores an arrival wherever its destination
    has its own objective, so no engine keeps a private migration loop
    beside them.  Nor may any other ``repro/parallel`` module than that
    machinery build a replacement rule and apply it itself
    (``ReplaceWorstIfBetter()(...)`` and friends): a steady-state
    population applies its ``config.replacement`` through
    ``SteadyStateEngine.insert``.

13. **One evaluation path.**  No ``repro/parallel`` module calls
    ``.evaluate(...)``, ``.evaluate_many(...)`` or
    ``.evaluate_batch(...)``: every fitness is assigned by
    ``EvolutionEngine._evaluate``, the one owner of the evaluation count
    (so a report's ``evaluations`` is what the problem scored), and every
    population lives in an engine.  Nor does one call
    ``sample_population(...)`` except ``cellular.py``'s ``initialize``,
    which samples one individual per cell before handing them to
    ``EvolutionEngine.initialize``.

14. **Name reachability.**  Every public top-level ``def`` / ``class``
    under ``src/repro`` must have a reader in code under ``src/repro``
    (its own module included), ``examples/``, ``scripts/`` or
    ``perfbench/`` — not under a ``tests/`` directory — or sit in the
    reasoned allowlist below.  A reader is a loaded name, an attribute,
    an import the importing module does not re-export through its
    ``__all__``, or a string passed to ``getattr`` (how the experiment
    driver reaches each module's ``trial_specs``).  A component only its
    own tests construct reproduces nothing: give it a caller or delete
    it.  An allowlist entry that covers no unread name is stale and
    flagged too.

Run from the repository root::

    python scripts/check_engine_contract.py

Exit status 1 if any violation is found (CI-ready).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
PARALLEL = REPO / "src" / "repro" / "parallel"
VERIFY = REPO / "src" / "repro" / "verify"
EXPERIMENTS = REPO / "src" / "repro" / "experiments"
VECTORIZED = REPO / "src" / "repro" / "core" / "vectorized"

#: the one module allowed to build on the raw multiprocessing pool
#: primitives (it replaces them with supervised workers)
POOL_OWNER = SRC / "runtime" / "resilient.py"

#: bare-pool constructions/methods rule 6 forbids outside POOL_OWNER
_BARE_POOL_NAMES = {"Pool", "imap_unordered", "imap", "map_async"}

#: AST nodes that mean "a Python-level loop over elements"
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)

#: modules that implement the wire protocol itself
SEND_ALLOWED = {"reliable.py", "supervisor.py"}

#: the one module that owns the report schema
SCHEMA_OWNER = "base.py"

#: every extras key an engine may put in its report.  These are
#: engine-specific *payloads* (curves, archives, per-worker vectors,
#: nested results) — scalar counters do NOT belong here: they become
#: RunReport fields listed in repro.parallel.base.REPORT_COUNTERS.
EXTRAS_KEY_ALLOWLIST = {
    # master-slave
    "result", "generation_makespans", "workers",
    # async master-slave
    "utilisation", "completions",
    # pool
    "pulls", "pool_size", "agent_evaluations",
    # distributed cellular
    "sweeps", "nodes", "compute_time", "comm_time",
    # hierarchical
    "work_units", "best_curve", "work_curve",
    # specialized / multi-objective
    "scenario", "archive_objectives", "hypervolume", "archive_genomes",
}


def lint_file(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.name
    problems: list[str] = []

    for node in ast.walk(tree):
        # rule 1: no direct .send(...) outside the wire-protocol modules
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "send"
            and rel not in SEND_ALLOWED
        ):
            problems.append(
                f"{path.relative_to(REPO)}:{node.lineno}: direct .send() call — "
                "route traffic through the deme runtime "
                "(repro.runtime.deme) or the reliable channel"
            )

        # rule 2a: no bespoke *Result / *Report class definitions
        if (
            isinstance(node, ast.ClassDef)
            and (node.name.endswith("Result") or node.name.endswith("Report"))
            and rel != SCHEMA_OWNER
        ):
            problems.append(
                f"{path.relative_to(REPO)}:{node.lineno}: bespoke result class "
                f"{node.name} — return repro.parallel.base.RunReport instead"
            )

        # rule 2b: no direct RunReport(...) construction outside base.py
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "RunReport"
            and rel != SCHEMA_OWNER
        ):
            problems.append(
                f"{path.relative_to(REPO)}:{node.lineno}: direct RunReport() "
                "construction — use ParallelEngine._report(), which stamps "
                "the engine name and trace digest"
            )

        # rule 4: extras dict literals may only carry allowlisted payload
        # keys — new counters become RunReport fields
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg != "extras" or not isinstance(kw.value, ast.Dict):
                    continue
                for key in kw.value.keys:
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and key.value not in EXTRAS_KEY_ALLOWLIST
                    ):
                        problems.append(
                            f"{path.relative_to(REPO)}:{key.lineno}: extras key "
                            f"{key.value!r} is not allowlisted — scalar counters "
                            "become RunReport fields listed in "
                            "REPORT_COUNTERS, not bare extras keys"
                        )

    return problems


def _experiment_modules() -> list[Path]:
    return sorted(
        p
        for p in EXPERIMENTS.glob("*.py")
        if p.name == "table1.py" or p.name.startswith("e")
    )


#: engine class constructors rule 7 forbids experiment modules to call —
#: every name registered in repro.spec.engines (parallel + sequential)
ENGINE_CLASS_NAMES = {
    "IslandModel", "SimulatedIslandModel",
    "SimulatedMasterSlave", "SimulatedAsyncMasterSlave",
    "PooledEvolution", "DistributedCellularGA", "HierarchicalGA",
    "SpecializedIslandModel", "SimulatedSpecializedIslandModel",
    "CellularIslandModel", "MasterSlaveIslandModel",
    "SimulatedMasterSlaveIslandModel",
    "GenerationalEngine", "SteadyStateEngine",
}

#: (file, class) pairs excepted from rule 7: the single-phase control of
#: E11's registration arm sizes its budget from the two-phase run's
#: evaluation count, so the engine can only exist at trial runtime
ENGINE_CALL_ALLOWED = {("e11_applications.py", "GenerationalEngine")}


def lint_experiment_file(path: Path) -> list[str]:
    """Experiment runners must use the sweep API, not bare seed loops."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: list[str] = []

    imports_run_sweep = any(
        isinstance(node, ast.ImportFrom)
        and node.module is not None
        and node.module.endswith("sweep")
        and any(alias.name == "run_sweep" for alias in node.names)
        for node in ast.walk(tree)
    )
    calls_run_sweep = any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "run_sweep"
        for node in ast.walk(tree)
    )
    if not (imports_run_sweep and calls_run_sweep):
        problems.append(
            f"{path.relative_to(REPO)}:1: experiment module does not use "
            "repro.runtime.sweep.run_sweep — declare the trial grid as "
            "Trial specs so it can be fanned out and cached"
        )

    # no model `.run(...)` calls inside a loop statement: that is the
    # hand-rolled serial sweep the orchestrator replaces.  Trial functions
    # at module level may call .run() freely — the rule only bites loops.
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run"
            ):
                problems.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: .run(...) inside "
                    "a loop — hoist the execution into a module-level trial "
                    "function and dispatch it through run_sweep"
                )

    # rule 7: no inline engine construction — runs are RunSpec documents
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name) and func.id in ENGINE_CLASS_NAMES:
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "partitioned":
            name = f"{getattr(func.value, 'id', '?')}.partitioned"
        if name is None or (path.name, name) in ENGINE_CALL_ALLOWED:
            continue
        problems.append(
            f"{path.relative_to(REPO)}:{node.lineno}: inline engine "
            f"construction {name}(...) — describe the run as a "
            "repro.spec.RunSpec and dispatch it through a spec-backed "
            "Trial (docs/run_specs.md)"
        )
    return problems


def lint_bare_pool_file(path: Path) -> list[str]:
    """No bare multiprocessing pools outside the resilient layer (rule 6)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name) and func.id in _BARE_POOL_NAMES:
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr in _BARE_POOL_NAMES:
            # skip ThreadPoolExecutor-style names: only the bare names bite
            name = func.attr
        if name is None:
            continue
        problems.append(
            f"{path.relative_to(REPO)}:{node.lineno}: bare pool primitive "
            f"{name}() — real-process fan-out must go through "
            "repro.runtime.resilient.SupervisedPool (worker-death "
            "detection, deadlines, bounded shutdown)"
        )
    return problems


def lint_vectorized_file(path: Path) -> list[str]:
    """Kernel modules must be loop-free: whole-block NumPy only (rule 5)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, _LOOP_NODES):
            kind = type(node).__name__
            problems.append(
                f"{path.relative_to(REPO)}:{node.lineno}: {kind} in a "
                "vectorized kernel module — express the operation as a "
                "whole-block NumPy kernel"
            )
    return problems


#: list-mutating methods rule 8 forbids calling on an ``.events`` attribute
_EVENTS_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
}


def lint_trace_events_file(path: Path) -> list[str]:
    """No direct ``.events`` mutation outside ``repro/cluster/`` (rule 8)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: list[str] = []

    def _is_events_attr(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "events"

    for node in ast.walk(tree):
        offence = None
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _EVENTS_MUTATORS
            and _is_events_attr(node.func.value)
        ):
            offence = f".events.{node.func.attr}(...)"
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                [node.target] if isinstance(node, ast.AugAssign) else node.targets
            )
            for target in targets:
                if _is_events_attr(target):
                    offence = ".events = ..." if not isinstance(node, ast.Delete) else "del .events"
                elif isinstance(target, ast.Subscript) and _is_events_attr(target.value):
                    offence = ".events[...] = ..."
        if offence is not None:
            problems.append(
                f"{path.relative_to(REPO)}:{node.lineno}: direct trace-event "
                f"mutation {offence} — events enter a Trace through "
                "Trace.record() only (the .events view is rebuilt from "
                "columnar storage and feeds neither the digest nor the "
                "per-kind indexes)"
            )
    return problems


_TOGGLE = (
    "retired toggle — batch evaluation is always on and the digest walker "
    "is a test oracle, not a runtime switch"
)
_REGISTRY = (
    "retired engine registry — repro.spec.ENGINE_BUILDERS is the one "
    "registry and its exemplar specs are the contract scenarios "
    "(repro.verify.engines runs them)"
)
_REPLAY = (
    "retired replay format — repro-runspec/v1 documents are the one "
    "replayable run format and repro.verify.specs.check_spec the one "
    "run checker"
)
_SWEEP = (
    "retired sweep path — the TrialCache entry (result + TrialCost) is the "
    "one per-trial record and SweepConfig the one sweep configuration"
)
_MEMO = (
    "retired fitness memo-cache — it changed evaluation counts and no "
    "caller used it"
)
_COUNTERS = (
    "retired second counter copy — every count has one owner (a process "
    "counter, PoolStats, BENCH_sweep.json or a RunReport field) and "
    "timelines hold simulated quantities only"
)
_SELECTION = (
    "retired duplicate selection kernel — each built-in selection "
    "operator's indices(rng, fitnesses, n, maximize) method is the one "
    "implementation of its scheme, and both the member call and the "
    "vectorized engine use it"
)
_ENCODER = (
    "retired second digest-line encoder — Trace.record is the one producer "
    "of the pinned line (an unpickled full trace re-records its events "
    "through it) and trace_digest_walk the independent oracle"
)
_RECORD = (
    "retired per-generation history — EvolutionState and the run's result "
    "(RunReport.records for the parallel models) are the one record of a "
    "run; a caller that wants a curve collects it in a callback"
)
_HOOKS = (
    "retired callback wrapper — the engine calls each of its callbacks' "
    "on_generation itself; any object with that method is a callback"
)
_COUNTER = (
    "retired second evaluation counter — EvolutionEngine._evaluate is the "
    "one counter (state.evaluations) and budgets are MaxEvaluations"
)
_INLINE = (
    "retired in-line trace checker — repro.verify.invariants.check_trace "
    "checks invariants post-hoc only"
)
_UNREACHED = (
    "retired unreached component — no experiment, spec, example, script or "
    "perfbench workload ran it, only its own tests; a component that "
    "returns needs a caller (rule 14)"
)

#: names rule 9 forbids defining, assigning or importing anywhere under
#: repro/, with the reason printed for each
_RETIRED_NAMES = {
    "batch_evaluation": _TOGGLE,
    "use_batch_evaluation": _TOGGLE,
    "set_verify_digest": _TOGGLE,
    "DigestMismatchError": _TOGGLE,
    "ENGINE_REGISTRY": _REGISTRY,
    "EngineInfo": _REGISTRY,
    "SerialExecutor": (
        "retired executor — repro.core.engine.SerialEvaluator is the one "
        "serial evaluator"
    ),
    "ReplaySpec": _REPLAY,
    "run_replay": _REPLAY,
    "fuzz_specs": _REPLAY,
    "EngineAudit": _REPLAY,
    "SweepJournal": _SWEEP,
    "run_all": _SWEEP,
    "FitnessCache": _MEMO,
    "MemoizingEvaluator": _MEMO,
    "TraceChecker": _INLINE,
    "InvariantViolation": _INLINE,
    "_record_backoff_span": (
        "retired wall-clock span — spans run on simulated time only; a "
        "retry's backoff is backoff_delay(config, key, attempt)"
    ),
    "MetricRegistry": _COUNTERS,
    "metrics_snapshot": _COUNTERS,
    "check_metrics": _COUNTERS,
    "METRICS_SCHEMA": _COUNTERS,
    "wall_now": _COUNTERS,
    "selection_kernel": _SELECTION,
    "tournament_indices": _SELECTION,
    "roulette_indices": _SELECTION,
    "linear_rank_indices": _SELECTION,
    "sus_indices": _SELECTION,
    "truncation_indices": _SELECTION,
    "boltzmann_indices": _SELECTION,
    "random_indices": _SELECTION,
    "best_indices": _SELECTION,
    "canonical_line": _ENCODER,
    "_fast_norm": _ENCODER,
    "TraceSummary": (
        "retired trace summary type — a trace's digest_hex(), count() and "
        "kinds() answer the same questions on the trace itself"
    ),
    "RuntimeCapabilities": (
        "retired runtime wrapper — timed hosts pass reliable_migration, "
        "supervised, checkpoint_every and heartbeat_grace to "
        "_init_timed_runtime directly"
    ),
    "CellularResult": (
        "retired cellular result type — CellularGA runs on EvolutionEngine's "
        "lifecycle and returns EvolutionResult; sweeps are "
        "state.generation and a curve is a caller's callback"
    ),
    "ArrayPopulation": (
        "retired array population — nothing converted to it; the batched "
        "cycle stacks genomes and fitnesses from a Population directly"
    ),
    "_place_migrants": (
        "retired cellular-island migrant placement — CellularIslandModel is an "
        "IslandModel and integrates migrants with integrate_immigrants"
    ),
    "History": _RECORD,
    "GenerationRecord": _RECORD,
    "PopulationStats": (
        "retired per-generation statistics — nothing read them; a caller "
        "that wants them computes them from fitness_array() in a callback"
    ),
    "CallbackList": _HOOKS,
    "LambdaCallback": _HOOKS,
    "CountingProblem": _COUNTER,
    "FitnessBudgetExceeded": _COUNTER,
    "better": (
        "retired pairwise comparison — nothing called it; best_of ranks "
        "evaluated individuals"
    ),
    "worst_of": (
        "retired ranking helper — the worst under one direction is "
        "best_of under the other"
    ),
    "_power_iteration": (
        "retired capped reactor solve — ReactorCoreDesign takes k_eff and the "
        "flux from one eigh_tridiagonal call per design"
    ),
    **dict.fromkeys(
        (
            "CameraPlacement",
            "DopplerSpectralEstimation",
            "ar_spectrum",
            "synthetic_doppler",
            "DecayingGaussianMutation",
            "SelfAdaptiveGaussianMutation",
            "extend_spec_with_sigma",
            "SharedFitnessProblem",
            "distinct_peaks",
            "niche_counts",
            "DynamicTopology",
            "RandomRewiringTopology",
            "ScheduleTopology",
            "RunOutcome",
            "EfficacyReport",
            "summarize_runs",
            "repeat_runs",
            "derive_rng",
            "spawn_seeds",
            "mean_pairwise_distance",
            "fitness_std",
            "unique_fraction",
            "classify_speedup",
            "myrinet",
            "spectrum",
        ),
        _UNREACHED,
    ),
    "_advance_topology": (
        "retired per-epoch topology advance — every topology is static, and "
        "the timed drivers never advanced one"
    ),
}

#: names rule 9 additionally forbids under repro/parallel/
_RETIRED_PARALLEL_NAMES = {
    "register_engine": _REGISTRY,
    "contract_run": _REGISTRY,
}

#: names rule 9 additionally forbids under repro/verify/
_RETIRED_VERIFY_NAMES = {
    "SCENARIOS": _REPLAY,
}


def lint_retired_file(path: Path) -> list[str]:
    """No result aliases, retired toggles or retired registries may
    return (rule 9)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    where = _where(path)
    retired = dict(_RETIRED_NAMES)
    if PARALLEL in path.parents:
        retired.update(_RETIRED_PARALLEL_NAMES)
    if VERIFY in path.parents:
        retired.update(_RETIRED_VERIFY_NAMES)
    problems: list[str] = []
    for node in tree.body:
        if (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Name)
            and node.value.id == "RunReport"
        ):
            problems.append(
                f"{where}:{node.lineno}: module-level alias of RunReport — "
                "name repro.parallel.base.RunReport directly"
            )
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # the imported name and the name it is bound to both count
            names = [alias.name.rpartition(".")[2] for alias in node.names]
            names += [alias.asname for alias in node.names if alias.asname]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in sorted(retired.keys() & names):
            problems.append(f"{where}:{node.lineno}: {name}: {retired[name]}")
    return problems


#: the one module that may call Population.replace_worst (rule 11)
REPLACEMENT_OWNER = SRC / "core" / "operators" / "replacement.py"


def lint_replace_worst_file(path: Path) -> list[str]:
    """Only the replacement operators evict the worst member (rule 11)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{_where(path)}:{node.lineno}: replace_worst(...) outside "
        "core/operators/replacement.py — evict through a replacement rule "
        "(ReplaceWorst, ReplaceWorstIfBetter, …), the only code that picks "
        "an evictee"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace_worst"
    ]


#: the modules that may call the migration primitives (rule 12)
MIGRATION_OWNERS = {
    SRC / "parallel" / "island.py",
    SRC / "parallel" / "hybrid.py",
}
_MIGRATION_PRIMITIVES = {"select_migrants", "integrate_immigrants"}


def lint_migration_file(path: Path) -> list[str]:
    """Only the island machinery selects and integrates migrants (rule 12)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = sorted(
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
        in _MIGRATION_PRIMITIVES
    )
    return [
        f"{_where(path)}:{line}: {name}(...) outside the island machinery — "
        "migrate through IslandModel's _select_parcel and _integrate_parcel, "
        "not a private loop"
        for line, name in calls
    ]


def _replacement_rules() -> set[str]:
    """The survivor-rule classes ``core/operators/replacement.py`` defines."""
    tree = ast.parse(REPLACEMENT_OWNER.read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name != "Replacement"
    }


def lint_eviction_rule_file(path: Path) -> list[str]:
    """Only the island machinery builds a replacement rule to apply
    itself (rule 12)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    rules = _replacement_rules()
    calls = sorted(
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in rules
    )
    return [
        f"{_where(path)}:{line}: {name}(...) outside the island machinery — "
        "let arrivals enter through _integrate_parcel (the migration "
        "policy's replacement rule) or SteadyStateEngine.insert "
        "(config.replacement)"
        for line, name in calls
    ]


#: the scoring methods rule 13 forbids engine modules to call
_SCORING_METHODS = {"evaluate", "evaluate_many", "evaluate_batch"}

#: the one (module, function) of repro/parallel that may sample a
#: population itself (rule 13)
SAMPLING_OWNER = ("cellular.py", "initialize")


def _calls_in_functions(tree: ast.AST) -> list[tuple[ast.Call, str | None]]:
    """Every call with the name of its innermost enclosing function."""
    calls: list[tuple[ast.Call, str | None]] = []

    def walk(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call):
                calls.append((child, function))
            walk(child, inner)

    walk(tree, None)
    return calls


def lint_scoring_file(path: Path) -> list[str]:
    """Engine modules score through ``EvolutionEngine._evaluate`` and
    sample through ``EvolutionEngine.initialize`` (rule 13)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for call, function in sorted(
        _calls_in_functions(tree), key=lambda item: item[0].lineno
    ):
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        if isinstance(call.func, ast.Attribute) and name in _SCORING_METHODS:
            problems.append(
                f"{_where(path)}:{call.lineno}: .{name}(...) in an engine module — "
                "score through EvolutionEngine._evaluate, the one owner of the "
                "evaluation count"
            )
        elif name == "sample_population" and (path.name, function) != SAMPLING_OWNER:
            problems.append(
                f"{_where(path)}:{call.lineno}: sample_population(...) outside "
                "cellular.py's initialize — seed the population through "
                "EvolutionEngine.initialize"
            )
    return problems


#: rule 10: the classes whose keywords must be reached
KNOB_CLASS_NAMES = ENGINE_CLASS_NAMES | {
    "CellularGA",
    "MasterSlaveGA",
    "GAConfig",
    "ResilienceConfig",
}

#: rule 10: where setting a keyword by name counts as reaching it
KNOB_CALLER_DIRS = (
    SRC / "spec",
    SRC / "verify",
    SRC / "experiments",
    REPO / "examples",
    REPO / "perfbench",
    REPO / "scripts",
)

#: (declaring class, keyword) pairs rule 10 accepts although no caller
#: sets them, with the reason each stays
KNOB_ALLOWLIST = {
    ("GAConfig", "mutation_prob"): (
        "gates an rng.random() draw even at 1.0 (core/variation.py, "
        "core/vectorized/variation.py); deleting it re-pins every stream, "
        "so it goes with the one-variation-path re-pin"
    ),
    ("GAConfig", "vectorized_variation"): (
        "the opt-in block-kernel path; the one-variation-path change "
        "deletes it together with the scalar branch"
    ),
    ("SimulatedIslandModel", "heartbeat_grace"): (
        "the supervision tests need a grace shorter than the default ten "
        "generation times, or the crash lands after the run ends"
    ),
    ("SimulatedSpecializedIslandModel", "heartbeat_grace"): (
        "the same supervision capability as on the timed island model"
    ),
    ("EvolutionEngine", "evaluator"): (
        "the real-executor data path (docs/paper_map.md) and the seam the "
        "tests use to substitute an evaluator"
    ),
    ("MasterSlaveGA", "executor"): (
        "the real-executor data path of the global model (docs/paper_map.md)"
    ),
    ("MasterSlaveIslandModel", "executor"): (
        "the real-executor data path of the master-slave/island hybrid"
    ),
    ("EvolutionEngine", "callbacks"): (
        "the user hook, kept as an object boundary"
    ),
    ("CellularGA", "neighborhood"): (
        "the fine-grained neighbourhood shape, survey vocabulary "
        "(docs/paper_map.md)"
    ),
    ("ResilienceConfig", "quarantine"): (
        "the sweep sets it (runtime/sweep.py) so one poison trial cannot "
        "abort a grid; the executor keeps the bare pool's first-failure "
        "contract"
    ),
    ("ResilienceConfig", "backoff_base_s"): (
        "the resilience tests shorten backoff so retry scenarios run fast"
    ),
    ("ResilienceConfig", "backoff_cap_s"): (
        "the resilience tests shorten backoff so retry scenarios run fast"
    ),
    ("ResilienceConfig", "max_pool_respawns"): (
        "the degradation tests lower the cap to reach the serial fallback "
        "within a few worker deaths"
    ),
    ("_IslandBase", "synchrony"): (
        "synchronous vs asynchronous migration on the untimed island "
        "models, survey vocabulary (docs/paper_map.md) and a registered "
        "spec component; the timed models refuse it"
    ),
}


def _where(path: Path) -> Path:
    return path.relative_to(REPO) if REPO in path.parents else path


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
        for d in node.decorator_list
    )


def _declared_keywords(node: ast.ClassDef) -> tuple[dict[str, int], bool]:
    """The keywords ``node`` itself declares (name -> line) and whether
    its constructor forwards further keywords to its bases."""
    init = next(
        (
            b for b in node.body
            if isinstance(b, ast.FunctionDef) and b.name == "__init__"
        ),
        None,
    )
    if init is not None:
        args = init.args
        params = [*args.posonlyargs, *args.args][1:] + args.kwonlyargs
        forwards = args.vararg is not None or args.kwarg is not None
        return {a.arg: a.lineno for a in params}, forwards
    if _is_dataclass(node):
        return {
            b.target.id: b.lineno
            for b in node.body
            if isinstance(b, ast.AnnAssign)
            and isinstance(b.target, ast.Name)
            and "ClassVar" not in ast.unparse(b.annotation)
        }, False
    return {}, True


def _set_names(roots) -> set[str]:
    """Every name a caller sets: call keywords and dict-literal string keys."""
    names: set[str] = set()
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        k.value
                        for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    )
    return names


def lint_knob_reachability(
    src: Path = SRC,
    callers=KNOB_CALLER_DIRS,
    classes=KNOB_CLASS_NAMES,
    allowlist=KNOB_ALLOWLIST,
) -> list[str]:
    """Every checked keyword is set by some caller or allowlisted (rule 10)."""
    index: dict[str, tuple[ast.ClassDef, Path]] = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                index[node.name] = (node, path)
    declared = {name: _declared_keywords(node) for name, (node, _) in index.items()}

    def bases(name: str) -> list[str]:
        return [
            b.id for b in index[name][0].bases
            if isinstance(b, ast.Name) and b.id in index
        ]

    def ancestry(name: str) -> list[str]:
        seen: list[str] = []
        stack = [name]
        while stack:
            cls = stack.pop()
            if cls not in seen:
                seen.append(cls)
                stack.extend(reversed(bases(cls)))
        return seen

    checked: dict[tuple[str, str], tuple[Path, int]] = {}
    for name in sorted(classes):
        keywords: set[str] = set()
        pending = [name]
        while pending:
            cls = pending.pop()
            own, forwards = declared[cls]
            keywords.update(own)
            if forwards:
                pending.extend(bases(cls))
        base_first = ancestry(name)[::-1]
        for kw in keywords:
            owner = next(c for c in base_first if kw in declared[c][0])
            checked[(owner, kw)] = (index[owner][1], declared[owner][0][kw])

    set_by_caller = _set_names(callers)
    problems: list[str] = []
    for (cls, kw), (path, line) in sorted(checked.items()):
        if kw not in set_by_caller and (cls, kw) not in allowlist:
            problems.append(
                f"{_where(path)}:{line}: {cls}.{kw}: no experiment, spec, "
                "example, perfbench or script sets this keyword — inline its "
                "default and delete it, or allowlist it in KNOB_ALLOWLIST "
                "with a reason"
            )
    for cls, kw in sorted(allowlist):
        if (cls, kw) not in checked:
            problems.append(
                f"{_where(Path(__file__))}: KNOB_ALLOWLIST entry {cls}.{kw} "
                "names no checked keyword — delete the stale entry"
            )
        elif kw in set_by_caller:
            problems.append(
                f"{_where(Path(__file__))}: KNOB_ALLOWLIST entry {cls}.{kw} "
                "is set by a caller now — delete the stale entry"
            )
    return problems


#: rule 14: where reading a public name counts as reaching it (files under
#: a ``tests/`` directory do not count)
NAME_READER_DIRS = (SRC, REPO / "examples", REPO / "scripts", REPO / "perfbench")

#: dotted names (a module or package covers everything it defines) rule 14
#: accepts although nothing outside the tests reads them, with the reason
#: each stays
NAME_ALLOWLIST = {
    "repro.theory": (
        "the survey's closed-form takeover, sizing and speedup models that "
        "docs/paper_map.md cites; each is to become a checked expectation of "
        "the experiment measuring its quantity (E2, E3, E5, E6), or go"
    ),
    **dict.fromkeys(
        ("repro.metrics.stats.bootstrap_ci", "repro.metrics.stats.compare_samples"),
        "the statistics of the multi-seed claim check that re-runs each "
        "EXPERIMENTS.md expectation over independent seed sets",
    ),
    **dict.fromkeys(
        (
            "repro.topology.neighborhood.LinearNeighborhood",
            "repro.topology.neighborhood.CompactNeighborhood",
            "repro.topology.neighborhood.MooreNeighborhood",
        ),
        "a neighbourhood shape behind CellularGA.neighborhood, which "
        "KNOB_ALLOWLIST keeps as survey vocabulary",
    ),
    **dict.fromkeys(
        ("repro.core.checkpoint.save_checkpoint", "repro.core.checkpoint.load_checkpoint"),
        "the on-disk resume path, whose file is a typed boundary",
    ),
    **dict.fromkeys(
        (
            "repro.runtime.executor.ThreadExecutor",
            "repro.runtime.executor.MultiprocessingExecutor",
        ),
        "the real-executor data path behind the executor keyword that "
        "KNOB_ALLOWLIST keeps",
    ),
    "repro.obs.validate.check_timeline": (
        "CI's observability job validates the timeline with it from an "
        "inline script"
    ),
    "repro.verify.digest.trace_digest_walk": (
        "the independent oracle the tests check Trace.record's incremental "
        "digest against"
    ),
    "repro.problems.multiobjective.dominates": (
        "the reference Pareto-dominance test the front and hypervolume "
        "tests compare against"
    ),
    **dict.fromkeys(
        ("repro.verify.engines.contract_run", "repro.verify.engines.contract_engine_names"),
        "the contract suite's runner over ENGINE_BUILDERS' exemplar specs",
    ),
    **dict.fromkeys(
        ("repro.cluster.trace.default_retention", "repro.runtime.sweep.current_config"),
        "an ambient-state read the context-manager tests observe",
    ),
}


def _exported(tree: ast.Module) -> set[str]:
    """The names a module's literal ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def _read_names(roots) -> set[str]:
    """Every name some code outside the tests reads (rule 14)."""
    names: set[str] = set()
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            exported = _exported(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(
                        alias.name.rpartition(".")[2]
                        for alias in node.names
                        if (alias.asname or alias.name.rpartition(".")[2]) not in exported
                    )
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "getattr"
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                ):
                    names.add(node.args[1].value)
    return names


def lint_name_reachability(
    src: Path = SRC, readers=NAME_READER_DIRS, allowlist=NAME_ALLOWLIST
) -> list[str]:
    """Every public top-level definition has a reader outside the tests
    or is allowlisted (rule 14)."""
    read = _read_names(readers)
    unread: list[tuple[str, Path, int]] = []
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in read
            ):
                unread.append((f"{module}.{node.name}", path, node.lineno))

    def covers(entry: str, dotted: str) -> bool:
        return dotted == entry or dotted.startswith(entry + ".")

    problems = [
        f"{_where(path)}:{line}: {dotted.rpartition('.')[2]}: nothing outside "
        "the tests reads this name — give it a caller or delete it, or "
        "allowlist it in NAME_ALLOWLIST with a reason"
        for dotted, path, line in unread
        if not any(covers(entry, dotted) for entry in allowlist)
    ]
    for entry in sorted(allowlist):
        if not any(covers(entry, dotted) for dotted, _, _ in unread):
            problems.append(
                f"{_where(Path(__file__))}: NAME_ALLOWLIST entry {entry} covers "
                "no unread name — delete the stale entry"
            )
    return problems


def main() -> int:
    problems: list[str] = []
    for path in sorted(PARALLEL.glob("*.py")):
        problems.extend(lint_file(path))
    experiment_files = _experiment_modules()
    for path in experiment_files:
        problems.extend(lint_experiment_file(path))
    vectorized_files = sorted(VECTORIZED.glob("*.py"))
    for path in vectorized_files:
        problems.extend(lint_vectorized_file(path))
    pool_files = sorted(p for p in SRC.rglob("*.py") if p != POOL_OWNER)
    for path in pool_files:
        problems.extend(lint_bare_pool_file(path))
    trace_files = sorted(
        p for p in SRC.rglob("*.py") if (SRC / "cluster") not in p.parents
    )
    for path in trace_files:
        problems.extend(lint_trace_events_file(path))
    retired_files = sorted(SRC.rglob("*.py"))
    for path in retired_files:
        problems.extend(lint_retired_file(path))
    eviction_files = sorted(p for p in SRC.rglob("*.py") if p != REPLACEMENT_OWNER)
    for path in eviction_files:
        problems.extend(lint_replace_worst_file(path))
    migration_files = sorted(p for p in SRC.rglob("*.py") if p not in MIGRATION_OWNERS)
    for path in migration_files:
        problems.extend(lint_migration_file(path))
    rule_free_files = sorted(p for p in PARALLEL.glob("*.py") if p not in MIGRATION_OWNERS)
    for path in rule_free_files:
        problems.extend(lint_eviction_rule_file(path))
    scoring_files = sorted(PARALLEL.glob("*.py"))
    for path in scoring_files:
        problems.extend(lint_scoring_file(path))
    problems.extend(lint_knob_reachability())
    problems.extend(lint_name_reachability())
    for line in problems:
        print(line)
    if problems:
        print(f"\n{len(problems)} engine-contract violation(s)", file=sys.stderr)
        return 1
    n = len(list(PARALLEL.glob("*.py")))
    print(
        f"engine-contract lint: {n} engine modules + "
        f"{len(experiment_files)} experiment modules + "
        f"{len(vectorized_files)} vectorized kernel modules + "
        f"{len(pool_files)} bare-pool-free modules + "
        f"{len(trace_files)} trace-mutation-free modules + "
        f"{len(retired_files)} retired-surface-free modules + "
        f"{len(eviction_files)} eviction-rule-only modules + "
        f"{len(migration_files)} migration-loop-free modules + "
        f"{len(rule_free_files)} replacement-rule-free engine modules + "
        f"{len(scoring_files)} scoring-free engine modules + "
        f"{len(NAME_ALLOWLIST)} allowlisted unread-name entries + "
        f"{len(KNOB_CLASS_NAMES)} knob-reachable classes clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
