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

4. **The metrics registry.**  Counter-like run statistics belong in the
   namespaced ``RunReport.metrics`` snapshot
   (:func:`repro.obs.metrics.metrics_snapshot`), not in new bare
   ``extras`` dict keys.  ``extras`` stays for engine-specific payloads
   (curves, archives, per-worker vectors); any *new* key in an
   ``extras={...}`` literal must either join the allowlist below (with a
   non-scalar payload justification) or become a first-class
   ``RunReport`` counter wired into the snapshot.

5. **The vectorized fast path.**  ``repro/core/vectorized`` exists to
   replace per-individual Python loops with whole-block NumPy kernels,
   so its kernel modules must contain no ``for``/``while`` statements,
   comprehensions or generator expressions.  ``population.py`` is exempt:
   it is the object boundary that converts between ``Individual`` lists
   and arrays, and looping is its job.

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
   cache key and the ``runspec`` replay path.  The allowlist below
   names the deliberate exceptions (trials whose construction depends
   on results only known at execution time).

8. **Columnar traces.**  ``Trace.events`` is a lazily rebuilt read-only
   view over interned columnar storage — mutating the returned list
   (``trace.events.append(...)``, ``trace.events[...] = ...``,
   ``trace.events = ...``) silently bypasses the incremental digest, the
   per-kind indexes and the listener seam.  Events enter a trace through
   ``Trace.record`` only; no module outside ``repro/cluster/`` may
   mutate an ``.events`` attribute.

9. **Retired compatibility surfaces.**  No module under ``repro/`` may
   bind a module-level name to ``RunReport`` (the deleted per-engine
   result aliases such as ``IslandResult = RunReport``), nor define,
   assign or import the retired global toggles ``batch_evaluation``,
   ``use_batch_evaluation``, ``set_verify_digest`` or
   ``DigestMismatchError``, the second engine registry
   ``ENGINE_REGISTRY`` / ``EngineInfo``, or ``SerialExecutor``; and no
   module under ``repro/parallel/`` may bring back ``register_engine``
   or ``contract_run``.  Callers name ``RunReport`` directly, batch
   evaluation is always on, the digest walker is a test oracle,
   ``ENGINE_BUILDERS`` is the one engine registry (its exemplar specs
   are the contract scenarios, run by ``repro.verify.engines``) and
   ``SerialEvaluator`` is the one serial evaluator.

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
EXPERIMENTS = REPO / "src" / "repro" / "experiments"
VECTORIZED = REPO / "src" / "repro" / "core" / "vectorized"

#: the one module allowed to build on the raw multiprocessing pool
#: primitives (it replaces them with supervised workers)
POOL_OWNER = SRC / "runtime" / "resilient.py"

#: bare-pool constructions/methods rule 6 forbids outside POOL_OWNER
_BARE_POOL_NAMES = {"Pool", "imap_unordered", "imap", "map_async"}

#: vectorized modules allowed to loop: the Individual<->array boundary
VECTORIZED_LOOP_ALLOWED = {"population.py"}

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

#: result classes that are NOT engine reports: outcomes of sequential
#: sub-engines embedded inside engines (analogous to EvolutionResult)
RESULT_CLASS_ALLOWED = {("cellular.py", "CellularResult")}

#: the one module that owns the report schema
SCHEMA_OWNER = "base.py"

#: every extras key an engine may put in its report.  These are
#: engine-specific *payloads* (curves, archives, per-worker vectors,
#: nested results) — scalar counters do NOT belong here: they become
#: RunReport fields surfaced through the repro.obs metrics snapshot.
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
            and (rel, node.name) not in RESULT_CLASS_ALLOWED
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
        # keys — new counters go through the RunReport metrics snapshot
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
                            "belong on RunReport and in the repro.obs metrics "
                            "snapshot, not in bare extras dicts"
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
                "whole-block NumPy kernel (loops live behind the "
                "population.py object boundary)"
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
                "listeners)"
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
}

#: names rule 9 additionally forbids under repro/parallel/
_RETIRED_PARALLEL_NAMES = {
    "register_engine": _REGISTRY,
    "contract_run": _REGISTRY,
}


def lint_retired_file(path: Path) -> list[str]:
    """No result aliases, retired toggles or retired registries may
    return (rule 9)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    where = path.relative_to(REPO)
    retired = dict(_RETIRED_NAMES)
    if PARALLEL in path.parents:
        retired.update(_RETIRED_PARALLEL_NAMES)
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
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in sorted(retired.keys() & names):
            problems.append(f"{where}:{node.lineno}: {name}: {retired[name]}")
    return problems


def main() -> int:
    problems: list[str] = []
    for path in sorted(PARALLEL.glob("*.py")):
        problems.extend(lint_file(path))
    experiment_files = _experiment_modules()
    for path in experiment_files:
        problems.extend(lint_experiment_file(path))
    vectorized_files = sorted(
        p for p in VECTORIZED.glob("*.py") if p.name not in VECTORIZED_LOOP_ALLOWED
    )
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
        f"{len(retired_files)} retired-surface-free modules clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
