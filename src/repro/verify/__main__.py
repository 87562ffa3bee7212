"""CLI for the verification subsystem.

::

    python -m repro.verify fuzz --seed 0 --runs 25
    python -m repro.verify replay spec.json           # or '-' for stdin
    python -m repro.verify replay specs.json --experiment E8 --index 0
    python -m repro.verify audit --quick E2 E3
    python -m repro.verify engines --seed 0

``replay`` and ``engines`` check ``repro-runspec/v1`` documents with
:func:`~repro.verify.specs.check_spec`; ``fuzz`` samples them.  Exit
status 1 on any failure and 2 on unreadable input, so every subcommand
is CI-ready.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fuzzer import fuzz


def _cmd_fuzz(args: argparse.Namespace) -> int:
    report = fuzz(
        seed=args.seed,
        runs=args.runs,
        shrink=not args.no_shrink,
        verbose=True,
        audit=not args.no_audit,
    )
    return 0 if report.ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    # imported lazily: the experiments package pulls in every runner
    from ..experiments import REGISTRY, run_experiment

    ids = [i.upper() for i in args.ids] or list(REGISTRY)
    unknown = [k for k in ids if k not in REGISTRY]
    if unknown:
        print(
            f"error: unknown experiment id(s) {unknown}; choose from {sorted(REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    failed = False
    for key in ids:
        report = run_experiment(key, quick=args.quick, audit=True)
        verdict = report.expectations[-1]  # the appended determinism-audit
        print(f"{key}: {verdict}")
        if not verdict.passed:
            failed = True
    return 1 if failed else 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from ..spec import ENGINE_BUILDERS
    from .engines import audit_engines

    names = [n.lower() for n in args.names] or None
    unknown = [n for n in (names or []) if n not in ENGINE_BUILDERS]
    if unknown:
        print(
            f"error: unknown engine(s) {unknown}; choose from "
            f"{ENGINE_BUILDERS.names()}",
            file=sys.stderr,
        )
        return 2
    audits = audit_engines(names, seed=args.seed).values()
    failed = 0
    for audit in audits:
        print(audit.describe())
        failed += not audit.ok
    print(f"engines: {len(audits) - failed}/{len(audits)} ok")
    return 1 if failed else 0


def _iter_spec_docs(doc: dict, experiment: str | None, index: int | None):
    """Yield ``(label, runspec_doc)`` from a single-spec or batch file."""
    if not isinstance(doc, dict):
        raise ValueError(f"top level must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") == "repro-runspec-batch/v1":
        experiments = doc.get("experiments", {})
        keys = [experiment.upper()] if experiment else sorted(experiments)
        for key in keys:
            entries = experiments.get(key, [])
            picked = enumerate(entries) if index is None else [(index, entries[index])]
            for i, entry in picked:
                yield f"{key}[{i}]", entry
    else:
        yield "spec", doc


def _cmd_replay(args: argparse.Namespace) -> int:
    from ..spec import RunSpec
    from .specs import check_spec

    try:
        if args.file == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.file, encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot load {args.file}: {err}", file=sys.stderr)
        return 2
    failed = checked = 0
    try:
        for label, entry in _iter_spec_docs(doc, args.experiment, args.index):
            outcome = check_spec(
                RunSpec.from_dict(entry), label=label, runs=args.runs
            )
            print(outcome.describe())
            checked += 1
            if not outcome.ok:
                failed += 1
    except (IndexError, KeyError, TypeError, ValueError) as err:
        print(f"error: {args.file}: {err}", file=sys.stderr)
        return 2
    if checked == 0:
        print(f"error: {args.file}: no specs selected", file=sys.stderr)
        return 2
    print(f"replay: {checked - failed}/{checked} ok")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Deterministic-simulation verification: fuzz, replay, "
        "audit, engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuzz = sub.add_parser("fuzz", help="randomised scenario fuzzing")
    p_fuzz.add_argument("--seed", type=int, default=0, help="master fuzz seed")
    p_fuzz.add_argument("--runs", type=int, default=25, help="scenarios to run")
    p_fuzz.add_argument(
        "--no-shrink", action="store_true", help="print failures unshrunk"
    )
    p_fuzz.add_argument(
        "--no-audit", action="store_true",
        help="skip the per-run same-seed determinism audit (halves runtime)",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_replay = sub.add_parser(
        "replay",
        help="check serialized run specs (a repro-runspec/v1 document or a "
        "'specs' batch): round-trip, determinism, report schema, invariants",
    )
    p_replay.add_argument(
        "file", help="RunSpec JSON file or runspec batch ('-' reads stdin)"
    )
    p_replay.add_argument(
        "--experiment", default=None, metavar="E",
        help="batch files: restrict to one experiment's specs",
    )
    p_replay.add_argument(
        "--index", type=int, default=None, metavar="N",
        help="batch files: restrict to one spec per selected experiment",
    )
    p_replay.add_argument(
        "--runs", type=int, default=2, metavar="K",
        help="executions per spec for the determinism check (default: 2)",
    )
    p_replay.set_defaults(func=_cmd_replay)

    p_audit = sub.add_parser(
        "audit", help="same-seed determinism audit of the experiment suite"
    )
    p_audit.add_argument(
        "ids", nargs="*", default=[], help="experiment ids (default: all E1–E13)"
    )
    p_audit.add_argument(
        "--quick", action="store_true", help="quick-mode experiment budgets"
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_eng = sub.add_parser(
        "engines",
        help="check every engine builder's exemplar spec (its contract scenario)",
    )
    p_eng.add_argument(
        "names", nargs="*", default=[], help="engine names (default: all)"
    )
    p_eng.add_argument("--seed", type=int, default=0, help="contract-scenario seed")
    p_eng.set_defaults(func=_cmd_engines)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
