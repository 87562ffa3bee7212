#!/usr/bin/env python
"""Suite-wide layer attribution: where each experiment's host time goes.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/suite_layers.py --quick --out BENCH_layers.json
    PYTHONPATH=src python scripts/suite_layers.py --quick E2 E9

Mirrors ``python -m repro.experiments [--quick] [ids]``, but runs each
experiment once under ``perfbench.tracing.LayerTracer`` instead of
printing its report.  Each run uses the default ``SweepConfig()``: serial,
because the tracer patches this process only, and uncached, because a
cache hit would skip the work being attributed.

For each experiment the output records the traced wall and CPU time,
the self time of every layer (problems, core, deme, migration, cluster,
sweep, spec) and the unattributed remainder, which together sum to the
traced wall time, plus ``core.variation_s``.  It also records the
tracer's ``problems.genomes`` and ``cluster.sim.events`` counts next to
the ``evaluations_observed()`` and ``events_dispatched()`` deltas over
the same run.  Exit status 1 if any count disagrees with its public
counter.

Simulated time stays in ``repro.obs`` spans; this script and the
per-trial figures in ``BENCH_sweep.json`` are the host-time record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))  # perfbench is a top-level package

from perfbench.tracing import LayerTracer  # noqa: E402

from repro.experiments import REGISTRY, run_experiment  # noqa: E402
from repro.experiments.__main__ import normalize_id  # noqa: E402

SCHEMA = "repro-suite-layers/v1"


def trace_experiment(experiment_id: str, quick: bool) -> dict:
    """Run one experiment under a fresh :class:`LayerTracer`."""
    tracer = LayerTracer()
    with tracer.installed():
        cpu = time.process_time()
        report = run_experiment(experiment_id, quick=quick)
        cpu = time.process_time() - cpu
    counts = tracer.counts
    return {
        "experiment": experiment_id,
        "all_passed": report.all_passed,
        "wall_s": tracer.wall_s,
        "cpu_s": cpu,
        "layer_self_s": tracer.layer_self_s(),
        "unattributed_s": tracer.unattributed_s(),
        "core.variation_s": tracer.self_s["core.variation"],
        "problems.genomes": counts["problems.genomes"],
        "evaluations_observed": tracer.evaluations,
        "cluster.sim.events": counts["cluster.sim.events"],
        "events_dispatched": tracer.events,
    }


def count_mismatches(row: dict) -> list[str]:
    """Layer counts that disagree with the program's public counters."""
    pairs = (
        ("problems.genomes", "evaluations_observed"),
        ("cluster.sim.events", "events_dispatched"),
    )
    return [
        f"{row['experiment']}: {layer} {row[layer]} != {public} {row[public]}"
        for layer, public in pairs
        if row[layer] != row[public]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python scripts/suite_layers.py",
        description="Attribute each experiment's host time to the program's layers.",
    )
    parser.add_argument(
        "ids", nargs="*", default=[], help="experiment ids (default: all)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="quick-mode grids (CI budgets)"
    )
    parser.add_argument("--out", metavar="FILE", help="write the JSON document to FILE")
    args = parser.parse_args(argv)
    ids = [normalize_id(i) for i in args.ids] or list(REGISTRY)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        parser.error(
            f"unknown experiment ids {unknown}; choose from {', '.join(REGISTRY)}"
        )

    rows, problems = [], []
    print(f"{'id':<4} {'wall_s':>8} {'cpu_s':>8} {'core_s':>8} {'variation_s':>11} "
          f"{'unattr_s':>8}  counts")
    for key in ids:
        row = trace_experiment(key, args.quick)
        mismatches = count_mismatches(row)
        rows.append(row)
        problems.extend(mismatches)
        print(
            f"{key:<4} {row['wall_s']:8.2f} {row['cpu_s']:8.2f} "
            f"{row['layer_self_s']['core']:8.2f} {row['core.variation_s']:11.2f} "
            f"{row['unattributed_s']:8.2f}  {'MISMATCH' if mismatches else 'match'}",
            flush=True,
        )
    total_wall = sum(r["wall_s"] for r in rows)
    print(f"total traced wall {total_wall:.2f} s over {len(rows)} experiments")

    if args.out:
        doc = {
            "schema": SCHEMA,
            "quick": args.quick,
            "host": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
            },
            "totals": {
                "wall_s": total_wall,
                "cpu_s": sum(r["cpu_s"] for r in rows),
                "core.variation_s": sum(r["core.variation_s"] for r in rows),
            },
            "experiments": rows,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"[layers] -> {args.out}", file=sys.stderr)
    for problem in problems:
        print(f"count mismatch: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
