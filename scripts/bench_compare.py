#!/usr/bin/env python
"""Diff two sweep benchmark snapshots (``--bench-out`` JSON files).

Usage::

    python scripts/bench_compare.py BENCH_sweep.json /tmp/new_bench.json
    python scripts/bench_compare.py old.json new.json --strict   # exit 1 on regression

Compares the ``totals`` block — wall and CPU time, simulated events,
fitness evaluations — and prints per-experiment wall and CPU time
side by side, with a WARNING for any time that regressed by more than
``--threshold`` (default 10%).  Snapshots written before per-trial CPU
time was recorded show ``-`` in the CPU columns.
Counter metrics (``sim_events``, ``evaluations``, ``trials``) warn on
*any* drift in either direction: they are deterministic per code
version, so a change means the workload itself changed, not the
machine.  With ``--strict`` warnings become a non-zero exit for CI.

Wall-clock comparisons are only meaningful between snapshots taken on
comparable hosts; the host blocks of both files are printed so a noisy
diff can be discounted by eye.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: totals keys where bigger is slower and small drift is expected noise
_WALL_KEYS = ("trial_wall_s", "trial_cpu_s", "sweep_wall_s")
#: totals keys that are exact per code version: any drift is a real change
_COUNTER_KEYS = ("trials", "sim_events", "evaluations")


def _load(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    if not isinstance(data, dict) or "totals" not in data:
        raise SystemExit(f"error: {path} is not a sweep benchmark snapshot (no 'totals')")
    return data


def _pct(old: float, new: float) -> float:
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / old * 100.0


def _per_experiment_wall(data: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for sweep in data.get("sweeps", []):
        name = sweep.get("experiment", "?")
        out[name] = out.get(name, 0.0) + float(sweep.get("wall_s", 0.0))
    return out


def _per_experiment_cpu(data: dict) -> dict[str, float]:
    """Summed CPU time of the trials each experiment executed; absent when
    never recorded.  Cache hits carry the cost of the run that computed
    them, not of this one, so they are left out (as in ``totals``)."""
    out: dict[str, float] = {}
    for trial in data.get("trials", []):
        if "cpu_s" in trial and not trial.get("cached"):
            name = trial.get("experiment", "?")
            out[name] = out.get(name, 0.0) + float(trial["cpu_s"])
    return out


def _cell(values: dict[str, float], name: str, width: int = 12) -> str:
    return f"{values[name]:>{width}.2f}" if name in values else f"{'-':>{width}}"


def compare(old: dict, new: dict, threshold: float) -> list[str]:
    """Return WARNING lines; print the metric table as a side effect."""
    warnings: list[str] = []
    ot, nt = old["totals"], new["totals"]

    print(f"{'metric':<22}{'old':>16}{'new':>16}{'delta':>10}")
    for key in _COUNTER_KEYS + _WALL_KEYS:
        if key not in ot and key not in nt:
            continue
        if key not in ot or key not in nt:
            # only one snapshot records this metric (CPU time is newer than
            # the others): show it, but there is nothing to compare
            print(f"{key:<22}{_cell(ot, key, 16)}{_cell(nt, key, 16)}")
            continue
        o, n = ot.get(key, 0), nt.get(key, 0)
        delta = _pct(o, n)
        print(f"{key:<22}{o:>16,.6g}{n:>16,.6g}{delta:>+9.1f}%")
        if key in _COUNTER_KEYS and o != n:
            warnings.append(
                f"WARNING: {key} changed {o:,} -> {n:,} — deterministic "
                f"workload drifted (new code path or experiment change?)"
            )
        elif key in _WALL_KEYS and delta > threshold:
            warnings.append(
                f"WARNING: {key} regressed {delta:+.1f}% "
                f"({o:.1f}s -> {n:.1f}s, threshold {threshold:.0f}%)"
            )

    old_wall, new_wall = _per_experiment_wall(old), _per_experiment_wall(new)
    old_cpu, new_cpu = _per_experiment_cpu(old), _per_experiment_cpu(new)
    print()
    print(
        f"{'experiment':<12}{'wall old':>12}{'wall new':>12}"
        f"{'cpu old':>12}{'cpu new':>12}"
    )
    for name in sorted(old_wall.keys() | new_wall.keys()):
        print(
            f"{name:<12}{_cell(old_wall, name)}{_cell(new_wall, name)}"
            f"{_cell(old_cpu, name)}{_cell(new_cpu, name)}"
        )
    for label, olds, news in (("wall", old_wall, new_wall), ("cpu", old_cpu, new_cpu)):
        for name in sorted(olds.keys() & news.keys()):
            delta = _pct(olds[name], news[name])
            if delta > threshold:
                warnings.append(
                    f"WARNING: {name} {label} regressed {delta:+.1f}% "
                    f"({olds[name]:.2f}s -> {news[name]:.2f}s)"
                )
    for name in sorted(old_wall.keys() ^ new_wall.keys()):
        side = "dropped from" if name in old_wall else "new in"
        print(f"note: experiment {name} {side} the new snapshot")
    return warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="baseline snapshot (e.g. BENCH_sweep.json)")
    parser.add_argument("new", type=Path, help="candidate snapshot")
    parser.add_argument(
        "--threshold", type=float, default=10.0,
        help="warn when a wall-time metric regresses by more than this %% (default 10)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any warning fired (for CI gates)",
    )
    args = parser.parse_args(argv)

    old, new = _load(args.old), _load(args.new)
    for label, data in (("old", old), ("new", new)):
        host = data.get("host", {})
        print(f"{label}: {host.get('platform', '?')} / python {host.get('python', '?')} "
              f"/ {host.get('cpu_count', '?')} cpu")
    print()
    warnings = compare(old, new, args.threshold)
    print()
    if warnings:
        for w in warnings:
            print(w)
        return 1 if args.strict else 0
    print(f"ok: no metric regressed beyond {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
