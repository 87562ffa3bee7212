"""CLI: ``python -m repro.experiments [--quick] [--jobs N] [E3 E5 ...]``.

Runs the requested experiments (default: all) and prints each report's
tables, ASCII figures and expectation checks.  Exit status 1 if any
expectation failed.

``--jobs N`` fans each experiment's independent trials out over a
process pool; results are merged in declared order so reports are
fingerprint-identical to serial runs.  Trials are memoised in a
content-addressed on-disk cache (``--cache-dir``, default
``.sweep_cache``) keyed by experiment id, trial parameters, seed, quick
flag and a digest of the repro source tree — editing any kernel code
invalidates every entry.  ``--no-cache`` disables the cache entirely;
``--bench-out FILE`` writes per-trial telemetry as JSON.

``--obs-out FILE`` enables the observability subsystem for the whole
invocation and writes the merged span timeline and run notes as JSON
(schema ``repro-obs-timeline/v3``); ``--obs-trace FILE`` writes the
same spans in Chrome trace-event format for ``chrome://tracing`` /
Perfetto.  Both leave stdout — and the experiment results themselves —
byte-identical to an unobserved run.

A declarative-spec verb rides alongside the runner (see
``docs/run_specs.md``): ``specs [--quick] [--out FILE] [E3 ...]`` dumps
every spec-backed run the selected experiments would dispatch as one
canonical ``repro-runspec-batch/v1`` JSON document.  ``python -m
repro.verify replay FILE [--experiment E] [--index N]`` replays and
checks any of those runs from data alone.
"""

from __future__ import annotations

import argparse
import sys

from ..obs import obs_session, sweep_obs_summary, write_chrome_trace, write_timeline
from ..runtime.chaos import ChaosPlan
from ..runtime.resilient import ResilienceConfig
from ..runtime.sweep import SweepConfig, SweepTelemetry
from . import REGISTRY, experiment_specs, run_experiment

DEFAULT_CACHE_DIR = ".sweep_cache"
BATCH_SCHEMA = "repro-runspec-batch/v1"


def normalize_id(raw: str) -> str:
    """Canonicalise a CLI experiment id: ``e03`` / ``E03`` / ``e3`` → ``E3``."""
    s = raw.strip().upper()
    if s.startswith("E") and s[1:].isdigit():
        s = f"E{int(s[1:])}"
    return s


def _cmd_specs(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments specs",
        description="Dump every spec-backed run as one repro-runspec-batch/v1 "
        "JSON document.",
    )
    parser.add_argument(
        "ids", nargs="*", default=[], help="experiment ids (default: all)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="quick-mode grids (CI budgets)"
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the batch document to FILE "
        "instead of stdout"
    )
    args = parser.parse_args(argv)
    ids = [normalize_id(i) for i in args.ids] or list(REGISTRY)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        parser.error(
            f"unknown experiment ids {unknown}; choose from {', '.join(REGISTRY)}"
        )
    from ..spec import canonical_json

    experiments = {
        key: [spec.to_dict() for spec in experiment_specs(key, quick=args.quick)]
        for key in ids
    }
    doc = {"schema": BATCH_SCHEMA, "quick": args.quick, "experiments": experiments}
    text = canonical_json(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    n_specs = sum(len(v) for v in experiments.values())
    print(
        f"[specs] {n_specs} run specs across {len(experiments)} experiments"
        + (f" -> {args.out}" if args.out else ""),
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    raw = sys.argv[1:] if argv is None else list(argv)
    if raw and raw[0].lower() == "specs":
        return _cmd_specs(raw[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the survey's tables/figures (E1–E13).",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        default=[],
        help=f"experiment ids to run (default: all of {', '.join(REGISTRY)})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small seeds/budgets (seconds per experiment instead of minutes)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run each experiment twice and check the runs are identical "
        "(appends a determinism-audit expectation; the second run bypasses "
        "the trial cache)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for trial fan-out (default: 1, i.e. serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help="content-addressed trial cache directory "
        f"(default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trial cache (every trial recomputes)",
    )
    parser.add_argument(
        "--bench-out",
        metavar="FILE",
        help="write per-trial telemetry (wall and CPU time, simulated events, "
        "evaluations, cache hits) to FILE as JSON; flushed after every "
        "sweep and on interrupt, so a killed run leaves partial telemetry",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-trial wall-clock deadline on the fork pool: a worker "
        "stalled past it is killed and the trial retried (default: none)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="K",
        help="retries per trial after a worker death, timeout or raise "
        "before the trial is quarantined as poison (default: 2)",
    )
    parser.add_argument(
        "--chaos-plan",
        metavar="FILE",
        help="inject the deterministic fault plan (repro-chaos-plan/v1 "
        "JSON) into pool workers — for testing the resilience layer; "
        "only applies with --jobs > 1 (the serial path never faults)",
    )
    parser.add_argument(
        "--obs-out",
        metavar="FILE",
        help="enable observability and write the merged span timeline "
        "(repro-obs-timeline/v3 JSON) to FILE",
    )
    parser.add_argument(
        "--obs-trace",
        metavar="FILE",
        help="enable observability and write the spans in Chrome "
        "trace-event format to FILE (open in chrome://tracing or Perfetto)",
    )
    args = parser.parse_args(raw)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.deadline is not None and args.deadline <= 0:
        parser.error("--deadline must be > 0")
    raw_ids = list(args.ids)
    # tolerate an explicit `run` verb (``python -m repro.experiments run e03``)
    if raw_ids and raw_ids[0].lower() == "run":
        raw_ids = raw_ids[1:]
    ids = [normalize_id(i) for i in raw_ids] or list(REGISTRY)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        parser.error(
            f"unknown experiment ids {unknown}; choose from {', '.join(REGISTRY)}"
        )
    chaos = None
    if args.chaos_plan:
        try:
            chaos = ChaosPlan.load(args.chaos_plan)
        except (OSError, ValueError) as exc:
            parser.error(f"--chaos-plan {args.chaos_plan}: {exc}")
        if args.jobs < 2:
            print(
                "[chaos] warning: --chaos-plan has no effect with --jobs 1 "
                "(faults only apply inside pool workers)",
                file=sys.stderr,
            )
    telemetry = (
        SweepTelemetry(autoflush_path=args.bench_out) if args.bench_out else None
    )
    config = SweepConfig(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        telemetry=telemetry,
        resilience=ResilienceConfig(
            deadline_s=args.deadline,
            max_retries=args.max_retries,
            chaos=chaos,
        ),
    )
    obs_requested = bool(args.obs_out or args.obs_trace)
    any_failed = False

    def _run_selected() -> bool:
        failed = False
        for key in ids:
            report = run_experiment(
                key, quick=args.quick, audit=args.audit, config=config
            )
            print(report.render())
            print()
            if not report.all_passed:
                failed = True
        return failed

    try:
        if obs_requested:
            with obs_session(label="+".join(ids)) as session:
                any_failed = _run_selected()
            if args.obs_out:
                write_timeline(session, args.obs_out)
                print(f"[obs] timeline -> {args.obs_out}", file=sys.stderr)
            if args.obs_trace:
                write_chrome_trace(session, args.obs_trace)
                print(f"[obs] chrome trace -> {args.obs_trace}", file=sys.stderr)
            if telemetry is not None:
                telemetry.obs = sweep_obs_summary(session)
        else:
            any_failed = _run_selected()
    except KeyboardInterrupt:
        # run_sweep already flushed partial telemetry; make sure
        # an interrupt *between* sweeps persists telemetry too
        if telemetry is not None:
            telemetry.flush()
            print(f"[sweep] interrupted; partial telemetry -> {args.bench_out}",
                  file=sys.stderr)
        return 130

    if telemetry is not None and args.bench_out:
        telemetry.write(args.bench_out)
        totals = telemetry.totals()
        print(
            f"[sweep] {totals['trials']} trials, "
            f"{totals['cache_hits']} cache hits, "
            f"{totals['trial_wall_s']:.2f}s trial wall time, "
            f"{totals['trial_cpu_s']:.2f}s CPU "
            f"-> {args.bench_out}",
            file=sys.stderr,  # keep stdout byte-identical across sweep modes
        )
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
