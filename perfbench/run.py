#!/usr/bin/env python3
"""Repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload islands --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics.  Every reported time is scaled to the host's speed
as the reference kernel in ``calibrate.py`` measures it, timed after each
pass and each set-up.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file recording the
host, commit and workload seed is written to ``perfbench/results/``.
The exit code is non-zero when any correctness check fails.
"""

import time

# set-up time counts from here: imports, spec generation, kernel digest, warm-up
_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

#: set-up is also measured this many times in fresh interpreters (median)
SETUP_PROBES = 2
#: reference-kernel calls timed after each set-up (their mean scales it)
SETUP_KERNELS = 2
#: candidate tail percentiles, highest first
TAIL_LEVELS = (0.99, 0.95, 0.9, 0.75, 0.5)
#: trials a tail percentile needs beyond it
TAIL_BEYOND = 10
#: units of the per-layer metrics that are times, scaled like the end-to-end ones
TIME_UNITS = ("s", "us")


def setup(workload_name, seed):
    """Import the program, generate the workload, compute the kernel
    digest and make one untimed warm-up run of the first trial's spec."""
    sys.path[:0] = [str(ROOT), str(SRC)]
    from repro.runtime import sweep
    from repro.spec import run_spec

    from perfbench.workloads import generate

    workload = generate(workload_name, seed)
    sweep.kernel_digest()
    run_spec(workload.trials[0].spec)
    return workload


def setup_sample(setup_s):
    """``(set-up time, mean reference-kernel time)`` of this process, the
    kernel timed right after the set-up."""
    from perfbench.calibrate import kernel_seconds

    return setup_s, statistics.fmean(kernel_seconds() for _ in range(SETUP_KERNELS))


def probe_setup(args):
    """Set-up samples of fresh interpreters running this file's set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(tuple(float(x) for x in out.stdout.split()[-2:]))
    return samples


def run_pass(workload, gate, tracer=None):
    """One pass over the workload's trials (cold then warm when cached),
    timed, then checked by the correctness gate."""
    from repro.core.problem import evaluations_observed
    from repro.runtime import sweep

    telemetry = sweep.SweepTelemetry()
    cache_dir = None
    if workload.cached:
        WORK.mkdir(exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    config = sweep.SweepConfig(cache_dir=cache_dir, telemetry=telemetry)
    sweep_id = f"perfbench/{workload.name}"
    cold = warm = error = None
    evaluations = evaluations_observed()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            cold = sweep.run_sweep(sweep_id, workload.trials, quick=True, config=config)
            if workload.cached:
                warm = sweep.run_sweep(sweep_id, workload.trials, quick=True, config=config)
    except Exception as exc:  # a raising trial fails the whole pass
        error = f"pass raised {type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        evaluations = evaluations_observed() - evaluations
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    executed = [t for t in telemetry.trials if not t.cached]
    if error is None:
        failures, qualities = gate.check(
            [t.spec for t in workload.trials], cold, [t.evaluations for t in executed], warm
        )
    else:
        failures, qualities = [error] * len(workload.trials), []
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "evaluations": evaluations,
        "latencies": [t.wall_s for t in executed],
        "attempted": len(workload.trials),
        "failures": failures,
        "qualities": qualities,
    }


def measure(workload, gate, seconds, min_passes, cycle=(None,)):
    """Passes until the next round would overrun ``seconds`` (at least
    ``min_passes``): an untimed warm-up pass, the timed passes, and the
    reference-kernel time taken after each timed pass.  Pass ``i`` runs
    under ``cycle[i % len(cycle)]``, a tracer or None; alternating keeps
    host speed drift out of the ratio of traced to untraced passes."""
    from perfbench.calibrate import kernel_seconds

    passes, kernels = [], []
    start = time.perf_counter()
    # the first pass of a process and the first kernel call after the
    # set-up probes run ~8% slow; both are checked, neither is timed
    warmup = run_pass(workload, gate)
    kernel_seconds()
    while True:
        passes.append(run_pass(workload, gate, cycle[len(passes) % len(cycle)]))
        kernels.append(kernel_seconds())
        if len(passes) % len(cycle):
            continue
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(passes) * len(cycle)
        if len(passes) >= min_passes and elapsed + per_round > seconds:
            return warmup, passes, kernels


def speed_factor(kernels):
    """Scale from measured seconds to seconds on the reference host.  The
    kernels interleave with the passes, so the mean kernel time follows the
    host's speed averaged over the same stretch as the mean pass time."""
    from perfbench.calibrate import REFERENCE_S

    return REFERENCE_S / statistics.fmean(kernels)


def tail_level(n_trials):
    """Highest tail percentile with at least TAIL_BEYOND trials beyond it."""
    for level in TAIL_LEVELS:
        if int((1.0 - level) * n_trials) >= TAIL_BEYOND:
            return level
    raise ValueError(f"{n_trials} trials per run are too few for a tail percentile")


def end_to_end(workload, passes, kernels, setup_samples):
    import numpy as np

    from perfbench.calibrate import REFERENCE_S

    scale = speed_factor(kernels)
    latencies = [x for p in passes for x in p["latencies"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    qualities = [q for p in passes for q in p["qualities"]]
    # the level is fixed per workload: it follows the trials a run is
    # guaranteed to make, not how many passes happened to fit
    level = tail_level(len(workload.trials) * workload.min_passes)
    # pass times are means, like the kernel time every time is scaled by
    wall = statistics.fmean(p["wall_s"] for p in passes)
    metrics = {
        "wall_s": (wall * scale, "s"),
        "cpu_s": (statistics.fmean(p["cpu_s"] for p in passes) * scale, "s"),
        "evals_per_s": (
            sum(p["evaluations"] for p in passes) / (len(passes) * wall) / scale, "1/s"
        ),
        # the median trial of the median pass: the pooled median of apps
        # sits high among its six short stock trials, where a few slow
        # passes moved it by a third between runs
        "run_p50_s": (
            statistics.median(float(np.median(p["latencies"])) for p in passes) * scale
            if latencies else float("nan"),
            "s",
        ),
        "run_tail_s": (
            float(np.quantile(latencies, level)) * scale if latencies else float("nan"), "s"
        ),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
        "quality": (statistics.fmean(qualities) if qualities else float("nan"), "ratio"),
        "setup_s": (statistics.median(s * REFERENCE_S / k for s, k in setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "failed_frac": failed / attempted,
        "run_tail_level": level,
        "run_tail_trials": len(latencies),
        "passes": len(passes),
        "measured_wall_s": wall,
        "measured_setup_s": statistics.median(s for s, _ in setup_samples),
        "kernel_s": kernels,
        "speed_factor": scale,
        "setup_samples": setup_samples,
    }
    return metrics, notes


def per_layer(tracer, untraced, traced, kernels):
    scale = speed_factor(kernels)
    metrics = {
        name: (value * scale if unit in TIME_UNITS else value, unit)
        for name, (value, unit) in tracer.metrics(len(traced)).items()
    }
    metrics["trace_overhead"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced),
        "ratio",
    )
    checks = []
    if tracer.counts["problems.genomes"] != tracer.evaluations:
        checks.append(
            f"problems.genomes {tracer.counts['problems.genomes']} != "
            f"evaluations_observed() delta {tracer.evaluations}"
        )
    if tracer.counts["cluster.sim.events"] != tracer.events:
        checks.append(
            f"cluster.sim.events {tracer.counts['cluster.sim.events']} != "
            f"events_dispatched() delta {tracer.events}"
        )
    if min(tracer.self_s.values(), default=0.0) < -1e-6 or tracer.unattributed_s() < -1e-6:
        checks.append("negative self time: spans were double counted")
    notes = {
        "layer_self_s": tracer.layer_self_s(),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "kernel_s": kernels,
        "speed_factor": scale,
    }
    return metrics, checks, notes


def git_commit():
    """The checkout's commit, read from ``.git`` (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("islands", "apps", "farm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    workload = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_probe:
        print(*map(repr, setup_sample(setup_s)))
        return 0

    from perfbench.gate import Gate

    gate = Gate()
    if args.trace:
        from perfbench.tracing import LayerTracer

        tracer = LayerTracer()
        warmup, passes, kernels = measure(workload, gate, args.seconds, 2, (None, tracer))
        metrics, checks, notes = per_layer(tracer, passes[0::2], passes[1::2], kernels)
    else:
        setup_samples = [setup_sample(setup_s)] + probe_setup(args)
        warmup, passes, kernels = measure(workload, gate, args.seconds, workload.min_passes)
        metrics, notes = end_to_end(workload, passes, kernels, setup_samples)
        checks = []

    checked = [warmup, *passes]
    attempted = sum(p["attempted"] for p in checked)
    failures = [f for p in checked for f in p["failures"]] + checks
    failed = sum(len(p["failures"]) for p in checked)
    correct = not failures
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "host": host(),
        "trials_per_pass": len(workload.trials),
        "notes": notes,
        "failures": failures,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_latencies_s": [p["latencies"] for p in passes],
        **doc,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:24s} {value:14.6g} {unit}")
    print(f"{args.workload:8s} times are scaled by {notes['speed_factor']:.4g} to the "
          f"reference host (mean kernel {statistics.fmean(kernels):.4g} s)")
    if not args.trace:
        print(f"{args.workload:8s} as measured: wall_s {notes['measured_wall_s']:.6g} s, "
              f"setup_s {notes['measured_setup_s']:.6g} s")
        print(f"{args.workload:8s} {'failed_frac':24s} {notes['failed_frac']:14.6g} "
              f"fraction ({failed}/{attempted} runs)")
        print(f"{args.workload:8s} run_tail_s is the p{notes['run_tail_level'] * 100:g} "
              f"of {notes['run_tail_trials']} trials")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps(doc))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
