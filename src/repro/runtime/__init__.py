"""Engine runtime: executors behind the evaluator seam, the shared deme
lifecycle every parallel model runs on (:mod:`repro.runtime.deme`), the
supervised real-process execution layer both process backends share
(:mod:`repro.runtime.resilient` + :mod:`repro.runtime.chaos`), and the
trial sweep whose content-addressed cache is the one record of every
finished trial — its result and measured cost — so a killed sweep
restarts from the cache alone (:mod:`repro.runtime.sweep`)."""

from .chaos import ChaosError, ChaosPlan
from .deme import EpochLoop, TimedDemeRuntime, emit_generation
from .executor import MultiprocessingExecutor, ThreadExecutor, chunk_indices
from .resilient import (
    PoolStats,
    QuarantinedTask,
    QuarantineError,
    ResilienceConfig,
    SupervisedPool,
    TaskFailure,
    WorkerTaskError,
    backoff_delay,
)
from .sweep import (
    SweepConfig,
    SweepTelemetry,
    Trial,
    TrialCache,
    TrialCost,
    kernel_digest,
    run_sweep,
    sweep_context,
    trial_digest,
)

__all__ = [
    "Trial",
    "TrialCache",
    "TrialCost",
    "SweepConfig",
    "SweepTelemetry",
    "run_sweep",
    "sweep_context",
    "kernel_digest",
    "trial_digest",
    "EpochLoop",
    "TimedDemeRuntime",
    "emit_generation",
    "ThreadExecutor",
    "MultiprocessingExecutor",
    "chunk_indices",
    "ResilienceConfig",
    "SupervisedPool",
    "PoolStats",
    "TaskFailure",
    "QuarantinedTask",
    "QuarantineError",
    "WorkerTaskError",
    "backoff_delay",
    "ChaosPlan",
    "ChaosError",
]
