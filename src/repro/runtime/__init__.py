"""Engine runtime: executors behind the evaluator seam, the shared deme
lifecycle every parallel model runs on (:mod:`repro.runtime.deme`), and
the supervised real-process execution layer both process backends share
(:mod:`repro.runtime.resilient` + :mod:`repro.runtime.chaos`)."""

from .cache import FitnessCache, MemoizingEvaluator
from .chaos import ChaosError, ChaosPlan
from .deme import EpochLoop, RuntimeCapabilities, TimedDemeRuntime, emit_generation
from .executor import MultiprocessingExecutor, ThreadExecutor, chunk_indices
from .journal import SweepJournal
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
    kernel_digest,
    run_sweep,
    sweep_context,
    trial_digest,
)

__all__ = [
    "Trial",
    "TrialCache",
    "SweepConfig",
    "SweepTelemetry",
    "SweepJournal",
    "run_sweep",
    "sweep_context",
    "kernel_digest",
    "trial_digest",
    "EpochLoop",
    "TimedDemeRuntime",
    "RuntimeCapabilities",
    "emit_generation",
    "ThreadExecutor",
    "MultiprocessingExecutor",
    "chunk_indices",
    "FitnessCache",
    "MemoizingEvaluator",
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
