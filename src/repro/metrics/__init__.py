"""Metrics: speedup/efficiency, selection pressure, diversity, statistics."""

from .diversity import between_deme_divergence, gene_entropy
from .pressure import (
    GrowthCurve,
    cellular_growth_curve,
    logistic_fit_rate,
    panmictic_growth_curve,
    takeover_time,
)
from .stats import Comparison, a12_effect_size, bootstrap_ci, compare_samples
from .speedup import (
    SpeedupPoint,
    amdahl_speedup,
    efficiency,
    speedup,
    speedup_curve,
)

__all__ = [
    "speedup",
    "efficiency",
    "speedup_curve",
    "amdahl_speedup",
    "SpeedupPoint",
    "GrowthCurve",
    "takeover_time",
    "cellular_growth_curve",
    "panmictic_growth_curve",
    "logistic_fit_rate",
    "gene_entropy",
    "between_deme_divergence",
    "Comparison",
    "compare_samples",
    "a12_effect_size",
    "bootstrap_ci",
]
