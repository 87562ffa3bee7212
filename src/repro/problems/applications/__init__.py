"""Application workloads from the survey's §4, on synthetic substrates.

Each module documents its substitution (what the cited paper used → what
we generate → why the fitness landscape structure is preserved); the
mapping table lives in DESIGN.md.
"""

from .feature_selection import FeatureSelection, SyntheticClassification
from .image_registration import (
    ImageRegistration,
    TwoPhaseResult,
    synthetic_scene,
    two_phase_register,
)
from .rule_mining import Rule, RuleDataset, RuleMining
from .reactor import CoreSolution, ReactorCoreDesign
from .stock import (
    StockPrediction,
    TradingOutcome,
    synthetic_prices,
    technical_indicators,
)
from .wing import TransonicWingDesign

__all__ = [
    "FeatureSelection",
    "SyntheticClassification",
    "ImageRegistration",
    "TwoPhaseResult",
    "synthetic_scene",
    "two_phase_register",
    "ReactorCoreDesign",
    "CoreSolution",
    "StockPrediction",
    "TradingOutcome",
    "synthetic_prices",
    "technical_indicators",
    "TransonicWingDesign",
    "RuleMining",
    "RuleDataset",
    "Rule",
]
