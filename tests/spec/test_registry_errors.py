"""Unknown-name ergonomics: every registry lookup suggests the closest name."""

import pytest

from repro.spec import (
    ENGINE_BUILDERS,
    OPERATORS,
    PROBLEMS,
    TOPOLOGIES,
    UnknownComponentError,
    suggest,
)
from repro.verify.engines import contract_run


def test_suggest_finds_close_names():
    assert "onemax" in suggest("onemx", ["onemax", "sphere"])
    assert suggest("zzzzz", ["onemax", "sphere"]) == ""


@pytest.mark.parametrize(
    "registry,typo,expected",
    [
        (PROBLEMS, "onemx", "onemax"),
        (OPERATORS, "tournamet", "tournament"),
        (TOPOLOGIES, "rng", "ring"),
        (ENGINE_BUILDERS, "iland", "island"),
    ],
    ids=["problem", "operator", "topology", "engine"],
)
def test_lookup_errors_carry_did_you_mean(registry, typo, expected):
    with pytest.raises(UnknownComponentError, match=expected):
        registry.get(typo)


def test_unknown_component_error_is_a_keyerror():
    # existing `except KeyError` callers must keep working
    with pytest.raises(KeyError):
        PROBLEMS.get("definitely-not-registered")


def test_contract_run_suggests_close_engine_names():
    with pytest.raises(KeyError, match="did you mean 'island'"):
        contract_run("iland")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        PROBLEMS.register("onemax", lambda: None)


def test_experiment_specs_unknown_key():
    from repro.experiments import experiment_specs

    with pytest.raises(KeyError, match="E99"):
        experiment_specs("E99")
