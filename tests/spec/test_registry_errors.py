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


_SLOTS = ("problem", "config", "cluster")
_WRONG_KIND_CASES = [
    (name, slot, value)
    for name in ENGINE_BUILDERS
    for slot in _SLOTS
    if slot in ENGINE_BUILDERS.get(name).exemplar["params"]
    for value in (5, "x", [])
]


@pytest.mark.parametrize(
    "name,slot,value",
    _WRONG_KIND_CASES,
    ids=[f"{n}-{s}-{type(v).__name__}" for n, s, v in _WRONG_KIND_CASES],
)
def test_wrong_kind_component_slot_is_a_typed_error(name, slot, value):
    from repro.spec import build_run
    from repro.verify.specs import exemplar_spec

    spec = exemplar_spec(name)
    spec.engine.params[slot] = value
    with pytest.raises(
        ValueError,
        match=rf"^engine\.params\.{slot}: expected a {slot} spec, "
        rf"got {type(value).__name__}$",
    ):
        build_run(spec)


@pytest.mark.parametrize("name", ["specialized", "sim-specialized"])
@pytest.mark.parametrize(
    "value", [5, "x", [], 1.5, -1, None], ids=["int", "str", "list", "float", "neg", "null"]
)
def test_wrong_kind_scenario_is_a_typed_error(name, value):
    from repro.spec import build_run
    from repro.verify.specs import exemplar_spec

    spec = exemplar_spec(name)
    assert "scenario" in spec.engine.params
    spec.engine.params["scenario"] = value
    with pytest.raises(
        ValueError,
        match=rf"^engine\.params\.scenario: expected an operator spec, "
        rf"got {type(value).__name__}$",
    ):
        build_run(spec)


_POLICY_ENGINES = [
    name
    for name in ENGINE_BUILDERS
    if "policy" in ENGINE_BUILDERS.get(name).exemplar["params"]
]


def test_four_exemplars_carry_a_policy():
    assert sorted(_POLICY_ENGINES) == [
        "island",
        "master-slave-island",
        "sim-island",
        "sim-master-slave-island",
    ]


@pytest.mark.parametrize("name", _POLICY_ENGINES)
@pytest.mark.parametrize("value", [5, "x", []], ids=["int", "str", "list"])
def test_wrong_kind_policy_is_a_typed_error(name, value):
    from repro.spec import build_run
    from repro.verify.specs import exemplar_spec

    spec = exemplar_spec(name)
    spec.engine.params["policy"] = value
    with pytest.raises(
        ValueError,
        match=rf"^engine\.params\.policy: expected an operator spec, "
        rf"got {type(value).__name__}$",
    ):
        build_run(spec)


_CONFIG_OPERATOR_CASES = [
    (name, field, value)
    for name in ENGINE_BUILDERS
    for field in ("selection", "crossover", "mutation", "replacement")
    for value in (5, "x", [])
]


@pytest.mark.parametrize(
    "name,field,value",
    _CONFIG_OPERATOR_CASES,
    ids=[f"{n}-{f}-{type(v).__name__}" for n, f, v in _CONFIG_OPERATOR_CASES],
)
def test_wrong_kind_config_operator_is_a_typed_error(name, field, value):
    from repro.spec import GAConfigSpec, build_run
    from repro.verify.specs import exemplar_spec

    spec = exemplar_spec(name)
    config = spec.engine.params["config"]  # shared with the registry: copy
    spec.engine.params["config"] = GAConfigSpec({**config.params, field: value})
    with pytest.raises(
        ValueError,
        match=rf"^engine\.params\.config\.params\.{field}: expected an operator "
        rf"spec, got {type(value).__name__}$",
    ):
        build_run(spec)
