"""Round-trip property suite over every registered component.

The registries carry a buildable exemplar per entry, so coverage is
generic: any newly registered problem/operator/topology is automatically
round-tripped, digested and built by these tests.
"""

import pytest

from repro.spec import (
    OPERATORS,
    PROBLEMS,
    TOPOLOGIES,
    ClusterSpec,
    EngineSpec,
    GAConfigSpec,
    OperatorSpec,
    ProblemSpec,
    RunSpec,
    TopologySpec,
    decode_value,
    encode_value,
    spec_digest,
)

KINDS = [
    (PROBLEMS, ProblemSpec),
    (OPERATORS, OperatorSpec),
    (TOPOLOGIES, TopologySpec),
]


@pytest.mark.parametrize(
    "registry,spec_cls",
    KINDS,
    ids=[r.kind for r, _ in KINDS],
)
def test_every_exemplar_round_trips_and_builds(registry, spec_cls):
    assert len(registry) > 0
    for name in registry:
        exemplar = registry.get(name).exemplar
        spec = spec_cls(name, dict(exemplar))
        encoded = encode_value(spec)
        revived = decode_value(encoded)
        assert revived == spec, name
        assert decode_value(encode_value(revived)) == spec, name
        # the encoded form is canonical-JSON-able, hence digestable
        assert len(spec_digest({"v": encoded})) == 64, name
        built = spec.build()
        assert built is not None, name


def test_registry_coverage_floor():
    # every built-in must be registered; these floors catch a silent
    # registration regression without pinning exact counts
    assert len(PROBLEMS) >= 25
    assert len(OPERATORS) >= 40
    assert len(TOPOLOGIES) >= 8


class TestGAConfigSpec:
    def test_round_trip_with_operator_fields(self):
        spec = GAConfigSpec(
            {
                "population_size": 10,
                "elitism": 1,
                "crossover": OperatorSpec("order"),
            }
        )
        assert decode_value(encode_value(spec)) == spec

    def test_unknown_field_rejected_with_suggestion(self):
        with pytest.raises(ValueError, match="population_size"):
            GAConfigSpec({"population_sze": 8})

    def test_build_matches_hand_written_defaults(self):
        cfg = GAConfigSpec({"population_size": 12, "elitism": 2}).build()
        assert cfg.population_size == 12
        assert cfg.elitism == 2
        assert cfg.crossover_prob == 0.9  # untouched default


class TestClusterSpec:
    def test_round_trip_with_speeds_list(self):
        spec = ClusterSpec(4, speeds=[1.0, 0.5, 2.0, 1.0], latency=1e-3)
        assert decode_value(encode_value(spec)) == spec
        cluster = spec.build()
        assert cluster.n_nodes == 4

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            ClusterSpec(0)

    def test_tiebreak_jitter_is_a_seed_the_built_cluster_runs_with(self):
        from repro.spec import run_spec
        from repro.verify.specs import exemplar_spec

        base = exemplar_spec("sim-island", seed=3)
        params = dict(base.engine.params)
        params["cluster"] = ClusterSpec(3, tiebreak_jitter=5)
        spec = RunSpec(EngineSpec("sim-island", params), seed=3, run=base.run)
        again = RunSpec.from_json(spec.to_json())
        assert again == spec and again.engine.params["cluster"].tiebreak_jitter == 5
        a, b = run_spec(spec), run_spec(again)
        assert a.trace_digest == b.trace_digest  # seeded: same jitter both times
        # the jitter really reorders same-timestamp events
        assert a.trace_digest != run_spec(base).trace_digest

    @pytest.mark.parametrize("jitter", [0.5, 3.0, "7", True])
    def test_tiebreak_jitter_rejects_a_non_integer_seed(self, jitter):
        with pytest.raises(ValueError, match="tiebreak_jitter"):
            ClusterSpec(3, tiebreak_jitter=jitter)
        doc = encode_value(ClusterSpec(3))
        doc["tiebreak_jitter"] = jitter
        with pytest.raises(ValueError, match="tiebreak_jitter"):
            decode_value(doc)


class TestRunSpecDocument:
    def test_engine_params_must_not_carry_seed(self):
        with pytest.raises(ValueError, match="seed"):
            EngineSpec("island", {"seed": 3})

    def test_from_dict_rejects_wrong_schema(self):
        doc = RunSpec(engine=EngineSpec("generational")).to_dict()
        doc["schema"] = "repro-runspec/v999"
        with pytest.raises(ValueError, match="schema"):
            RunSpec.from_dict(doc)

    @pytest.mark.parametrize(
        "doc", [[], "repro-runspec/v1", 7, None], ids=["list", "str", "int", "null"]
    )
    def test_from_dict_rejects_a_non_mapping_document(self, doc):
        with pytest.raises(ValueError, match="must be a JSON object"):
            RunSpec.from_dict(doc)

    def test_from_dict_names_a_missing_engine(self):
        doc = RunSpec(engine=EngineSpec("generational")).to_dict()
        del doc["engine"]
        with pytest.raises(ValueError, match="missing required field 'engine'"):
            RunSpec.from_dict(doc)

    @pytest.mark.parametrize(
        "path,field",
        [
            (("engine",), "name"),
            (("engine", "params", "problem"), "name"),
            (("engine", "params", "cluster"), "n_nodes"),
        ],
        ids=["engine-name", "component-name", "cluster-n_nodes"],
    )
    def test_from_dict_names_a_missing_spec_field(self, path, field):
        doc = RunSpec(
            engine=EngineSpec(
                "sim-island",
                {"problem": ProblemSpec("onemax", {"length": 8}), "cluster": ClusterSpec(2)},
            )
        ).to_dict()
        target = doc
        for key in path:
            target = target[key]
        del target[field]
        with pytest.raises(ValueError, match=f"missing required field {field!r}"):
            RunSpec.from_dict(doc)

    @pytest.mark.parametrize("value", ["Infinity", "1.5", "true", '"3"', "1e3"])
    @pytest.mark.parametrize("field", ["seed", "link_seed"])
    def test_from_json_rejects_a_non_integral_seed(self, field, value):
        from repro.cluster.faults import FaultPlan

        cluster = ClusterSpec(2, fault_plan=FaultPlan(intervals=((), ()), link_seed=7))
        doc = RunSpec(
            engine=EngineSpec("sim-island", {"cluster": cluster}), seed=7
        ).to_json()
        key = f'"{field}":7'
        assert doc.count(key) == 1
        with pytest.raises(ValueError, match=f"^{field}: expected an integer"):
            RunSpec.from_json(doc.replace(key, f'"{field}":{value}'))

    def test_null_seed_is_an_unseeded_run(self):
        doc = RunSpec(engine=EngineSpec("generational")).to_dict()
        assert doc["seed"] is None
        assert RunSpec.from_dict(doc).seed is None

    def test_decode_value_names_a_missing_component_name(self):
        with pytest.raises(ValueError, match="operator spec is missing required field 'name'"):
            decode_value({"$spec": "operator", "params": {}})

    def test_digest_is_order_insensitive(self):
        a = EngineSpec("island", {"n_islands": 3, "foo": 1})
        b = EngineSpec("island", {"foo": 1, "n_islands": 3})
        assert RunSpec(engine=a).digest() == RunSpec(engine=b).digest()

    def test_digest_sensitive_to_every_field(self):
        base = RunSpec(engine=EngineSpec("generational"), seed=1, run={"termination": 3})
        assert base.digest() != RunSpec(
            engine=EngineSpec("steady-state"), seed=1, run={"termination": 3}
        ).digest()
        assert base.digest() != RunSpec(
            engine=EngineSpec("generational"), seed=2, run={"termination": 3}
        ).digest()
        assert base.digest() != RunSpec(
            engine=EngineSpec("generational"), seed=1, run={"termination": 4}
        ).digest()

    def test_infinity_survives_the_json_round_trip(self):
        spec = RunSpec(engine=EngineSpec("island", {"budget": float("inf")}))
        assert RunSpec.from_json(spec.to_json()) == spec
