"""The one run checker and the ``replay`` / ``engines`` verbs."""

import io
import json

import pytest

from repro.spec import ENGINE_BUILDERS
from repro.verify.engines import audit_engines
from repro.verify.specs import check_spec, exemplar_spec


def test_exemplar_spec_covers_every_engine():
    for name in ENGINE_BUILDERS:
        spec = exemplar_spec(name, seed=0)
        assert spec.engine.name == name
        assert spec.seed == 0


def test_check_spec_passes_on_a_healthy_spec():
    outcome = check_spec(exemplar_spec("island", seed=4), runs=2)
    assert outcome.ok, outcome.describe()
    assert len(outcome.digest) == 64
    assert len(outcome.trace_digest) == 64
    assert len(outcome.fingerprint) == 64
    assert outcome.span_count >= 0
    assert "ok" in outcome.describe()


def test_check_spec_handles_sequential_engines():
    # sequential engines return EvolutionResult: untraced, no report schema
    outcome = check_spec(exemplar_spec("generational", seed=1))
    assert outcome.ok, outcome.describe()
    assert outcome.trace_digest is None


def test_check_spec_runs_the_sequential_equality_property(monkeypatch):
    from repro.parallel.master_slave import SimulatedMasterSlave

    healthy = check_spec(exemplar_spec("sim-master-slave"), runs=1)
    assert healthy.ok, healthy.describe()
    run = SimulatedMasterSlave.run

    def off_by_one(self, *args, **kwargs):
        report = run(self, *args, **kwargs)
        report.extras["result"].evaluations += 1
        return report

    monkeypatch.setattr(SimulatedMasterSlave, "run", off_by_one)
    broken = check_spec(exemplar_spec("sim-master-slave"), runs=1)
    assert broken.signature == "property:sequential-equality"


def test_audit_engines_subset_and_labels():
    results = audit_engines(["island", "pool"], seed=0)
    assert [r.label for r in results.values()] == ["island", "pool"]
    assert all(r.ok for r in results.values()), [r.describe() for r in results.values()]


def test_spec_replay_cli_on_a_batch(tmp_path, capsys):
    from repro.verify.__main__ import main

    doc = {
        "schema": "repro-runspec-batch/v1",
        "experiments": {"EX": [exemplar_spec("island", seed=2).to_dict()]},
    }
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 0
    assert "replay: 1/1 ok" in capsys.readouterr().out


def test_spec_replay_cli_rejects_a_wrong_kind_problem(tmp_path, capsys):
    from repro.verify.__main__ import main

    doc = exemplar_spec("sim-master-slave").to_dict()
    doc["engine"]["params"]["problem"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert "engine.params.problem: expected a problem spec, got int" in err


def test_spec_replay_cli_runs_a_cellular_island_random_policy(tmp_path, capsys):
    from repro.verify.__main__ import main

    doc = exemplar_spec("cellular-island").to_dict()
    doc["engine"]["params"]["policy"] = {
        "$spec": "operator",
        "name": "migration-policy",
        "params": {"rate": 2, "selection": "random", "replacement": "random"},
    }
    path = tmp_path / "random.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 0
    assert "replay: 1/1 ok" in capsys.readouterr().out


def test_spec_replay_cli_rejects_a_cellular_island_total_population(tmp_path, capsys):
    from repro.verify.__main__ import main

    doc = exemplar_spec("cellular-island").to_dict()
    doc["engine"]["params"]["total_population"] = 32
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unexpected keyword argument 'total_population'" in err
    assert "Traceback" not in err


def test_spec_replay_cli_rejects_an_unknown_immigrant_replacement(tmp_path, capsys):
    from repro.verify.__main__ import main

    doc = exemplar_spec("island").to_dict()
    doc["engine"]["params"]["policy"]["params"]["replacement"] = "wrost"
    doc["run"]["termination"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    assert "replacement: unknown immigrant replacement 'wrost'" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [{"layers": 10**6}, {"branching": 10**6}])
def test_spec_replay_cli_rejects_a_hierarchy_over_the_deme_cap(tmp_path, capsys, shape):
    from repro.verify.__main__ import main

    doc = exemplar_spec("hierarchical").to_dict()
    doc["engine"]["params"].update(shape)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    layers = shape.get("layers", 2)
    branching = shape.get("branching", 2)
    assert f"layers={layers}, branching={branching}: the tree has more than 1024" in err
    assert "Traceback" not in err


def test_spec_replay_cli_rejects_islands_over_the_deme_cap(tmp_path, capsys):
    from repro.verify.__main__ import main

    doc = exemplar_spec("island").to_dict()
    doc["engine"]["params"]["n_islands"] = 1025
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert "n_islands=1025: more than 1024 demes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("batch", 21, "batch (21) must not exceed population_size (20)"),
        ("max_transactions", -5, "max_transactions must be >= 1, got -5"),
    ],
    ids=["batch-over-pool", "no-transactions"],
)
def test_spec_replay_cli_rejects_an_unrunnable_pool(
    tmp_path, capsys, field, value, message
):
    from repro.verify.__main__ import main

    doc = exemplar_spec("pool").to_dict()
    doc["engine"]["params"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name", ["specialized", "sim-specialized"])
def test_spec_replay_cli_rejects_a_wrong_kind_scenario(tmp_path, capsys, name):
    from repro.verify.__main__ import main

    doc = exemplar_spec(name).to_dict()
    doc["engine"]["params"]["scenario"] = None
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert "engine.params.scenario: expected an operator spec, got NoneType" in err


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("policy",), "x", "engine.params.policy: expected an operator spec, got str"),
        (
            ("config", "params", "selection"),
            5,
            "engine.params.config.params.selection: expected an operator spec, got int",
        ),
    ],
    ids=["policy", "config-selection"],
)
def test_spec_replay_cli_rejects_a_wrong_kind_operator(
    tmp_path, capsys, path, value, message
):
    from repro.verify.__main__ import main

    doc = exemplar_spec("island").to_dict()
    slot = doc["engine"]["params"]
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["replay", str(bad)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_replay_cli_reads_stdin(monkeypatch, capsys):
    from repro.verify.__main__ import main

    spec = exemplar_spec("sim-island", seed=1)
    monkeypatch.setattr("sys.stdin", io.StringIO(spec.to_json()))
    assert main(["replay", "-", "--runs", "1"]) == 0
    assert "replay: 1/1 ok" in capsys.readouterr().out


def test_engines_cli_rejects_unknown_engine(capsys):
    from repro.verify.__main__ import main

    assert main(["engines", "not-an-engine"]) == 2


@pytest.mark.parametrize(
    "doc",
    [[], [exemplar_spec("island").to_dict()], "spec", 3],
    ids=["empty-array", "array-of-specs", "string", "number"],
)
def test_spec_replay_cli_rejects_a_non_object_document(tmp_path, capsys, doc):
    from repro.verify.__main__ import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "JSON object" in err
    assert len(err.strip().splitlines()) == 1


def test_spec_replay_cli_rejects_a_non_object_batch_entry(tmp_path, capsys):
    from repro.verify.__main__ import main

    doc = {"schema": "repro-runspec-batch/v1", "experiments": {"EX": [["x"]]}}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err
