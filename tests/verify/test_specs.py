"""Spec replay/fuzz verification layer."""

import json

import pytest

from repro.spec import ENGINE_BUILDERS
from repro.verify.specs import check_spec, exemplar_spec, fuzz_specs


def test_exemplar_spec_covers_every_engine():
    for name in ENGINE_BUILDERS:
        spec = exemplar_spec(name, seed=0)
        assert spec.engine.name == name
        assert spec.seed == 0


def test_check_spec_passes_on_a_healthy_spec():
    outcome = check_spec(exemplar_spec("island", seed=4), runs=2)
    assert outcome.ok, outcome.describe()
    assert len(outcome.digest) == 64
    assert len(outcome.fingerprint) == 64
    assert "ok" in outcome.describe()


def test_check_spec_handles_sequential_engines():
    # sequential engines return EvolutionResult (no report schema to check)
    outcome = check_spec(exemplar_spec("generational", seed=1))
    assert outcome.ok, outcome.describe()


def test_fuzz_specs_subset_and_labels():
    results = fuzz_specs(seed=0, names=["island", "pool"], runs=1)
    assert [r.label for r in results] == ["island", "pool"]
    assert all(r.ok for r in results), [r.describe() for r in results]


def test_spec_replay_cli_on_a_batch(tmp_path, capsys):
    from repro.verify.__main__ import main

    doc = {
        "schema": "repro-runspec-batch/v1",
        "experiments": {"EX": [exemplar_spec("island", seed=2).to_dict()]},
    }
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(doc))
    assert main(["spec-replay", str(path)]) == 0
    assert "spec-replay: 1/1 ok" in capsys.readouterr().out


def test_spec_fuzz_cli_rejects_unknown_engine(capsys):
    from repro.verify.__main__ import main

    assert main(["spec-fuzz", "not-an-engine"]) == 2


@pytest.mark.parametrize(
    "doc",
    [[], [exemplar_spec("island").to_dict()], "spec", 3],
    ids=["empty-array", "array-of-specs", "string", "number"],
)
def test_spec_replay_cli_rejects_a_non_object_document(tmp_path, capsys, doc):
    from repro.verify.__main__ import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["spec-replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "JSON object" in err
    assert len(err.strip().splitlines()) == 1


def test_spec_replay_cli_rejects_a_non_object_batch_entry(tmp_path, capsys):
    from repro.verify.__main__ import main

    doc = {"schema": "repro-runspec-batch/v1", "experiments": {"EX": [["x"]]}}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(doc))
    assert main(["spec-replay", str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err
