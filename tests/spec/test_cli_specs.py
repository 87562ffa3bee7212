"""The ``specs`` CLI verb, the experiment_specs hook, and replaying its
documents through ``python -m repro.verify replay`` (which absorbed the
old ``runspec`` verb)."""

import json

import pytest

from repro.experiments import REGISTRY, experiment_specs
from repro.experiments.__main__ import main
from repro.spec import RunSpec
from repro.verify.__main__ import main as replay


def test_every_experiment_answers_the_specs_hook():
    for key in REGISTRY:
        specs = experiment_specs(key, quick=True)
        assert isinstance(specs, list)
        for spec in specs:
            assert isinstance(spec, RunSpec)


def test_only_the_literature_table_has_no_specs():
    without = [k for k in REGISTRY if not experiment_specs(k, quick=True)]
    assert without == ["E1"]


def test_specs_verb_writes_a_batch_document(tmp_path, capsys):
    out = tmp_path / "batch.json"
    assert main(["specs", "--quick", "E8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-runspec-batch/v1"
    assert doc["quick"] is True
    entries = doc["experiments"]["E8"]
    assert len(entries) == len(experiment_specs("E8", quick=True))
    # every entry is a loadable, digestable run spec
    revived = RunSpec.from_dict(entries[0])
    assert revived.engine.name == "specialized"


def test_runspec_verb_replays_a_single_spec_file(tmp_path, capsys):
    spec = experiment_specs("E10", quick=True)[0]
    path = tmp_path / "one.json"
    path.write_text(spec.to_json())
    assert replay(["replay", str(path), "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "spec: trace " in out
    assert "replay: 1/1 ok" in out


def test_runspec_verb_indexes_into_a_batch(tmp_path, capsys):
    out = tmp_path / "batch.json"
    assert main(["specs", "--quick", "E10", "--out", str(out)]) == 0
    argv = ["replay", str(out), "--experiment", "e10", "--index", "1", "--runs", "1"]
    assert replay(argv) == 0
    printed = capsys.readouterr().out
    assert "E10[1]: trace " in printed
    assert "replay: 1/1 ok" in printed


def test_runspec_verb_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "nope"}')
    assert replay(["replay", str(path)]) == 2


def test_runspec_verb_index_out_of_range(tmp_path):
    out = tmp_path / "batch.json"
    assert main(["specs", "--quick", "E10", "--out", str(out)]) == 0
    assert replay(["replay", str(out), "--experiment", "E10", "--index", "999"]) == 2


def test_runspec_verb_is_gone():
    # replaying a document is `python -m repro.verify replay`
    with pytest.raises(SystemExit):
        main(["runspec", "spec.json"])


def test_specs_verb_rejects_unknown_ids():
    with pytest.raises(SystemExit):
        main(["specs", "E99"])
