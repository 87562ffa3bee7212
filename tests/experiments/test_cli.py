"""Tests for the ``python -m repro.experiments`` CLI.

Argument handling (id normalisation, the tolerated ``run`` verb, error
paths) plus the observability exporters: ``--obs-out`` must produce a
schema-valid timeline that leaves stdout byte-identical to an unobserved
run, and ``--obs-trace`` a loadable Chrome trace.
"""

import json

import pytest

from repro.experiments import REGISTRY
from repro.experiments.__main__ import main, normalize_id
from repro.obs import check_timeline


class TestIdNormalisation:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("e3", "E3"),
            ("E3", "E3"),
            ("e03", "E3"),
            ("E03", "E3"),
            ("e13", "E13"),
            ("e003", "E3"),
            (" e5 ", "E5"),
        ],
    )
    def test_zero_padded_and_lowercase_forms(self, raw, expected):
        assert normalize_id(raw) == expected

    def test_non_experiment_tokens_pass_through_uppercased(self):
        assert normalize_id("table1") == "TABLE1"

    def test_normalised_ids_hit_the_registry(self):
        for key in REGISTRY:
            assert normalize_id(key.lower()) == key

    def test_unknown_id_is_an_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["E99", "--quick"])
        assert exc.value.code == 2
        assert "unknown experiment ids" in capsys.readouterr().err


class TestRunVerbAndObsFlags:
    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    def test_run_verb_with_zero_padded_id(self, tmp_path, capsys):
        out_file = tmp_path / "timeline.json"
        trace_file = tmp_path / "chrome.json"
        code, observed_stdout = self._run(
            [
                "run",
                "e05",
                "--quick",
                "--no-cache",
                "--obs-out",
                str(out_file),
                "--obs-trace",
                str(trace_file),
            ],
            capsys,
        )
        assert code == 0
        assert "E5" in observed_stdout

        # the timeline validates against its schema and carries spans
        doc = json.loads(out_file.read_text())
        assert check_timeline(doc) == []
        assert doc["schema"] == "repro-obs-timeline/v3"
        assert doc["label"] == "E5"
        assert doc["spans"]
        assert doc["runs"]

        # the Chrome trace is well-formed trace-event JSON
        chrome = json.loads(trace_file.read_text())
        events = chrome["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)
        assert any(e.get("ph") == "M" for e in events)

        # observability must not perturb the printed report
        code2, plain_stdout = self._run(["E5", "--quick", "--no-cache"], capsys)
        assert code2 == 0
        assert plain_stdout == observed_stdout

    def test_obs_out_embeds_summary_in_bench_telemetry(self, tmp_path, capsys):
        bench_file = tmp_path / "bench.json"
        code, _ = self._run(
            [
                "e05",
                "--quick",
                "--no-cache",
                "--bench-out",
                str(bench_file),
                "--obs-out",
                str(tmp_path / "t.json"),
            ],
            capsys,
        )
        assert code == 0
        bench = json.loads(bench_file.read_text())
        assert bench["obs"]["schema"] == "repro-obs-timeline/v3"
        assert bench["obs"]["span_count"] > 0
        assert any(t["obs_spans"] > 0 for t in bench["trials"])

    def test_bench_without_obs_omits_the_block(self, tmp_path, capsys):
        bench_file = tmp_path / "bench.json"
        code, _ = self._run(
            ["e05", "--quick", "--no-cache", "--bench-out", str(bench_file)],
            capsys,
        )
        assert code == 0
        bench = json.loads(bench_file.read_text())
        assert "obs" not in bench
        assert all(t["obs_spans"] == 0 for t in bench["trials"])
