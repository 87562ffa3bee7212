"""Tests for the EXPERIMENTS.md writer and the suite layer script."""

import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))


class TestPaperClaims:
    def test_every_experiment_has_a_claim(self):
        from generate_experiments_md import PAPER_CLAIMS

        from repro.experiments import REGISTRY

        assert set(PAPER_CLAIMS) == set(REGISTRY)
        assert all(len(v) > 20 for v in PAPER_CLAIMS.values())


class TestSectionRegex:
    """The writer's section splice and header recount must be exact."""

    DOC = (
        "# header\n\nSummary: **11/12 experiments reproduce their claimed shape**\n"
        "(40/42 individual shape checks pass).\n\n"
        "## E1 — first\n\nbody one\n\n"
        "## E7 — seventh\n\nbody seven\nmore\n\n"
        "## E12 — twelfth\n\nbody twelve\n"
    )

    def _splice(self, key: str, replacement: str) -> str:
        from generate_experiments_md import splice_section

        return splice_section(self.DOC, key, replacement)

    def test_middle_section_replaced_cleanly(self):
        out = self._splice("E7", "## E7 — seventh\n\nNEW BODY\n")
        assert "NEW BODY" in out
        assert "body seven" not in out
        assert "body one" in out and "body twelve" in out

    def test_last_section_replaced(self):
        out = self._splice("E12", "## E12 — twelfth\n\nNEW END\n")
        assert out.rstrip().endswith("NEW END")
        assert "body seven" in out

    def test_e1_does_not_match_e12(self):
        out = self._splice("E1", "## E1 — first\n\nONLY ONE\n")
        assert "body twelve" in out  # E12 untouched
        assert out.count("ONLY ONE") == 1

    def test_missing_section_appended(self):
        out = self._splice("E13", "## E13 — thirteenth\n\nNEW\n")
        assert out.startswith(self.DOC.rstrip("\n") + "\n\n## E13 — thirteenth")
        assert out.endswith("NEW\n")

    def test_section_text_is_spliced_verbatim(self):
        out = self._splice("E7", "## E7 — seventh\n\npath C:\\d\\1 and \\g<0>\n")
        assert "path C:\\d\\1 and \\g<0>" in out

    def test_recount_header_regex(self):
        from generate_experiments_md import recount_header

        doc = self.DOC + (
            "\n**Measured (3s):** REPRODUCED\n"
            "- ✓ `a` — d\n- ✗ `b` — d\n"
            "\n**Measured (12s):** PARTIAL\n- ✓ `c` — d\n"
        )
        out = recount_header(doc)
        assert "Summary: **1/2 experiments reproduce their claimed shape**\n" in out
        assert "(2/3 individual shape checks pass)." in out
        assert out.replace("1/2", "11/12").replace("2/3", "40/42") == doc

    def test_recount_without_summary_line_fails(self):
        from generate_experiments_md import recount_header

        with pytest.raises(ValueError, match="summary line"):
            recount_header("## E1 — first\n")


class TestSuiteLayers:
    """``scripts/suite_layers.py`` attributes a quick experiment's host
    time to layers without losing or double counting any of it."""

    @pytest.mark.parametrize("key", ["E2", "E9"])
    def test_counts_match_and_self_times_sum_to_wall(self, key):
        from suite_layers import count_mismatches, trace_experiment

        row = trace_experiment(key, quick=True)
        assert count_mismatches(row) == []
        assert row["problems.genomes"] > 0 and row["cluster.sim.events"] > 0
        attributed = sum(row["layer_self_s"].values()) + row["unattributed_s"]
        assert attributed == pytest.approx(row["wall_s"], rel=1e-9, abs=1e-9)
        assert min(row["layer_self_s"].values()) >= -1e-6
        assert row["unattributed_s"] >= -1e-6
