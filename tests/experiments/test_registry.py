"""Tests for the experiment registry, CLI plumbing and Table 1."""

import pytest

from repro.experiments import REGISTRY, run_experiment
from repro.experiments.table1 import SELF_ENTRY, TABLE1_LIBRARIES


class TestRegistry:
    def test_all_thirteen_registered(self):
        assert set(REGISTRY) == {f"E{i}" for i in range(1, 14)}

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_case_insensitive(self):
        rep = run_experiment("e1")
        assert rep.experiment_id == "E1"


class TestTable1Content:
    def test_exactly_the_papers_rows(self):
        names = [e.name for e in TABLE1_LIBRARIES]
        assert names == [
            "DGENESIS",
            "GAlib",
            "GALOPPS",
            "PGA",
            "PGAPack",
            "POOGAL",
            "ParadisEO",
        ]

    def test_communication_column_matches_paper(self):
        comm = {e.name: e.communication for e in TABLE1_LIBRARIES}
        assert comm["DGENESIS"] == "sockets"
        assert comm["GAlib"] == "PVM"
        assert comm["PGAPack"] == "MPI"
        assert comm["ParadisEO"] == "MPI"

    def test_os_column_matches_paper(self):
        osmap = {e.name: e.os for e in TABLE1_LIBRARIES}
        assert osmap["PGA"] == "Any"
        assert osmap["POOGAL"] == "Any"
        assert osmap["GALOPPS"] == "UNIX"

    def test_self_entry_appended(self):
        assert SELF_ENTRY.index == 8
        assert SELF_ENTRY.language == "Python"

    def test_e1_report_structure(self):
        rep = run_experiment("E1", quick=True)
        assert rep.all_passed
        assert len(rep.tables) == 2
        lib_table = rep.tables[0]
        assert len(lib_table.rows) == 8  # 7 from the paper + ours
        tax_table = rep.tables[1]
        grains = set(tax_table.column("Grain"))
        assert grains == {"global", "coarse", "fine", "hybrid"}


class TestCLI:
    def test_main_runs_e1(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["E1", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Parallel genetic libraries" in out

    def test_main_unknown_experiment(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["E77", "--quick"])
        assert exc.value.code == 2
