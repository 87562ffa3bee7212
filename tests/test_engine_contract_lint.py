"""Tests for the engine-contract lint (``scripts/check_engine_contract.py``)."""

import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import check_engine_contract as lint  # noqa: E402


def test_repository_passes_every_rule(capsys):
    assert lint.main() == 0
    assert "knob-reachable classes clean" in capsys.readouterr().out


def test_rule_9_flags_a_retired_name_under_an_import_alias(tmp_path):
    module = tmp_path / "aliased.py"
    module.write_text(
        "from repro.core.operators.selection import TournamentSelection as selection_kernel\n"
        "from repro.cluster.canon import canonical_line as encode\n"
        "import numpy as np\n"
    )
    problems = lint.lint_retired_file(module)
    assert len(problems) == 2
    assert "aliased.py:1: selection_kernel:" in problems[0]
    assert "aliased.py:2: canonical_line:" in problems[1]


def test_rule_9_flags_the_retired_run_records_and_evaluation_counter(tmp_path):
    module = tmp_path / "records.py"
    module.write_text(
        "from repro.core.callbacks import History, LambdaCallback as hook\n"
        "from repro.core.problem import CountingProblem\n"
    )
    problems = lint.lint_retired_file(module)
    assert len(problems) == 3
    assert "records.py:1: History: retired per-generation history" in problems[0]
    assert "records.py:1: LambdaCallback: retired callback wrapper" in problems[1]
    assert "records.py:2: CountingProblem: retired second evaluation counter" in problems[2]
    for name in (
        "History", "GenerationRecord", "PopulationStats", "CallbackList",
        "LambdaCallback", "CountingProblem", "FitnessBudgetExceeded",
    ):
        assert name in lint._RETIRED_NAMES


def test_rule_9_flags_the_retired_helpers_and_the_capped_reactor_solve(tmp_path):
    module = tmp_path / "helpers.py"
    module.write_text(
        "from repro.core.individual import better, worst_of as loser\n"
        "def _power_iteration(factors, nsf):\n"
        "    return factors\n"
        "from repro.metrics.efficacy import RunOutcome as outcome\n"
    )
    problems = lint.lint_retired_file(module)
    assert len(problems) == 4
    assert "helpers.py:1: better: retired pairwise comparison" in problems[0]
    assert "helpers.py:1: worst_of: retired ranking helper" in problems[1]
    assert "helpers.py:2: _power_iteration: retired capped reactor solve" in problems[2]
    # retired everywhere now, not only under repro/verify/
    assert "helpers.py:4: RunOutcome: retired unreached component" in problems[3]
    for name in (
        "CameraPlacement", "DopplerSpectralEstimation", "SharedFitnessProblem",
        "DecayingGaussianMutation", "ScheduleTopology", "_advance_topology",
        "summarize_runs", "derive_rng", "classify_speedup", "myrinet", "spectrum",
    ):
        assert name in lint._RETIRED_NAMES
    assert "RunOutcome" not in lint._RETIRED_VERIFY_NAMES


def test_rule_11_flags_an_eviction_outside_the_replacement_operators(tmp_path):
    module = tmp_path / "evicts.py"
    module.write_text(
        "def accept(pop, newcomer):\n"
        "    pop.replace_worst(newcomer)\n"
        "    return pop.worst()\n"
    )
    (problem,) = lint.lint_replace_worst_file(module)
    assert "evicts.py:2: replace_worst(...) outside" in problem
    assert lint.lint_replace_worst_file(lint.REPLACEMENT_OWNER) != []


def test_rule_12_flags_a_migration_loop_outside_the_island_machinery(tmp_path):
    module = tmp_path / "migrates.py"
    module.write_text(
        "from repro.migration import policy\n"
        "from repro.migration.policy import select_migrants\n"
        "def migrate(rng, src, dst, pol):\n"
        "    migrants = select_migrants(rng, src, pol)\n"
        "    return policy.integrate_immigrants(rng, dst, migrants, pol)\n"
    )
    first, second = lint.lint_migration_file(module)
    assert "migrates.py:4: select_migrants(...) outside the island" in first
    assert "migrates.py:5: integrate_immigrants(...) outside the island" in second
    for owner in lint.MIGRATION_OWNERS:
        assert lint.lint_migration_file(owner) != []


def test_rule_12_flags_a_replacement_rule_applied_outside_the_island_machinery(tmp_path):
    module = tmp_path / "promotes.py"
    module.write_text(
        "from repro.core.operators import replacement\n"
        "from repro.core.operators.replacement import ReplaceWorstIfBetter\n"
        "def accept(rng, pop, newcomer):\n"
        "    if ReplaceWorstIfBetter()(rng, pop, newcomer) is None:\n"
        "        replacement.ReplaceWorst()(rng, pop, newcomer)\n"
    )
    first, second = lint.lint_eviction_rule_file(module)
    assert "promotes.py:4: ReplaceWorstIfBetter(...) outside the island" in first
    assert "promotes.py:5: ReplaceWorst(...) outside the island" in second
    # the pool pushes through SteadyStateEngine.insert, under config.replacement
    assert lint.lint_eviction_rule_file(lint.PARALLEL / "pool.py") == []


def test_rule_13_flags_scoring_and_sampling_outside_the_engine(tmp_path):
    module = tmp_path / "scores.py"
    module.write_text(
        "def run(self, problem, rng, deme):\n"
        "    genomes = problem.spec.sample_population(rng, 4)\n"
        "    fits = [problem.evaluate(g) for g in genomes]\n"
        "    fits += problem.evaluate_many(genomes)\n"
        "    deme._evaluate(genomes)\n"
        "    return problem.evaluate_batch(genomes), evaluate(genomes)\n"
    )
    sampling, scalar, many, batch = lint.lint_scoring_file(module)
    assert "scores.py:2: sample_population(...) outside cellular.py's" in sampling
    assert "scores.py:3: .evaluate(...) in an engine module" in scalar
    assert "scores.py:4: .evaluate_many(...) in an engine module" in many
    assert "scores.py:6: .evaluate_batch(...) in an engine module" in batch


def test_rule_13_lets_only_the_cellular_initialize_sample(tmp_path):
    source = (
        "class Grid:\n"
        "    def initialize(self):\n"
        "        return self.problem.spec.sample_population(self.rng, 4)\n"
    )
    cellular = tmp_path / "cellular.py"
    cellular.write_text(source)
    assert lint.lint_scoring_file(cellular) == []
    other = tmp_path / "pool.py"
    other.write_text(source)
    (problem,) = lint.lint_scoring_file(other)
    assert "pool.py:3: sample_population(...) outside" in problem


def _fixture(tmp_path: Path, caller_source: str) -> tuple[Path, Path]:
    """A source tree whose engine forwards one keyword to its base, and a
    caller tree holding ``caller_source``."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "engine.py").write_text(
        "class Base:\n"
        "    def __init__(self, problem, *, seed=None):\n"
        "        pass\n"
        "\n"
        "\n"
        "class Planted(Base):\n"
        "    def __init__(self, *args, knob_nobody_sets=1, **kwargs):\n"
        "        super().__init__(*args, **kwargs)\n"
    )
    callers = tmp_path / "callers"
    callers.mkdir()
    (callers / "caller.py").write_text(caller_source)
    return src, callers


def _lint(src, callers, allowlist=None):
    return lint.lint_knob_reachability(
        src, [callers], {"Planted"}, allowlist if allowlist is not None else {}
    )


def test_rule_10_flags_a_keyword_nothing_sets(tmp_path):
    # `seed` is forwarded through **kwargs and set as a spec dict key;
    # `problem` as a call keyword; the planted knob by nobody
    src, callers = _fixture(tmp_path, 'Planted(problem=1, **{"seed": 3})\n')
    problems = _lint(src, callers)
    assert len(problems) == 1
    assert "engine.py:7: Planted.knob_nobody_sets:" in problems[0]


def test_rule_10_attributes_a_forwarded_keyword_to_its_declaring_base(tmp_path):
    src, callers = _fixture(tmp_path, "Planted(knob_nobody_sets=2, problem=1)\n")
    (problem,) = _lint(src, callers)
    assert "engine.py:2: Base.seed:" in problem


def test_rule_10_accepts_an_allowlisted_keyword_and_flags_a_stale_entry(tmp_path):
    src, callers = _fixture(tmp_path, 'Planted(problem=1, seed=3)\n')
    assert _lint(src, callers, {("Planted", "knob_nobody_sets"): "why"}) == []
    stale = _lint(
        src,
        callers,
        {("Planted", "knob_nobody_sets"): "why", ("Planted", "gone"): "why"},
    )
    assert len(stale) == 1 and "Planted.gone names no checked keyword" in stale[0]
    set_now = _lint(src, callers, {("Base", "seed"): "why"})
    assert any("Base.seed is set by a caller now" in p for p in set_now)


def _reach_fixture(tmp_path: Path) -> tuple[Path, list[Path]]:
    """A source package defining one read and one unread public name, a
    caller tree, and a ``tests/`` directory whose reads do not count."""
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text(
        "from .mod import helper, orphan, trial_specs\n"
        '__all__ = ["helper", "orphan", "trial_specs"]\n'
    )
    (src / "mod.py").write_text(
        "def helper():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def orphan():\n"
        "    return 2\n"
        "\n"
        "\n"
        "def trial_specs():\n"
        "    return []\n"
        "\n"
        "\n"
        "def _private():\n"
        "    return 3\n"
    )
    callers = tmp_path / "callers"
    (callers / "tests").mkdir(parents=True)
    (callers / "caller.py").write_text(
        "import pkg\n"
        "pkg.helper()\n"
        'getattr(pkg, "trial_specs")()\n'
    )
    (callers / "tests" / "test_mod.py").write_text(
        "from pkg import orphan\n"
        "orphan()\n"
    )
    return src, [src, callers]


def test_rule_14_flags_a_public_name_only_tests_read(tmp_path):
    src, readers = _reach_fixture(tmp_path)
    (problem,) = lint.lint_name_reachability(src, readers, {})
    assert "mod.py:5: orphan: nothing outside the tests reads this name" in problem


def test_rule_14_accepts_an_allowlisted_name_and_flags_a_stale_entry(tmp_path):
    src, readers = _reach_fixture(tmp_path)
    assert lint.lint_name_reachability(src, readers, {"pkg.mod.orphan": "why"}) == []
    # a module entry covers everything the module defines
    assert lint.lint_name_reachability(src, readers, {"pkg.mod": "why"}) == []
    (stale,) = lint.lint_name_reachability(
        src, readers, {"pkg.mod.orphan": "why", "pkg.mod.helper": "why"}
    )
    assert "NAME_ALLOWLIST entry pkg.mod.helper covers no unread name" in stale
