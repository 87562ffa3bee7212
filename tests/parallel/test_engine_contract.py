"""Cross-engine contract suite: every registered engine honours the
shared runtime contract.

Generic properties, checked for *every* parallel engine in
``ENGINE_BUILDERS`` by :func:`~repro.verify.specs.check_spec` on its
contract scenario (the builder's exemplar spec):

1. the run returns a schema-valid :class:`~repro.parallel.base.RunReport`;
2. two runs from the same seed (the second observed) are fingerprint-
   and digest-identical;
3. the emitted trace passes every streaming invariant rule, best-monotone
   in the problem's direction included;
4. observability is transparent and its spans are sound.

Plus the runtime-capability demonstrations the refactor promises: the
reliable channel and supervisor work from a *non-island* engine (the
master-slave/island hybrid), and the engines that previously computed
through node downtime now stall (specialized islands, async
master-slave).
"""

import dataclasses
import math

import pytest

from repro.cluster import Network, SimulatedCluster
from repro.cluster.faults import FaultPlan
from repro.core import GAConfig
from repro.core.problem import evaluations_observed
from repro.migration import MigrationPolicy
import repro.parallel
from repro.parallel import (
    ParallelEngine,
    RunReport,
    SimulatedAsyncMasterSlave,
    SimulatedMasterSlaveIslandModel,
    SimulatedSpecializedIslandModel,
    validate_report,
)
from repro.parallel.base import REPORT_COUNTERS, EpochRecord
from repro.parallel.specialized import standard_scenarios
from repro.problems import OneMax
from repro.problems.multiobjective import SchafferF2
from repro.spec import ENGINE_BUILDERS, EngineSpec, build_run, run_spec
from repro.verify.engines import (
    audit_engine,
    audit_engines,
    contract_engine_names,
    contract_run,
)
from repro.verify.invariants import CheckContext, check_trace
from repro.verify.specs import execute, exemplar_spec

ENGINES = contract_engine_names()


@pytest.fixture(scope="module")
def audits():
    return audit_engines(seed=2)


def _problems(audit, check):
    """The audit's problems found by ``check`` (their prefix)."""
    return [p for p in audit.problems if p.startswith(f"{check}:")]


def _exported_engine_names():
    return sorted(
        obj.engine_name
        for obj in vars(repro.parallel).values()
        if isinstance(obj, type)
        and issubclass(obj, ParallelEngine)
        and obj is not ParallelEngine
    )


def test_every_registered_engine_has_a_contract(audits):
    """Every exported parallel engine class has exactly one audited
    contract scenario, and each audited report names its engine back."""
    assert ENGINES == _exported_engine_names()
    assert len(ENGINES) >= 8  # the survey's full taxonomy is covered
    for name in ENGINES:
        assert audits[name].report.engine == name


@pytest.mark.parametrize("name", ENGINES)
def test_returns_schema_valid_run_report(name, audits):
    audit = audits[name]
    assert isinstance(audit.report, RunReport)
    assert _problems(audit, "report") == []
    assert audit.report.engine == name


@pytest.mark.parametrize("name", ENGINES)
def test_fingerprint_deterministic_across_two_runs(name, audits):
    assert _problems(audits[name], "determinism") == []


@pytest.mark.parametrize("name", ENGINES)
def test_trace_passes_streaming_invariants(name, audits):
    audit = audits[name]
    assert audit.violations == []
    # every contract scenario is traced, and the report carries the digest
    assert audit.report.trace_digest is not None


@pytest.mark.parametrize("name", ENGINES)
def test_records_and_counters_are_well_formed(name, audits):
    report = audits[name].report
    assert all(isinstance(r, EpochRecord) for r in report.records)
    assert report.migrants_accepted <= report.migrants_sent
    assert report.stop_reason


#: the builders whose contract scenario exchanges individuals between demes
MIGRATING = [
    "island",
    "sim-island",
    "specialized",
    "sim-specialized",
    "master-slave-island",
    "sim-master-slave-island",
    "cellular-island",
]


@pytest.mark.parametrize("name", MIGRATING)
def test_migrating_engines_count_their_migrants(name, audits):
    """Timed or untimed, an engine that migrates reports what it sent."""
    report = audits[name].report
    assert report.migrants_sent > 0
    assert report.migrants_accepted <= report.migrants_sent


def _counted_specs():
    """Every builder's exemplar, plus the cellular islands' line sweep
    (its cells are scored one at a time, not as one stacked batch)."""
    specs = {name: exemplar_spec(name) for name in ENGINE_BUILDERS}
    line_sweep = exemplar_spec("cellular-island")
    specs["cellular-island/line-sweep"] = dataclasses.replace(
        line_sweep,
        engine=EngineSpec(
            "cellular-island", {**line_sweep.engine.params, "update": "line-sweep"}
        ),
    )
    return specs


COUNTED = _counted_specs()


@pytest.mark.parametrize("label", list(COUNTED))
def test_reported_evaluations_are_the_evaluations_made(label):
    """An engine's evaluation count has one owner: the count it reports
    is the number of genomes its problem actually scored."""
    before = evaluations_observed()
    _, _, report = execute(COUNTED[label])
    assert report.evaluations == evaluations_observed() - before


@pytest.mark.parametrize("name", ENGINES)
def test_a_second_run_is_refused_before_any_state_changes(name):
    """An engine runs once: a second ``run()`` raises before it evaluates
    a genome or emits a trace event."""
    spec = exemplar_spec(name)
    engine, trace, _ = execute(spec)
    digest, evaluations = trace.digest_hex(), evaluations_observed()
    with pytest.raises(RuntimeError, match=r"run\(\) called twice"):
        run_spec(spec, engine)
    assert trace.digest_hex() == digest
    assert evaluations_observed() == evaluations


def test_contract_run_seed_changes_the_run():
    _, a = contract_run("sim-island", seed=0)
    _, b = contract_run("sim-island", seed=1)
    from repro.verify.digest import result_fingerprint

    assert result_fingerprint(a) != result_fingerprint(b)


def test_audit_engine_rejects_unknown_name():
    with pytest.raises(KeyError):
        audit_engine("no-such-engine")


@pytest.mark.parametrize("name", ["generational", "steady-state"])
def test_sequential_builders_have_no_contract_scenario(name):
    assert name not in ENGINES
    with pytest.raises(ValueError, match="sequential"):
        contract_run(name)


def test_registry_exposes_engine_classes():
    for name in ENGINES:
        engine = build_run(exemplar_spec(name))
        assert type(engine).engine_name == name


# ---------------------------------------------------------------------------
# observability contract: run notes and span-derived paper metrics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ENGINES)
def test_report_metrics_snapshot_matches_schema(name):
    """Each engine's observed run notes its report's counter fields, the
    counters' one owner, by name, in a timeline that passes its schema
    check; the note is a pure copy of the report, not of any session."""
    from repro.obs import check_timeline, obs_session, timeline_doc

    with obs_session(label="notes") as session:
        _, report = contract_run(name, 2)
    assert validate_report(report, engine=name) == []
    assert [run["engine"] for run in session.runs] == [name]
    counters = session.runs[0]["counters"]
    assert counters == {
        counter: getattr(report, counter) for counter in REPORT_COUNTERS
    }
    assert counters["migrants_sent"] == report.migrants_sent
    assert counters["retransmits"] == report.retransmits
    assert counters["dup_discards"] == report.dup_discards
    assert counters["evaluations"] == report.evaluations
    assert check_timeline(timeline_doc(session)) == []


@pytest.mark.parametrize("name", ENGINES)
def test_observability_is_transparent_and_spans_are_sound(name, audits):
    """The observed audit run found no fingerprint drift (it is part of
    the determinism audit), no nesting violation and no uncovered
    generation event."""
    audit = audits[name]
    assert _problems(audit, "determinism") == []
    assert _problems(audit, "obs") == []


@pytest.mark.parametrize("name", ENGINES)
def test_timed_engines_emit_spans(name, audits):
    audit = audits[name]
    if audit.report.sim_time is not None:
        assert audit.span_count > 0


def test_span_derived_utilisation_matches_extras():
    """Async master-slave: utilisation from spans equals the engine's own
    ``extras["utilisation"]`` bookkeeping to within float tolerance."""
    from repro.obs import obs_session, utilisation_by_track

    with obs_session(label="util-check") as session:
        _, report = contract_run("async-master-slave", 2)
    derived = utilisation_by_track(session.spans, horizon=report.sim_time)
    expected = report.extras["utilisation"]
    assert len(expected) >= 1
    for s, util in enumerate(expected):
        assert derived[f"slave-{s + 1}"] == pytest.approx(util, abs=1e-9)


def test_span_derived_comm_compute_matches_extras():
    """Distributed cellular: per-phase span sums equal the engine's
    ``compute_time``/``comm_time`` extras, and so does the ratio."""
    from repro.obs import comm_compute_times, comm_fraction, obs_session

    with obs_session(label="comm-check") as session:
        _, report = contract_run("distributed-cellular", 2)
    comm, compute = comm_compute_times(session.spans)
    assert comm == pytest.approx(report.extras["comm_time"], abs=1e-9)
    assert compute == pytest.approx(report.extras["compute_time"], abs=1e-9)
    assert comm_fraction(session.spans) == pytest.approx(
        report.comm_fraction, abs=1e-9
    )


def test_session_notes_every_run():
    from repro.obs import obs_session

    with obs_session(label="notes") as session:
        _, report = contract_run("sim-island", 1)
    assert len(session.runs) == 1
    assert session.runs[0]["engine"] == "sim-island"
    assert session.runs[0]["counters"] == {
        counter: getattr(report, counter) for counter in REPORT_COUNTERS
    }


# ---------------------------------------------------------------------------
# runtime capabilities from a non-island engine (the hybrid)
# ---------------------------------------------------------------------------


def _hybrid(cluster, **kwargs):
    kwargs.setdefault("stop_when_any_solves", False)
    kwargs.setdefault("local_workers", 4)
    return SimulatedMasterSlaveIslandModel(
        OneMax(64),
        4,
        GAConfig(population_size=10, elitism=1),
        cluster=cluster,
        eval_cost=1e-3,
        migration_payload=16.0,
        max_epochs=12,
        policy=MigrationPolicy(rate=1, replacement="worst-if-better"),
        seed=11,
        **kwargs,
    )


def _cluster(n_nodes, plan=None):
    return SimulatedCluster(
        n_nodes, network=Network(n_nodes, latency=1e-3, bandwidth=1e6), fault_plan=plan
    )


class TestHybridRuntimeCapabilities:
    def test_reliable_channel_retransmits_under_loss(self):
        total_retransmits = 0
        for link_seed in range(5):
            plan = FaultPlan(
                intervals=((),) * 4, loss_rate=0.3, dup_rate=0.2, link_seed=link_seed
            )
            cluster = _cluster(4, plan)
            report = _hybrid(cluster, reliable_migration=True).run()
            ctx = CheckContext.from_cluster(
                cluster, conserved_kinds=("migration", "migration-ack")
            )
            assert check_trace(cluster.trace, ctx) == []
            applied = [
                (e["src"], e["dst"], e["seq"])
                for e in cluster.trace
                if e.kind == "migrant-apply"
            ]
            assert len(applied) == len(set(applied))  # exactly-once
            total_retransmits += report.retransmits
        assert total_retransmits > 0

    def test_supervisor_recovers_crashed_deme_on_spare(self):
        crash = ((), ((0.02, math.inf),), (), (), (), ())
        cluster = _cluster(6, FaultPlan(intervals=crash))
        report = _hybrid(
            cluster,
            reliable_migration=True,
            supervised=True,
            checkpoint_every=2,
            heartbeat_grace=0.03,
        ).run()
        assert report.recoveries >= 1
        assert report.abandoned_demes == 0
        assert all(t > 0.0 for t in report.finish_times)
        assert any(e.kind == "recovery" for e in cluster.trace)

    def test_local_workers_shrink_simulated_time(self):
        wide = _hybrid(_cluster(4), local_workers=8).run()
        narrow = _hybrid(_cluster(4), local_workers=1).run()
        assert wide.sim_time < narrow.sim_time
        # the wire is untouched by local farming: same migration traffic
        assert wide.migrants_sent == narrow.migrants_sent


# ---------------------------------------------------------------------------
# downtime is no longer silently computed through
# ---------------------------------------------------------------------------


def _sim_specialized(cluster, **kwargs):
    return SimulatedSpecializedIslandModel(
        SchafferF2(),
        standard_scenarios()[2],
        GAConfig(population_size=12),
        cluster=cluster,
        eval_cost=1e-3,
        max_epochs=8,
        seed=5,
        **kwargs,
    )


class TestDowntimeStalls:
    def test_specialized_subea_stalls_through_outage(self):
        outage = ((), ((0.01, 0.05),))
        faulty = _sim_specialized(_cluster(2, FaultPlan(intervals=outage))).run()
        clean = _sim_specialized(_cluster(2)).run()
        assert faulty.finish_times[1] >= clean.finish_times[1] + 0.03
        assert faulty.epochs == clean.epochs  # work suspended, not lost

    def test_specialized_permanent_crash_loses_the_subea(self):
        crash = ((), ((0.01, math.inf),))
        report = _sim_specialized(_cluster(2, FaultPlan(intervals=crash))).run()
        assert report.finish_times[1] == 0.0
        assert report.finish_times[0] > 0.0

    def test_async_master_slave_crashed_slave_stops_completing(self):
        crash = ((), ((0.05, math.inf),), (), ())
        cluster = _cluster(4, FaultPlan(intervals=crash))
        model = SimulatedAsyncMasterSlave(
            OneMax(48),
            GAConfig(population_size=16),
            cluster=cluster,
            eval_cost=1e-3,
            seed=3,
        )
        report = model.run(max_evaluations=400)
        alive = [c for i, c in enumerate(report.completions) if i != 0]
        assert report.completions[0] < min(alive)  # crashed lane starved
        assert report.solved or report.stop_reason == "max_evaluations"

    def test_async_all_slaves_crashed_terminates(self):
        crash = tuple(((0.01, math.inf),) if i else () for i in range(4))
        cluster = _cluster(4, FaultPlan(intervals=crash))
        model = SimulatedAsyncMasterSlave(
            OneMax(48),
            GAConfig(population_size=16),
            cluster=cluster,
            eval_cost=1e-3,
            seed=3,
        )
        report = model.run(max_evaluations=10_000)
        assert report.stop_reason == "all-slaves-crashed"
        assert report.evaluations < 10_000
