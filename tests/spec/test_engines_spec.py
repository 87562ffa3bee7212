"""Spec-built engines are the same object graph as hand-built ones.

For every registered engine builder: run the exemplar spec through
``run_spec`` and through direct construction with the same seed — the
result fingerprints must be identical.  This is the load-bearing
property of the spec layer: a JSON document reproduces the exact run.
"""

import pytest

from repro.parallel.base import RunReport
from repro.spec import (
    ENGINE_BUILDERS,
    EngineSpec,
    RunSpec,
    build_run,
    build_value,
    run_spec,
)
from repro.verify.digest import result_fingerprint

ENGINE_NAMES = list(ENGINE_BUILDERS)


def _exemplar(name):
    exemplar = ENGINE_BUILDERS.get(name).exemplar
    spec = RunSpec(
        engine=EngineSpec(name, dict(exemplar.get("params", {}))),
        seed=11,
        run=dict(exemplar.get("run", {})),
    )
    return spec


def test_every_parallel_engine_has_a_builder():
    import repro.parallel
    from repro.parallel import ParallelEngine

    missing = [
        obj.engine_name
        for obj in vars(repro.parallel).values()
        if isinstance(obj, type)
        and issubclass(obj, ParallelEngine)
        and obj is not ParallelEngine
        and obj.engine_name not in ENGINE_BUILDERS
    ]
    assert missing == [], f"engines without spec builders: {missing}"


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_spec_run_matches_direct_construction(name):
    spec = _exemplar(name)
    spec_result = run_spec(spec)

    entry = ENGINE_BUILDERS.get(name)
    params = {k: build_value(v) for k, v in spec.engine.params.items()}
    engine = entry.factory(seed=spec.seed, **params)
    run_kwargs = {k: build_value(v) for k, v in spec.run.items()}
    direct_result = engine.run(**run_kwargs)
    if isinstance(direct_result, RunReport):
        # run_spec stamps provenance the direct path doesn't have
        direct_result.extras["spec_digest"] = spec.digest()
    assert result_fingerprint(spec_result) == result_fingerprint(direct_result)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_same_spec_same_fingerprint(name):
    spec = _exemplar(name)
    a = result_fingerprint(run_spec(spec))
    b = result_fingerprint(run_spec(RunSpec.from_json(spec.to_json())))
    assert a == b


def test_run_spec_stamps_spec_digest():
    spec = _exemplar("island")
    report = run_spec(spec)
    assert report.extras["spec_digest"] == spec.digest()


def test_build_run_returns_an_unrun_engine():
    spec = _exemplar("island")
    model = build_run(spec)
    # engine-mode trials drive it themselves; nothing has run yet
    assert model.total_evaluations() == 0
