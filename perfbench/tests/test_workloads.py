"""Workload generator: determinism, round trips, and the surfaces it may use."""

from pathlib import Path

import pytest

from repro.spec import RunSpec

from perfbench.workloads import WORKLOADS, derive_seed, generate


@pytest.fixture(scope="module")
def generated():
    return {(name, seed): generate(name, seed) for name in WORKLOADS for seed in (1, 2)}


def _digests(workload):
    return [t.spec.digest() for t in workload.trials]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_specs(name, generated):
    assert _digests(generate(name, 1)) == _digests(generated[(name, 1)])


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seed_gives_other_specs(name, generated):
    first, second = _digests(generated[(name, 1)]), _digests(generated[(name, 2)])
    assert len(first) == len(second)
    assert not set(first) & set(second)


@pytest.mark.parametrize("name", WORKLOADS)
def test_specs_round_trip_to_the_same_digest(name, generated):
    for trial in generated[(name, 1)].trials:
        spec = trial.spec
        assert RunSpec.from_dict(spec.to_dict()).digest() == spec.digest()
        assert RunSpec.from_json(spec.to_json()).digest() == spec.digest()


@pytest.mark.parametrize("name", WORKLOADS)
def test_only_the_top_level_seed_is_rederived(name, generated):
    workload = generated[(name, 1)]
    assert [t.spec.seed for t in workload.trials] == [
        derive_seed(name, 1, i) for i in range(len(workload.trials))
    ]
    # everything but the seed is the same configuration for another seed
    other = generated[(name, 2)]
    for a, b in zip(workload.trials, other.trials):
        assert a.spec.engine == b.spec.engine and a.spec.run == b.spec.run


# -- surfaces the ROADMAP is retiring: the benchmark must not depend on them ----------

_RETIRING_KEYS = {"vectorized_variation", "batch_evaluation"}
_RETIRING_NAMES = (
    "vectorized_variation",
    "batch_evaluation",
    "IslandResult",
    "MasterSlaveReport",
    "SIMResult",
    "PoolResult",
    "HierarchicalResult",
    "AsyncMasterSlaveReport",
    "trace_digest_walk",
    "verify_digest",
    "verify-digest",
)


def _keys_and_names(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            if key == "name":
                yield item
            yield from _keys_and_names(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys_and_names(item)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generated_specs_avoid_retiring_toggles(name, generated):
    for trial in generated[(name, 1)].trials:
        assert trial.spec is not None, "raw-callable trial"
        assert not _RETIRING_KEYS & set(_keys_and_names(trial.spec.to_dict()))


def test_benchmark_code_avoids_retiring_surfaces():
    root = Path(__file__).resolve().parents[1]
    for path in root.glob("*.py"):
        text = path.read_text()
        for name in _RETIRING_NAMES:
            assert name not in text, f"{path.name} uses {name}"
