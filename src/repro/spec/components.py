"""Typed, versioned run-spec dataclasses with canonical JSON round-trip.

A :class:`RunSpec` is the serializable description of one engine run:
which engine, built from which problem / operators / topology / cluster,
with which seed, driven with which run arguments.  The JSON schema is
``repro-runspec/v1``; :meth:`RunSpec.digest` is a sha256 over the
canonical JSON form (sorted keys, compact separators, floats via
``repr`` as Python's ``json`` emits them), so two specs that build the
same run have the same content address — this digest is what the sweep
cache keys on.

Component references serialize as tagged dicts::

    {"$spec": "problem",  "name": "onemax",   "params": {"length": 64}}
    {"$spec": "operator", "name": "periodic", "params": {"interval": 4}}
    {"$spec": "topology", "name": "ring",     "params": {}}
    {"$spec": "config",   "params": {"population_size": 32}}
    {"$spec": "cluster",  "n_nodes": 8, ...}
    {"$spec": "engine",   "name": "island",   "params": {...}}
    {"$spec": "fault-plan", "intervals": [...], ...}

``params`` values nest freely (scalars, lists, string-keyed dicts, other
specs).  ``Infinity`` is permitted — fault-plan intervals use it for
permanent crashes — and round-trips through Python's ``json`` module.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields as dc_fields
from typing import Any, ClassVar, Mapping

import numpy as np

from ..cluster.faults import FaultPlan
from ..cluster.machine import SimulatedCluster
from ..cluster.network import Network
from ..core.config import GAConfig
from .registry import (
    ENGINE_BUILDERS,
    OPERATORS,
    PROBLEMS,
    TOPOLOGIES,
    suggest,
)

__all__ = [
    "SCHEMA",
    "ComponentSpec",
    "ProblemSpec",
    "OperatorSpec",
    "TopologySpec",
    "GAConfigSpec",
    "ClusterSpec",
    "EngineSpec",
    "RunSpec",
    "encode_value",
    "decode_value",
    "build_value",
    "canonical_json",
    "spec_digest",
]

SCHEMA = "repro-runspec/v1"

#: reserved key marking a tagged spec dict in the JSON form
_TAG = "$spec"


# -- component references ----------------------------------------------------------


@dataclass(frozen=True)
class ComponentSpec:
    """A named component reference: registry name + constructor params."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    #: which registry resolves :attr:`name` (set per subclass)
    KIND: ClassVar[str] = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def _registry(self):
        return {"problem": PROBLEMS, "operator": OPERATORS, "topology": TOPOLOGIES}[
            self.KIND
        ]

    def build(self) -> Any:
        entry = self._registry().get(self.name)
        return entry.factory(**{k: build_value(v) for k, v in self.params.items()})


class ProblemSpec(ComponentSpec):
    KIND = "problem"


class OperatorSpec(ComponentSpec):
    KIND = "operator"


class TopologySpec(ComponentSpec):
    KIND = "topology"


_COMPONENT_BY_KIND = {
    "problem": ProblemSpec,
    "operator": OperatorSpec,
    "topology": TopologySpec,
}


# -- GA configuration --------------------------------------------------------------


@dataclass(frozen=True)
class GAConfigSpec:
    """Declarative :class:`~repro.core.config.GAConfig`.

    ``params`` holds exactly the constructor arguments the run names —
    unnamed fields keep the library defaults, so building the spec
    constructs the same object a hand-written ``GAConfig(...)`` call
    would.  Operator-valued fields (``selection``, ``crossover``,
    ``mutation``, ``replacement``) take :class:`OperatorSpec` values.
    """

    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        known = {f.name for f in dc_fields(GAConfig)}
        for key in self.params:
            if key not in known:
                raise ValueError(
                    f"unknown GAConfig field {key!r}{suggest(key, known)}"
                )

    def build(self) -> GAConfig:
        return GAConfig(**{k: build_value(v) for k, v in self.params.items()})


# -- simulated machine -------------------------------------------------------------


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative :class:`~repro.cluster.machine.SimulatedCluster`.

    ``latency`` / ``bandwidth`` describe the :class:`Network` (``None``
    for both means the cluster's default network); ``fault_plan`` is a
    :class:`~repro.cluster.faults.FaultPlan` (serialized as a tagged
    dict).  ``speeds`` is a scalar or per-node list.  ``tiebreak_jitter``
    is the integer seed of the scheduler's tie-break jitter (``None``
    keeps same-timestamp events in FIFO order).
    """

    n_nodes: int
    speeds: Any = 1.0
    latency: float | None = None
    bandwidth: float | None = None
    fault_plan: FaultPlan | None = None
    tiebreak_jitter: int | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"cluster needs >= 1 node, got {self.n_nodes}")
        object.__setattr__(
            self,
            "tiebreak_jitter",
            _integral_seed(self.tiebreak_jitter, "tiebreak_jitter", nullable=True),
        )

    def build(self) -> SimulatedCluster:
        network = None
        if self.latency is not None or self.bandwidth is not None:
            kwargs: dict[str, Any] = {}
            if self.latency is not None:
                kwargs["latency"] = self.latency
            if self.bandwidth is not None:
                kwargs["bandwidth"] = self.bandwidth
            network = Network(self.n_nodes, **kwargs)
        speeds = self.speeds
        if isinstance(speeds, (list, tuple)):
            speeds = [float(s) for s in speeds]
        return SimulatedCluster(
            self.n_nodes,
            speeds=speeds,
            network=network,
            fault_plan=self.fault_plan,
            tiebreak_jitter=(
                None
                if self.tiebreak_jitter is None
                else np.random.default_rng(self.tiebreak_jitter)
            ),
        )


# -- engine ------------------------------------------------------------------------


_OPERATOR = ((OperatorSpec,), "an operator spec")
_OPTIONAL_OPERATOR = ((OperatorSpec, type(None)), "an operator spec")

#: the component slots engines share: the spec each must hold (``None``
#: leaves an optional slot at the engine's default) and its name in errors
_SLOT_KINDS: dict[str, tuple[tuple[type, ...], str]] = {
    "problem": ((ProblemSpec,), "a problem spec"),
    "config": ((GAConfigSpec, type(None)), "a config spec"),
    "cluster": ((ClusterSpec, type(None)), "a cluster spec"),
    "scenario": _OPERATOR,
    "policy": _OPTIONAL_OPERATOR,
}

#: the same for a config's operator fields (``None`` resolves crossover
#: and mutation per genome spec)
_CONFIG_SLOT_KINDS: dict[str, tuple[tuple[type, ...], str]] = {
    "selection": _OPERATOR,
    "crossover": _OPTIONAL_OPERATOR,
    "mutation": _OPTIONAL_OPERATOR,
    "replacement": _OPERATOR,
}


def _check_slots(params: Mapping[str, Any], kinds: Mapping, path: str) -> None:
    """A one-line :class:`ValueError` naming ``path.slot`` for the first
    slot of ``params`` that holds the wrong kind of value."""
    for slot, (types, what) in kinds.items():
        value = params.get(slot)
        if slot in params and not isinstance(value, types):
            raise ValueError(f"{path}.{slot}: expected {what}, got {type(value).__name__}")


@dataclass(frozen=True)
class EngineSpec:
    """A named engine builder plus its (possibly spec-valued) params."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        if "seed" in self.params:
            raise ValueError(
                "engine params must not carry 'seed' — set RunSpec.seed instead"
            )

    def build(self, seed: int | None = None) -> Any:
        entry = ENGINE_BUILDERS.get(self.name)
        _check_slots(self.params, _SLOT_KINDS, "engine.params")
        config = self.params.get("config")
        if config is not None:
            _check_slots(config.params, _CONFIG_SLOT_KINDS, "engine.params.config.params")
        built = {k: build_value(v) for k, v in self.params.items()}
        return entry.factory(seed=seed, **built)


# -- the run spec ------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One engine run as data: engine + seed + ``run(**run)`` arguments."""

    engine: EngineSpec
    seed: int | None = None
    run: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "run", dict(self.run))

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "engine": encode_value(self.engine),
            "seed": self.seed,
            "run": {k: encode_value(v) for k, v in self.run.items()},
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunSpec":
        if not isinstance(doc, Mapping):
            raise ValueError(
                f"a {SCHEMA} document must be a JSON object, got {type(doc).__name__}"
            )
        schema = doc.get("schema")
        if schema != SCHEMA:
            raise ValueError(f"not a {SCHEMA} document (schema={schema!r})")
        engine = decode_value(_field(doc, "engine", "run spec"))
        if not isinstance(engine, EngineSpec):
            raise ValueError("'engine' must be a tagged engine spec")
        seed = _integral_seed(doc.get("seed"), "seed", nullable=True)
        run = {k: decode_value(v) for k, v in dict(doc.get("run", {})).items()}
        return cls(engine=engine, seed=seed, run=run)

    def to_json(self, *, indent: int | None = None) -> str:
        return canonical_json(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Content address: sha256 over the canonical JSON form."""
        return spec_digest(self.to_dict())


def canonical_json(doc: Mapping[str, Any], *, indent: int | None = None) -> str:
    """Canonical JSON: sorted keys, compact separators (unless indented)."""
    seps = (",", ": ") if indent is not None else (",", ":")
    return json.dumps(doc, sort_keys=True, separators=seps, indent=indent)


def spec_digest(doc: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


# -- value encoding ----------------------------------------------------------------


def encode_value(value: Any, depth: int = 0) -> Any:
    """Lower a spec-level value to plain JSON data (tagged dicts for specs)."""
    if depth > 16:
        raise ValueError("spec value nests too deeply to encode")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return encode_value(value.tolist(), depth + 1)
    if isinstance(value, ComponentSpec):
        return {
            _TAG: value.KIND,
            "name": value.name,
            "params": {k: encode_value(v, depth + 1) for k, v in value.params.items()},
        }
    if isinstance(value, GAConfigSpec):
        return {
            _TAG: "config",
            "params": {k: encode_value(v, depth + 1) for k, v in value.params.items()},
        }
    if isinstance(value, ClusterSpec):
        return {
            _TAG: "cluster",
            "n_nodes": value.n_nodes,
            "speeds": encode_value(value.speeds, depth + 1),
            "latency": value.latency,
            "bandwidth": value.bandwidth,
            "fault_plan": encode_value(value.fault_plan, depth + 1),
            "tiebreak_jitter": value.tiebreak_jitter,
        }
    if isinstance(value, EngineSpec):
        return {
            _TAG: "engine",
            "name": value.name,
            "params": {k: encode_value(v, depth + 1) for k, v in value.params.items()},
        }
    if isinstance(value, FaultPlan):
        return {
            _TAG: "fault-plan",
            "intervals": [[list(span) for span in node] for node in value.intervals],
            "latency_spikes": [list(s) for s in value.latency_spikes],
            "loss_rate": value.loss_rate,
            "dup_rate": value.dup_rate,
            "link_faults": [list(l) for l in value.link_faults],
            "partitions": [
                [p.start, p.end, list(p.group)] for p in value.partitions
            ],
            "link_seed": value.link_seed,
        }
    if isinstance(value, Mapping):
        out: dict[str, Any] = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"spec dict keys must be strings, got {k!r}")
            if k == _TAG:
                raise ValueError(f"{_TAG!r} is a reserved spec key")
            out[k] = encode_value(v, depth + 1)
        return out
    if isinstance(value, (list, tuple)):
        return [encode_value(v, depth + 1) for v in value]
    raise TypeError(
        f"cannot serialize {type(value).__name__} into a run spec — use a "
        "registered component reference (ProblemSpec/OperatorSpec/...) "
        "or plain JSON data"
    )


def _field(doc: Mapping[str, Any], key: str, what: str) -> Any:
    """``doc[key]``, or a :class:`ValueError` naming the missing field."""
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"{what} is missing required field {key!r}") from None


def _integral_seed(value: Any, name: str, *, nullable: bool = False) -> int | None:
    """A seed field's value: a non-bool integer (or ``None`` when
    ``nullable``), else a :class:`ValueError` naming the field."""
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        expected = "an integer or null" if nullable else "an integer"
        raise ValueError(f"{name}: expected {expected}, got {value!r}")
    return int(value)


def decode_value(value: Any) -> Any:
    """Raise plain JSON data back to spec-level values."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if not isinstance(value, Mapping):
        return value
    tag = value.get(_TAG)
    if tag is None:
        return {k: decode_value(v) for k, v in value.items()}
    if tag in _COMPONENT_BY_KIND:
        return _COMPONENT_BY_KIND[tag](
            name=_field(value, "name", f"{tag} spec"),
            params={k: decode_value(v) for k, v in dict(value.get("params", {})).items()},
        )
    if tag == "config":
        return GAConfigSpec(
            params={k: decode_value(v) for k, v in dict(value.get("params", {})).items()}
        )
    if tag == "cluster":
        return ClusterSpec(
            n_nodes=int(_field(value, "n_nodes", "cluster spec")),
            speeds=decode_value(value.get("speeds", 1.0)),
            latency=value.get("latency"),
            bandwidth=value.get("bandwidth"),
            fault_plan=decode_value(value.get("fault_plan")),
            tiebreak_jitter=value.get("tiebreak_jitter"),
        )
    if tag == "engine":
        return EngineSpec(
            name=_field(value, "name", "engine spec"),
            params={k: decode_value(v) for k, v in dict(value.get("params", {})).items()},
        )
    if tag == "fault-plan":
        return FaultPlan(
            intervals=tuple(
                tuple((float(a), float(b)) for a, b in node)
                for node in value.get("intervals", [])
            ),
            latency_spikes=tuple(
                (float(a), float(b), float(f))
                for a, b, f in value.get("latency_spikes", [])
            ),
            loss_rate=float(value.get("loss_rate", 0.0)),
            dup_rate=float(value.get("dup_rate", 0.0)),
            link_faults=tuple(
                (int(s), int(d), float(loss), float(dup))
                for s, d, loss, dup in value.get("link_faults", [])
            ),
            partitions=tuple(
                (float(a), float(b), tuple(int(n) for n in group))
                for a, b, group in value.get("partitions", [])
            ),
            link_seed=_integral_seed(value.get("link_seed", 0), "link_seed"),
        )
    raise ValueError(f"unknown spec tag {tag!r}")


def build_value(value: Any) -> Any:
    """Construct the runtime object a spec-level value describes."""
    if isinstance(
        value, (ComponentSpec, GAConfigSpec, ClusterSpec)
    ):
        return value.build()
    if isinstance(value, EngineSpec):
        raise ValueError("nested engine specs are not supported inside params")
    if isinstance(value, Mapping):
        return {k: build_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [build_value(v) for v in value]
    return value
