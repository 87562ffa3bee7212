"""Parallel GA models: the survey's full taxonomy.

- global / master-slave  → :class:`MasterSlaveGA`, :class:`SimulatedMasterSlave`
- coarse-grained (island) → :class:`IslandModel`, :class:`SimulatedIslandModel`
- fine-grained (cellular) → :class:`CellularGA`
- hierarchical multi-fidelity → :class:`HierarchicalGA`
- specialized island model → :class:`SpecializedIslandModel`
- hybrids → :class:`CellularIslandModel`, :class:`MasterSlaveIslandModel`,
  :class:`SimulatedMasterSlaveIslandModel`

Every engine returns the shared :class:`RunReport` schema and declares
the ``engine_name`` of its one builder in
:data:`repro.spec.registry.ENGINE_BUILDERS`; the builder's exemplar spec
is the engine's contract scenario (:mod:`repro.verify.engines`).
"""

from .async_master_slave import SimulatedAsyncMasterSlave
from .base import ParallelEngine, RunReport, validate_report
from .cellular import UPDATE_POLICIES, CellularGA
from .cellular_distributed import DistributedCellularGA
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)
from .hierarchical import HierarchicalGA
from .hybrid import (
    CellularIslandModel,
    MasterSlaveIslandModel,
    SimulatedMasterSlaveIslandModel,
)
from .island import (
    EpochRecord,
    IslandModel,
    SimulatedIslandModel,
    engine_class_by_name,
)
from .pool import PooledEvolution
from .master_slave import MasterSlaveGA, SimulatedMasterSlave
from .specialized import (
    SIMScenario,
    SimulatedSpecializedIslandModel,
    SpecializedIslandModel,
    standard_scenarios,
)

__all__ = [
    "RunReport",
    "ParallelEngine",
    "validate_report",
    "GrainModel",
    "WalkStrategy",
    "ParallelismKind",
    "ProgrammingModel",
    "ModelClassification",
    "IslandModel",
    "SimulatedIslandModel",
    "EpochRecord",
    "engine_class_by_name",
    "MasterSlaveGA",
    "SimulatedMasterSlave",
    "CellularGA",
    "UPDATE_POLICIES",
    "HierarchicalGA",
    "SpecializedIslandModel",
    "SimulatedSpecializedIslandModel",
    "SIMScenario",
    "standard_scenarios",
    "CellularIslandModel",
    "MasterSlaveIslandModel",
    "SimulatedMasterSlaveIslandModel",
    "PooledEvolution",
    "DistributedCellularGA",
    "SimulatedAsyncMasterSlave",
]
