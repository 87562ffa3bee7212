"""Distributed fine-grained (cellular) GA on the simulated cluster.

Pelikan et al. (2002) "described an implementation of a fine-grained
parallel genetic algorithm … fully asynchronous and distributed.  Thus, it
scaled well, even for a very large number of processors.  The performance
results for up to 64 processors on an Origin2000 verified scalability
hypothesis."

The classic decomposition: the toroidal grid is cut into horizontal
*strips*, one per node; each sweep a node updates its own rows and then
exchanges *halo rows* (its top and bottom boundary rows) with its two
strip neighbours, paying network transit for them.  Computation scales as
``rows/p`` while communication stays constant per node — which is exactly
why the model "scales well" and what :class:`DistributedCellularGA`
measures (E5's scalability companion; ablation bench asserts the shape).
"""

from __future__ import annotations

import math

from ..cluster.machine import SimulatedCluster
from ..cluster.sim import SimulationError, Timeout
from ..obs.session import current_obs
from ..core.config import GAConfig
from ..core.problem import Problem
from ..runtime.deme import emit_generation
from .base import ParallelEngine, RunReport
from .cellular import CellularGA
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)

__all__ = ["DistributedCellularGA"]

#: simulated wire size of one halo row
HALO_PAYLOAD = 256.0


class DistributedCellularGA(ParallelEngine):
    """Strip-partitioned cellular GA timed on a simulated cluster.

    The *genetics* are exactly :class:`~repro.parallel.cellular.CellularGA`
    (one shared grid object — correctness is not distributed); the
    *timing model* charges each node ``rows_per_node x cols`` cell updates
    of compute per sweep plus two halo-row exchanges, with a barrier per
    sweep (the synchronous SIMD regime of the early fine-grained machines).

    Parameters
    ----------
    cga:
        The cellular GA to drive (its ``rows`` must be divisible across
        nodes; remainder rows go to the last node).
    cluster:
        One strip per node.
    eval_cost:
        Simulated seconds per cell update (fitness evaluation) at speed 1.

    Each halo row costs ``HALO_PAYLOAD`` on the wire.
    """

    engine_name = "distributed-cellular"

    classification = ModelClassification(
        grain=GrainModel.FINE_GRAINED,
        walk=WalkStrategy.MULTIPLE,
        parallelism=ParallelismKind.DATA,
        programming=ProgrammingModel.DISTRIBUTED,
    )

    def __init__(
        self,
        problem: Problem,
        config: GAConfig | None = None,
        *,
        rows: int = 32,
        cols: int = 32,
        cluster: SimulatedCluster,
        eval_cost: float = 1e-3,
        update: str = "synchronous",
        seed: int | None = None,
    ) -> None:
        if cluster.n_nodes > rows:
            raise ValueError(
                f"{cluster.n_nodes} nodes cannot each own a strip of a "
                f"{rows}-row grid"
            )
        if eval_cost <= 0:
            raise ValueError(f"eval_cost must be positive, got {eval_cost}")
        self.problem = problem
        self.cga = CellularGA(
            problem, config, rows=rows, cols=cols, update=update, seed=seed
        )
        self.cluster = cluster
        self.eval_cost = eval_cost
        base = rows // cluster.n_nodes
        extra = rows - base * cluster.n_nodes
        self.strip_rows = [
            base + (1 if i < extra else 0) for i in range(cluster.n_nodes)
        ]
        self.compute_time = 0.0
        self.comm_time = 0.0
        self._obs = None
        # serialized occupancy cursor of the virtual "network" timeline
        # lane: aggregate per-sweep comm recorded back-to-back so the
        # span durations sum to exactly ``comm_time``
        self._net_cursor = 0.0

    def _sweep_cost(self) -> tuple[float, float]:
        """(barrier compute time, per-sweep aggregate comm time).

        The sweep is barrier-synchronised, so node downtime extends the
        barrier: a strip on a down node suspends until the node repairs.
        A *permanent* crash halts the whole machine — the synchronous
        SIMD regime has no strip redundancy — and raises rather than
        silently computing on a dead node.
        """
        cols, sweep = self.cga.cols, self.cga.state.generation
        now = self.cluster.sim.now
        per_node_compute = []
        for i in range(self.cluster.n_nodes):
            node = self.cluster.node(i)
            finish = node.finish_time(
                now, node.compute_time(self.strip_rows[i] * cols * self.eval_cost)
            )
            if math.isinf(finish):
                raise SimulationError(
                    f"node {i} crashed permanently mid-sweep; the synchronous "
                    "cellular barrier cannot complete"
                )
            per_node_compute.append(finish - now)
        obs = self._obs
        if obs is not None:
            for i, dur in enumerate(per_node_compute):
                obs.spans.record(
                    "compute", now, now + dur, track=f"node-{i}",
                    node=i, rows=self.strip_rows[i], sweep=sweep,
                )
        barrier = max(per_node_compute)
        comm = 0.0
        n = self.cluster.n_nodes
        if n > 1:
            for i in range(n):
                up, down = (i - 1) % n, (i + 1) % n
                comm += self.cluster.network.transit_time(i, up, HALO_PAYLOAD)
                comm += self.cluster.network.transit_time(i, down, HALO_PAYLOAD)
        self.compute_time += sum(per_node_compute)
        self.comm_time += comm
        if obs is not None and comm > 0.0:
            t0 = max(self._net_cursor, now)
            obs.spans.record(
                "comm", t0, t0 + comm, track="network", sweep=sweep,
            )
            self._net_cursor = t0 + comm
        # halo exchanges happen pairwise in parallel: the barrier extends by
        # the slowest single exchange, not the sum
        worst_exchange = (
            max(
                self.cluster.network.transit_time(i, (i + 1) % n, HALO_PAYLOAD)
                for i in range(n)
            )
            if n > 1
            else 0.0
        )
        return barrier, worst_exchange

    def _driver(self, max_sweeps: int):
        obs = self._obs
        sim = self.cluster.sim

        def frame(duration: float):
            if obs is not None:
                obs.spans.record(
                    "sweep", sim.now, sim.now + duration, track="machine",
                    sweep=self.cga.state.generation,
                )

        self.cga.initialize()
        init_cost, _ = self._sweep_cost()  # initial evaluation wave
        frame(init_cost)
        yield Timeout(init_cost)
        self._record_sweep()
        for _ in range(max_sweeps):
            self.cga.step()
            barrier, exchange = self._sweep_cost()
            frame(barrier + exchange)
            yield Timeout(barrier + exchange)
            self._record_sweep()
            if self.cga._solved():
                break

    def _record_sweep(self) -> None:
        emit_generation(
            self.cluster.trace,
            self.cluster.sim.now,
            deme=0,
            generation=self.cga.state.generation,
            best=float(self.cga.best_so_far.require_fitness()),
        )

    def run(self, max_sweeps: int = 100) -> RunReport:
        self._obs = current_obs()
        proc = self.cluster.sim.process(self._driver(max_sweeps), "cellular-driver")
        self.cluster.run()
        if not proc.finished:
            raise RuntimeError("distributed cellular driver stalled")
        solved = self.cga._solved()
        return self._report(
            best=self.cga.best_so_far.copy(),
            evaluations=self.cga.state.evaluations,
            epochs=self.cga.state.generation,
            solved=solved,
            stop_reason="solved" if solved else "max_sweeps",
            sim_time=self.cluster.sim.now,
            extras={
                "sweeps": self.cga.state.generation,
                "nodes": self.cluster.n_nodes,
                "compute_time": self.compute_time,
                "comm_time": self.comm_time,
            },
        )
