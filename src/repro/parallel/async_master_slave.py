"""Asynchronous (steady-state) master-slave farm.

Grefenstette (1981) "proposed four PGA types and the first three were a
sort of global PGAs.  They differed in accessing to (global) shared
memories."  The generation-free variant: the master keeps every slave busy
with exactly one individual at a time; whenever *any* evaluation returns,
the result is inserted steady-state and a fresh offspring is bred and
dispatched immediately.  No barrier — a slow slave delays only its own
individual, so heterogeneous farms stay fully utilised (the weakness of
the synchronous farm E2/E9 quantify).

:class:`SimulatedAsyncMasterSlave` measures utilisation and time on the
simulated cluster; genetics are a steady-state GA whose insertion order
depends on completion order (so, unlike the synchronous farm, the
trajectory legitimately depends on machine speeds — that *is* the model).
"""

from __future__ import annotations

import math

import numpy as np

from ..cluster.machine import SimulatedCluster
from ..core.config import GAConfig
from ..obs.session import current_obs
from ..core.individual import Individual, best_of
from ..core.problem import Problem
from ..core.rng import ensure_rng
from ..core.variation import offspring_pair
from ..runtime.deme import emit_generation
from .base import ParallelEngine, RunReport
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)

__all__ = ["SimulatedAsyncMasterSlave"]


class SimulatedAsyncMasterSlave(ParallelEngine):
    """Continuous-dispatch steady-state farm on a simulated cluster.

    Implemented directly on the event heap (no coroutine per slave needed):
    the master tracks each slave's next completion time, always advancing
    to the earliest one — a textbook discrete-event loop.

    Parameters
    ----------
    problem, config:
        ``config.population_size`` is the shared population;
        ``config.replacement`` the steady-state insertion rule.
    cluster:
        Node 0 = master, nodes 1.. = slaves (speeds may differ, and it
        pays: fast slaves simply complete more evaluations).
    eval_cost:
        Simulated seconds per evaluation at speed 1.
    """

    engine_name = "async-master-slave"

    classification = ModelClassification(
        grain=GrainModel.GLOBAL,
        walk=WalkStrategy.SINGLE,
        parallelism=ParallelismKind.DATA,
        programming=ProgrammingModel.CENTRALIZED,
    )

    def __init__(
        self,
        problem: Problem,
        config: GAConfig | None = None,
        *,
        cluster: SimulatedCluster,
        eval_cost: float = 1e-2,
        seed: int | None = None,
    ) -> None:
        if cluster.n_nodes < 2:
            raise ValueError("async master-slave needs >= 2 nodes")
        if eval_cost <= 0:
            raise ValueError(f"eval_cost must be positive, got {eval_cost}")
        self.problem = problem
        self.config = (config or GAConfig()).resolved_for(problem.spec)
        self.cluster = cluster
        self.eval_cost = eval_cost
        self.rng = ensure_rng(seed)
        self.population: list[Individual] = []
        self.evaluations = 0

    def _round_trip(self, slave: int, start: float) -> float:
        """Dispatch + compute + reply duration for one individual on
        ``slave``, dispatched at ``start``.

        Downtime on the slave *suspends* the evaluation until the node
        repairs (:meth:`~repro.cluster.node.Node.finish_time`); a
        permanent crash returns ``inf`` — the individual is lost and the
        slave retires from the farm.  On an always-up node this is exactly
        ``send + compute + reply``.
        """
        net = self.cluster.network
        send = net.transit_time(0, slave, 100.0)
        node = self.cluster.node(slave)
        compute_done = node.finish_time(start + send, node.compute_time(self.eval_cost))
        if math.isinf(compute_done):
            return math.inf
        reply = net.transit_time(slave, 0, 8.0)
        return (compute_done - start) + reply

    def _breed_one(self) -> Individual:
        parents = self.config.selection(self.rng, self.population, 2, self.problem.maximize)
        a, _ = offspring_pair(
            self.rng, self.config, self.problem.spec, parents[0], parents[1]
        )
        return a

    def _insert(self, child: Individual) -> None:
        from ..core.population import Population

        pop = Population(self.population, maximize=self.problem.maximize)
        self.config.replacement(self.rng, pop, child)
        self.population = pop.individuals

    def run(self, max_evaluations: int = 5_000) -> RunReport:
        if max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        # initial population evaluated up-front (charged to the farm below)
        genomes = self.problem.spec.sample_population(
            self.rng, self.config.population_size
        )
        self.population = []
        for g in genomes:
            ind = Individual(genome=g)
            ind.fitness = self.problem.evaluate(g)
            self.population.append(ind)
        self.evaluations = len(self.population)

        n_slaves = self.cluster.n_nodes - 1
        now = 0.0
        busy_until = np.zeros(n_slaves)
        busy_time = np.zeros(n_slaves)
        completions = [0] * n_slaves
        in_flight: dict[int, Individual] = {}
        obs = current_obs()

        def dispatch(s: int, child: Individual) -> None:
            """Hand ``child`` to slave ``s`` (a permanent crash retires the
            slave: ``busy_until`` goes to inf and the individual is lost)."""
            rt = self._round_trip(s + 1, now)
            busy_until[s] = now + rt
            if math.isfinite(rt):
                busy_time[s] += rt
                in_flight[s] = child
                if obs is not None:
                    # the charged round-trip [dispatch, completion]: span
                    # durations per track sum to exactly busy_time[s]
                    obs.spans.record(
                        "evaluate", now, now + rt,
                        track=f"slave-{s + 1}", node=s + 1,
                    )
            else:
                in_flight.pop(s, None)

        # prime every slave
        for s in range(n_slaves):
            dispatch(s, self._breed_one())

        solved = False
        while self.evaluations < max_evaluations and not solved and in_flight:
            s = int(np.argmin(busy_until))
            now = float(busy_until[s])
            child = in_flight[s]
            child.fitness = self.problem.evaluate(child.genome)
            self.evaluations += 1
            completions[s] += 1
            self._insert(child)
            # the loop advances its own clock (no coroutines), so trace
            # records carry `now` explicitly rather than sim.now
            emit_generation(
                self.cluster.trace, now, deme=0, generation=self.evaluations,
                best=float(self.global_best().require_fitness()),
            )
            if self.problem.is_solved(self.global_best().require_fitness()):
                solved = True
                break
            dispatch(s, self._breed_one())

        horizon = max(now, 1e-12)
        utilisation = [float(min(1.0, busy_time[s] / horizon)) for s in range(n_slaves)]
        if solved:
            stop_reason = "solved"
        elif not in_flight:
            stop_reason = "all-slaves-crashed"
        else:
            stop_reason = "max_evaluations"
        return self._report(
            best=self.global_best().copy(),
            evaluations=self.evaluations,
            epochs=sum(completions),
            solved=solved,
            stop_reason=stop_reason,
            sim_time=now,
            extras={"utilisation": utilisation, "completions": completions},
        )

    def global_best(self) -> Individual:
        return best_of(self.population, self.problem.maximize)
