"""DRM/DREAM-style asynchronous pooled evolution over a wide-area network.

Survey §2/§4: Jelasity et al.'s DRM (distributed resource machine) and the
DREAM framework ran evolutionary algorithms "through a virtual machine
built from a large number of individual computers on the Internet" with "a
Peer to Peer mobile agent system".  The execution model differs from
islands: there are no fixed demes — autonomous agents repeatedly pull a few
individuals from a shared pool, breed locally, and push offspring back,
tolerating high WAN latencies because nothing is barrier-synchronised.

:class:`PooledEvolution` realises that model on the simulated cluster: the
pool lives on node 0 (the coordinator), agents on the remaining nodes, all
traffic pays network transit.  The pool is a
:class:`~repro.core.engine.SteadyStateEngine`'s population: it seeds and
scores through that engine, and each pushed offspring enters through
:meth:`~repro.core.engine.SteadyStateEngine.insert`, i.e. under
``config.replacement``.  The survey's subset-sum test problem is the
canonical workload (see tests/E-suite usage).
"""

from __future__ import annotations

import math

from ..cluster.machine import SimulatedCluster
from ..cluster.sim import Timeout
from ..obs.session import current_obs
from ..core.config import GAConfig
from ..core.engine import SteadyStateEngine
from ..core.individual import Individual
from ..core.problem import Problem
from ..core.rng import spawn_rngs
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

__all__ = ["PooledEvolution"]

#: simulated wire size of one individual pulled from or pushed to the pool
PAYLOAD_PER_INDIVIDUAL = 100.0


class PooledEvolution(ParallelEngine):
    """Asynchronous agents breeding against a shared individual pool.

    Parameters
    ----------
    problem, config:
        Standard GA configuration; ``config.population_size`` is the pool
        size, ``config.replacement`` decides whom a pushed offspring
        evicts (by default the worst member, only if the offspring beats
        it).
    cluster:
        Node 0 hosts the pool; nodes 1.. host one agent each.
    eval_cost:
        Simulated seconds per fitness evaluation (agents pay it locally).
    batch:
        Individuals pulled (and offspring pushed) per agent transaction;
        at most the pool size, since a pull draws distinct members.
    max_transactions:
        Total pull-breed-push cycles across all agents before stopping.

    Each individual pulled or pushed costs ``PAYLOAD_PER_INDIVIDUAL`` on
    the wire.
    """

    engine_name = "pool"

    classification = ModelClassification(
        grain=GrainModel.COARSE_GRAINED,
        walk=WalkStrategy.MULTIPLE,
        parallelism=ParallelismKind.CONTROL,
        programming=ProgrammingModel.DISTRIBUTED,
    )

    def __init__(
        self,
        problem: Problem,
        config: GAConfig | None = None,
        *,
        cluster: SimulatedCluster,
        eval_cost: float = 1e-3,
        batch: int = 4,
        max_transactions: int = 500,
        seed: int | None = None,
    ) -> None:
        if cluster.n_nodes < 2:
            raise ValueError("pooled evolution needs >= 2 nodes (pool + agents)")
        if batch < 2:
            raise ValueError(f"batch must be >= 2 (need parents), got {batch}")
        if eval_cost <= 0:
            raise ValueError(f"eval_cost must be positive, got {eval_cost}")
        if max_transactions < 1:
            raise ValueError(f"max_transactions must be >= 1, got {max_transactions}")
        n_agents = cluster.n_nodes - 1
        rngs = spawn_rngs(seed, n_agents + 1)
        self.engine = SteadyStateEngine(problem, config, seed=rngs[-1])
        pool_size = self.engine.config.population_size
        if batch > pool_size:
            raise ValueError(
                f"batch ({batch}) must not exceed population_size ({pool_size}): "
                "a pull draws distinct members"
            )
        self.problem = problem
        self.cluster = cluster
        self.eval_cost = eval_cost
        self.batch = batch
        self.max_transactions = max_transactions
        self._agent_rngs = rngs[:-1]
        self.pulls = 0
        self._remaining = max_transactions
        self._stop = False
        self.agent_evaluations = [0] * n_agents

    # -- pool operations (run at the coordinator) -----------------------------------
    def _pool_pull(self) -> list[Individual]:
        pool = self.engine.population
        idx = self.engine.rng.choice(len(pool), size=self.batch, replace=False)
        return [pool[int(i)].copy() for i in idx]

    # -- agent coroutine -----------------------------------------------------------------
    def _agent(self, agent_id: int):
        node_id = agent_id + 1
        rng = self._agent_rngs[agent_id]
        node = self.cluster.node(node_id)
        obs = self._obs
        track = f"agent-{agent_id}"
        transactions = 0
        while not self._stop and self._remaining > 0:
            # liveness guard: a dead agent neither pulls nor pushes — it
            # sits out a repairable outage and retires on a permanent crash
            now = self.cluster.sim.now
            if not node.is_up(now):
                wake = node.next_up_time(now)
                if math.isinf(wake):
                    return
                yield Timeout(wake - now)
                continue
            frame = (
                obs.spans.begin(
                    "transaction", t0=now, track=track,
                    agent=agent_id, transaction=transactions + 1,
                )
                if obs is not None
                else None
            )
            self._remaining -= 1
            # round trip to the pool: request + parcel back
            transit = self.cluster.network.transit_time(node_id, 0, 64.0)
            t0 = self.cluster.sim.now
            yield Timeout(transit)
            parents = self._pool_pull()
            self.pulls += 1
            back = self.cluster.network.transit_time(
                0, node_id, PAYLOAD_PER_INDIVIDUAL * len(parents)
            )
            yield Timeout(back)
            if frame is not None:
                obs.spans.record(
                    "pull", t0, self.cluster.sim.now, track=track,
                    agent=agent_id, count=len(parents),
                )
            # breed locally
            offspring: list[Individual] = []
            while len(offspring) < self.batch:
                pair = rng.choice(len(parents), size=2, replace=False)
                a, b = offspring_pair(
                    rng, self.engine.config, self.problem.spec,
                    parents[int(pair[0])], parents[int(pair[1])],
                )
                offspring.extend([a, b])
            offspring = offspring[: self.batch]
            self.engine._evaluate(offspring)
            self.agent_evaluations[agent_id] += len(offspring)
            # breeding suspends across downtime; a permanent crash loses
            # the in-flight offspring (never pushed back to the pool)
            now = self.cluster.sim.now
            finish = node.finish_time(
                now, node.compute_time(len(offspring) * self.eval_cost)
            )
            if math.isinf(finish):
                return  # open spans are closed when the session exports
            yield Timeout(finish - now)
            if frame is not None:
                obs.spans.record(
                    "evaluate", now, self.cluster.sim.now, track=track,
                    agent=agent_id, evals=len(offspring),
                )
            # push back
            push = self.cluster.network.transit_time(
                node_id, 0, PAYLOAD_PER_INDIVIDUAL * len(offspring)
            )
            t0 = self.cluster.sim.now
            yield Timeout(push)
            if frame is not None:
                obs.spans.record(
                    "push", t0, self.cluster.sim.now, track=track,
                    agent=agent_id, count=len(offspring),
                )
            for child in offspring:
                self.engine.insert(child)
            transactions += 1
            emit_generation(
                self.cluster.trace,
                self.cluster.sim.now,
                deme=agent_id,
                generation=transactions,
                best=float(self.global_best().require_fitness()),
            )
            if frame is not None:
                obs.spans.end(frame, self.cluster.sim.now)
            if self.problem.is_solved(self.global_best().require_fitness()):
                self._stop = True

    def global_best(self) -> Individual:
        return self.engine.population.best()

    # -- driver --------------------------------------------------------------------------------
    def run(self) -> RunReport:
        # seed the pool (coordinator pays initial evaluation time implicitly)
        self.engine.initialize()
        self._obs = current_obs()
        for a in range(self.cluster.n_nodes - 1):
            self.cluster.sim.process(self._agent(a), name=f"agent-{a}")
        self.cluster.run()
        best = self.global_best()
        solved = self.problem.is_solved(best.require_fitness())
        return self._report(
            best=best.copy(),
            evaluations=self.engine.state.evaluations,
            epochs=self.pulls,
            solved=solved,
            stop_reason="solved" if solved else "transactions-exhausted",
            sim_time=self.cluster.sim.now,
            extras={
                "pulls": self.pulls,
                "pool_size": len(self.engine.population),
                "agent_evaluations": list(self.agent_evaluations),
            },
        )
