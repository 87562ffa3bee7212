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
traffic pays network transit.  The survey's subset-sum test problem is the
canonical workload (see tests/E-suite usage).
"""

from __future__ import annotations

import math

from ..cluster.machine import SimulatedCluster
from ..cluster.sim import Timeout
from ..obs.session import current_obs
from ..core.config import GAConfig
from ..core.individual import Individual, best_of
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


class PooledEvolution(ParallelEngine):
    """Asynchronous agents breeding against a shared individual pool.

    Parameters
    ----------
    problem, config:
        Standard GA configuration; ``config.population_size`` is the pool
        size.
    cluster:
        Node 0 hosts the pool; nodes 1.. host one agent each.
    eval_cost:
        Simulated seconds per fitness evaluation (agents pay it locally).
    batch:
        Individuals pulled (and offspring pushed) per agent transaction.
    max_transactions:
        Total pull-breed-push cycles across all agents before stopping.
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
        payload_per_individual: float = 100.0,
        seed: int | None = None,
    ) -> None:
        if cluster.n_nodes < 2:
            raise ValueError("pooled evolution needs >= 2 nodes (pool + agents)")
        if batch < 2:
            raise ValueError(f"batch must be >= 2 (need parents), got {batch}")
        if eval_cost <= 0:
            raise ValueError(f"eval_cost must be positive, got {eval_cost}")
        self.problem = problem
        self.config = (config or GAConfig()).resolved_for(problem.spec)
        self.cluster = cluster
        self.eval_cost = eval_cost
        self.batch = batch
        self.max_transactions = max_transactions
        self.payload = payload_per_individual
        n_agents = cluster.n_nodes - 1
        rngs = spawn_rngs(seed, n_agents + 1)
        self._pool_rng = rngs[-1]
        self._agent_rngs = rngs[:-1]
        self.pool: list[Individual] = []
        self.evaluations = 0
        self.pulls = 0
        self._remaining = max_transactions
        self._stop = False
        self.agent_evaluations = [0] * n_agents

    # -- pool operations (run at the coordinator) -----------------------------------
    def _pool_pull(self) -> list[Individual]:
        idx = self._pool_rng.choice(len(self.pool), size=self.batch, replace=False)
        return [self.pool[int(i)].copy() for i in idx]

    def _pool_push(self, offspring: list[Individual]) -> None:
        """Offspring replace the pool's worst members if they improve them."""
        for child in offspring:
            worst_idx = min(
                range(len(self.pool)),
                key=lambda i: (
                    self.pool[i].require_fitness()
                    if self.problem.maximize
                    else -self.pool[i].require_fitness()
                ),
            )
            worst = self.pool[worst_idx]
            cf, wf = child.require_fitness(), worst.require_fitness()
            improves = cf > wf if self.problem.maximize else cf < wf
            if improves:
                self.pool[worst_idx] = child

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
                0, node_id, self.payload * len(parents)
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
                    rng, self.config, self.problem.spec,
                    parents[int(pair[0])], parents[int(pair[1])],
                )
                offspring.extend([a, b])
            offspring = offspring[: self.batch]
            for child in offspring:
                child.fitness = self.problem.evaluate(child.genome)
            self.evaluations += len(offspring)
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
                node_id, 0, self.payload * len(offspring)
            )
            t0 = self.cluster.sim.now
            yield Timeout(push)
            if frame is not None:
                obs.spans.record(
                    "push", t0, self.cluster.sim.now, track=track,
                    agent=agent_id, count=len(offspring),
                )
            self._pool_push(offspring)
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
        return best_of(self.pool, self.problem.maximize)

    # -- driver --------------------------------------------------------------------------------
    def run(self) -> RunReport:
        # seed the pool (coordinator pays initial evaluation time implicitly)
        genomes = self.problem.spec.sample_population(
            self._pool_rng, self.config.population_size
        )
        self.pool = [Individual(genome=g) for g in genomes]
        for ind in self.pool:
            ind.fitness = self.problem.evaluate(ind.genome)
        self.evaluations += len(self.pool)
        self._obs = current_obs()
        for a in range(self.cluster.n_nodes - 1):
            self.cluster.sim.process(self._agent(a), name=f"agent-{a}")
        self.cluster.run()
        best = self.global_best()
        solved = self.problem.is_solved(best.require_fitness())
        return self._report(
            best=best.copy(),
            evaluations=self.evaluations,
            epochs=self.pulls,
            solved=solved,
            stop_reason="solved" if solved else "transactions-exhausted",
            sim_time=self.cluster.sim.now,
            extras={
                "pulls": self.pulls,
                "pool_size": len(self.pool),
                "agent_evaluations": list(self.agent_evaluations),
            },
        )
