"""Global (master-slave) parallel GA.

The survey's oldest lineage: Bethke (1976) analysed "the efficiency of
using the processing capacity" of exactly this model and "identified some
bottlenecks that limit the parallel efficiency of PGAs"; Grefenstette's
first three PGA types were global; Gagné et al. (2003) argued the
master-slave "was superior to the currently more popular island-model when
exploiting Beowulfs and networks of heterogenous workstations" given
*transparency, robustness and adaptivity* — which here means work-stealing
dispatch and re-dispatch of chunks lost to hard failures.

Two drivers again:

:class:`MasterSlaveGA`
    Real execution: a plain generational GA whose fitness evaluations run
    on a (thread/process/serial) executor.  Genetically identical to the
    sequential GA — data parallelism only.

:class:`SimulatedMasterSlave`
    Timed execution on a :class:`~repro.cluster.machine.SimulatedCluster`:
    the master (node 0) farms evaluation chunks to slave nodes, waits for
    replies, and — in fault-tolerant mode — re-dispatches chunks whose
    slaves died.  Produces per-generation makespans for speedup (E2) and
    robustness (E9) tables.
"""

from __future__ import annotations

from ..cluster.machine import SimulatedCluster
from ..cluster.sim import Timeout
from ..obs.session import current_obs
from ..core.config import GAConfig
from ..core.engine import GenerationalEngine
from ..core.problem import Problem
from ..core.termination import MaxGenerations, Termination
from ..runtime.deme import emit_generation
from ..runtime.executor import chunk_indices
from .base import ParallelEngine, RunReport
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)

__all__ = ["MasterSlaveGA", "SimulatedMasterSlave"]


class MasterSlaveGA(GenerationalEngine):
    """Generational GA with executor-farmed fitness evaluation.

    This *is* the sequential GA — same selection, same variation, same
    convergence in expectation — which is the defining property of the
    global model: "data parallelism is essentially sequential; only data
    manipulation is parallelized" (survey §1.2).
    """

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
        executor=None,
        seed=None,
        callbacks=None,
    ) -> None:
        super().__init__(
            problem,
            config,
            seed=seed,
            evaluator=executor,
            callbacks=callbacks,
        )


class SimulatedMasterSlave(ParallelEngine):
    """Timed master-slave farm on a simulated cluster.

    Parameters
    ----------
    cluster:
        Node 0 is the master; nodes 1..n are slaves.  Slave speeds may be
        heterogeneous and slaves may fail per the cluster's fault plan.
    eval_cost:
        Simulated seconds of work per fitness evaluation (speed-1 node).
    chunks_per_worker:
        Dispatch granularity: population is split into
        ``workers * chunks_per_worker`` chunks; finer chunks = better load
        balance on heterogeneous slaves, more messages.
    fault_tolerant:
        If True, the master re-dispatches chunks whose slave failed
        (detected by watchdog timeout) — Gagné's robustness extension, so
        every generation completes fully at the cost of extra time.
        If False, lost chunks are abandoned: the run carries on but
        ``lost_chunks`` counts the evaluations that never came back (the
        genetic results themselves are computed out-of-band; the simulation
        prices the farm, and the counter is the degradation signal E9
        reports).
    reply_timeout_factor:
        Watchdog: a chunk is declared lost after
        ``factor x`` its expected completion time.
    """

    engine_name = "sim-master-slave"

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
        genome_payload: float = 100.0,
        chunks_per_worker: int = 1,
        fault_tolerant: bool = True,
        reply_timeout_factor: float = 3.0,
        seed: int | None = None,
    ) -> None:
        if cluster.n_nodes < 2:
            raise ValueError("master-slave needs >= 2 nodes (1 master + slaves)")
        if eval_cost <= 0:
            raise ValueError(f"eval_cost must be positive, got {eval_cost}")
        if chunks_per_worker < 1:
            raise ValueError(f"chunks_per_worker must be >= 1, got {chunks_per_worker}")
        self.problem = problem
        self.cluster = cluster
        self.eval_cost = eval_cost
        self.genome_payload = genome_payload
        self.chunks_per_worker = chunks_per_worker
        self.fault_tolerant = fault_tolerant
        self.reply_timeout_factor = reply_timeout_factor
        self.engine = GenerationalEngine(
            problem, config, seed=seed, evaluator=self  # we intercept evaluate()
        )
        self.workers = cluster.n_nodes - 1
        self.generation_makespans: list[float] = []
        self.redispatches = 0
        self.lost_chunks = 0
        self._pending_batch: list | None = None

    # -- FitnessEvaluator interface -------------------------------------------------
    def evaluate(self, problem: Problem, genomes) -> list[float]:
        """Called synchronously by the engine; performs the *real* fitness
        computation immediately and remembers the batch so the running
        simulation coroutine can charge its simulated cost."""
        fitnesses = problem.evaluate_many(genomes)
        if self._pending_batch is not None:
            self._pending_batch.append(len(genomes))
        return fitnesses

    # -- simulation ----------------------------------------------------------------
    def _farm_generation(self, n_evals: int):
        """Coroutine: simulate farming ``n_evals`` evaluations to slaves.

        The master consults its failure detector before every dispatch —
        work is only ever handed to a node that is up *right now* (the
        trace-invariant the verification subsystem enforces); a slave that
        dies mid-computation is caught by the watchdog instead.  When no
        slave is alive and nothing is in flight, the master computes the
        remaining chunks itself (Gagné's reliable-master last resort).

        Returns (via StopIteration value) the makespan of the generation.
        """
        sim = self.cluster.sim
        start = sim.now
        obs = self._obs
        frame = (
            obs.spans.begin("farm", t0=start, track="master", evals=n_evals)
            if obs is not None
            else None
        )
        master_inbox = self.cluster.inbox("master")
        spans = chunk_indices(n_evals, self.workers * self.chunks_per_worker)
        # round-robin initial assignment; work-stealing on completion
        unassigned = list(range(len(spans)))
        chunk_sizes = {c: spans[c][1] - spans[c][0] for c in unassigned}
        outstanding: dict[int, tuple[int, float]] = {}  # chunk -> (node, deadline)
        done: set[int] = set()
        idle_slaves = list(range(1, self.cluster.n_nodes))

        def dispatch(chunk: int, node_id: int) -> None:
            node = self.cluster.node(node_id)
            work = chunk_sizes[chunk] * self.eval_cost
            send_t = self.cluster.transit_time(
                0, node_id, self.genome_payload * chunk_sizes[chunk]
            )
            compute = node.compute_time(work)
            reply_t = self.cluster.transit_time(node_id, 0, 8.0 * chunk_sizes[chunk])
            finish = sim.now + send_t + compute + reply_t
            alive = not node.fails_during(sim.now, finish)
            if alive:
                sim.put_later(finish - sim.now, master_inbox, ("done", chunk, node_id))
                if obs is not None:
                    track = f"slave-{node_id}"
                    obs.spans.record(
                        "comm", sim.now, sim.now + send_t,
                        track=track, chunk=chunk, direction="send",
                    )
                    obs.spans.record(
                        "evaluate", sim.now + send_t, sim.now + send_t + compute,
                        track=track, chunk=chunk, node=node_id,
                        evals=chunk_sizes[chunk],
                    )
                    obs.spans.record(
                        "comm", sim.now + send_t + compute, finish,
                        track=track, chunk=chunk, direction="reply",
                    )
            # watchdog fires regardless; ignored if reply arrived first
            expected = finish - sim.now
            deadline = sim.now + max(expected * self.reply_timeout_factor, 1e-9)
            outstanding[chunk] = (node_id, deadline)
            sim.put_later(deadline - sim.now, master_inbox, ("watchdog", chunk, node_id))
            self.cluster.record(
                "dispatch", chunk=chunk, node=node_id, size=chunk_sizes[chunk],
                alive=alive,
            )

        def assign_pending() -> None:
            """Pair unassigned chunks with currently-live idle slaves."""
            while unassigned:
                live = [n for n in idle_slaves if self.cluster.node(n).is_up(sim.now)]
                if not live:
                    return
                target = live[0]
                idle_slaves.remove(target)
                dispatch(unassigned.pop(0), target)

        assign_pending()
        while len(done) < len(spans):
            if unassigned and not outstanding:
                # nothing in flight and no live slave took the work: the
                # (reliable) master grinds through a chunk itself
                chunk = unassigned.pop(0)
                work = chunk_sizes[chunk] * self.eval_cost
                self.cluster.record("master-compute", chunk=chunk, size=chunk_sizes[chunk])
                t0 = sim.now
                yield Timeout(self.cluster.node(0).compute_time(work))
                if obs is not None:
                    obs.spans.record(
                        "master-compute", t0, sim.now, track="master",
                        chunk=chunk, evals=chunk_sizes[chunk],
                    )
                done.add(chunk)
                assign_pending()
                continue
            msg = yield master_inbox
            kind, chunk, node_id = msg
            if kind == "done":
                if chunk in done or chunk not in outstanding:
                    continue
                done.add(chunk)
                outstanding.pop(chunk, None)
                idle_slaves.append(node_id)
                assign_pending()
            elif kind == "watchdog":
                if chunk in done or chunk not in outstanding:
                    continue
                assigned_node, deadline = outstanding[chunk]
                if assigned_node != node_id or sim.now < deadline:
                    continue  # stale watchdog from a previous dispatch
                # chunk is lost
                outstanding.pop(chunk)
                self.cluster.record("chunk-lost", chunk=chunk, node=node_id)
                if self.fault_tolerant:
                    self.redispatches += 1
                    unassigned.append(chunk)
                    assign_pending()
                else:
                    self.lost_chunks += 1
                    done.add(chunk)  # give up on these evaluations
        if frame is not None:
            obs.spans.end(frame, sim.now)
        return sim.now - start

    def _record_generation(self) -> None:
        state = self.engine.state
        emit_generation(
            self.cluster.trace,
            self.cluster.sim.now,
            deme=0,
            generation=state.generation,
            best=float(state.best_fitness) if state.best_fitness is not None else None,
        )

    def _master_process(self, termination: Termination):
        """Master coroutine: run generations until termination."""
        engine = self.engine
        # generation 0
        self._pending_batch = []
        engine.initialize()
        n0 = sum(self._pending_batch)
        self._pending_batch = None
        makespan = yield from self._farm_generation(n0)
        self.generation_makespans.append(makespan)
        self._record_generation()
        while not termination.should_stop(engine.state) and not engine._solved():
            self._pending_batch = []
            engine.step()
            n = sum(self._pending_batch)
            self._pending_batch = None
            makespan = yield from self._farm_generation(n)
            self.generation_makespans.append(makespan)
            self._record_generation()
        self._stop_reason = "solved" if engine._solved() else termination.reason()
        # trailing watchdog timers keep the event queue warm after the last
        # generation; the farm's wall time is when the master finished
        self._finish_time = self.cluster.sim.now

    def run(self, termination: Termination | int | None = None) -> RunReport:
        if termination is None:
            termination = MaxGenerations(50)
        elif isinstance(termination, int):
            termination = MaxGenerations(termination)
        self._stop_reason = "unknown"
        self._finish_time = 0.0
        self._obs = current_obs()
        proc = self.cluster.sim.process(self._master_process(termination), "master")
        self.cluster.run()
        if not proc.finished:
            raise RuntimeError("master process deadlocked")
        result = self.engine.result(stop_reason=self._stop_reason)
        return self._report(
            best=result.best,
            evaluations=result.evaluations,
            epochs=result.generations,
            solved=result.solved,
            stop_reason=self._stop_reason,
            sim_time=self._finish_time,
            redispatches=self.redispatches,
            lost_chunks=self.lost_chunks,
            extras={
                "result": result,
                "generation_makespans": self.generation_makespans,
                "workers": self.workers,
            },
        )
