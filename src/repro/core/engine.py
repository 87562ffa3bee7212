"""Sequential evolution engines: generational and steady-state.

These are the survey's two *panmictic* reproduction loops ("a set of popular
evolution schemes relating to panmictic (steady-state or generational) …
GAs"; Alba & Troya 2002 analyze exactly this pair).  Parallel models reuse
them: an island runs one engine per deme; a master-slave farm runs one
engine whose fitness evaluation is delegated to an evaluator.

The *evaluator* seam (``evaluate(problem, genomes) -> fitnesses``) is where
parallel fitness evaluation plugs in without the engine knowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .callbacks import Callback, CallbackList, History
from .config import GAConfig
from .individual import Individual
from .population import Population
from .problem import Problem, stack_genomes
from .rng import ensure_rng
from .termination import EvolutionState, MaxGenerations, Termination
from .variation import breed, offspring_pair
from .vectorized import supports_vectorized_variation, vector_offspring

__all__ = [
    "FitnessEvaluator",
    "SerialEvaluator",
    "EvolutionResult",
    "EvolutionEngine",
    "GenerationalEngine",
    "SteadyStateEngine",
]


class FitnessEvaluator(Protocol):
    """Maps genomes to fitnesses, possibly in parallel."""

    def evaluate(self, problem: Problem, genomes: Sequence[np.ndarray]) -> list[float]: ...


class SerialEvaluator:
    """Evaluate genomes in the calling process, one after another."""

    def evaluate(self, problem: Problem, genomes: Sequence[np.ndarray]) -> list[float]:
        return problem.evaluate_many(genomes)


@dataclass
class EvolutionResult:
    """Outcome of one engine run."""

    best: Individual
    population: Population
    generations: int
    evaluations: int
    solved: bool
    stop_reason: str
    history: History = field(repr=False, default_factory=History)

    @property
    def best_fitness(self) -> float:
        return self.best.require_fitness()


class EvolutionEngine:
    """Shared machinery for the two sequential engines.

    Subclasses implement :meth:`_advance`, which transforms the current
    population into the next one and returns the number of evaluations
    spent.
    """

    def __init__(
        self,
        problem: Problem,
        config: GAConfig | None = None,
        *,
        seed: int | np.random.Generator | None = None,
        evaluator: FitnessEvaluator | None = None,
        callbacks: list[Callback] | None = None,
    ) -> None:
        self.problem = problem
        base = config if config is not None else GAConfig()
        self.config = base.resolved_for(problem.spec)
        self.rng = ensure_rng(seed)
        self.evaluator: FitnessEvaluator = evaluator or SerialEvaluator()
        self.history = History()
        self.callbacks = CallbackList([self.history, *(callbacks or [])])
        self.population: Population | None = None
        self.state = EvolutionState(maximize=problem.maximize)
        self._best_so_far: Individual | None = None
        self._vectorized_supported: bool | None = None

    # -- lifecycle -------------------------------------------------------------
    def initialize(self, individuals: list[Individual] | None = None) -> Population:
        """Create and evaluate generation 0.

        ``individuals`` lets callers seed the initial population (e.g. with
        phase-1 solutions in the 2-phase image-registration workload).
        """
        if individuals is None:
            genomes = self.problem.spec.sample_population(
                self.rng, self.config.population_size
            )
            individuals = [Individual(genome=g) for g in genomes]
        pop = Population(individuals, maximize=self.problem.maximize)
        self._evaluate(pop.unevaluated())
        self.population = pop
        self.state = EvolutionState(
            generation=0,
            evaluations=self.state.evaluations,
            best_fitness=pop.best().fitness,
            maximize=self.problem.maximize,
        )
        self._best_so_far = pop.best().copy()
        self.callbacks.on_generation(self.state, pop)
        return pop

    def step(self) -> Population:
        """Advance one generation (initialising lazily)."""
        if self.population is None:
            self.initialize()
            return self.population  # generation 0 counts as the first step
        self._advance()
        self.state.generation += 1
        current_best = self.population.best()
        if self._best_so_far is None or self.problem.is_improvement(
            current_best.require_fitness(), self._best_so_far.require_fitness()
        ):
            self._best_so_far = current_best.copy()
            self.state.stagnant_generations = 0
        else:
            self.state.stagnant_generations += 1
        self.state.best_fitness = self._best_so_far.require_fitness()
        self.callbacks.on_generation(self.state, self.population)
        return self.population

    def run(self, termination: Termination | int | None = None) -> EvolutionResult:
        """Run until the termination criterion fires.

        An ``int`` is shorthand for :class:`MaxGenerations`.
        """
        if termination is None:
            termination = MaxGenerations(100)
        elif isinstance(termination, int):
            termination = MaxGenerations(termination)
        if self.population is None:
            self.initialize()
        while not termination.should_stop(self.state) and not self._solved():
            self.step()
        return self.result(stop_reason="solved" if self._solved() else termination.reason())

    def result(self, stop_reason: str = "manual") -> EvolutionResult:
        """Snapshot the current outcome."""
        if self.population is None or self._best_so_far is None:
            raise RuntimeError("engine has not been initialised")
        return EvolutionResult(
            best=self._best_so_far.copy(),
            population=self.population,
            generations=self.state.generation,
            evaluations=self.state.evaluations,
            solved=self._solved(),
            stop_reason=stop_reason,
            history=self.history,
        )

    @property
    def best_so_far(self) -> Individual:
        """Best individual seen over the whole run (not just current pop)."""
        if self._best_so_far is None:
            raise RuntimeError("engine has not been initialised")
        return self._best_so_far

    # -- internals ---------------------------------------------------------------
    def _solved(self) -> bool:
        return self.state.best_fitness is not None and self.problem.is_solved(
            self.state.best_fitness
        )

    def _evaluate(
        self, individuals: list[Individual], batch: np.ndarray | None = None
    ) -> None:
        """Evaluate ``individuals``; ``batch``, when given, is their genomes
        already stacked (as the generational breeder returns them)."""
        if not individuals:
            return
        genomes: Sequence[np.ndarray] | np.ndarray = (
            [ind.genome for ind in individuals] if batch is None else batch
        )
        # ship the generation as one contiguous (n, L) array so evaluators
        # (and the executors behind them) get the vectorized fast path and
        # zero-copy chunk transport for free
        batch = stack_genomes(genomes)
        if batch is not None:
            genomes = batch
        fitnesses = self.evaluator.evaluate(self.problem, genomes)
        if len(fitnesses) != len(individuals):
            raise RuntimeError(
                f"evaluator returned {len(fitnesses)} fitnesses for "
                f"{len(individuals)} genomes"
            )
        for ind, f in zip(individuals, fitnesses):
            ind.fitness = float(f)
        self.state.evaluations += len(individuals)

    # -- vectorized fast path -----------------------------------------------
    def _use_vectorized(self) -> bool:
        """Whether this generation runs on the array fast path.

        Resolved once per engine: both variation operators must have batch
        kernels.  When the toggle is on but an operator is unsupported the
        engine stays scalar.
        """
        if not self.config.vectorized_variation:
            return False
        if self._vectorized_supported is None:
            self._vectorized_supported = supports_vectorized_variation(self.config)
        return self._vectorized_supported

    def _select_indices(self, fitnesses: np.ndarray, n: int) -> np.ndarray:
        """Select ``n`` parent row indices from the current population.

        Built-in operators pick rows through their ``indices`` method;
        custom operators without one fall back to the member call with
        picks mapped back to rows by identity (selection returns
        references, never copies).
        """
        assert self.population is not None
        op = self.config.selection
        if hasattr(op, "indices"):
            return op.indices(self.rng, fitnesses, n, self.problem.maximize)
        members = self.population.individuals
        picked = self.config.selection(self.rng, members, n, self.problem.maximize)
        index_of = {id(ind): i for i, ind in enumerate(members)}
        return np.asarray([index_of[id(ind)] for ind in picked], dtype=np.int64)

    def _vector_offspring(
        self, parent_idx: np.ndarray, count: int
    ) -> tuple[list[Individual], np.ndarray]:
        """Run the batched variation cycle and wrap the rows as Individuals;
        the child block comes back too, for :meth:`_evaluate`."""
        assert self.population is not None
        members = self.population.individuals
        picked = [members[i].genome for i in parent_idx.tolist()]
        parents = stack_genomes(picked)
        if parents is None:  # mixed dtypes: let np.stack promote them
            parents = np.stack(picked)
        genomes, origins = vector_offspring(
            self.rng, self.config, self.problem.spec, parents, count
        )
        gen = self.state.generation + 1
        children = [
            Individual(genome=row.copy(), birth_generation=gen, origin=origin)
            for row, origin in zip(genomes, origins.tolist())
        ]
        return children, genomes

    def _advance(self) -> None:
        raise NotImplementedError


class GenerationalEngine(EvolutionEngine):
    """Whole-population replacement each generation, with elitism."""

    def _advance(self) -> None:
        if self._use_vectorized():
            self._advance_vectorized()
            return
        assert self.population is not None
        cfg = self.config
        n = len(self.population)
        needed = n - min(cfg.elitism, n)
        parents = cfg.selection(
            self.rng, self.population.individuals, needed + needed % 2, self.problem.maximize
        )
        # With odd `needed` the breeder builds one full extra pair and drops
        # a sibling whose crossover/mutation draws were already consumed.
        # That waste is deliberate: the rng draw order here is
        # fingerprint-protected (tests pin the stream), so it must not change.
        # The vectorized path produces exactly `needed` children instead.
        offspring, genomes = breed(
            self.rng,
            cfg,
            self.problem.spec,
            parents,
            needed,
            generation=self.state.generation + 1,
        )
        self._evaluate(offspring, genomes)
        elite = [ind.copy() for ind in self.population.sorted()[: cfg.elitism]]
        self.population.individuals = elite + offspring

    def _advance_vectorized(self) -> None:
        assert self.population is not None
        cfg = self.config
        n = len(self.population)
        needed = n - min(cfg.elitism, n)
        fits = self.population.fitness_array()
        parent_idx = self._select_indices(fits, needed + needed % 2)
        offspring, genomes = self._vector_offspring(parent_idx, needed)
        self._evaluate(offspring, genomes)
        elite = [ind.copy() for ind in self.population.sorted()[: cfg.elitism]]
        self.population.individuals = elite + offspring


class SteadyStateEngine(EvolutionEngine):
    """Insert offspring one at a time, evicting via the replacement policy.

    One *generation* is defined as ``population_size`` insertions — i.e.
    one full population's worth of births — so convergence curves are
    comparable with the generational engine.
    """

    def _advance(self) -> None:
        if self._use_vectorized():
            self._advance_vectorized()
            return
        assert self.population is not None
        cfg = self.config
        for _ in range(len(self.population)):
            parents = cfg.selection(
                self.rng, self.population.individuals, 2, self.problem.maximize
            )
            # A full sibling pair is always built and the second child (and
            # its consumed mutation/repair draws) is discarded.  Deliberate:
            # this rng draw order is fingerprint-protected (tests pin the
            # stream).  The vectorized path below makes one child per step.
            child, _ = offspring_pair(
                self.rng,
                cfg,
                self.problem.spec,
                parents[0],
                parents[1],
                generation=self.state.generation + 1,
            )
            self._evaluate([child])
            cfg.replacement(self.rng, self.population, child)

    def _advance_vectorized(self) -> None:
        assert self.population is not None
        cfg = self.config
        for _ in range(len(self.population)):
            fits = self.population.fitness_array()
            parent_idx = self._select_indices(fits, 2)
            (child,), genome = self._vector_offspring(parent_idx, 1)
            self._evaluate([child], genome)
            cfg.replacement(self.rng, self.population, child)
