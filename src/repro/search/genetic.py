"""GAMMA-style genetic search over a mapspace (extension).

The paper positions Ruby as orthogonal to search strategy: better search
(GAMMA, Mind Mappings, CoSA) composes with a better mapspace. This module
provides that composition — a genetic algorithm whose genome is the set of
per-dimension bound chains plus the permutation choice, with:

* **selection** — tournament by objective;
* **crossover** — per-dimension chain exchange between two parents
  (repairing joint fanout violations by re-allocating offending dims);
* **mutation** — re-allocating one random dimension's chain.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.allocation import DimChain
from repro.mapspace.generator import MapSpace
from repro.model.batch import BatchEvaluator
from repro.model.evaluator import Evaluation, Evaluator
from repro.obs import SearchTimer
from repro.search.result import ConvergencePoint, SearchResult
from repro.utils.rng import make_rng

Genome = Dict[str, DimChain]


class GeneticSearch:
    """Genetic mapspace search.

    Args:
        mapspace: source of genomes (chains) and mapping assembly.
        evaluator: fitness function (lower objective = fitter).
        objective: optimization metric name.
        population_size: individuals per generation.
        generations: number of generations to evolve.
        mutation_rate: probability of mutating each offspring.
        tournament: tournament size for parent selection.
        seed: RNG seed or generator.
        batch_engine: optional pre-built (or shared)
            :class:`~repro.model.batch.BatchEvaluator`; built from
            ``evaluator`` when omitted. Each population is scored as one
            batch. Pruning stays off — selection needs every individual's
            fitness, not just the incumbent-beaters.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        population_size: int = 50,
        generations: int = 20,
        mutation_rate: float = 0.3,
        tournament: int = 3,
        seed: Optional[Union[int, random.Random]] = None,
        batch_engine=None,
    ) -> None:
        if population_size < 2:
            raise SearchError("population_size must be >= 2")
        if generations < 1:
            raise SearchError("generations must be >= 1")
        if not 0.0 <= mutation_rate <= 1.0:
            raise SearchError("mutation_rate must be in [0, 1]")
        if tournament < 1:
            raise SearchError("tournament must be >= 1")
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = objective
        self.population_size = population_size
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.tournament = tournament
        self.rng = make_rng(seed)
        self.batch_engine = batch_engine

    def run(self) -> SearchResult:
        """Evolve the population and return the best mapping found."""
        engine = self.batch_engine or BatchEvaluator(
            self.evaluator, layout=self.mapspace.batch_layout()
        )
        timer = SearchTimer(
            self.evaluator,
            driver="genetic",
            total_units=(self.generations + 1) * self.population_size,
        )
        evaluations = 0
        num_valid = 0
        best: Optional[Evaluation] = None
        best_metric = float("inf")
        curve: List[ConvergencePoint] = []
        scored: List[Tuple[float, Genome]] = []

        def score_population(genomes: List[Genome]) -> List[float]:
            """Fitness of a whole population, in population order.

            All genomes are assembled first (the only RNG consumer), then
            priced in one batch.
            """
            nonlocal evaluations, num_valid, best, best_metric
            mappings = [
                self.mapspace.assemble(genome, self.rng) for genome in genomes
            ]
            outcomes = engine.evaluate_mappings(
                mappings, objective=self.objective, prune=False
            )
            metrics: List[float] = []
            for mapping, outcome in zip(mappings, outcomes):
                evaluations += 1
                if not outcome.valid:
                    metrics.append(float("inf"))
                    continue
                num_valid += 1
                metric = outcome.metric
                if metric < best_metric:
                    evaluation = outcome.evaluation
                    if evaluation is None:
                        evaluation = self.evaluator.evaluate_fresh(mapping)
                    best = evaluation
                    best_metric = metric
                    curve.append(
                        ConvergencePoint(
                            evaluations=evaluations, best_metric=metric
                        )
                    )
                    obs.inc("search.improvements", driver="genetic")
                    obs.set_gauge(
                        "search.best_metric", metric, driver="genetic"
                    )
                    timer.progress.improved(metric)
                metrics.append(metric)
            obs.inc("search.candidates", len(genomes), driver="genetic")
            timer.progress.advance(len(genomes))
            return metrics

        with timer, obs.trace(
            "search.run", driver="genetic", objective=self.objective
        ):
            population = [
                self.mapspace.sample_chains(self.rng)
                for _ in range(self.population_size)
            ]
            with obs.trace("search.generation", index=0):
                scored = list(zip(score_population(population), population))
            for generation in range(self.generations):
                with obs.trace("search.generation", index=generation + 1):
                    offspring: List[Genome] = []
                    while len(offspring) < self.population_size:
                        mother = self._select(scored)
                        father = self._select(scored)
                        child = self._crossover(mother, father)
                        if self.rng.random() < self.mutation_rate:
                            child = self._mutate(child)
                        offspring.append(child)
                    scored_offspring = list(
                        zip(score_population(offspring), offspring)
                    )
                    pool = scored + scored_offspring
                    pool.sort(key=lambda pair: pair[0])
                    scored = pool[: self.population_size]
                obs.inc("search.generations", driver="genetic")
        stats = timer.stats(evaluations, engine=engine)
        return SearchResult(
            best=best,
            objective=self.objective,
            num_evaluated=evaluations,
            num_valid=num_valid,
            terminated_by="budget",
            curve=curve,
            stats=stats,
        )

    def _select(self, scored: List[Tuple[float, Genome]]) -> Genome:
        contenders = [
            scored[self.rng.randrange(len(scored))] for _ in range(self.tournament)
        ]
        return min(contenders, key=lambda pair: pair[0])[1]

    def _crossover(self, mother: Genome, father: Genome) -> Genome:
        child: Genome = {}
        for dim in mother:
            child[dim] = mother[dim] if self.rng.random() < 0.5 else father[dim]
        return self._repair(child)

    def _mutate(self, genome: Genome) -> Genome:
        dim = self.rng.choice(list(genome))
        return self.mapspace.resample_dim(genome, dim, self.rng)

    def _repair(self, genome: Genome) -> Genome:
        """Re-allocate random dims until the joint fanout fits."""
        repaired = dict(genome)
        attempts = 0
        while not self.mapspace.chains_within_fanout(repaired):
            dim = self.rng.choice(list(repaired))
            repaired = self.mapspace.resample_dim(repaired, dim, self.rng)
            attempts += 1
            if attempts > 20 * len(repaired):
                return self.mapspace.sample_chains(self.rng)
        return repaired
