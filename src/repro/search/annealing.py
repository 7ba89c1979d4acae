"""Simulated-annealing mapspace search (extension).

Another point on the "Ruby composes with better search" axis: a local
search whose neighborhood re-allocates one dimension's bound chain (the
same move the genetic search uses for mutation) with Metropolis
acceptance and a geometric cooling schedule.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Union

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.generator import MapSpace
from repro.model.batch import BatchEvaluator
from repro.model.evaluator import Evaluation, Evaluator
from repro.obs import SearchTimer
from repro.search.result import ConvergencePoint, SearchResult
from repro.utils.rng import make_rng


class SimulatedAnnealing:
    """Simulated annealing over per-dimension bound chains.

    Args:
        mapspace: source of genomes and mapping assembly.
        evaluator: objective function (lower = better).
        objective: optimization metric name.
        steps: annealing steps (each evaluates one neighbor).
        initial_temperature: Metropolis temperature as a *fraction of the
            initial objective value* — scale-free across workloads.
        cooling: geometric decay factor per step.
        restarts: independent annealing chains; best result wins.
        seed: RNG seed or generator.
        batch_engine: optional pre-built (or shared)
            :class:`~repro.model.batch.BatchEvaluator`; built from
            ``evaluator`` when omitted. The Metropolis chain is inherently
            sequential (each step's candidate depends on the previous
            acceptance), so candidates are priced one at a time.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        steps: int = 1_000,
        initial_temperature: float = 0.5,
        cooling: float = 0.995,
        restarts: int = 1,
        seed: Optional[Union[int, random.Random]] = None,
        batch_engine=None,
    ) -> None:
        if steps < 1:
            raise SearchError("steps must be >= 1")
        if not 0.0 < cooling <= 1.0:
            raise SearchError("cooling must be in (0, 1]")
        if initial_temperature <= 0:
            raise SearchError("initial_temperature must be positive")
        if restarts < 1:
            raise SearchError("restarts must be >= 1")
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = objective
        self.steps = steps
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.restarts = restarts
        self.rng = make_rng(seed)
        self.batch_engine = batch_engine

    def run(self) -> SearchResult:
        best: Optional[Evaluation] = None
        best_metric = float("inf")
        evaluations = 0
        num_valid = 0
        curve = []
        # Nominal plan: one seed draw + `steps` neighbors per restart.
        # Infeasible-seed retries can exceed it; the tracker clamps the
        # fraction at 1.0 and finish() snaps short runs up to it.
        timer = SearchTimer(
            self.evaluator,
            driver="annealing",
            total_units=self.restarts * (self.steps + 1),
        )
        engine = self.batch_engine or BatchEvaluator(
            self.evaluator, layout=self.mapspace.batch_layout()
        )

        def evaluate(genome):
            nonlocal evaluations, num_valid, best, best_metric
            timer.progress.advance(1)
            mapping = self.mapspace.assemble(genome, self.rng)
            outcome = engine.evaluate_mappings(
                [mapping], objective=self.objective, prune=False
            )[0]
            evaluations += 1
            if not outcome.valid:
                return float("inf")
            num_valid += 1
            metric = outcome.metric
            evaluation = outcome.evaluation
            if metric < best_metric:
                if evaluation is None:
                    evaluation = self.evaluator.evaluate_fresh(mapping)
                best, best_metric = evaluation, metric
                curve.append(
                    ConvergencePoint(evaluations=evaluations, best_metric=metric)
                )
                obs.inc("search.improvements", driver="annealing")
                obs.set_gauge("search.best_metric", metric, driver="annealing")
                timer.progress.improved(metric)
            return metric

        with timer, obs.trace(
            "search.run", driver="annealing", objective=self.objective
        ):
            for restart in range(self.restarts):
                with obs.trace("search.restart", index=restart):
                    current = self.mapspace.sample_chains(self.rng)
                    current_metric = evaluate(current)
                    attempts = 0
                    while current_metric == float("inf") and attempts < 50:
                        current = self.mapspace.sample_chains(self.rng)
                        current_metric = evaluate(current)
                        attempts += 1
                    if current_metric == float("inf"):
                        continue
                    temperature = self.initial_temperature * current_metric
                    for _ in range(self.steps):
                        dim = self.rng.choice(list(current))
                        neighbor = self.mapspace.resample_dim(
                            current, dim, self.rng
                        )
                        neighbor_metric = evaluate(neighbor)
                        if self._accept(
                            current_metric, neighbor_metric, temperature
                        ):
                            current, current_metric = neighbor, neighbor_metric
                            obs.inc("search.accepts", driver="annealing")
                        else:
                            obs.inc("search.rejects", driver="annealing")
                        temperature *= self.cooling
            obs.inc("search.candidates", evaluations, driver="annealing")
        return SearchResult(
            best=best,
            objective=self.objective,
            num_evaluated=evaluations,
            num_valid=num_valid,
            terminated_by="budget",
            curve=curve,
            stats=timer.stats(evaluations, engine=engine),
        )

    def _accept(self, current: float, candidate: float, temperature: float) -> bool:
        if candidate <= current:
            return True
        if candidate == float("inf") or temperature <= 0:
            return False
        delta = candidate - current
        return self.rng.random() < math.exp(-delta / temperature)
