"""Exhaustive search for toy problems (complete mapspace sweeps)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.generator import MapSpace
from repro.model.batch import BatchEvaluator
from repro.model.evaluator import Evaluation, Evaluator
from repro.obs import SearchTimer
from repro.search.result import ConvergencePoint, SearchResult


class ExhaustiveSearch:
    """Evaluate every mapping of a mapspace, each exactly once.

    The sweep runs through the batch engine
    (:class:`~repro.model.batch.BatchEvaluator`): candidates are packed
    straight from the chain enumerator into columnar batches and priced in
    bulk, with admissible lower-bound pruning skipping the expensive
    traffic stage for candidates that provably cannot beat the incumbent.
    Results are bit-exact against the scalar evaluator, which the engine
    itself falls back to for cost-model configs its kernels do not cover.

    Args:
        mapspace: must be small enough to enumerate.
        evaluator: prices each mapping.
        objective: optimization metric name.
        limit: safety cap on enumerated mappings; exceeding it raises.
        batch_size: candidates per packed batch.
        prune: enable lower-bound pruning. Never changes the search
            outcome — only which candidates get fully priced.
        batch_engine: optional pre-built (or shared) engine; built from
            ``evaluator`` when omitted.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        limit: int = 1_000_000,
        batch_size: int = 512,
        prune: bool = True,
        batch_engine=None,
    ) -> None:
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = objective
        self.limit = limit
        self.batch_size = batch_size
        self.prune = prune
        self.batch_engine = batch_engine

    def run(self) -> SearchResult:
        engine = self.batch_engine or BatchEvaluator(
            self.evaluator, layout=self.mapspace.batch_layout()
        )
        best: Optional[Evaluation] = None
        best_metric = float("inf")
        num_valid = 0
        evaluations = 0
        curve = []
        # Clamp so the limit check below always fires before a batch that
        # would push past the cap is priced (and bound batch memory).
        batch_size = max(1, min(self.batch_size, self.limit + 1))
        # Pre-filter menu product: cheap, and only an over-estimate —
        # finish() snaps the progress fraction to 1.0 at the end.
        timer = SearchTimer(
            self.evaluator,
            driver="exhaustive",
            total_units=self.mapspace.enumeration_upper_bound(),
        )
        with timer, obs.trace(
            "search.run", driver="exhaustive", objective=self.objective
        ):
            for batch in self.mapspace.iter_batches(batch_size=batch_size):
                if evaluations + batch.size > self.limit:
                    raise SearchError(
                        f"exhaustive search exceeded limit of {self.limit} "
                        "mappings"
                    )
                with obs.trace("search.batch", size=batch.size):
                    outcome = engine.evaluate_batch(
                        batch,
                        objective=self.objective,
                        incumbent=best_metric,
                        prune=self.prune,
                    )
                obs.inc("search.candidates", batch.size, driver="exhaustive")
                timer.progress.advance(batch.size)
                # Only rows beating the batch-start incumbent can
                # improve; they are replayed in row order, so the curve
                # is that of a row-by-row loop.
                start = evaluations
                evaluations += batch.size
                num_valid += int(outcome.valid.sum())
                improving = np.flatnonzero(
                    outcome.valid
                    & ~outcome.pruned
                    & (outcome.metric < best_metric)
                )
                for i in improving:
                    i = int(i)
                    metric = float(outcome.metric[i])
                    if metric < best_metric:
                        evaluation = outcome.evaluations.get(i)
                        if evaluation is None:
                            evaluation = self.evaluator.evaluate_fresh(
                                batch.mapping_at(i)
                            )
                        best = evaluation
                        best_metric = metric
                        curve.append(
                            ConvergencePoint(
                                evaluations=start + i + 1, best_metric=metric
                            )
                        )
                        obs.inc("search.improvements", driver="exhaustive")
                        obs.set_gauge(
                            "search.best_metric", metric, driver="exhaustive"
                        )
                        timer.progress.improved(metric)
        return SearchResult(
            best=best,
            objective=self.objective,
            num_evaluated=evaluations,
            num_valid=num_valid,
            terminated_by="exhausted",
            curve=curve,
            stats=timer.stats(evaluations, engine=engine),
        )


def exhaustive_search(
    mapspace: MapSpace,
    evaluator: Evaluator,
    objective: str = "edp",
    limit: int = 1_000_000,
    batch_size: int = 512,
    prune: bool = True,
) -> SearchResult:
    """One-shot functional wrapper around :class:`ExhaustiveSearch`."""
    return ExhaustiveSearch(
        mapspace,
        evaluator,
        objective=objective,
        limit=limit,
        batch_size=batch_size,
        prune=prune,
    ).run()
