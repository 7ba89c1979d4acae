"""Timeloop-style random-sampling search.

Samples mappings uniformly from the mapspace, evaluates each, and keeps the
best. Termination mirrors Timeloop: stop after ``patience`` consecutive
*valid* mappings that fail to improve the objective (the paper uses 3000
across 24 threads), or after a hard evaluation budget.
"""

from __future__ import annotations

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

#: The paper's per-thread termination criterion (Section IV-B): 3000
#: consecutive valid non-improving mappings. Shared by :class:`RandomSearch`
#: and :func:`~repro.search.parallel.parallel_random_search` so the
#: sequential and parallel drivers agree.
DEFAULT_PATIENCE = 3_000


class RandomSearch:
    """Random sampling with a consecutive-non-improving stop criterion.

    Args:
        mapspace: where mappings come from.
        evaluator: prices each mapping. Attach an
            :class:`~repro.model.eval_cache.EvaluationCache` to it to skip
            re-pricing duplicate draws; hit counters surface in
            ``SearchResult.stats``.
        objective: "edp" (the paper's default), "energy", or "delay".
        max_evaluations: hard budget on drawn mappings (valid or not).
        patience: stop after this many consecutive valid non-improving
            mappings; ``None`` disables the criterion. Defaults to the
            paper's 3000.
        seed: RNG seed or generator for reproducibility.
        batch_size: candidates drawn and priced per batch. Each chunk is
            drawn straight into batch columns by
            :meth:`MapSpace.sample_batch`, stream-exact with drawing the
            same mappings one at a time; ``Mapping`` objects are built only
            for improvements, cache hits and bypass rows. Draws, metrics,
            improvements, and termination do not depend on the chunk size:
            chunks are bounded by the remaining patience, so the RNG stream
            never runs ahead of a one-at-a-time loop.
        batch_engine: optional pre-built (or shared)
            :class:`~repro.model.batch.BatchEvaluator` matching this
            mapspace's layout; built from ``evaluator`` when omitted.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        max_evaluations: int = 10_000,
        patience: Optional[int] = DEFAULT_PATIENCE,
        seed: Optional[Union[int, random.Random]] = None,
        batch_size: int = 512,
        batch_engine=None,
    ) -> None:
        if max_evaluations < 1:
            raise SearchError("max_evaluations must be >= 1")
        if patience is not None and patience < 1:
            raise SearchError("patience must be >= 1 or None")
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = objective
        self.max_evaluations = max_evaluations
        self.patience = patience
        self.rng = make_rng(seed)
        self.batch_size = batch_size
        self.batch_engine = batch_engine

    def run(self) -> SearchResult:
        """Run the search to termination."""
        engine = self.batch_engine or BatchEvaluator(
            self.evaluator, layout=self.mapspace.batch_layout()
        )
        best: Optional[Evaluation] = None
        best_metric = float("inf")
        consecutive_non_improving = 0
        num_valid = 0
        evaluations = 0
        curve = []
        terminated_by = "budget"
        timer = SearchTimer(
            self.evaluator, driver="random", total_units=self.max_evaluations
        )
        with timer, obs.trace(
            "search.run", driver="random", objective=self.objective
        ):
            while evaluations < self.max_evaluations:
                # A chunk never outruns a one-at-a-time loop's stopping
                # point: it is capped by both the remaining budget and the
                # draws still needed to exhaust patience, so a patience
                # break can only land on the chunk's last draw and the RNG
                # stream does not depend on the chunk size.
                room = self.max_evaluations - evaluations
                if self.patience is not None:
                    room = min(room, self.patience - consecutive_non_improving)
                chunk = max(1, min(self.batch_size, room))
                with obs.trace("search.batch", size=chunk):
                    batch = self.mapspace.sample_batch(self.rng, chunk)
                    outcomes = engine.evaluate_rows(
                        batch,
                        objective=self.objective,
                        incumbent=best_metric,
                        prune=True,
                    )
                obs.inc("search.candidates", chunk, driver="random")
                timer.progress.advance(chunk)
                stop = False
                for row, outcome in enumerate(outcomes):
                    evaluations += 1
                    if not outcome.valid:
                        continue
                    num_valid += 1
                    if not outcome.pruned and outcome.metric < best_metric:
                        evaluation = outcome.evaluation
                        if evaluation is None:
                            evaluation = self.evaluator.evaluate_fresh(
                                batch.mapping_at(row)
                            )
                        best = evaluation
                        best_metric = outcome.metric
                        consecutive_non_improving = 0
                        curve.append(
                            ConvergencePoint(
                                evaluations=evaluations,
                                best_metric=outcome.metric,
                            )
                        )
                        obs.inc("search.improvements", driver="random")
                        obs.set_gauge(
                            "search.best_metric", outcome.metric,
                            driver="random",
                        )
                        timer.progress.improved(outcome.metric)
                    else:
                        consecutive_non_improving += 1
                        if (
                            self.patience is not None
                            and consecutive_non_improving >= self.patience
                        ):
                            terminated_by = "patience"
                            stop = True
                            break
                if stop:
                    break
        stats = timer.stats(evaluations, engine=engine)
        return SearchResult(
            best=best,
            objective=self.objective,
            num_evaluated=evaluations,
            num_valid=num_valid,
            terminated_by=terminated_by,
            curve=curve,
            stats=stats,
        )

def random_search(
    mapspace: MapSpace,
    evaluator: Evaluator,
    objective: str = "edp",
    max_evaluations: int = 10_000,
    patience: Optional[int] = DEFAULT_PATIENCE,
    seed: Optional[Union[int, random.Random]] = None,
    batch_size: int = 512,
) -> SearchResult:
    """One-shot functional wrapper around :class:`RandomSearch`."""
    return RandomSearch(
        mapspace,
        evaluator,
        objective=objective,
        max_evaluations=max_evaluations,
        patience=patience,
        seed=seed,
        batch_size=batch_size,
    ).run()
