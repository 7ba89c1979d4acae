"""Multi-objective (energy vs delay) mapspace search.

EDP collapses the energy/latency trade-off to one number; architects often
want the whole frontier instead — e.g. the lowest-energy mapping that
meets a latency target. This search samples the mapspace and maintains the
set of non-dominated (energy, cycles) mappings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.generator import MapSpace
from repro.model.batch import BatchEvaluator
from repro.model.evaluator import Evaluation, Evaluator
from repro.obs import SearchTimer
from repro.utils.rng import make_rng


@dataclass
class ParetoSearchResult:
    """The non-dominated set found by :class:`ParetoSearch`.

    ``frontier`` is sorted by ascending energy (so descending-or-equal
    cycles); every entry is a valid evaluation no other entry dominates.
    ``stats`` carries the uniform searcher stats payload (wall time,
    evaluator counters, and the always-present ``batch`` sub-dict).
    """

    frontier: List[Evaluation] = field(default_factory=list)
    num_evaluated: int = 0
    num_valid: int = 0
    stats: Dict = field(default_factory=dict)

    def best_by(self, objective: str) -> Optional[Evaluation]:
        """Frontier entry minimizing one metric ('energy'/'delay'/'edp')."""
        if not self.frontier:
            return None
        return min(self.frontier, key=lambda e: e.metric(objective))

    def fastest_within_energy(self, energy_budget_pj: float) -> Optional[Evaluation]:
        """Lowest-cycle mapping not exceeding an energy budget."""
        candidates = [
            e for e in self.frontier if e.energy_pj <= energy_budget_pj
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.cycles)

    def leanest_within_latency(self, cycle_budget: int) -> Optional[Evaluation]:
        """Lowest-energy mapping not exceeding a cycle budget."""
        candidates = [e for e in self.frontier if e.cycles <= cycle_budget]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.energy_pj)


def _dominates_xy(
    a_energy: float, a_cycles: int, b_energy: float, b_cycles: int
) -> bool:
    return (
        a_energy <= b_energy
        and a_cycles <= b_cycles
        and (a_energy < b_energy or a_cycles < b_cycles)
    )


def _dominates(a: Evaluation, b: Evaluation) -> bool:
    return _dominates_xy(a.energy_pj, a.cycles, b.energy_pj, b.cycles)


class ParetoSearch:
    """Random sampling that keeps the (energy, cycles) Pareto set.

    Args:
        mapspace: where mappings come from.
        evaluator: prices each mapping.
        max_evaluations: sampling budget.
        seed: RNG seed or generator.
        batch_size: candidates per chunk, drawn straight into batch
            columns by :meth:`MapSpace.sample_batch` and priced through the
            :class:`~repro.model.batch.BatchEvaluator`. The sampler is
            stream-exact with one-at-a-time draws and evaluation consumes
            no randomness, so the chunk size never changes which
            candidates are visited.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        max_evaluations: int = 10_000,
        seed: Optional[Union[int, random.Random]] = None,
        batch_size: int = 512,
    ) -> None:
        if max_evaluations < 1:
            raise SearchError("max_evaluations must be >= 1")
        if batch_size < 1:
            raise SearchError("batch_size must be >= 1")
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.max_evaluations = max_evaluations
        self.rng = make_rng(seed)
        self.batch_size = batch_size

    def run(self) -> ParetoSearchResult:
        result = ParetoSearchResult()
        timer = SearchTimer(
            self.evaluator, driver="pareto", total_units=self.max_evaluations
        )
        engine = BatchEvaluator(
            self.evaluator, layout=self.mapspace.batch_layout()
        )
        with timer, obs.trace("search.run", driver="pareto"):
            frontier = self._sweep(engine, result, timer)
            obs.inc("search.candidates", result.num_evaluated, driver="pareto")
        frontier.sort(key=lambda e: (e.energy_pj, e.cycles))
        result.frontier = frontier
        result.stats = timer.stats(result.num_evaluated, engine=engine)
        return result

    def _sweep(
        self, engine, result: ParetoSearchResult, timer: SearchTimer
    ) -> List[Evaluation]:
        frontier: List[Evaluation] = []
        remaining = self.max_evaluations
        while remaining > 0:
            chunk_size = min(self.batch_size, remaining)
            batch = self.mapspace.sample_batch(self.rng, chunk_size)
            outcomes = engine.evaluate_rows(batch, prune=False)
            result.num_evaluated += chunk_size
            timer.progress.advance(chunk_size)
            remaining -= chunk_size
            for row, outcome in enumerate(outcomes):
                if not outcome.valid:
                    continue
                result.num_valid += 1
                energy, cycles = outcome.energy_pj, outcome.cycles
                if any(
                    _dominates_xy(kept.energy_pj, kept.cycles, energy, cycles)
                    for kept in frontier
                ):
                    continue
                # Materialize the full Evaluation only for frontier
                # entrants — dominated candidates never leave the batch.
                evaluation = outcome.evaluation
                if evaluation is None:
                    evaluation = self.evaluator.evaluate_fresh(
                        batch.mapping_at(row)
                    )
                if self._admit(frontier, evaluation):
                    timer.progress.improved(float(len(frontier)))
        return frontier

    @staticmethod
    def _admit(
        frontier: List[Evaluation], evaluation: Evaluation
    ) -> bool:
        """Admit a non-dominated evaluation; True when the frontier grew."""
        if any(_dominates(kept, evaluation) for kept in frontier):
            return False
        frontier[:] = [
            kept for kept in frontier if not _dominates(evaluation, kept)
        ]
        frontier.append(evaluation)
        return True
