"""The Mapper facade: one call from (architecture, workload) to a mapping.

Ties together the three Timeloop subproblems — mapspace generation, search,
and cost modelling — behind a single configuration object. This is the
primary entry point of the library:

    >>> from repro import eyeriss_like, ConvLayer, find_best_mapping
    >>> arch = eyeriss_like()
    >>> layer = ConvLayer("conv", c=64, m=64, p=56, q=56, r=3, s=3)
    >>> result = find_best_mapping(arch, layer.workload(), kind="ruby-s")
    >>> result.best.edp  # doctest: +SKIP
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

from repro import obs
from repro.arch.spec import Architecture
from repro.energy.table import EnergyTable
from repro.exceptions import SearchError
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.factory import make_mapspace
from repro.mapspace.generator import MapspaceKind
from repro.model.evaluator import Evaluator
from repro.problem.workload import Workload
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.genetic import GeneticSearch
from repro.search.random_search import RandomSearch
from repro.search.result import SearchResult


@dataclass(frozen=True)
class MapperConfig:
    """Configuration for a :class:`Mapper` run.

    Attributes:
        kind: mapspace variant ("pfm", "ruby", "ruby-s", "ruby-t").
        objective: "edp" (paper default), "energy", or "delay".
        strategy: "random" (Timeloop-style), "exhaustive", "branch-bound"
            (exact, with subtree pruning), "genetic", or "annealing".
        max_evaluations: budget for the random strategy.
        patience: consecutive-non-improving termination (random strategy);
            the paper uses 3000.
        seed: RNG seed for reproducibility.
        constraints: dataflow constraints applied to the mapspace.
        batch_size: candidates per packed batch (random, exhaustive, and
            branch-bound strategies).
        workers: process count for the branch-bound strategy (subtree
            work-sharing with a shared incumbent; results stay
            bit-identical to the serial walk). Other strategies ignore it.
        start_method: multiprocessing start method override for
            ``workers > 1`` ("fork" or "spawn"; auto-laddered when None).
    """

    kind: Union[str, MapspaceKind] = MapspaceKind.RUBY_S
    objective: str = "edp"
    strategy: str = "random"
    max_evaluations: int = 10_000
    patience: Optional[int] = 1_000
    seed: Optional[int] = None
    constraints: Optional[ConstraintSet] = None
    batch_size: int = 512
    workers: int = 1
    start_method: Optional[str] = None


class Mapper:
    """Find good mappings of a workload onto an architecture.

    Args:
        arch: the accelerator.
        workload: the tensor operation.
        config: search configuration (defaults to :class:`MapperConfig`).
        energy_table: optional pre-built energy table (ignored when an
            ``evaluator`` is injected — it already owns one).
        evaluator: optional pre-built evaluator for this exact
            (arch, workload) pair. Long-lived drivers — the mapper
            service — inject one carrying a shared
            :class:`~repro.model.eval_cache.EvaluationCache`, so repeated
            requests hit the cached fast path instead of re-pricing.
        batch_engine: optional pre-built (or shared)
            :class:`~repro.model.batch.BatchEvaluator` handed through to
            the random, exhaustive, genetic, and annealing searchers; must
            have been built against this mapper's mapspace layout.
    """

    def __init__(
        self,
        arch: Architecture,
        workload: Workload,
        config: Optional[MapperConfig] = None,
        energy_table: Optional[EnergyTable] = None,
        evaluator: Optional[Evaluator] = None,
        batch_engine=None,
    ) -> None:
        self.arch = arch
        self.workload = workload
        self.config = config or MapperConfig()
        self.evaluator = (
            evaluator
            if evaluator is not None
            else Evaluator(arch, workload, energy_table)
        )
        self.batch_engine = batch_engine
        self.mapspace = make_mapspace(
            arch, workload, self.config.kind, self.config.constraints
        )

    def run(self, seed: Optional[Union[int, random.Random]] = None) -> SearchResult:
        """Run the configured search; ``seed`` overrides the config seed."""
        with obs.trace(
            "mapper.run",
            strategy=self.config.strategy,
            kind=MapspaceKind(self.config.kind).value,
            objective=self.config.objective,
            workload=self.workload.name,
        ):
            return self._run(seed)

    def _run(
        self, seed: Optional[Union[int, random.Random]] = None
    ) -> SearchResult:
        effective_seed = seed if seed is not None else self.config.seed
        strategy = self.config.strategy
        if strategy == "random":
            return RandomSearch(
                self.mapspace,
                self.evaluator,
                objective=self.config.objective,
                max_evaluations=self.config.max_evaluations,
                patience=self.config.patience,
                seed=effective_seed,
                batch_size=self.config.batch_size,
                batch_engine=self.batch_engine,
            ).run()
        if strategy == "exhaustive":
            return ExhaustiveSearch(
                self.mapspace,
                self.evaluator,
                objective=self.config.objective,
                batch_size=self.config.batch_size,
                batch_engine=self.batch_engine,
            ).run()
        if strategy == "branch-bound":
            from repro.search.branch_bound import BranchBoundSearch

            return BranchBoundSearch(
                self.mapspace,
                self.evaluator,
                objective=self.config.objective,
                seed=effective_seed,
                batch_size=self.config.batch_size,
                workers=self.config.workers,
                start_method=self.config.start_method,
            ).run()
        if strategy == "genetic":
            return GeneticSearch(
                self.mapspace,
                self.evaluator,
                objective=self.config.objective,
                seed=effective_seed,
                batch_engine=self.batch_engine,
            ).run()
        if strategy == "annealing":
            from repro.search.annealing import SimulatedAnnealing

            return SimulatedAnnealing(
                self.mapspace,
                self.evaluator,
                objective=self.config.objective,
                steps=self.config.max_evaluations,
                seed=effective_seed,
                batch_engine=self.batch_engine,
            ).run()
        raise SearchError(
            f"unknown strategy {strategy!r}; use random, exhaustive, "
            f"branch-bound, genetic, or annealing"
        )


def find_best_mapping(
    arch: Architecture,
    workload: Workload,
    kind: Union[str, MapspaceKind] = MapspaceKind.RUBY_S,
    objective: str = "edp",
    max_evaluations: int = 10_000,
    patience: Optional[int] = 1_000,
    seed: Optional[int] = None,
    constraints: Optional[ConstraintSet] = None,
    strategy: str = "random",
    batch_size: int = 512,
    workers: int = 1,
    start_method: Optional[str] = None,
) -> SearchResult:
    """One-call mapping search (see :class:`MapperConfig` for parameters)."""
    config = MapperConfig(
        kind=kind,
        objective=objective,
        strategy=strategy,
        max_evaluations=max_evaluations,
        patience=patience,
        seed=seed,
        constraints=constraints,
        batch_size=batch_size,
        workers=workers,
        start_method=start_method,
    )
    return Mapper(arch, workload, config).run()
