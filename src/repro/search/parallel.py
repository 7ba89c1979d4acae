"""Parallel multi-start random search (the paper's 24-thread setup).

Timeloop's random-sampling search farms independent streams across
threads; the paper runs 3000-patience over 24 of them. This module does
the equivalent with a process pool: N workers each run an independent
seeded :class:`~repro.search.random_search.RandomSearch`, and the best
result (plus aggregate statistics) is merged.

The pool is start-method agnostic. Shared, immutable state — the
architecture, workload, constraints, and the energy table (estimated
**once**, not per worker) — ships through a pool initializer, so jobs
themselves are just ``(index, seed)`` pairs and the driver works under
both ``fork`` and ``spawn``. Platforms with neither usable start method
degrade to sequential execution of the same jobs; ``stats["pool_mode"]``
records which mode actually ran.
"""

from __future__ import annotations

import logging
import math
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.arch.spec import Architecture
from repro.energy.accelergy import estimate_energy_table
from repro.energy.table import EnergyTable
from repro.exceptions import SearchError, WorkerError
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.factory import make_mapspace
from repro.mapspace.generator import MapspaceKind
from repro.model.eval_cache import DEFAULT_CACHE_SIZE, EvaluationCache
from repro.model.evaluator import Evaluator
from repro.obs import SearchTimer, TIMING_BUCKETS
from repro.search.random_search import DEFAULT_PATIENCE, RandomSearch
from repro.search.result import SearchResult
from repro.search.worker_pool import (
    OBS_SNAPSHOT_KEY as _OBS_SNAPSHOT_KEY,
    collect_worker_obs,
    run_jobs,
    run_under_worker_obs,
)
from repro.utils.rng import make_rng

logger = logging.getLogger(__name__)


def _pool_entry(state: Dict[str, Any], job: Tuple[int, int]) -> SearchResult:
    """Pool entry point: run one ``(index, seed)`` job."""
    index, seed = job
    return _search_once_indexed(state, index, seed)


def _search_once_indexed(
    state: Dict[str, Any], index: int, seed: int
) -> SearchResult:
    """Run one job, re-raising any failure as a :class:`WorkerError`.

    ``imap_unordered`` re-raises whatever bare exception a worker died
    with, losing which job failed; wrapping here attaches the failing
    job's ``(index, seed)`` and pickles cleanly back to the driver.
    """
    try:
        return _search_once(state, seed)
    except WorkerError:
        raise
    except Exception as error:
        raise WorkerError(
            index, seed, f"{type(error).__name__}: {error}"
        ) from error


def _search_once(state: Dict[str, Any], seed: int) -> SearchResult:
    """Rebuild the mapspace/evaluator stack and run one seeded search.

    The energy table arrives pre-built in ``state`` — estimating it is the
    only expensive part of evaluator construction, and it depends solely
    on the architecture, so the driver hoists it out of the workers.

    When the driver had an observability scope active it sets
    ``state["obs"]``; the worker then runs under a *private* registry
    (deliberately replacing any scope inherited across ``fork``, whose
    tracer file handle must not be shared) and ships a picklable snapshot
    back inside the result's stats for the driver to merge.
    """
    mapspace = make_mapspace(
        state["arch"], state["workload"], state["kind"], state["constraints"]
    )
    cache_size = state["cache_size"]
    cache = EvaluationCache(cache_size) if cache_size else None
    evaluator = Evaluator(
        state["arch"],
        state["workload"],
        energy_table=state["energy_table"],
        cache=cache,
    )
    strategy = state.get("strategy", "random")
    if strategy == "branch-bound":
        # Exact search: workers differ only in their warm-start seed, so
        # the merged best is a cross-seed determinism check, not a
        # coverage gain — every worker proves the same optimum.
        from repro.search.branch_bound import BranchBoundSearch

        search = BranchBoundSearch(
            mapspace,
            evaluator,
            objective=state["objective"],
            seed=seed,
            batch_size=state["batch_size"],
        )
    elif strategy == "random":
        search = RandomSearch(
            mapspace,
            evaluator,
            objective=state["objective"],
            max_evaluations=state["max_evaluations"],
            patience=state["patience"],
            seed=seed,
            batch_size=state["batch_size"],
        )
    else:
        raise SearchError(
            f"parallel search supports the 'random' and 'branch-bound' "
            f"strategies, not {strategy!r}"
        )
    result, snapshot = run_under_worker_obs(bool(state.get("obs")), search.run)
    if snapshot is not None:
        result.stats[_OBS_SNAPSHOT_KEY] = snapshot
    return result


def parallel_random_search(
    arch: Architecture,
    workload,
    kind: Union[str, MapspaceKind] = MapspaceKind.RUBY_S,
    constraints: Optional[ConstraintSet] = None,
    objective: str = "edp",
    max_evaluations: int = 10_000,
    patience: Optional[int] = DEFAULT_PATIENCE,
    workers: int = 4,
    seed: Optional[int] = None,
    energy_table: Optional[EnergyTable] = None,
    cache_size: Optional[int] = DEFAULT_CACHE_SIZE,
    start_method: Optional[str] = None,
    batch_size: int = 512,
    strategy: str = "random",
) -> SearchResult:
    """Run ``workers`` independent searches and merge the best result.

    ``max_evaluations`` and ``patience`` apply *per worker* (matching the
    paper's per-thread termination criterion). The merged result reports
    the summed evaluation counts and the single best evaluation; its curve
    is the winning worker's curve (see :func:`_merge` for the index
    semantics).

    Args:
        energy_table: pre-built per-access energies; estimated once here
            (never per worker) when omitted.
        cache_size: per-worker evaluation-cache bound; ``None`` or 0
            disables caching. Caching never changes results — only speed.
        start_method: force a multiprocessing start method ("fork" or
            "spawn"); by default each is tried in that order before
            degrading to sequential execution.
        batch_size: per-worker candidates per packed batch.
        strategy: "random" (the paper's multi-start setup) or
            "branch-bound" (each worker runs the exact search from its own
            warm-start seed; useful as a determinism cross-check).

    The returned ``stats`` carry ``pool_mode`` (which execution mode
    actually ran), wall-clock ``elapsed_s``/``evals_per_sec`` across the
    whole pool, an aggregate ``cache`` summary, and a ``workers`` list
    with each worker's seed, counts, hit rate, and throughput.
    """
    if workers < 1:
        raise SearchError("workers must be >= 1")
    rng = make_rng(seed)
    seeds = [rng.getrandbits(32) for _ in range(workers)]
    state: Dict[str, Any] = {
        "arch": arch,
        "workload": workload,
        "kind": MapspaceKind(kind),
        "constraints": constraints,
        "objective": objective,
        "max_evaluations": max_evaluations,
        "patience": patience,
        "energy_table": energy_table or estimate_energy_table(arch),
        "cache_size": cache_size,
        "batch_size": batch_size,
        "strategy": strategy,
        "obs": obs.active_obs() is not None,
    }
    # Workers report whole results, not per-candidate ticks, so the
    # driver-side tracker advances in worker-sized strides as each stream
    # finishes. The nominal total is every worker spending its full
    # budget; patience stops spend less, and finish() snaps the fraction.
    # Branch-and-bound workers have no per-worker budget — leave the
    # total unknown and report rate/ETA only.
    timer = SearchTimer(
        driver="parallel",
        total_units=(
            workers * max_evaluations if strategy == "random" else None
        ),
    )
    pool_best = math.inf

    def _on_result(result: SearchResult) -> None:
        nonlocal pool_best
        timer.progress.advance(result.num_evaluated)
        if result.best is not None:
            metric = result.best.metric(objective)
            if metric < pool_best:
                pool_best = metric
                timer.progress.improved(metric)

    with timer, obs.trace(
        "search.run", driver="parallel", workers=workers, objective=objective
    ):
        results, pool_mode, _ = run_jobs(
            _pool_entry,
            state,
            list(enumerate(seeds)),
            workers,
            start_method=start_method,
            on_result=_on_result,
        )
    collect_worker_obs([result.stats for result in results])
    merged = _merge(results, objective)
    merged.stats.update(
        _pool_stats(results, seeds, pool_mode, timer.elapsed_s)
    )
    merged.stats["progress"] = timer.progress.stats_payload()
    obs.inc("search.runs", driver="parallel")
    obs.inc("search.evaluations", merged.num_evaluated, driver="parallel")
    obs.observe(
        "search.run_seconds",
        timer.elapsed_s,
        buckets=TIMING_BUCKETS,
        driver="parallel",
    )
    return merged


def _pool_stats(
    results: List[SearchResult],
    seeds: List[int],
    pool_mode: str,
    elapsed: float,
) -> Dict[str, Any]:
    """Aggregate per-worker observability into the merged stats payload."""
    from repro.obs import empty_batch_stats

    worker_rows = []
    cache_hits = 0
    cache_misses = 0
    cache_size = 0
    cache_capacity = 0
    cache_enabled = False
    batch_totals = empty_batch_stats()
    for index, (worker_seed, result) in enumerate(zip(seeds, results)):
        row: Dict[str, Any] = {
            "worker": index,
            "seed": worker_seed,
            "num_evaluated": result.num_evaluated,
            "num_valid": result.num_valid,
            "terminated_by": result.terminated_by,
            "elapsed_s": result.stats.get("elapsed_s"),
            "evals_per_sec": result.stats.get("evals_per_sec"),
        }
        cache = result.stats.get("cache")
        if cache is not None:
            cache_enabled = True
            cache_hits += cache["hits"]
            cache_misses += cache["misses"]
            cache_size += cache.get("size") or 0
            cache_capacity += cache.get("max_entries") or 0
            row["cache_hit_rate"] = cache["hit_rate"]
        batch = result.stats.get("batch")
        if batch:
            for key in ("batches", "candidates", "pruned", "fallback"):
                batch_totals[key] += batch.get(key, 0)
        worker_rows.append(row)
    if batch_totals["candidates"]:
        batch_totals["prune_rate"] = (
            batch_totals["pruned"] / batch_totals["candidates"]
        )
    total_evaluated = sum(r.num_evaluated for r in results)
    stats: Dict[str, Any] = {
        "pool_mode": pool_mode,
        "elapsed_s": elapsed,
        "evals_per_sec": (total_evaluated / elapsed) if elapsed > 0 else 0.0,
        "workers": worker_rows,
        # Uniform schema: the merged payload carries the same batch key
        # set as a single-worker payload, summed across the pool.
        "batch": batch_totals,
    }
    if cache_enabled:
        # As in throughput_stats: no lookups at all means the rate is
        # unknowable, not zero.
        lookups = cache_hits + cache_misses
        # Same key set as throughput_stats so callers can treat the
        # merged payload and a single-worker payload interchangeably;
        # size/max_entries are summed across the (now-gone) worker caches.
        stats["cache"] = {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_rate": (cache_hits / lookups) if lookups else None,
            "size": cache_size,
            "max_entries": cache_capacity or None,
        }
    return stats


def _merge(results: List[SearchResult], objective: str) -> SearchResult:
    """Merge per-worker results into one.

    Counts are **summed** across workers while the curve is the winning
    worker's trace unchanged, so ``curve[i].evaluations`` are that
    worker's *local* evaluation indices (1-based within its own stream) —
    they are not comparable to the merged ``num_evaluated`` total and
    always satisfy ``curve[-1].evaluations <= num_evaluated``. This keeps
    the per-thread semantics of the paper's convergence plots: each
    thread's patience and budget are judged against its own stream.
    """
    winner = None
    for result in results:
        if result.best is None:
            continue
        if winner is None or result.best.metric(objective) < winner.best.metric(
            objective
        ):
            winner = result
    total_evaluated = sum(r.num_evaluated for r in results)
    total_valid = sum(r.num_valid for r in results)
    if winner is None:
        return SearchResult(
            best=None,
            objective=objective,
            num_evaluated=total_evaluated,
            num_valid=total_valid,
            terminated_by="budget",
        )
    return SearchResult(
        best=winner.best,
        objective=objective,
        num_evaluated=total_evaluated,
        num_valid=total_valid,
        terminated_by=winner.terminated_by,
        curve=winner.curve,
    )
