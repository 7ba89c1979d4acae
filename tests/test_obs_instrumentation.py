"""Integration tests: searches and evaluators under an obs scope.

Verifies that the instrumentation layered into the evaluators and the
search drivers publishes spans and counters when a scope is active, stays
silent (and unchanged in output) when it is not, and that the
SearchResult.stats schema is identical across the scalar, cached,
batched, and parallel paths (satellite: schema stability).
"""

import pytest

from repro.mapspace import pfm_mapspace, ruby_s_mapspace
from repro.model import Evaluator
from repro.model.eval_cache import EvaluationCache
from repro.obs import MetricsRegistry, Tracer, obs_scope, read_trace
from repro.search import (
    GeneticSearch,
    SimulatedAnnealing,
    exhaustive_search,
    random_search,
)
from repro.search.parallel import parallel_random_search


def _span_names(tracer):
    return {record["name"] for record in tracer.records}


class TestSearchSpans:
    def test_random_search_emits_spans_and_counters(
        self, toy_arch, vector100, toy_evaluator
    ):
        space = pfm_mapspace(toy_arch, vector100)
        registry = MetricsRegistry()
        tracer = Tracer()
        with obs_scope(registry=registry, tracer=tracer):
            result = random_search(
                space, toy_evaluator, seed=0, max_evaluations=200
            )
        names = _span_names(tracer)
        assert "search.run" in names
        assert registry.counter("search.runs").value(driver="random") == 1.0
        assert (
            registry.counter("search.evaluations").value(driver="random")
            == result.num_evaluated
        )
        assert registry.counter("search.candidates").total() > 0
        assert registry.gauge("search.best_metric").value(
            driver="random"
        ) == pytest.approx(result.best_metric)

    def test_exhaustive_search_emits_spans(
        self, toy_arch, vector100, toy_evaluator
    ):
        space = pfm_mapspace(toy_arch, vector100)
        registry = MetricsRegistry()
        tracer = Tracer()
        with obs_scope(registry=registry, tracer=tracer):
            exhaustive_search(space, toy_evaluator)
        names = _span_names(tracer)
        assert "search.run" in names
        assert registry.counter("search.runs").value(driver="exhaustive") == 1.0

    def test_genetic_search_emits_generation_spans(
        self, toy_arch, vector100, toy_evaluator
    ):
        space = ruby_s_mapspace(toy_arch, vector100)
        registry = MetricsRegistry()
        tracer = Tracer()
        with obs_scope(registry=registry, tracer=tracer):
            GeneticSearch(
                space,
                toy_evaluator,
                seed=0,
                population_size=8,
                generations=3,
            ).run()
        names = _span_names(tracer)
        assert "search.run" in names
        assert "search.generation" in names
        assert registry.counter("search.runs").value(driver="genetic") == 1.0

    def test_annealing_emits_restart_spans_and_accept_counters(
        self, toy_arch, vector100, toy_evaluator
    ):
        space = ruby_s_mapspace(toy_arch, vector100)
        registry = MetricsRegistry()
        tracer = Tracer()
        with obs_scope(registry=registry, tracer=tracer):
            SimulatedAnnealing(
                space,
                toy_evaluator,
                seed=0,
                steps=75,
                restarts=2,
            ).run()
        names = _span_names(tracer)
        assert "search.run" in names
        assert "search.restart" in names
        assert registry.counter("search.runs").value(driver="annealing") == 1.0
        accepts = registry.counter("search.accepts").value(driver="annealing")
        rejects = registry.counter("search.rejects").value(driver="annealing")
        assert accepts + rejects > 0

    def test_evaluator_and_cache_counters(
        self, toy_arch, vector100, scalar_route
    ):
        space = pfm_mapspace(toy_arch, vector100)
        evaluator = Evaluator(
            toy_arch, vector100, cache=EvaluationCache(max_entries=256)
        )
        registry = MetricsRegistry()
        with obs_scope(registry=registry), scalar_route():
            random_search(
                space,
                evaluator,
                seed=0,
                max_evaluations=200,
            )
        assert registry.counter("evaluator.evals").total() > 0
        lookups = (
            registry.counter("evaluator.cache_hits").total()
            + registry.counter("evaluator.cache_misses").total()
        )
        assert lookups > 0

    def test_batch_engine_counters(self, toy_arch, vector100, toy_evaluator):
        space = pfm_mapspace(toy_arch, vector100)
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = random_search(
                space, toy_evaluator, seed=0, max_evaluations=200
            )
        assert registry.counter("batch.batches").total() > 0
        assert (
            registry.counter("batch.candidates").total()
            == result.stats["batch"]["candidates"]
        )

    def test_no_registry_leak_when_inactive(
        self, toy_arch, vector100, toy_evaluator
    ):
        from repro.obs import default_registry

        default_registry().reset()
        space = pfm_mapspace(toy_arch, vector100)
        random_search(space, toy_evaluator, seed=0, max_evaluations=100)
        assert default_registry().names() == []


class TestParallelObs:
    def test_worker_snapshots_merge_into_ambient_registry(
        self, toy_arch, vector100
    ):
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = parallel_random_search(
                toy_arch,
                vector100,
                kind="pfm",
                workers=2,
                max_evaluations=100,
                patience=None,
                seed=7,
            )
        # The transient per-worker snapshot never reaches callers.
        assert "_obs_registry" not in result.stats
        # Worker-side counters (one search.run per worker) merged in,
        # plus the pool-level aggregate from the driver.
        assert registry.counter("search.runs").value(driver="random") == 2.0
        assert registry.counter("search.runs").value(driver="parallel") == 1.0
        assert (
            registry.counter("search.evaluations").value(driver="parallel")
            == result.num_evaluated
        )

    def test_no_snapshot_key_when_obs_inactive(self, toy_arch, vector100):
        result = parallel_random_search(
            toy_arch,
            vector100,
            kind="pfm",
            workers=2,
            max_evaluations=100,
            patience=None,
            seed=7,
        )
        assert "_obs_registry" not in result.stats


STATS_TOP_KEYS = {"elapsed_s", "evals_per_sec"}
CACHE_KEYS = {"hits", "misses", "hit_rate", "size", "max_entries"}
BATCH_KEYS = {"batches", "candidates", "pruned", "prune_rate", "fallback"}


class TestStatsSchemaStability:
    """SearchResult.stats keys are path-independent (satellite 4)."""

    def _check(self, stats, expect_cache, scalar_routed=False):
        assert STATS_TOP_KEYS <= set(stats)
        if expect_cache:
            assert set(stats["cache"]) == CACHE_KEYS
        # The batch sub-dict is schema-uniform: always present with the
        # full key set. Every search prices through the engine; on the
        # scalar route every candidate is a fallback row.
        assert set(stats["batch"]) == BATCH_KEYS
        assert stats["batch"]["candidates"] > 0
        if scalar_routed:
            assert stats["batch"]["fallback"] == stats["batch"]["candidates"]

    @pytest.mark.parametrize("with_obs", [False, True])
    def test_schema_across_paths(
        self, toy_arch, vector100, with_obs, scalar_route
    ):
        space = pfm_mapspace(toy_arch, vector100)

        def run_all():
            with scalar_route():
                scalar = random_search(
                    space,
                    Evaluator(toy_arch, vector100),
                    seed=0,
                    max_evaluations=100,
                )
                cached = random_search(
                    space,
                    Evaluator(
                        toy_arch,
                        vector100,
                        cache=EvaluationCache(max_entries=128),
                    ),
                    seed=0,
                    max_evaluations=100,
                )
            batched = random_search(
                space,
                Evaluator(toy_arch, vector100),
                seed=0,
                max_evaluations=100,
            )
            pooled = parallel_random_search(
                toy_arch,
                vector100,
                kind="pfm",
                workers=2,
                max_evaluations=50,
                patience=None,
                seed=3,
            )
            return scalar, cached, batched, pooled

        if with_obs:
            with obs_scope(registry=MetricsRegistry()):
                scalar, cached, batched, pooled = run_all()
        else:
            scalar, cached, batched, pooled = run_all()

        self._check(scalar.stats, expect_cache=False, scalar_routed=True)
        self._check(cached.stats, expect_cache=True, scalar_routed=True)
        self._check(batched.stats, expect_cache=False)
        self._check(pooled.stats, expect_cache=True)


class TestUniformStatsSchema:
    """All six searchers emit one top-level stats key set (satellite:
    schema uniformity, including the ``progress`` sub-dict)."""

    def test_six_searchers_identical_top_level_keys(self, toy_arch, vector100):
        from repro.obs import empty_bnb_stats, empty_progress_stats
        from repro.search.branch_bound import BranchBoundSearch
        from repro.search.pareto_search import ParetoSearch

        space = pfm_mapspace(toy_arch, vector100)

        def evaluator():
            return Evaluator(toy_arch, vector100)

        stats_by_driver = {
            "random": random_search(
                space, evaluator(), seed=0, max_evaluations=50
            ).stats,
            "exhaustive": exhaustive_search(space, evaluator()).stats,
            "genetic": GeneticSearch(
                space, evaluator(), population_size=8, generations=2, seed=0
            ).run().stats,
            "annealing": SimulatedAnnealing(
                space, evaluator(), steps=20, seed=0
            ).run().stats,
            "branch-bound": BranchBoundSearch(
                space, evaluator(), seed=0
            ).run().stats,
            "pareto": ParetoSearch(
                space, evaluator(), max_evaluations=50, seed=0
            ).run().stats,
        }
        baseline = set(stats_by_driver["random"])
        for driver, stats in stats_by_driver.items():
            assert set(stats) == baseline, driver
            assert set(stats["progress"]) == set(empty_progress_stats())
            assert set(stats["bnb"]) == set(empty_bnb_stats())
            assert stats["progress"]["completed_units"] > 0

    def test_empty_bnb_stats_matches_branch_bound_schema(self):
        from repro.obs import empty_bnb_stats
        from repro.search.branch_bound import _bnb_stats

        assert set(empty_bnb_stats()) == set(_bnb_stats())
        assert empty_bnb_stats() == _bnb_stats()


class TestTraceFileFromSearch:
    def test_trace_written_and_valid(self, tmp_path, toy_arch, vector100):
        from repro.obs import validate_span

        space = pfm_mapspace(toy_arch, vector100)
        path = tmp_path / "trace.jsonl"
        with obs_scope(registry=MetricsRegistry(), trace_path=path):
            random_search(
                space,
                Evaluator(toy_arch, vector100),
                seed=0,
                max_evaluations=100,
            )
        records = read_trace(path)
        assert records
        for record in records:
            assert validate_span(record) == []
        roots = [r for r in records if r["parent_id"] is None]
        assert any(r["name"] == "search.run" for r in roots)
        # Child spans cannot outlast their root.
        root = max(roots, key=lambda r: r["duration_s"])
        for record in records:
            assert record["duration_s"] <= root["duration_s"] + 1e-6
