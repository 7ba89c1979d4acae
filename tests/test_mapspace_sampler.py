"""The columnar sampler: stream parity, row identity, and search parity.

:meth:`MapSpace.sample_batch` must draw exactly what the object path —
``assemble(sample_chains(rng), rng)`` plus the bypass draws — draws, and
random and Pareto search, which price its batches directly, must return
what a loop over those objects returns.
"""

import random

import numpy as np
import pytest

from repro.arch import eyeriss_like, simba_like, toy_glb_architecture
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.generator import MapSpace, MapspaceKind
from repro.model import BatchEvaluator, Evaluator, pack_mappings
from repro.model.eval_cache import EvaluationCache
from repro.obs import MetricsRegistry, obs_scope
from repro.problem import GemmLayer
from repro.problem.gemm import vector_workload
from repro.search import ParetoSearch, RandomSearch
from repro.zoo.resnet50 import RESNET50_LAYERS


def object_draw(space, rng):
    """One draw of the object sampler."""
    mapping = space.assemble(space.sample_chains(rng), rng)
    if space.explore_bypass:
        bypass = [
            pair
            for pair in space._bypass_candidates
            if rng.random() < space.BYPASS_PROBABILITY
        ]
        if bypass:
            mapping = mapping.with_bypass(bypass)
    return mapping


def conv_space(kind="ruby-s"):
    arch = eyeriss_like()
    by_name = {layer.name: layer for layer, _ in RESNET50_LAYERS}
    workload = by_name["conv3_3x3"].workload()
    return MapSpace(arch, workload, MapspaceKind(kind), eyeriss_row_stationary())


def toy_space(kind="ruby", explore_bypass=True):
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    return MapSpace(
        arch,
        vector_workload("v100", 100),
        MapspaceKind(kind),
        explore_bypass=explore_bypass,
    )


def simba_space(kind="ruby-s"):
    workload = GemmLayer("g", m=12, n=10, k=8).workload()
    return MapSpace(simba_like(), workload, MapspaceKind(kind))


SPACES = {"conv": conv_space, "toy-bypass": toy_space, "simba": simba_space}


class TestStreamParity:
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_columns_mappings_and_rng_state_match(self, name):
        space = SPACES[name]()
        oracle_rng = random.Random(5)
        oracle = [object_draw(space, oracle_rng) for _ in range(200)]
        rng = random.Random(5)
        batch = space.sample_batch(rng, 200)
        packed = pack_mappings(space.batch_layout(), oracle)
        for column in ("bounds", "rems", "pos", "fallback"):
            np.testing.assert_array_equal(
                getattr(batch, column), getattr(packed, column)
            )
        assert [batch.mapping_at(i) for i in range(200)] == oracle
        assert rng.getstate() == oracle_rng.getstate()

    def test_sample_and_sample_many_are_batch_rows(self):
        space = toy_space()
        rng = random.Random(3)
        singles = [space.sample(rng) for _ in range(40)]
        many = space.sample_many(40, rng)
        batch = space.sample_batch(random.Random(3), 80)
        assert singles + many == [batch.mapping_at(i) for i in range(80)]

    def test_samples_counter_counts_every_draw(self):
        space = toy_space()
        evaluator = Evaluator(space.arch, space.workload)
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = RandomSearch(
                space, evaluator, max_evaluations=300, patience=None,
                seed=1, batch_size=64,
            ).run()
            space.sample(random.Random(0))
            space.sample_many(5, random.Random(0))
        assert result.num_evaluated == 300
        assert registry.counter("mapspace.samples").total() == 300 + 1 + 5


class TestRowIdentity:
    def test_row_signature_equals_mapping_signature(self):
        space = conv_space()
        batch = space.sample_batch(random.Random(11), 1000)
        imperfect_spatial_blocks = 0
        for i in range(batch.size):
            mapping = batch.mapping_at(i)
            assert batch.signature(i) == mapping.signature()
            for nest in mapping.levels:
                if len(nest.spatial) > 1 and any(
                    not loop.is_perfect for loop in nest.spatial
                ):
                    imperfect_spatial_blocks += 1
        # Their loop order is part of the signature, so they must occur.
        assert imperfect_spatial_blocks > 0

    def test_fallback_rows_keep_their_bypass_mapping(self):
        space = toy_space()
        batch = space.sample_batch(random.Random(2), 300)
        rows = [int(i) for i in np.flatnonzero(batch.fallback)]
        assert rows
        for i in rows:
            mapping = batch.mapping_at(i)
            assert mapping.bypass
            assert batch.signature(i) == mapping.signature()
            assert (batch.bounds[i] == 1).all() and (batch.pos[i] == -1).all()

    def test_materialize_round_trips_shuffled_temporal_orders(self):
        space = conv_space()
        layout = space.batch_layout()
        oracle_rng = random.Random(4)
        oracle = [object_draw(space, oracle_rng) for _ in range(300)]
        batch = space.sample_batch(random.Random(4), 300)
        reordered = 0
        for i, mapping in enumerate(oracle):
            rebuilt = layout.materialize(
                batch.bounds[i], batch.rems[i], batch.pos[i]
            )
            assert rebuilt == mapping
            if rebuilt != layout.materialize(
                batch.bounds[i], batch.rems[i], layout.grid_pos
            ):
                reordered += 1
        assert reordered > 0

    def test_take_keeps_rows_and_stored_mappings(self):
        space = toy_space()
        batch = space.sample_batch(random.Random(8), 100)
        rows = [int(i) for i in np.flatnonzero(batch.fallback)][:3] + [0, 1]
        sub = batch.take(rows)
        assert [sub.mapping_at(k) for k in range(len(rows))] == [
            batch.mapping_at(i) for i in rows
        ]


def object_random_search(space, evaluator, max_evaluations, patience, seed,
                         batch_size):
    """Random search over sampled objects, priced by ``evaluate_mappings``."""
    engine = BatchEvaluator(evaluator, layout=space.batch_layout())
    rng = random.Random(seed)
    best, best_metric, streak = None, float("inf"), 0
    evaluations, num_valid, curve = 0, 0, []
    terminated_by = "budget"
    while evaluations < max_evaluations:
        room = max_evaluations - evaluations
        if patience is not None:
            room = min(room, patience - streak)
        chunk = max(1, min(batch_size, room))
        mappings = [object_draw(space, rng) for _ in range(chunk)]
        outcomes = engine.evaluate_mappings(
            mappings, incumbent=best_metric, prune=True
        )
        stop = False
        for mapping, outcome in zip(mappings, outcomes):
            evaluations += 1
            if not outcome.valid:
                continue
            num_valid += 1
            if not outcome.pruned and outcome.metric < best_metric:
                best = outcome.evaluation or evaluator.evaluate_fresh(mapping)
                best_metric = outcome.metric
                streak = 0
                curve.append((evaluations, outcome.metric))
            else:
                streak += 1
                if patience is not None and streak >= patience:
                    terminated_by, stop = "patience", True
                    break
        if stop:
            break
    return best, curve, evaluations, num_valid, terminated_by


def object_pareto_search(space, evaluator, max_evaluations, seed, batch_size):
    """Pareto search over sampled objects, priced by ``evaluate_mappings``."""
    engine = BatchEvaluator(evaluator, layout=space.batch_layout())
    rng = random.Random(seed)
    frontier, num_valid, remaining = [], 0, max_evaluations

    def dominates(a, b):
        return (
            a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])
        )

    while remaining > 0:
        chunk = min(batch_size, remaining)
        remaining -= chunk
        mappings = [object_draw(space, rng) for _ in range(chunk)]
        for mapping, outcome in zip(
            mappings, engine.evaluate_mappings(mappings, prune=False)
        ):
            if not outcome.valid:
                continue
            num_valid += 1
            point = (outcome.energy_pj, outcome.cycles)
            if any(dominates((e.energy_pj, e.cycles), point) for e in frontier):
                continue
            evaluation = outcome.evaluation or evaluator.evaluate_fresh(mapping)
            point = (evaluation.energy_pj, evaluation.cycles)
            frontier = [
                e for e in frontier
                if not dominates(point, (e.energy_pj, e.cycles))
            ]
            frontier.append(evaluation)
    frontier.sort(key=lambda e: (e.energy_pj, e.cycles))
    return frontier, num_valid


class TestSearchParity:
    @pytest.mark.parametrize(
        "name,cached,patience",
        [
            ("conv", False, 150),
            ("conv", True, None),
            ("toy-bypass", False, 60),
            ("toy-bypass", True, None),
            ("simba", False, None),
        ],
    )
    def test_random_search_matches_object_loop(self, name, cached, patience):
        def evaluator(space):
            cache = EvaluationCache(4096) if cached else None
            return Evaluator(space.arch, space.workload, cache=cache)

        space = SPACES[name]()
        result = RandomSearch(
            space, evaluator(space), max_evaluations=600, patience=patience,
            seed=21, batch_size=128,
        ).run()
        best, curve, evaluations, num_valid, terminated_by = (
            object_random_search(
                SPACES[name](), evaluator(space), 600, patience, 21, 128
            )
        )
        assert result.best == best
        assert result.best.edp == best.edp
        assert [(p.evaluations, p.best_metric) for p in result.curve] == curve
        assert result.num_evaluated == evaluations
        assert result.num_valid == num_valid
        assert result.terminated_by == terminated_by

    @pytest.mark.parametrize("name", ["conv", "toy-bypass"])
    def test_pareto_search_matches_object_loop(self, name):
        space = SPACES[name]()
        evaluator = Evaluator(space.arch, space.workload)
        result = ParetoSearch(
            space, evaluator, max_evaluations=500, seed=13, batch_size=96
        ).run()
        frontier, num_valid = object_pareto_search(
            SPACES[name](), Evaluator(space.arch, space.workload), 500, 13, 96
        )
        assert result.frontier == frontier
        assert result.num_evaluated == 500
        assert result.num_valid == num_valid
