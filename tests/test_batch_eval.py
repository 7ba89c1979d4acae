"""Scalar <-> batch parity for the vectorized evaluation engine.

The batch engine's contract is *bit-exactness*: every quantity a search
compares (energy_pj, cycles, EDP, utilization, validity) must equal the
scalar :class:`~repro.model.evaluator.Evaluator`'s result with ``==``, not
``pytest.approx`` — otherwise batched searches could diverge from the
figures. These tests sweep presets x mapspace kinds with imperfect
(remainder-carrying) mappings and invalid candidates included, and assert
the searches themselves are trajectory-identical whether the engine prices
rows vectorized or routes every row through the scalar evaluator (the
route cost-model configs outside the kernels take).
"""

from __future__ import annotations

import random

import pytest

from repro.arch import (
    eyeriss_like,
    simba_like,
    toy_glb_architecture,
    toy_linear_architecture,
)
from repro.exceptions import SearchError
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import make_mapspace
from repro.io.serde import (
    architecture_from_dict,
    architecture_to_dict,
    load_json,
    save_json,
)
from repro.model import BatchEvaluator, CandidateOutcome, Evaluator, pack_mappings
from repro.model.eval_cache import EvaluationCache
from repro.obs import empty_batch_stats
from repro.problem import ConvLayer, GemmLayer
from repro.problem.gemm import vector_workload
from repro.search.annealing import SimulatedAnnealing
from repro.search.branch_bound import BranchBoundSearch
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.genetic import GeneticSearch
from repro.search.pareto_search import ParetoSearch
from repro.search.random_search import RandomSearch
from repro.utils.rng import make_rng

KINDS = ("pfm", "ruby", "ruby-s", "ruby-t")


def _presets():
    return [
        (
            "toy",
            toy_glb_architecture(num_pes=6, glb_bytes=1024),
            vector_workload("v100", 100),
        ),
        (
            "linear9",
            toy_linear_architecture(9),
            vector_workload("v500", 500),
        ),
        (
            "eyeriss",
            eyeriss_like(),
            ConvLayer("conv", c=8, m=16, p=6, q=6, r=3, s=3).workload(),
        ),
        (
            "simba",
            simba_like(),
            GemmLayer("gemm", m=12, n=10, k=8).workload(),
        ),
    ]


def _assert_same_result(a, b, *, check_stats_batch=False):
    """Two SearchResults from identical-trajectory searches must agree."""
    assert a.num_evaluated == b.num_evaluated
    assert a.num_valid == b.num_valid
    assert a.terminated_by == b.terminated_by
    assert [(p.evaluations, p.best_metric) for p in a.curve] == [
        (p.evaluations, p.best_metric) for p in b.curve
    ]
    assert (a.best is None) == (b.best is None)
    if a.best is not None:
        assert a.best.metric(a.objective) == b.best.metric(b.objective)
        assert a.best.energy_pj == b.best.energy_pj
        assert a.best.cycles == b.best.cycles
        assert a.best.mapping.signature() == b.best.mapping.signature()
    if check_stats_batch:
        batch = b.stats["batch"]
        assert batch["candidates"] == b.num_evaluated
        assert 0.0 <= batch["prune_rate"] <= 1.0


def _assert_scalar_routed(result):
    """Every candidate of ``result`` went through the scalar route."""
    batch = result.stats["batch"]
    assert batch["fallback"] == batch["candidates"] == result.num_evaluated
    assert batch["pruned"] == 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "preset", _presets(), ids=lambda case: case[0]
)
def test_random_sample_parity(preset, kind):
    """Property-style sweep: batch == scalar on random (in)valid samples."""
    _, arch, workload = preset
    mapspace = make_mapspace(arch, workload, kind)
    evaluator = Evaluator(arch, workload)
    engine = BatchEvaluator(evaluator, layout=mapspace.batch_layout())
    assert engine.supported, engine.unsupported_reason
    rng = random.Random(20260805)
    mappings = [mapspace.sample(rng) for _ in range(50)]
    batch = pack_mappings(mapspace.batch_layout(), mappings)
    outcome = engine.evaluate_batch(batch, objective="edp")
    saw_invalid = saw_imperfect = False
    for i, mapping in enumerate(mappings):
        scalar = evaluator.evaluate(mapping)
        assert scalar.valid == bool(outcome.valid[i])
        if not scalar.valid:
            saw_invalid = True
            assert outcome.metric[i] == float("inf")
            continue
        if mapping.has_imperfect_loops():
            saw_imperfect = True
        # Exact equality — the whole point of the columnar engine.
        assert scalar.energy_pj == float(outcome.energy_pj[i])
        assert scalar.cycles == int(outcome.cycles[i])
        assert scalar.utilization == float(outcome.utilization[i])
        assert scalar.edp == float(outcome.metric[i])
    assert saw_invalid or all(
        bool(v) for v in outcome.valid
    ), "sampler produced no invalid mapping and none were flagged"
    if kind != "pfm":
        assert saw_imperfect, "imperfect kinds must exercise remainders"


@pytest.mark.parametrize("kind", KINDS)
def test_enumeration_batch_matches_scalar(kind):
    """iter_batches rows equal enumerate_mappings, one for one."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    mapspace = make_mapspace(arch, workload, kind)
    evaluator = Evaluator(arch, workload)
    engine = BatchEvaluator(evaluator, layout=mapspace.batch_layout())
    scalar_mappings = list(mapspace.enumerate_mappings(permutations=False))
    rows = []
    for batch in mapspace.iter_batches(batch_size=32):
        outcome = engine.evaluate_batch(batch, objective="edp")
        for i in range(batch.size):
            rows.append((batch.mapping_at(i), outcome, i))
    assert len(rows) == len(scalar_mappings)
    for mapping, (materialized, outcome, i) in zip(scalar_mappings, rows):
        assert mapping.signature() == materialized.signature()
        scalar = evaluator.evaluate(mapping)
        assert scalar.valid == bool(outcome.valid[i])
        if scalar.valid:
            assert scalar.edp == float(outcome.metric[i])


@pytest.mark.parametrize("kind", KINDS)
def test_pruning_never_discards_the_best(kind, scalar_route):
    """Acceptance gate: pruned and unpruned sweeps return identical results."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    mapspace = make_mapspace(arch, workload, kind)

    def sweep(**kwargs):
        return ExhaustiveSearch(
            mapspace, Evaluator(arch, workload), objective="edp", **kwargs
        ).run()

    with scalar_route():
        scalar = sweep()
    _assert_scalar_routed(scalar)
    unpruned = sweep(prune=False, batch_size=64)
    pruned = sweep(prune=True, batch_size=64)
    _assert_same_result(scalar, unpruned)
    _assert_same_result(scalar, pruned, check_stats_batch=True)


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_exhaustive_curve_matches_row_loop(batch_size):
    """The sweep offers only rows that beat the batch-start incumbent, yet
    its counters and curve are those of a plain row-by-row loop."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = GemmLayer("g6x4x3", m=6, n=4, k=3).workload()
    mapspace = make_mapspace(arch, workload, "ruby")
    engine = BatchEvaluator(
        Evaluator(arch, workload), layout=mapspace.batch_layout()
    )
    rows = valid = 0
    best = float("inf")
    curve = []
    for batch in mapspace.iter_batches(batch_size=batch_size):
        outcome = engine.evaluate_batch(batch, prune=False)
        for i in range(batch.size):
            rows += 1
            if not outcome.valid[i]:
                continue
            valid += 1
            if outcome.metric[i] < best:
                best = float(outcome.metric[i])
                curve.append((rows, best))
    result = ExhaustiveSearch(
        mapspace, Evaluator(arch, workload), batch_size=batch_size
    ).run()
    assert result.num_evaluated == rows
    assert result.num_valid == valid
    assert [(p.evaluations, p.best_metric) for p in result.curve] == curve
    assert len(curve) > 3


def test_pruning_skips_candidates_somewhere():
    """The lower bound actually fires on a space with bad candidates."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    mapspace = make_mapspace(arch, workload, "ruby")
    result = ExhaustiveSearch(
        mapspace, Evaluator(arch, workload), prune=True, batch_size=64
    ).run()
    assert result.stats["batch"]["pruned"] > 0


@pytest.mark.parametrize("kind", ("pfm", "ruby", "ruby-s"))
def test_random_search_batch_parity(kind, scalar_route):
    """Batched RandomSearch is draw-for-draw identical to the scalar route."""
    arch = eyeriss_like()
    workload = ConvLayer("conv", c=8, m=16, p=6, q=6, r=3, s=3).workload()
    constraints = eyeriss_row_stationary()

    def search():
        return RandomSearch(
            make_mapspace(arch, workload, kind, constraints),
            Evaluator(arch, workload),
            max_evaluations=400,
            patience=80,
            seed=11,
            batch_size=64,
        ).run()

    with scalar_route():
        scalar = search()
    _assert_scalar_routed(scalar)
    _assert_same_result(scalar, search(), check_stats_batch=True)


def test_random_search_patience_termination_matches(scalar_route):
    """A patience stop lands on the same draw on either pricing route."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)

    def search():
        return RandomSearch(
            make_mapspace(arch, workload, "pfm"),
            Evaluator(arch, workload),
            max_evaluations=5000,
            patience=40,
            seed=3,
            batch_size=256,
        ).run()

    with scalar_route():
        a = search()
    assert a.terminated_by == "patience"
    _assert_scalar_routed(a)
    _assert_same_result(a, search())


def test_genetic_batch_parity(scalar_route):
    """Batched population scoring evolves the exact same trajectory."""
    arch = eyeriss_like()
    workload = GemmLayer("gemm", m=12, n=10, k=8).workload()

    def search():
        return GeneticSearch(
            make_mapspace(arch, workload, "ruby-s"),
            Evaluator(arch, workload),
            population_size=14,
            generations=5,
            seed=21,
        ).run()

    with scalar_route():
        scalar = search()
    _assert_scalar_routed(scalar)
    _assert_same_result(scalar, search(), check_stats_batch=True)


def test_exhaustive_limit_enforced_on_batch_path():
    """The safety cap raises before a too-large batch is priced."""
    arch = toy_linear_architecture(9)
    workload = vector_workload("v500", 500)
    mapspace = make_mapspace(arch, workload, "ruby")
    with pytest.raises(SearchError, match="exceeded limit"):
        ExhaustiveSearch(mapspace, Evaluator(arch, workload), limit=50).run()


def test_exhaustive_scalar_dedups_on_signature(scalar_route):
    """The scalar route prices each distinct signature exactly once.

    Chain enumeration emits every candidate once (distinct chain
    combinations give distinct signatures), so no seen-set is needed: the
    sweep's count equals the number of distinct enumerated signatures.
    """
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    mapspace = make_mapspace(arch, workload, "ruby")
    with scalar_route():
        result = ExhaustiveSearch(mapspace, Evaluator(arch, workload)).run()
    _assert_scalar_routed(result)
    signatures = {
        m.signature() for m in mapspace.enumerate_mappings(permutations=False)
    }
    assert result.num_evaluated == len(signatures)


def test_bypass_mappings_fall_back_to_scalar():
    """Rows the grid cannot encode (bypass sets) are priced scalar-exact."""
    arch = eyeriss_like()
    workload = ConvLayer("conv", c=8, m=16, p=6, q=6, r=3, s=3).workload()
    mapspace = make_mapspace(arch, workload, "ruby-s")
    mapspace.explore_bypass = True
    evaluator = Evaluator(arch, workload)
    engine = BatchEvaluator(evaluator, layout=mapspace.batch_layout())
    rng = random.Random(77)
    mappings = [mapspace.sample(rng) for _ in range(40)]
    assert any(m.bypass for m in mappings), "no bypass mapping drawn"
    batch = pack_mappings(mapspace.batch_layout(), mappings)
    outcome = engine.evaluate_batch(batch, objective="edp")
    assert bool(outcome.fallback.any())
    for i, mapping in enumerate(mappings):
        scalar = evaluator.evaluate(mapping)
        assert scalar.valid == bool(outcome.valid[i])
        if scalar.valid:
            assert scalar.edp == float(outcome.metric[i])
            assert scalar.energy_pj == float(outcome.energy_pj[i])


def _draws(mapspace, seed, count):
    """The candidates a seeded random/Pareto search draws, in order."""
    rng = make_rng(seed)
    return [mapspace.sample(rng) for _ in range(count)]


def _oracle_best(evaluator, mappings, objective="edp"):
    """First strictly-best valid candidate, priced by ``Evaluator.evaluate``."""
    best = None
    num_valid = 0
    for mapping in mappings:
        evaluation = evaluator.evaluate(mapping)
        if not evaluation.valid:
            continue
        num_valid += 1
        if best is None or evaluation.metric(objective) < best.metric(objective):
            best = evaluation
    return best, num_valid


def _assert_same_best(result_best, oracle_best):
    assert oracle_best is not None and result_best is not None
    assert result_best.edp == oracle_best.edp
    assert result_best.energy_pj == oracle_best.energy_pj
    assert result_best.cycles == oracle_best.cycles
    assert result_best.utilization == oracle_best.utilization


class _OracleEngine:
    """Test-local engine: every candidate through ``Evaluator.evaluate``."""

    def __init__(self, evaluator):
        self.evaluator = evaluator

    def evaluate_mappings(self, mappings, objective="edp", **_):
        outcomes = []
        for mapping in mappings:
            evaluation = self.evaluator.evaluate(mapping)
            outcomes.append(
                CandidateOutcome(
                    valid=evaluation.valid,
                    pruned=False,
                    metric=(
                        evaluation.metric(objective)
                        if evaluation.valid
                        else float("inf")
                    ),
                    evaluation=evaluation,
                )
            )
        return outcomes

    def stats_payload(self):
        return empty_batch_stats()


def test_unsupported_evaluator_runs_scalar_path():
    """NoC/static components send every row scalar; searches stay correct."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    assert not BatchEvaluator(
        Evaluator(arch, workload, include_noc=True)
    ).supported
    result = RandomSearch(
        make_mapspace(arch, workload, "ruby-s"),
        Evaluator(arch, workload, include_noc=True),
        max_evaluations=120,
        patience=None,
        seed=5,
    ).run()
    best, num_valid = _oracle_best(
        Evaluator(arch, workload, include_noc=True),
        _draws(make_mapspace(arch, workload, "ruby-s"), 5, 120),
    )
    _assert_same_best(result.best, best)
    assert result.num_valid == num_valid
    _assert_scalar_routed(result)


def test_bandwidth_stall_arch_runs_every_searcher_scalar(tmp_path):
    """All six searchers price a bandwidth-stall architecture scalar-exact."""
    data = architecture_to_dict(toy_glb_architecture(num_pes=6, glb_bytes=1024))
    data["levels"][0]["bandwidth_words_per_cycle"] = 0.5
    save_json(data, tmp_path / "arch.json")
    arch = architecture_from_dict(load_json(tmp_path / "arch.json"))
    workload = vector_workload("v100", 100)
    oracle = Evaluator(arch, workload)
    assert not BatchEvaluator(oracle).supported

    def space():
        return make_mapspace(arch, workload, "ruby-s")

    draws = _draws(space(), 5, 150)
    random_result = RandomSearch(
        space(), Evaluator(arch, workload), max_evaluations=150,
        patience=None, seed=5, batch_size=64,
    ).run()
    best, num_valid = _oracle_best(oracle, draws)
    _assert_same_best(random_result.best, best)
    assert random_result.num_valid == num_valid
    _assert_scalar_routed(random_result)

    pareto = ParetoSearch(
        space(), Evaluator(arch, workload), max_evaluations=150, seed=5,
        batch_size=64,
    ).run()
    valid = [e for e in map(oracle.evaluate, draws) if e.valid]
    frontier = sorted(
        (e.energy_pj, e.cycles)
        for e in valid
        if not any(
            o.energy_pj <= e.energy_pj
            and o.cycles <= e.cycles
            and (o.energy_pj < e.energy_pj or o.cycles < e.cycles)
            for o in valid
        )
    )
    assert [(e.energy_pj, e.cycles) for e in pareto.frontier] == frontier
    assert pareto.num_valid == len(valid)
    _assert_scalar_routed(pareto)

    exact, _ = _oracle_best(oracle, space().enumerate_mappings())
    for search in (ExhaustiveSearch, BranchBoundSearch):
        result = search(space(), Evaluator(arch, workload)).run()
        _assert_same_best(result.best, exact)
        _assert_scalar_routed(result)

    def genetic(**kwargs):
        return GeneticSearch(
            space(), Evaluator(arch, workload), population_size=12,
            generations=4, seed=21, **kwargs,
        ).run()

    def annealing(**kwargs):
        return SimulatedAnnealing(
            space(), Evaluator(arch, workload), steps=80, seed=21, **kwargs
        ).run()

    for run in (genetic, annealing):
        result = run()
        _assert_same_result(
            run(batch_engine=_OracleEngine(Evaluator(arch, workload))), result
        )
        _assert_scalar_routed(result)


def test_cache_lookup_counts_preserved_on_batch_path():
    """One cache lookup per draw — the PR-1 accounting contract holds."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    cache = EvaluationCache(1024)
    evaluator = Evaluator(arch, workload, cache=cache)
    result = RandomSearch(
        make_mapspace(arch, workload, "ruby-s"),
        evaluator,
        max_evaluations=200,
        patience=None,
        seed=9,
        batch_size=64,
    ).run()
    assert cache.hits + cache.misses == result.num_evaluated == 200


def test_cached_and_uncached_batched_searches_agree():
    """The cache changes hit counts, never results, on the batch path."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)

    def search(cache):
        return RandomSearch(
            make_mapspace(arch, workload, "ruby-s"),
            Evaluator(arch, workload, cache=cache),
            max_evaluations=300,
            patience=None,
            seed=123,
            batch_size=64,
        ).run()

    _assert_same_result(search(None), search(EvaluationCache(1024)))


def test_objective_energy_and_delay_parity(scalar_route):
    """Non-EDP objectives route through the same exact kernels."""
    arch = simba_like()
    workload = GemmLayer("gemm", m=12, n=10, k=8).workload()
    for objective in ("energy", "delay"):
        def search():
            return RandomSearch(
                make_mapspace(arch, workload, "ruby-s"),
                Evaluator(arch, workload),
                objective=objective,
                max_evaluations=200,
                patience=60,
                seed=31,
                batch_size=64,
            ).run()

        with scalar_route():
            scalar = search()
        _assert_scalar_routed(scalar)
        _assert_same_result(scalar, search())
