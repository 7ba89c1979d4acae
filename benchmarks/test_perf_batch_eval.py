"""Throughput benchmark for the vectorized batch evaluation engine.

Acceptance criteria from the batch-engine PR:

* the toy exhaustive sweep must run at >= 5x the scalar evaluator's
  mappings/sec through the batch path, and
* batched random search on a real ResNet-50 layer, which draws straight
  into batch columns, must run at >= 2.25x a loop that draws the same
  stream as ``Mapping`` objects and prices them one at a time (about half
  the 4.5-5.1x measured on a 2-core x86-64 container),

with results bit-identical in both cases (asserted here too — a fast
wrong answer is not a speedup). The scalar baseline is a test-local
loop that prices each mapping with :meth:`Evaluator.evaluate`, the oracle
the engine is bit-exact against. Measured numbers land in
``BENCH_batch_eval.json`` at the repo root so later PRs have a perf
trajectory to compare against. Run via ``make bench-batch``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import run_once

from repro.arch import eyeriss_like, toy_glb_architecture
from repro.io.serde import save_json
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import make_mapspace
from repro.model import Evaluator
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.random_search import RandomSearch
from repro.problem.gemm import vector_workload
from repro.utils.rng import make_rng
from repro.zoo.resnet50 import RESNET50_LAYERS

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch_eval.json"

_RESULTS: dict = {"benchmark": "batch_eval", "cases": {}}


def _record(case: str, payload: dict) -> None:
    _RESULTS["cases"][case] = payload
    save_json(_RESULTS, RESULTS_PATH)


def _scalar_loop(evaluator, mappings):
    """Price each mapping with ``Evaluator.evaluate``: (best EDP, count)."""
    best = float("inf")
    count = 0
    for mapping in mappings:
        count += 1
        evaluation = evaluator.evaluate(mapping)
        if evaluation.valid and evaluation.edp < best:
            best = evaluation.edp
    return best, count


def _best_of(fn, rounds):
    best_s = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - start)
    return result, best_s


def test_toy_exhaustive_sweep_5x(benchmark):
    """The headline criterion: >= 5x on the toy exhaustive sweep."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    mapspace = make_mapspace(arch, workload, "ruby")

    def sweep():
        return ExhaustiveSearch(
            mapspace, Evaluator(arch, workload), objective="edp"
        ).run()

    def scalar_sweep():
        return _scalar_loop(
            Evaluator(arch, workload), mapspace.enumerate_mappings()
        )

    rounds = 3
    (scalar_best, scalar_count), scalar_s = _best_of(scalar_sweep, rounds)
    batched, batched_s = _best_of(sweep, rounds)
    run_once(benchmark, sweep)
    assert scalar_best == batched.best_metric
    assert scalar_count == batched.num_evaluated
    scalar_rate = scalar_count / scalar_s
    batched_rate = batched.num_evaluated / batched_s
    speedup = batched_rate / scalar_rate
    print(
        f"\ntoy exhaustive ({scalar_count} mappings): "
        f"scalar {scalar_rate:,.0f}/s, batch {batched_rate:,.0f}/s "
        f"-> {speedup:.1f}x "
        f"(pruned {batched.stats['batch']['pruned']})"
    )
    _record(
        "toy_exhaustive_ruby_v100",
        {
            "num_mappings": scalar_count,
            "scalar_mappings_per_sec": round(scalar_rate, 1),
            "batch_mappings_per_sec": round(batched_rate, 1),
            "speedup": round(speedup, 2),
            "pruned": batched.stats["batch"]["pruned"],
        },
    )
    assert speedup >= 5.0


def test_resnet_layer_random_search_not_slower(benchmark):
    """Batch >= 2.25x scalar throughput on a real conv layer's random search."""
    arch = eyeriss_like()
    by_name = {layer.name: layer for layer, _ in RESNET50_LAYERS}
    workload = by_name["conv3_3x3"].workload()
    constraints = eyeriss_row_stationary()

    draws = 400

    def search():
        return RandomSearch(
            make_mapspace(arch, workload, "ruby-s", constraints),
            Evaluator(arch, workload),
            max_evaluations=draws,
            patience=None,
            seed=17,
        ).run()

    def scalar_search():
        # The object sampler (chains, then loop-nest assembly) draws the
        # same stream the columnar sampler does, one Mapping at a time.
        mapspace = make_mapspace(arch, workload, "ruby-s", constraints)
        rng = make_rng(17)
        return _scalar_loop(
            Evaluator(arch, workload),
            (
                mapspace.assemble(mapspace.sample_chains(rng), rng)
                for _ in range(draws)
            ),
        )

    rounds = 2
    (scalar_best, scalar_count), scalar_s = _best_of(scalar_search, rounds)
    batched, batched_s = _best_of(search, rounds)
    run_once(benchmark, search)
    assert scalar_best == batched.best_metric
    assert scalar_count == batched.num_evaluated
    scalar_rate = scalar_count / scalar_s
    batched_rate = batched.num_evaluated / batched_s
    speedup = batched_rate / scalar_rate
    print(
        f"\nconv3_3x3 random search ({scalar_count} draws): "
        f"scalar {scalar_rate:,.0f}/s, batch {batched_rate:,.0f}/s "
        f"-> {speedup:.1f}x"
    )
    _record(
        "resnet50_conv3_3x3_random_ruby_s",
        {
            "num_mappings": scalar_count,
            "scalar_mappings_per_sec": round(scalar_rate, 1),
            "batch_mappings_per_sec": round(batched_rate, 1),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= 2.25


def test_results_file_is_valid_json():
    """The trajectory file the next PR will diff against must parse."""
    if not RESULTS_PATH.exists():
        pytest.skip("benchmarks above did not run")
    data = json.loads(RESULTS_PATH.read_text())
    assert data["benchmark"] == "batch_eval"
    assert data["cases"]
