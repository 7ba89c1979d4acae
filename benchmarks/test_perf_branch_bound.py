"""Branch-and-bound mapper benchmark: prune-driven speedup, bit-exact.

The headline criterion for the hierarchical branch-and-bound searcher:
on a real ResNet-50 layer's Eyeriss mapspace it must find the *same*
best-EDP mapping as the batched exhaustive sweep at >= 2x the speed, and
the win must come from genuine subtree pruning (nonzero counters), not
from evaluating fewer candidates by accident. A second case solves the
same layer's Ruby-S space exactly (3.7e7 candidates, beyond exhaustive
search) and must land on its known optimum.

Refreshes BENCH_branch_bound.json (the perf trajectory record).

Run with: pytest benchmarks/test_perf_branch_bound.py --benchmark-only -s
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import run_once

from repro.arch import eyeriss_like
from repro.io.serde import save_json
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import make_mapspace, pfm_mapspace
from repro.model import Evaluator
from repro.search.branch_bound import BranchBoundSearch
from repro.search.exhaustive import ExhaustiveSearch
from repro.zoo.resnet50 import RESNET50_LAYERS

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_branch_bound.json"

_RESULTS: dict = {"benchmark": "branch_bound", "cases": {}}


def _record(case: str, payload: dict) -> None:
    _RESULTS["cases"][case] = payload
    save_json(_RESULTS, RESULTS_PATH)


def _best_of(fn, rounds):
    best_s = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - start)
    return result, best_s


def _conv5_expand_setup():
    arch = eyeriss_like()
    by_name = {layer.name: layer for layer, _ in RESNET50_LAYERS}
    workload = by_name["conv5_expand"].workload()
    constraints = eyeriss_row_stationary()
    return arch, workload, constraints


def test_resnet_layer_branch_bound_2x(benchmark):
    """>= 2x over batched exhaustive on conv5_expand, same optimum."""
    arch, workload, constraints = _conv5_expand_setup()

    def exhaustive():
        return ExhaustiveSearch(
            pfm_mapspace(arch, workload, constraints=constraints),
            Evaluator(arch, workload),
            objective="edp",
            limit=1_000_000,
        ).run()

    def branch_bound():
        return BranchBoundSearch(
            pfm_mapspace(arch, workload, constraints=constraints),
            Evaluator(arch, workload),
            objective="edp",
            seed=0,
        ).run()

    rounds = 2
    exact, exact_s = _best_of(exhaustive, rounds)
    pruned, pruned_s = _best_of(branch_bound, rounds)
    run_once(benchmark, branch_bound)

    bnb = pruned.stats["bnb"]
    speedup = exact_s / pruned_s
    print(
        f"\nconv5_expand pfm ({exact.num_evaluated} candidates): "
        f"exhaustive {exact_s:.2f}s, branch-bound {pruned_s:.2f}s "
        f"({speedup:.1f}x), priced {pruned.num_evaluated}, "
        f"subtrees pruned {bnb['subtrees_pruned']}"
    )
    _record(
        "conv5_expand_pfm",
        {
            "candidates": exact.num_evaluated,
            "exhaustive_s": exact_s,
            "branch_bound_s": pruned_s,
            "speedup": speedup,
            "priced": pruned.num_evaluated,
            "subtrees_pruned": bnb["subtrees_pruned"],
            "infeasible_subtrees": bnb["infeasible_subtrees"],
            "nodes_expanded": bnb["nodes_expanded"],
            "leaves_deferred": bnb["leaves_deferred"],
            "bound_tightness": bnb["bound_tightness"],
            "best_edp": pruned.best_metric,
        },
    )
    # Exactness first: pruning must never change the answer.
    assert pruned.best_metric == exact.best_metric
    # The win must come from real subtree pruning.
    assert bnb["subtrees_pruned"] > 0
    assert pruned.num_evaluated < exact.num_evaluated
    assert speedup >= 2.0, (
        f"branch-and-bound speedup {speedup:.2f}x below the 2x criterion"
    )


def test_branch_bound_seed_stability(benchmark):
    """Different warm-start seeds land on the identical optimum."""
    arch, workload, constraints = _conv5_expand_setup()

    def search(seed):
        return BranchBoundSearch(
            pfm_mapspace(arch, workload, constraints=constraints),
            Evaluator(arch, workload),
            objective="edp",
            seed=seed,
        ).run()

    first = run_once(benchmark, lambda: search(11))
    second = search(12)
    assert first.best_metric == second.best_metric
    _record(
        "seed_stability",
        {
            "best_edp": first.best_metric,
            "priced_seed11": first.num_evaluated,
            "priced_seed12": second.num_evaluated,
        },
    )


#: The exact optimum of conv5_expand under Ruby-S on row-stationary
#: Eyeriss, as solved by the walk before its capacity cuts existed.
CONV5_EXPAND_RUBY_S_EDP = 203170000515891.06


def test_resnet_layer_ruby_s_exact(benchmark):
    """Exact conv5_expand Ruby-S: the known optimum, found by pruning."""
    arch, workload, constraints = _conv5_expand_setup()

    def branch_bound():
        return BranchBoundSearch(
            make_mapspace(arch, workload, "ruby-s", constraints),
            Evaluator(arch, workload),
            objective="edp",
            seed=0,
        ).run()

    result, elapsed_s = run_once(benchmark, lambda: _best_of(branch_bound, 1))
    bnb = result.stats["bnb"]
    print(
        f"\nconv5_expand ruby-s: branch-bound {elapsed_s:.2f}s, priced "
        f"{result.num_evaluated}, subtrees pruned {bnb['subtrees_pruned']}, "
        f"infeasible {bnb['infeasible_subtrees']}"
    )
    _record(
        "conv5_expand_ruby_s",
        {
            "branch_bound_s": elapsed_s,
            "priced": result.num_evaluated,
            "subtrees_pruned": bnb["subtrees_pruned"],
            "infeasible_subtrees": bnb["infeasible_subtrees"],
            "nodes_expanded": bnb["nodes_expanded"],
            "leaves_deferred": bnb["leaves_deferred"],
            "bound_tightness": bnb["bound_tightness"],
            "best_edp": result.best_metric,
        },
    )
    assert result.best_metric == CONV5_EXPAND_RUBY_S_EDP
    assert bnb["infeasible_subtrees"] > 0
