"""The benchmark's own tests.

Run from the repository root (about a minute; the exhaustive
regeneration of the ``exact_bnb`` references is most of it)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from common import BENCH_DIR, ROOT, load_references
from make_references import exact_optima
from search_workloads import ExactBnb, Fig10Random
from service_mix import ServiceMix, round_specs
from spans import layer_totals

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed=3, references=None):
    """A small instance of each workload, for smoke runs."""
    references = references or load_references()
    if name == "fig10_random":
        return Fig10Random(seed, references, layers=("fc1000", "conv5_expand"), budget=200)
    if name == "exact_bnb":
        return ExactBnb(seed, references, solves=(("fc1000", "pfm"), ("fc1000", "ruby-s")))
    return ServiceMix(seed, references, round_size=4)


def perturbed(references, workload, key):
    references = json.loads(json.dumps(references))
    value = references[workload][key]
    references[workload][key] = math.nextafter(value, math.inf)
    return references


def test_injected_wrong_optimum_trips_exact_check():
    references = load_references()
    good = tiny("exact_bnb", references=references)
    good.setup()
    assert good.run_pass(0).failed == 0

    bad = tiny("exact_bnb", references=perturbed(references, "exact_bnb", "fc1000/ruby-s"))
    bad.setup()
    outcome = bad.run_pass(0)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.latencies[1] == math.inf


def test_injected_wrong_edp_trips_fig10_check():
    workload = tiny("fig10_random")
    workload.setup()
    search = workload.search

    def wrong(name, kind, seed):
        result = search(name, kind, seed)
        if kind == "ruby-s":
            result.best = replace(result.best, energy_pj=result.best.energy_pj * 1.000001)
        return result

    workload.search = wrong
    outcome = workload.run_pass(0)
    assert (outcome.attempted, outcome.failed) == (4, 2)


def test_same_seed_same_inputs():
    refs = {}
    assert Fig10Random(7, refs).pass_inputs(2) == Fig10Random(7, refs).pass_inputs(2)
    assert Fig10Random(7, refs).pass_inputs(2) != Fig10Random(8, refs).pass_inputs(2)
    assert Fig10Random(7, refs).pass_inputs(2) != Fig10Random(7, refs).pass_inputs(3)
    assert ExactBnb(7, refs).pass_inputs(0) == ExactBnb(7, refs).pass_inputs(4)
    assert round_specs(7, 2) == round_specs(7, 2)
    assert round_specs(7, 2) != round_specs(8, 2)


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_smoke(name, trace, capsys):
    result = run.run(tiny(name), seconds=0, trace=trace, setup=[0.5])
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric]
        assert math.isfinite(entry["value"]) and entry["value"] >= 0
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    if trace and name == "fig10_random":
        values = {m: e["value"] for m, e in result["metrics"].items()}
        assert values["mapspace.sample_s"] > values["search.run_s"] / 2
        assert values["mapspace.enumerate_batches"] == 0


def test_setup_is_timed_in_fresh_processes():
    samples = run.measure_setup("exact_bnb", 1, samples=2)
    assert len(samples) == 2 and all(0 < s < 60 for s in samples)


def test_self_times_partition_the_parent():
    # (id, name, start, end, parent, sid, n): a 10 s run with a 6 s child
    # that has a 2 s child of its own.
    spans = [
        (3, "batch.pack", 2_000_000_000, 4_000_000_000, 2, "s", 1),
        (2, "mapspace.sample", 1_000_000_000, 7_000_000_000, 1, "s", 1),
        (1, "search.run", 0, 10_000_000_000, None, "s", 1),
    ]
    totals = layer_totals(spans)
    assert totals["search.run"]["self_s"] == pytest.approx(4.0)
    assert totals["search.run"]["total_s"] == pytest.approx(10.0)
    assert totals["mapspace.sample"]["self_s"] == pytest.approx(4.0)
    assert totals["batch.pack"]["self_s"] == pytest.approx(2.0)


def test_exact_references_match_exhaustive_search():
    """The stored optima are what exhaustive search finds, bit for bit."""
    assert exact_optima() == load_references()["exact_bnb"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "exact_bnb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
