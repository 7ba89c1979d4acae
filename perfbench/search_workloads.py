"""The two in-process search workloads: ``fig10_random`` and ``exact_bnb``.

Both call the public API (:func:`repro.find_best_mapping`) once per
operation; a pass is one call per (layer, kind) of the workload. Answers
are checked after the pass, outside its timed window.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    PassResult,
    Workload,
    geomean,
    probe,
    ref_key,
    self_peak_rss_mb,
    speed_scale,
)
from spans import SpanRecorder, installed, layer_totals

from repro.arch import eyeriss_like
from repro.core import find_best_mapping
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import make_mapspace
from repro.model.evaluator import Evaluator
from repro.search.result import SearchResult
from repro.zoo.deepbench import deepbench_workloads
from repro.zoo.resnet50 import FC_LAYER, RESNET50_LAYERS, resnet50_representative

KINDS = ("pfm", "ruby-s")

#: Random-search budget per (layer, kind) and the Timeloop-style stop
#: after this many consecutive valid non-improving draws.
FIG10_BUDGET = 2_000
FIG10_PATIENCE = 1_000

#: Exact solves. Exact ``conv5_expand`` Ruby-S solves too, but takes
#: about 40 s, which is too long to repeat every run.
EXACT_SOLVES: Tuple[Tuple[str, str], ...] = (
    ("conv5_expand", "pfm"),
    ("conv5_reduce", "pfm"),
    ("conv5_proj", "pfm"),
    ("fc1000", "pfm"),
    ("fc1000", "ruby-s"),
    ("db_gemm_ocr", "pfm"),
    ("db_gemm_ocr", "ruby-s"),
)

#: Per-layer metrics the search workloads can report.
SPAN_METRICS = {
    "mapspace.sample_s": ("mapspace.sample", "self_s"),
    "mapspace.sample_calls": ("mapspace.sample", "n"),
    "mapspace.enumerate_s": ("mapspace.enumerate", "self_s"),
    "mapspace.enumerate_batches": ("mapspace.enumerate", "n"),
    "batch.pack_s": ("batch.pack", "self_s"),
    "batch.kernel_s": ("batch.kernel", "self_s"),
    "batch.rows": ("batch.kernel", "n"),
    "bound.suffix_s": ("bound.suffix", "self_s"),
    "bound.child_s": ("bound.child", "self_s"),
    "evaluator.scalar_s": ("evaluator.scalar", "self_s"),
    "evaluator.scalar_calls": ("evaluator.scalar", "n"),
    "search.run_s": ("search.run", "total_s"),
    "search.self_s": ("search.run", "self_s"),
}


def named_workloads() -> Dict[str, object]:
    """Every workload the search workloads use, by layer name."""
    by_name = {layer.name: layer.workload() for layer, _ in RESNET50_LAYERS}
    by_name[FC_LAYER.name] = FC_LAYER.workload()
    for workload, _ in deepbench_workloads():
        by_name[workload.name] = workload
    return by_name


class SearchWorkload(Workload):
    """A fixed list of searches, run once per pass."""

    def __init__(self, seed: int, references: Dict[str, Dict[str, float]]):
        self.seed = seed
        self.references = references

    def setup(self) -> None:
        """Build the architecture, workloads and mapspaces."""
        self.arch = eyeriss_like()
        self.constraints = eyeriss_row_stationary()
        by_name = named_workloads()
        self.workloads = {name: by_name[name] for name, _ in self.pairs()}
        self.mapspaces = {
            (name, kind): make_mapspace(
                self.arch, self.workloads[name], kind, self.constraints
            )
            for name, kind in self.pairs()
        }

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    # -- per workload ---------------------------------------------------

    def pairs(self) -> Sequence[Tuple[str, str]]:
        raise NotImplementedError

    def pass_inputs(self, pass_index: int) -> List[Tuple[str, str, int]]:
        """(layer, kind, search seed) of every search of one pass."""
        raise NotImplementedError

    def search(self, name: str, kind: str, seed: int) -> SearchResult:
        raise NotImplementedError

    def check(self, name: str, kind: str, result: SearchResult) -> Optional[str]:
        """Why ``result`` is wrong, or None when it is right."""
        raise NotImplementedError

    def gap_reference(self, name: str, kind: str) -> float:
        """Best-known EDP (the exact optimum on ``exact_bnb``)."""
        return self.references[self.name][ref_key(name, kind)]

    # -- one pass -------------------------------------------------------

    def run_pass(
        self, pass_index: int, recorder: Optional[SpanRecorder] = None
    ) -> PassResult:
        inputs = self.pass_inputs(pass_index)
        first_span = len(recorder.spans) if recorder is not None else 0
        results: List[object] = []
        latencies: List[float] = []
        probes: List[float] = []
        with installed(recorder) if recorder is not None else nullcontext():
            for index, (name, kind, seed) in enumerate(inputs):
                probes.append(probe())
                t0 = time.perf_counter()
                span = (
                    recorder.open("bench.search", sid=f"p{pass_index}.s{index}")
                    if recorder is not None else None
                )
                try:
                    results.append(self.search(name, kind, seed))
                except Exception as error:  # counted as a failed search
                    results.append(error)
                finally:
                    if span is not None:
                        recorder.close(span)
                latencies.append(time.perf_counter() - t0)

        outcome = PassResult(
            wall_s=sum(latencies), attempted=len(inputs), scale=speed_scale(probes)
        )
        errors = self.check_pass(inputs, results)
        for (name, kind, _), result, latency, error in zip(
            inputs, results, latencies, errors
        ):
            if error is not None:
                outcome.failed += 1
                outcome.latencies.append(float("inf"))
                print(f"FAILED {self.name} {name}/{kind}: {error}", file=sys.stderr)
                continue
            outcome.latencies.append(latency)
            outcome.gaps.append(result.best.edp / self.gap_reference(name, kind))
        outcome.layer = self.result_layers(
            inputs, [r for r in results if isinstance(r, SearchResult)]
        )
        if recorder is not None:
            outcome.traced = True
            totals = layer_totals(recorder.spans[first_span:])
            for metric, (span_name, field) in SPAN_METRICS.items():
                outcome.layer[metric] = totals.get(span_name, {}).get(field, 0.0)
        return outcome

    def check_pass(self, inputs, results) -> List[Optional[str]]:
        errors = []
        for (name, kind, _), result in zip(inputs, results):
            if isinstance(result, Exception):
                errors.append(f"raised {result!r}")
            elif result.best is None:
                errors.append("no valid mapping found")
            else:
                errors.append(self.check(name, kind, result))
        return errors

    def result_layers(self, inputs, results) -> Dict[str, float]:
        """Per-layer values the searches report in ``SearchResult.stats``."""
        evaluated = sum(r.num_evaluated for r in results)
        candidates = sum(r.stats["batch"]["candidates"] for r in results)
        pruned = sum(r.stats["batch"]["pruned"] for r in results)
        layer = {
            "mapspace.valid_ratio": (
                sum(r.num_valid for r in results) / evaluated
                if evaluated else 0.0
            ),
            "batch.prune_rate": pruned / candidates if candidates else 0.0,
        }
        bnb = [r.stats["bnb"] for r in results]
        for key in ("nodes_expanded", "subtrees_pruned", "leaves_deferred"):
            layer[f"bnb.{key}"] = sum(stats[key] for stats in bnb)
        tightness = [
            stats["bound_tightness"] for stats in bnb
            if stats["bound_tightness"]
        ]
        layer["bnb.bound_tightness"] = geomean(tightness) if tightness else 0.0
        return layer


class Fig10Random(SearchWorkload):
    """Fig. 10: batched random search, PFM and Ruby-S, per ResNet-50 layer.

    Each pass draws new search seeds from the run seed, so the EDP gap
    averages over every pass of a run.
    """

    name = "fig10_random"

    def __init__(
        self,
        seed: int,
        references: Dict[str, Dict[str, float]],
        layers: Optional[Sequence[str]] = None,
        budget: int = FIG10_BUDGET,
    ) -> None:
        super().__init__(seed, references)
        self.layers = tuple(
            layers or (w.name for w, _ in resnet50_representative())
        )
        self.budget = budget

    def pairs(self):
        return [(name, kind) for name in self.layers for kind in KINDS]

    def pass_inputs(self, pass_index):
        seed = random.Random(f"fig10:{self.seed}:{pass_index}").randrange(2**31)
        return [(name, kind, seed) for name, kind in self.pairs()]

    def search(self, name, kind, seed):
        return find_best_mapping(
            self.arch,
            self.workloads[name],
            kind=kind,
            max_evaluations=self.budget,
            patience=FIG10_PATIENCE,
            seed=seed,
            constraints=self.constraints,
        )

    def check(self, name, kind, result):
        fresh = Evaluator(self.arch, self.workloads[name]).evaluate_fresh(
            result.best.mapping
        )
        if fresh.edp != result.best.edp:
            return f"re-priced EDP {fresh.edp!r} != reported {result.best.edp!r}"
        return None


class ExactBnb(SearchWorkload):
    """Exact branch-and-bound solves checked against exhaustive optima.

    The run seed seeds each solve's random warm start; every pass repeats
    the same solves.
    """

    name = "exact_bnb"

    def __init__(
        self,
        seed: int,
        references: Dict[str, Dict[str, float]],
        solves: Sequence[Tuple[str, str]] = EXACT_SOLVES,
    ) -> None:
        super().__init__(seed, references)
        self.solves = tuple(solves)

    def pairs(self):
        return list(self.solves)

    def pass_inputs(self, pass_index):
        return [(name, kind, self.seed) for name, kind in self.solves]

    def search(self, name, kind, seed):
        return find_best_mapping(
            self.arch,
            self.workloads[name],
            kind=kind,
            strategy="branch-bound",
            seed=seed,
            constraints=self.constraints,
        )

    def check(self, name, kind, result):
        optimum = self.gap_reference(name, kind)
        if result.best.edp != optimum:
            return f"EDP {result.best.edp!r} != exhaustive optimum {optimum!r}"
        return None

    def check_pass(self, inputs, results):
        errors = super().check_pass(inputs, results)
        found = {
            (name, kind): result.best.edp
            for (name, kind, _), result, error in zip(inputs, results, errors)
            if error is None
        }
        for index, (name, kind, _) in enumerate(inputs):
            pfm = found.get((name, "pfm"))
            if kind == "ruby-s" and (name, kind) in found and pfm is not None:
                if found[(name, kind)] > pfm:
                    errors[index] = (
                        f"Ruby-S EDP {found[(name, kind)]!r} > PFM EDP {pfm!r}"
                    )
        return errors

    def result_layers(self, inputs, results):
        layer = super().result_layers(inputs, results)
        # Rows priced (warm start included) per candidate of the space.
        layer["bnb.priced_ratio"] = sum(r.num_evaluated for r in results) / sum(
            self.mapspaces[(name, kind)].enumeration_upper_bound()
            for name, kind, _ in inputs
        )
        return layer
