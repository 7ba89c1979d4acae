#!/usr/bin/env python3
"""Regenerate ``references.json``: the answers the benchmark checks against.

* ``exact_bnb``: the exact optimum EDP of every solve, from
  :class:`~repro.search.exhaustive.ExhaustiveSearch`, so the benchmark's
  bit-for-bit check does not rely on branch-and-bound itself.
* ``fig10_random`` and ``service_mix``: the best EDP known per
  (layer, kind), the base of ``edp_gap``: the best of long random
  searches on seeds the benchmark never uses and, where it is quick, the
  exact optimum.

Run from the repository root (takes about 15 minutes)::

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import sys
from typing import Dict

from common import REFERENCES_PATH, SRC, ref_key

sys.path.insert(0, str(SRC))

from repro.arch import eyeriss_like  # noqa: E402
from repro.core import find_best_mapping  # noqa: E402
from repro.mapspace.constraints import eyeriss_row_stationary  # noqa: E402
from repro.mapspace.factory import make_mapspace  # noqa: E402
from repro.model import Evaluator  # noqa: E402
from repro.search.exhaustive import ExhaustiveSearch  # noqa: E402
from search_workloads import (  # noqa: E402
    EXACT_SOLVES,
    KINDS,
    Fig10Random,
    named_workloads,
)
from service_mix import (  # noqa: E402
    ARCHS,
    SHAPES,
    direct_search,
    make_spec,
    spec_key,
    spec_pool,
)

#: Long random searches per (layer, kind) on seeds the benchmark never
#: derives: budget and seeds.
FIG10_REF_BUDGET = 40_000
SERVICE_REF_BUDGET = 20_000
REF_SEEDS = (1_000_003, 1_000_033, 1_000_037)
#: Pairs whose exact optimum is quick to find.
FIG10_EXACT = {("fc1000", "pfm"), ("fc1000", "ruby-s"), ("conv5_expand", "pfm")}


def exact_optima() -> Dict[str, float]:
    """Exhaustive optimum EDP of every ``exact_bnb`` solve."""
    arch = eyeriss_like()
    constraints = eyeriss_row_stationary()
    workloads = named_workloads()
    optima = {}
    for name, kind in EXACT_SOLVES:
        workload = workloads[name]
        result = ExhaustiveSearch(
            make_mapspace(arch, workload, kind, constraints),
            Evaluator(arch, workload),
            limit=10_000_000,
        ).run()
        optima[ref_key(name, kind)] = result.best.edp
    return optima


def fig10_best_known() -> Dict[str, float]:
    arch = eyeriss_like()
    constraints = eyeriss_row_stationary()
    workloads = named_workloads()
    best = {}
    for name, kind in Fig10Random(0, {}).pairs():
        found = [
            find_best_mapping(
                arch, workloads[name], kind=kind,
                max_evaluations=FIG10_REF_BUDGET, patience=None,
                seed=seed, constraints=constraints,
            ).best.edp
            for seed in REF_SEEDS
        ]
        if (name, kind) in FIG10_EXACT:
            found.append(
                find_best_mapping(
                    arch, workloads[name], kind=kind, strategy="branch-bound",
                    seed=0, constraints=constraints,
                ).best.edp
            )
        best[ref_key(name, kind)] = min(found)
        print(f"fig10 {name}/{kind}: {best[ref_key(name, kind)]!r}", flush=True)
    return best


def service_best_known() -> Dict[str, float]:
    """Best known per (arch, shape, kind); also proves that every spec the
    mix can draw finds a valid mapping at its own budget."""
    for spec in spec_pool():
        if direct_search(spec).best is None:
            raise RuntimeError(f"spec finds no valid mapping: {spec}")
    best = {}
    for arch in ARCHS:
        for shape in SHAPES:
            for kind in KINDS:
                spec = make_spec(arch, shape, kind, 0)
                found = [
                    direct_search(
                        dict(spec, max_evaluations=SERVICE_REF_BUDGET, seed=seed)
                    ).best.edp
                    for seed in REF_SEEDS
                ]
                best[spec_key(spec)] = min(found)
                print(f"service {spec_key(spec)}: {best[spec_key(spec)]!r}",
                      flush=True)
    return best


def contain_pfm(best: Dict[str, float]) -> Dict[str, float]:
    """Ruby-S contains PFM, so a PFM best is also known for Ruby-S."""
    return {
        key: min(value, best[key[: -len("ruby-s")] + "pfm"])
        if key.endswith("/ruby-s") else value
        for key, value in best.items()
    }


def main() -> int:
    references = {
        "exact_bnb": exact_optima(),
        "fig10_random": contain_pfm(fig10_best_known()),
        "service_mix": contain_pfm(service_best_known()),
    }
    with open(REFERENCES_PATH, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCES_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
