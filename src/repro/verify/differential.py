"""Differential cross-checking of every evaluation path.

For one :class:`~repro.verify.strategies.VerifyCase` the runner prices the
mapping through every path the repo has:

* **scalar** — the plain :class:`~repro.model.evaluator.Evaluator`
  (validity -> access counts -> energy), the comparison baseline;
* **cache** — the same evaluator behind an
  :class:`~repro.model.eval_cache.EvaluationCache`: the miss, the hit, and
  ``evaluate_fresh`` must all reproduce the baseline exactly;
* **batch-single** — the vectorized
  :class:`~repro.model.batch.BatchEvaluator` on a one-row batch;
* **batch-packed** — the same engine with the mapping hidden among decoy
  rows (packing must not perturb any row);
* **reference-sim** — for toy-sized iteration spaces, the ground-truth
  :func:`~repro.model.reference_sim.simulate` walker, compared against the
  analytical access counts and cycle model.

Tolerance policy (see ``docs/verification.md``): integer quantities
(cycles, access counts) compare exactly; float quantities (energy, EDP,
utilization) compare exactly by default — the batch engine promises
bit-exactness — with an optional ULP budget for experimentation. The one
documented exception is the conservative corner of the analytical model
(spatial remainder on a relevant dim under an irrelevant counting loop),
where the closed form may overcount but never undercount; there the
reference-sim comparison enforces ``analytical >= simulated`` plus a
bounded slack instead of equality.

A divergence shrinks greedily to a minimal mapping that still diverges and
is dumped through :mod:`repro.io.serde` as a replayable counterexample
(``repro verify --replay FILE``).
"""

from __future__ import annotations

import math
import random
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.energy.accelergy import estimate_energy_table
from repro.energy.table import EnergyTable
from repro.exceptions import ReproError, VerificationError
from repro.io.serde import (
    architecture_from_dict,
    architecture_to_dict,
    load_json,
    mapping_from_dict,
    mapping_to_dict,
    save_json,
    workload_from_dict,
    workload_to_dict,
)
from repro.mapping.chains import chain_coverage
from repro.mapping.loop import Loop
from repro.mapping.nest import LevelNest, Mapping
from repro.mapspace.generator import MapSpace, MapspaceKind
from repro.model.access_counts import compute_access_counts
from repro.model.eval_cache import EvaluationCache
from repro.model.evaluator import Evaluation, Evaluator
from repro.model.latency import compute_cycles
from repro.model.reference_sim import SimulationTooLargeError, simulate
from repro.verify.strategies import VerifyCase, adversarial_cases, random_case

#: Iteration-point budget for reference-sim cross-checks. Lower than the
#: simulator's own ceiling: verification favors many small oracles over a
#: few slow ones.
DEFAULT_SIM_POINTS = 20_000

#: Conservative-corner slack bounds (mirrors the reference-sim test suite):
#: the analytical overcount may not exceed ``max(sim * RATIO, sim + PAD)``.
CONSERVATIVE_RATIO = 3.0
CONSERVATIVE_PAD = 12

__all__ = [
    "CaseReport",
    "DifferentialConfig",
    "DifferentialReport",
    "Divergence",
    "VerificationError",
    "compare_case",
    "counterexample_to_dict",
    "replay_counterexample",
    "run_differential",
    "shrink_case",
    "ulp_distance",
]


def ulp_distance(a: float, b: float) -> float:
    """Number of representable doubles between ``a`` and ``b``.

    Returns ``inf`` for NaN/infinite inputs or sign disagreement (other
    than exact zero); 0 when bit-identical.
    """
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return float("inf")

    def ordered(x: float) -> int:
        (bits,) = struct.unpack("<q", struct.pack("<d", x))
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return float(abs(ordered(a) - ordered(b)))


@dataclass(frozen=True)
class Divergence:
    """One quantity on which two evaluation paths disagree."""

    path: str  # e.g. "cache-hit", "batch-single", "reference-sim"
    quantity: str  # e.g. "energy_pj", "cycles", "reads[(1, 'X')]"
    expected: Any  # baseline-side value
    actual: Any  # diverging-path value
    detail: str = ""

    def describe(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"{self.path}: {self.quantity} expected {self.expected!r}, "
            f"got {self.actual!r}{extra}"
        )


@dataclass
class CaseReport:
    """Outcome of differentially checking one case."""

    case: VerifyCase
    paths_checked: List[str] = field(default_factory=list)
    ref_sim_checked: bool = False
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class DifferentialConfig:
    """Knobs of one differential run (the CLI's --quick/--deep profiles)."""

    cases: int = 500
    seed: int = 0
    min_ref_sim: int = 50
    max_sim_points: int = DEFAULT_SIM_POINTS
    decoys: int = 6
    sim_bias: float = 0.7
    include_adversarial: bool = True
    max_divergent_cases: int = 5
    dump_dir: Optional[str] = None
    energy_ulps: float = 0.0  # float-comparison budget; 0 = bit-exact
    shrink_budget: int = 200  # compare_case calls the shrinker may spend


@dataclass
class DifferentialReport:
    """Aggregate outcome of a differential run."""

    config: DifferentialConfig
    cases_checked: int = 0
    path_counts: Dict[str, int] = field(default_factory=dict)
    ref_sim_checks: int = 0
    divergent: List[CaseReport] = field(default_factory=list)
    counterexample_paths: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergent

    def summary(self) -> str:
        lines = [
            f"differential: {self.cases_checked} cases  "
            f"ref-sim cross-checks={self.ref_sim_checks}  "
            f"divergent={len(self.divergent)}  "
            f"elapsed={self.elapsed_s:.1f}s"
        ]
        parts = "  ".join(
            f"{name}={count}" for name, count in sorted(self.path_counts.items())
        )
        if parts:
            lines.append(f"  paths: {parts}")
        for report in self.divergent:
            lines.append(f"  DIVERGENT {report.case.name} [{report.case.source}]")
            for divergence in report.divergences[:4]:
                lines.append(f"    {divergence.describe()}")
        for path in self.counterexample_paths:
            lines.append(f"  counterexample: {path}")
        return "\n".join(lines)


# -------------------------------------------------------------- comparison


def _float_divergence(
    path: str,
    quantity: str,
    expected: float,
    actual: float,
    ulps: float,
) -> Optional[Divergence]:
    distance = ulp_distance(expected, actual)
    if distance <= ulps:
        return None
    return Divergence(
        path, quantity, expected, actual, detail=f"{distance:g} ulps apart"
    )


def _compare_evaluations(
    path: str,
    baseline: Evaluation,
    other: Evaluation,
    ulps: float,
    check_counts: bool = True,
) -> List[Divergence]:
    """All-field comparison of a path's Evaluation against the baseline."""
    divergences: List[Divergence] = []
    if baseline.valid != other.valid:
        return [Divergence(path, "valid", baseline.valid, other.valid)]
    if not baseline.valid:
        if tuple(baseline.violations) != tuple(other.violations):
            divergences.append(
                Divergence(
                    path, "violations", baseline.violations, other.violations
                )
            )
        return divergences
    if baseline.cycles != other.cycles:
        divergences.append(
            Divergence(path, "cycles", baseline.cycles, other.cycles)
        )
    for quantity in ("energy_pj", "utilization", "edp"):
        maybe = _float_divergence(
            path, quantity,
            getattr(baseline, quantity), getattr(other, quantity), ulps,
        )
        if maybe is not None:
            divergences.append(maybe)
    if check_counts and baseline.access_counts and other.access_counts:
        for label, a, b in (
            ("reads", baseline.access_counts.reads, other.access_counts.reads),
            ("writes", baseline.access_counts.writes, other.access_counts.writes),
        ):
            for key in sorted(set(a) | set(b)):
                if a.get(key, 0) != b.get(key, 0):
                    divergences.append(
                        Divergence(
                            path, f"{label}[{key}]", a.get(key, 0), b.get(key, 0)
                        )
                    )
    return divergences


def _check_cache_path(
    case: VerifyCase, table: EnergyTable, baseline: Evaluation, ulps: float
) -> List[Divergence]:
    """Miss, hit, and evaluate_fresh must all reproduce the baseline."""
    cache = EvaluationCache()
    evaluator = Evaluator(case.arch, case.workload, table, cache=cache)
    miss = evaluator.evaluate(case.mapping)
    hit = evaluator.evaluate(case.mapping)
    fresh = evaluator.evaluate_fresh(case.mapping)
    divergences = _compare_evaluations("cache-miss", baseline, miss, ulps)
    divergences += _compare_evaluations("cache-hit", baseline, hit, ulps)
    divergences += _compare_evaluations("cache-fresh", baseline, fresh, ulps)
    if cache.hits < 1:
        divergences.append(
            Divergence("cache-hit", "cache.hits", ">= 1", cache.hits,
                       detail="second lookup did not hit")
        )
    return divergences


def _batch_row_divergences(
    path: str,
    baseline: Evaluation,
    outcome: Any,
    row: int,
    ulps: float,
) -> List[Divergence]:
    """Compare one batch row against the scalar baseline evaluation."""
    divergences: List[Divergence] = []
    row_valid = bool(outcome.valid[row])
    if baseline.valid != row_valid:
        return [Divergence(path, "valid", baseline.valid, row_valid)]
    if not baseline.valid:
        if float(outcome.metric[row]) != float("inf"):
            divergences.append(
                Divergence(
                    path, "metric", float("inf"), float(outcome.metric[row]),
                    detail="invalid row must price as inf",
                )
            )
        return divergences
    if bool(outcome.pruned[row]):
        return [
            Divergence(path, "pruned", False, True,
                       detail="unpruned comparison row was pruned")
        ]
    fallback_eval = outcome.evaluations.get(row)
    if fallback_eval is not None:
        return _compare_evaluations(
            f"{path}-fallback", baseline, fallback_eval, ulps
        )
    if baseline.cycles != int(outcome.cycles[row]):
        divergences.append(
            Divergence(path, "cycles", baseline.cycles, int(outcome.cycles[row]))
        )
    for quantity, actual in (
        ("energy_pj", float(outcome.energy_pj[row])),
        ("utilization", float(outcome.utilization[row])),
        ("edp", float(outcome.metric[row])),
    ):
        maybe = _float_divergence(
            path, quantity, getattr(baseline, quantity), actual, ulps
        )
        if maybe is not None:
            divergences.append(maybe)
    return divergences


def _check_batch_paths(
    case: VerifyCase,
    table: EnergyTable,
    baseline: Evaluation,
    decoys: Sequence[Mapping],
    ulps: float,
) -> Tuple[List[str], List[Divergence]]:
    """One-row and packed-among-decoys batch evaluation vs the baseline."""
    from repro.model.batch import BatchEvaluator, pack_mappings

    engine = BatchEvaluator(Evaluator(case.arch, case.workload, table))
    if not engine.supported:
        return [], []
    layout = engine.layout
    paths: List[str] = []
    divergences: List[Divergence] = []
    try:
        single = pack_mappings(layout, [case.mapping])
    except ReproError as error:
        return [], [
            Divergence("batch-single", "packable", "packed", "error",
                       detail=str(error))
        ]
    outcome = engine.evaluate_batch(single)
    paths.append("batch-single")
    divergences += _batch_row_divergences(
        "batch-single", baseline, outcome, 0, ulps
    )
    if decoys:
        rows = list(decoys)
        target = len(rows) // 2
        rows.insert(target, case.mapping)
        try:
            packed = pack_mappings(layout, rows)
        except ReproError:
            return paths, divergences  # decoys unpackable; single row stands
        packed_outcome = engine.evaluate_batch(packed)
        paths.append("batch-packed")
        divergences += _batch_row_divergences(
            "batch-packed", baseline, packed_outcome, target, ulps
        )
    return paths, divergences


def _conservative_corner(case: VerifyCase, tensor) -> bool:
    """The documented approximation corners of the analytical model.

    Two geometries make the closed form a conservative overcount (never an
    undercount) for a tensor:

    * a *spatial* remainder on a relevant dim — an instance idling through
      the remainder window keeps its resident tile, so revisits are not
      refetches (see the ``repro.model.access_counts`` docstring);
    * a *temporal* remainder on a relevant dim under an irrelevant
      counting loop — when the remainder pass collapses to a single tile,
      consecutive revisits across the counting loop see an unchanged tile
      and cost nothing, but the closed form still multiplies the trip
      count.

    Both need a second dimension to supply the counting loop, so rank-1
    workloads always compare exactly.
    """
    if len(case.workload.dims) <= 1:
        return False
    relevant = tensor.relevant_dims
    placed = list(case.mapping.placed_loops())
    if any(
        p.loop.spatial and not p.loop.is_perfect and p.loop.dim in relevant
        for p in placed
    ):
        return True
    if not any(
        not p.loop.spatial and not p.loop.is_perfect and p.loop.dim in relevant
        for p in placed
    ):
        return False
    return any(
        p.loop.dim not in relevant and p.loop.bound > 1 for p in placed
    )


def _check_reference_sim(
    case: VerifyCase,
    baseline: Evaluation,
    max_points: int,
) -> Tuple[bool, List[Divergence]]:
    """Ground-truth walker vs the analytical counts and cycle model.

    Only runs when the mapping's per-dimension chains cover the workload
    exactly (otherwise Eq. 5 semantics are undefined) and the iteration
    space fits the point budget. Returns ``(checked, divergences)``.
    """
    structure = [nest.level_name for nest in case.mapping.levels]
    if structure != [level.name for level in case.arch.levels]:
        return False, []
    for dim, size in case.workload.dim_sizes.items():
        loops = [
            p.loop for p in case.mapping.placed_loops() if p.loop.dim == dim
        ]
        if chain_coverage(loops) != size:
            return False, []
    try:
        sim = simulate(
            case.arch, case.workload, case.mapping, max_points=max_points
        )
    except SimulationTooLargeError:
        return False, []
    divergences: List[Divergence] = []
    counts = compute_access_counts(case.arch, case.workload, case.mapping)
    cycles = compute_cycles(case.workload, case.mapping)
    if sim.macs != case.workload.total_operations:
        divergences.append(
            Divergence("reference-sim", "macs",
                       case.workload.total_operations, sim.macs)
        )
    if sim.cycles != cycles:
        divergences.append(
            Divergence("reference-sim", "cycles", cycles, sim.cycles)
        )
    for dim, size in case.workload.dim_sizes.items():
        if sim.coverage.get(dim) != size:
            divergences.append(
                Divergence("reference-sim", f"coverage[{dim}]",
                           size, sim.coverage.get(dim))
            )
    for tensor in case.workload.tensors:
        approximate = _conservative_corner(case, tensor)
        for level in range(len(case.arch.levels)):
            key = (level, tensor.name)
            for label, analytical_counts, sim_counts in (
                ("reads", counts.reads, sim.reads),
                ("writes", counts.writes, sim.writes),
            ):
                analytical = analytical_counts.get(key, 0)
                simulated = sim_counts.get(key, 0)
                if approximate:
                    if analytical < simulated:
                        divergences.append(
                            Divergence(
                                "reference-sim", f"{label}[{key}]",
                                simulated, analytical,
                                detail="conservative corner must never "
                                "undercount",
                            )
                        )
                    elif analytical > max(
                        simulated * CONSERVATIVE_RATIO,
                        simulated + CONSERVATIVE_PAD,
                    ):
                        divergences.append(
                            Divergence(
                                "reference-sim", f"{label}[{key}]",
                                simulated, analytical,
                                detail="conservative overcount beyond "
                                "documented slack",
                            )
                        )
                elif analytical != simulated:
                    divergences.append(
                        Divergence(
                            "reference-sim", f"{label}[{key}]",
                            simulated, analytical,
                        )
                    )
    # The scalar Evaluation must carry the same counts the analytical
    # model produces — this is the hook that catches a corrupted
    # access-count pipeline inside the Evaluator itself.
    if baseline.valid and baseline.access_counts is not None:
        for label, eval_counts, direct_counts in (
            ("reads", baseline.access_counts.reads, counts.reads),
            ("writes", baseline.access_counts.writes, counts.writes),
        ):
            for key in sorted(set(eval_counts) | set(direct_counts)):
                if eval_counts.get(key, 0) != direct_counts.get(key, 0):
                    divergences.append(
                        Divergence(
                            "scalar-vs-analytical", f"{label}[{key}]",
                            direct_counts.get(key, 0),
                            eval_counts.get(key, 0),
                        )
                    )
    return True, divergences


_TABLE_MEMO: Dict[str, EnergyTable] = {}


def _energy_table_for(arch) -> EnergyTable:
    """Per-architecture energy table, memoized on the serialized spec."""
    import json

    key = json.dumps(architecture_to_dict(arch), sort_keys=True)
    table = _TABLE_MEMO.get(key)
    if table is None:
        table = estimate_energy_table(arch)
        if len(_TABLE_MEMO) > 64:
            _TABLE_MEMO.clear()
        _TABLE_MEMO[key] = table
    return table


def compare_case(
    case: VerifyCase,
    decoys: Sequence[Mapping] = (),
    max_sim_points: int = DEFAULT_SIM_POINTS,
    energy_ulps: float = 0.0,
    table: Optional[EnergyTable] = None,
) -> CaseReport:
    """Run every evaluation path on one case and collect divergences."""
    table = table or _energy_table_for(case.arch)
    report = CaseReport(case=case)
    baseline = Evaluator(case.arch, case.workload, table).evaluate(case.mapping)
    report.paths_checked.append("scalar")
    report.divergences += _check_cache_path(case, table, baseline, energy_ulps)
    report.paths_checked.append("cache")
    batch_paths, batch_divergences = _check_batch_paths(
        case, table, baseline, decoys, energy_ulps
    )
    report.paths_checked += batch_paths
    report.divergences += batch_divergences
    checked, sim_divergences = _check_reference_sim(
        case, baseline, max_sim_points
    )
    if checked:
        report.ref_sim_checked = True
        report.paths_checked.append("reference-sim")
        report.divergences += sim_divergences
    return report


# ---------------------------------------------------------------- shrinking


def _mapping_size(mapping: Mapping) -> Tuple[int, int, int]:
    """Lexicographic shrink metric: fewer loops beats smaller bounds."""
    loops = [p.loop for p in mapping.placed_loops()]
    return (
        sum(1 for l in loops if l.bound > 1),
        sum(l.bound for l in loops),
        len(mapping.bypass),
    )


def _collapse_dim_chain(mapping: Mapping, dim: str) -> Optional[Mapping]:
    """Replace a dim's whole loop chain with one temporal loop.

    The replacement bound is the chain's coverage, so validity along that
    dimension is preserved — this is the transform that lets handcrafted
    Eq. 5 chains (where any single-loop edit breaks coverage) shrink at
    all.
    """
    dim_loops = [p.loop for p in mapping.placed_loops() if p.loop.dim == dim]
    if len([l for l in dim_loops if l.bound > 1]) < 2:
        return None
    total = chain_coverage(dim_loops)
    placed = False
    levels: List[LevelNest] = []
    for nest in mapping.levels:
        temporal = []
        for loop in nest.temporal:
            if loop.dim == dim:
                if not placed:
                    temporal.append(Loop(dim, total))
                    placed = True
                continue
            temporal.append(loop)
        spatial = []
        for loop in nest.spatial:
            if loop.dim == dim:
                if not placed:
                    temporal.append(Loop(dim, total))
                    placed = True
                continue
            spatial.append(loop)
        levels.append(
            LevelNest(
                level_name=nest.level_name,
                temporal=tuple(temporal),
                spatial=tuple(spatial),
            )
        )
    return Mapping(levels=tuple(levels), bypass=mapping.bypass)


def _shrink_candidates(mapping: Mapping) -> List[Mapping]:
    """All one-step simplifications of ``mapping``, smallest-first."""
    candidates: List[Mapping] = []
    for dim in sorted({p.loop.dim for p in mapping.placed_loops()}):
        collapsed = _collapse_dim_chain(mapping, dim)
        if collapsed is not None:
            candidates.append(collapsed)
    for pair in sorted(mapping.bypass):
        candidates.append(
            Mapping(
                levels=mapping.levels,
                bypass=frozenset(mapping.bypass - {pair}),
            )
        )
    for i, nest in enumerate(mapping.levels):
        flat = list(nest.temporal + nest.spatial)
        split = len(nest.temporal)
        for j, loop in enumerate(flat):
            edits: List[Optional[Loop]] = []
            if loop.bound > 1:
                edits.append(None)  # drop the loop
                half = loop.bound // 2
                edits.append(
                    replace(loop, bound=half, remainder=min(loop.remainder, half))
                )
            if not loop.is_perfect:
                edits.append(replace(loop, remainder=loop.bound))
            for edit in edits:
                new_flat = list(flat)
                if edit is None:
                    new_flat.pop(j)
                else:
                    new_flat[j] = edit
                new_split = split - (1 if edit is None and j < split else 0)
                levels = list(mapping.levels)
                levels[i] = LevelNest(
                    level_name=nest.level_name,
                    temporal=tuple(new_flat[:new_split]),
                    spatial=tuple(new_flat[new_split:]),
                )
                candidates.append(
                    Mapping(levels=tuple(levels), bypass=mapping.bypass)
                )
    candidates.sort(key=_mapping_size)
    return candidates


def shrink_case(
    case: VerifyCase,
    decoys: Sequence[Mapping] = (),
    max_sim_points: int = DEFAULT_SIM_POINTS,
    energy_ulps: float = 0.0,
    budget: int = 200,
) -> Tuple[VerifyCase, CaseReport]:
    """Greedily minimize a diverging case while it still diverges.

    Returns the smallest case found and its report. ``budget`` caps the
    number of candidate re-comparisons (each runs the full path set).
    """
    current = case
    report = compare_case(
        current, decoys, max_sim_points=max_sim_points, energy_ulps=energy_ulps
    )
    if report.ok:
        return current, report
    spent = 0
    improved = True
    while improved and spent < budget:
        improved = False
        for candidate_mapping in _shrink_candidates(current.mapping):
            if _mapping_size(candidate_mapping) >= _mapping_size(current.mapping):
                continue
            if spent >= budget:
                break
            candidate = replace(current, mapping=candidate_mapping)
            try:
                candidate_report = compare_case(
                    candidate, decoys,
                    max_sim_points=max_sim_points, energy_ulps=energy_ulps,
                )
            except ReproError:
                spent += 1
                continue
            spent += 1
            if not candidate_report.ok:
                current = candidate
                report = candidate_report
                improved = True
                break
    return current, report


# ------------------------------------------------------------ serialization


def counterexample_to_dict(
    case: VerifyCase,
    report: CaseReport,
    config: Optional[DifferentialConfig] = None,
    original: Optional[VerifyCase] = None,
) -> Dict[str, Any]:
    """Serialize a (shrunk) diverging case for replay."""
    payload: Dict[str, Any] = {
        "schema": 1,
        "kind": "verify-counterexample",
        "case": {
            "name": case.name,
            "source": case.source,
            "mapspace_kind": case.kind.value if case.kind else None,
        },
        "architecture": architecture_to_dict(case.arch),
        "workload": workload_to_dict(case.workload),
        "mapping": mapping_to_dict(case.mapping),
        "divergences": [
            {
                "path": d.path,
                "quantity": d.quantity,
                "expected": repr(d.expected),
                "actual": repr(d.actual),
                "detail": d.detail,
            }
            for d in report.divergences
        ],
    }
    if original is not None and original.mapping != case.mapping:
        payload["original_mapping"] = mapping_to_dict(original.mapping)
    if config is not None:
        payload["config"] = {
            "seed": config.seed,
            "decoys": config.decoys,
            "max_sim_points": config.max_sim_points,
            "energy_ulps": config.energy_ulps,
        }
    return payload


def replay_counterexample(path: str) -> CaseReport:
    """Re-run the differential comparison of a dumped counterexample."""
    data = load_json(path)
    if data.get("kind") != "verify-counterexample":
        raise ReproError(f"{path} is not a verify counterexample dump")
    arch = architecture_from_dict(data["architecture"])
    workload = workload_from_dict(data["workload"])
    mapping = mapping_from_dict(data["mapping"])
    config = data.get("config", {})
    kind = data["case"].get("mapspace_kind")
    case = VerifyCase(
        name=data["case"].get("name", "replay"),
        arch=arch,
        workload=workload,
        mapping=mapping,
        kind=MapspaceKind(kind) if kind else None,
        source=data["case"].get("source", "replay"),
    )
    decoys = _decoys_for(case, random.Random(config.get("seed", 0)),
                         config.get("decoys", 6))
    return compare_case(
        case,
        decoys,
        max_sim_points=config.get("max_sim_points", DEFAULT_SIM_POINTS),
        energy_ulps=config.get("energy_ulps", 0.0),
    )


# ------------------------------------------------------------------ runner


def _decoys_for(
    case: VerifyCase, rng: random.Random, count: int
) -> List[Mapping]:
    """Deterministic decoy mappings drawn from the case's own mapspace."""
    if count <= 0:
        return []
    kind = case.kind or MapspaceKind.RUBY
    try:
        space = MapSpace(case.arch, case.workload, kind)
        return space.sample_many(count, rng)
    except ReproError:
        return []


def run_differential(
    config: DifferentialConfig,
    on_case: Optional[Callable[[int, CaseReport], None]] = None,
) -> DifferentialReport:
    """Run the full differential sweep described by ``config``.

    Generation is deterministic in ``config.seed``. After the main sweep,
    extra sim-biased cases are drawn until at least ``config.min_ref_sim``
    reference-sim cross-checks have run (bounded at 4x the case budget).
    """
    started = time.monotonic()
    rng = random.Random(config.seed)
    report = DifferentialReport(config=config)
    dump_dir = Path(config.dump_dir) if config.dump_dir else None

    def handle(index: int, case: VerifyCase) -> None:
        decoys = _decoys_for(case, rng, config.decoys)
        case_report = compare_case(
            case,
            decoys,
            max_sim_points=config.max_sim_points,
            energy_ulps=config.energy_ulps,
        )
        report.cases_checked += 1
        if case_report.ref_sim_checked:
            report.ref_sim_checks += 1
        for path in case_report.paths_checked:
            report.path_counts[path] = report.path_counts.get(path, 0) + 1
        if not case_report.ok:
            shrunk_case, shrunk_report = shrink_case(
                case,
                decoys,
                max_sim_points=config.max_sim_points,
                energy_ulps=config.energy_ulps,
                budget=config.shrink_budget,
            )
            report.divergent.append(shrunk_report)
            if dump_dir is not None:
                dump_dir.mkdir(parents=True, exist_ok=True)
                dump_path = dump_dir / (
                    f"verify_counterexample_{len(report.divergent)}.json"
                )
                save_json(
                    counterexample_to_dict(
                        shrunk_case, shrunk_report, config, original=case
                    ),
                    dump_path,
                )
                report.counterexample_paths.append(str(dump_path))
        if on_case is not None:
            on_case(index, case_report)

    index = 0
    if config.include_adversarial:
        for case in adversarial_cases(rng):
            if len(report.divergent) >= config.max_divergent_cases:
                break
            handle(index, case)
            index += 1
    while (
        report.cases_checked < config.cases
        and len(report.divergent) < config.max_divergent_cases
    ):
        handle(index, random_case(rng, sim_bias=config.sim_bias, index=index))
        index += 1
    attempts = 0
    while (
        report.ref_sim_checks < config.min_ref_sim
        and attempts < 4 * config.cases
        and len(report.divergent) < config.max_divergent_cases
    ):
        handle(index, random_case(rng, sim_bias=1.0, index=index))
        index += 1
        attempts += 1
    report.elapsed_s = time.monotonic() - started
    return report
