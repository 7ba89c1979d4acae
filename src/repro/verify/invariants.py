"""Metamorphic invariants of the mapspace / evaluation stack.

Where :mod:`repro.verify.differential` asks "do all the evaluation paths
agree on this one mapping?", this module asks structural questions whose
answers are known a priori:

* **PFM containment** — every perfect-factorization mapping also lives in
  the Ruby mapspace (canonical-key set containment) and prices identically
  no matter which space produced it;
* **Counting consistency** — the :mod:`repro.mapspace.chain_count` closed
  forms match :meth:`DimAllocator.enumerate_chains` chain-by-chain, and
  the enumeration-based mapspace size never exceeds the closed-form upper
  bound;
* **Cache transparency** — a cache hit and ``evaluate_fresh`` both
  reproduce the uncached evaluation exactly;
* **Prune parity** — batch evaluation with lower-bound pruning on and off
  agrees on every surviving row, never prunes the best row, and every
  pruned row's true metric is at or above the incumbent;
* **Enumeration count parity** — the scalar chain enumeration emits each
  candidate exactly once (unique signatures), and its count matches both
  the prefix-tree closed-form count and the number of rows the batched
  path packs — the differential check behind removing the scalar path's
  vestigial dedup set;
* **Sampler stream parity** — the columnar sampler
  (:meth:`MapSpace.sample_batch`) draws, row for row, the columns the
  object path's mappings pack into, rebuilds the same mappings, and
  leaves the RNG in the same state;
* **Branch-bound parity** — the hierarchical branch-and-bound searcher
  finds the bit-identical best mapping (same signature, energy, and
  cycles) as exhaustive enumeration on toy and Eyeriss-preset mapspaces,
  regardless of its warm-start seed;
* **Seed determinism** — each of the six searchers run twice from one
  seed produces the same trajectory, and ``parallel_random_search`` finds
  the same best metric under fork and spawn start methods.

Each invariant is a seed-deterministic callable returning a list of
violation strings, so the CLI can run them without Hypothesis; the
property-test layer re-drives the same callables under generated inputs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch import toy_glb_architecture, toy_linear_architecture
from repro.energy.accelergy import estimate_energy_table
from repro.mapspace.allocation import DimAllocator
from repro.mapspace.chain_count import count_dim_chains, mapspace_upper_bound
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.counting import count_mapspace_size
from repro.mapspace.generator import MapSpace, MapspaceKind
from repro.mapspace.slots import build_slots
from repro.model.eval_cache import EvaluationCache
from repro.model.evaluator import Evaluator
from repro.problem import ConvLayer, GemmLayer
from repro.problem.gemm import vector_workload
from repro.search import (
    BranchBoundSearch,
    ExhaustiveSearch,
    GeneticSearch,
    ParetoSearch,
    RandomSearch,
    SimulatedAnnealing,
)
from repro.search.parallel import parallel_random_search

#: Multiprocessing start methods the determinism invariant compares.
START_METHODS = ("fork", "spawn")


@dataclass
class InvariantReport:
    """Aggregate outcome of one invariant sweep."""

    checked: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"invariants: {sum(self.checked.values())} checks across "
            f"{len(self.checked)} invariants  "
            f"violations={len(self.violations)}  "
            f"elapsed={self.elapsed_s:.1f}s"
        ]
        for name, count in sorted(self.checked.items()):
            lines.append(f"  {name}: {count}")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        return "\n".join(lines)


def _toy_setup(seed: int):
    """Small shared fixture: toy GLB arch + a GEMM small enough to count."""
    rng = random.Random(seed)
    arch = toy_glb_architecture(num_pes=6, glb_bytes=4096)
    m, n, k = rng.choice(((4, 3, 2), (6, 2, 2), (5, 3, 2)))
    workload = GemmLayer("g", m=m, n=n, k=k).workload()
    return rng, arch, workload


def check_pfm_containment(
    seed: int = 0, enumeration_limit: int = 20_000
) -> Tuple[int, List[str]]:
    """PFM mappings are contained in and score identically inside Ruby.

    Enumerates the PFM space of a small GEMM, requires every canonical key
    to appear in each Ruby variant's enumeration, and prices the PFM
    mapping against its Ruby twin (same canonical key) exactly.
    """
    _, arch, workload = _toy_setup(seed)
    table = estimate_energy_table(arch)
    evaluator = Evaluator(arch, workload, table)
    pfm = {
        m.canonical_key(): m
        for m in MapSpace(
            arch, workload, MapspaceKind.PFM
        ).enumerate_mappings(limit=enumeration_limit)
    }
    checked = 0
    violations: List[str] = []
    for kind in (MapspaceKind.RUBY_S, MapspaceKind.RUBY_T, MapspaceKind.RUBY):
        ruby = {
            m.canonical_key(): m
            for m in MapSpace(arch, workload, kind).enumerate_mappings(
                limit=enumeration_limit
            )
        }
        missing = set(pfm) - set(ruby)
        if missing:
            violations.append(
                f"pfm-containment: {len(missing)} PFM mappings absent from "
                f"{kind.value} ({workload.name})"
            )
        for key, mapping in pfm.items():
            twin = ruby.get(key)
            if twin is None:
                continue
            checked += 1
            mine = evaluator.evaluate_fresh(mapping)
            theirs = evaluator.evaluate_fresh(twin)
            if (
                mine.valid != theirs.valid
                or mine.energy_pj != theirs.energy_pj
                or mine.cycles != theirs.cycles
            ):
                violations.append(
                    f"pfm-containment: canonical twin prices differently in "
                    f"{kind.value}: {key}"
                )
    return checked, violations


def check_counting_consistency(seed: int = 0) -> Tuple[int, List[str]]:
    """Closed-form chain counts match allocator enumeration exactly.

    Also checks the whole-mapspace enumeration count never exceeds the
    closed-form upper bound (permutations/bypass off on both sides).
    """
    rng, arch, _ = _toy_setup(seed)
    slots = build_slots(arch)
    checked = 0
    violations: List[str] = []
    sizes = rng.sample((3, 4, 5, 6, 7, 9, 11, 12), 4)
    for kind in MapspaceKind:
        allocator = DimAllocator(
            slots, kind.spatial_imperfect, kind.temporal_imperfect
        )
        for size in sizes:
            checked += 1
            enumerated = sum(1 for _ in allocator.enumerate_chains("D", size))
            closed = count_dim_chains(slots, kind, "D", size)
            if enumerated != closed:
                violations.append(
                    f"counting: {kind.value} D={size}: closed form {closed} "
                    f"!= enumerated {enumerated}"
                )
    linear = toy_linear_architecture(9)
    for size in (9, 12):
        workload = vector_workload("v", size)
        for kind in MapspaceKind:
            checked += 1
            counted = count_mapspace_size(
                linear, workload, kind, count_valid=False
            )
            bound = mapspace_upper_bound(linear, {"D": size}, kind)
            if counted.raw > bound:
                violations.append(
                    f"counting: {kind.value} D={size}: enumerated size "
                    f"{counted.raw} exceeds closed-form bound {bound}"
                )
    return checked, violations


def check_cache_transparency(
    seed: int = 0, samples: int = 25
) -> Tuple[int, List[str]]:
    """Cache hits and ``evaluate_fresh`` reproduce the uncached result."""
    rng, arch, workload = _toy_setup(seed)
    table = estimate_energy_table(arch)
    plain = Evaluator(arch, workload, table)
    cache = EvaluationCache()
    cached = Evaluator(arch, workload, table, cache=cache)
    space = MapSpace(arch, workload, MapspaceKind.RUBY, explore_bypass=True)
    checked = 0
    violations: List[str] = []
    for mapping in space.sample_many(samples, rng):
        checked += 1
        baseline = plain.evaluate(mapping)
        first = cached.evaluate(mapping)
        second = cached.evaluate(mapping)
        fresh = cached.evaluate_fresh(mapping)
        for label, other in (
            ("miss", first), ("hit", second), ("fresh", fresh)
        ):
            if (
                baseline.valid != other.valid
                or baseline.energy_pj != other.energy_pj
                or baseline.cycles != other.cycles
                or baseline.utilization != other.utilization
            ):
                violations.append(
                    f"cache-transparency: {label} diverges from uncached on "
                    f"{mapping.signature()}"
                )
    if cache.hits == 0:
        violations.append("cache-transparency: repeated lookups never hit")
    return checked, violations


def check_prune_parity(
    seed: int = 0, samples: int = 64
) -> Tuple[int, List[str]]:
    """Batch pruning must be lossless: same winner, consistent rows."""
    from repro.model.batch import BatchEvaluator, PRUNE_MARGIN, pack_mappings

    rng, arch, workload = _toy_setup(seed)
    table = estimate_energy_table(arch)
    engine = BatchEvaluator(Evaluator(arch, workload, table))
    space = MapSpace(arch, workload, MapspaceKind.RUBY)
    # A draw can land on all-invalid mappings (infinite metric everywhere),
    # which would make the parity check vacuous — resample until at least
    # one finite row anchors the incumbent.
    for _ in range(8):
        mappings = space.sample_many(samples, rng)
        batch = pack_mappings(engine.layout, mappings)
        free = engine.evaluate_batch(batch, prune=False)
        metrics = [float(m) for m in free.metric]
        finite = [m for m in metrics if m != float("inf")]
        if finite:
            break
    else:
        return 0, [
            "prune-parity: no valid mapping found in "
            f"{8 * samples} samples; cannot anchor an incumbent"
        ]
    incumbent = min(finite)
    pruned = engine.evaluate_batch(batch, incumbent=incumbent, prune=True)
    checked = 0
    violations: List[str] = []
    best_row = metrics.index(incumbent)
    if bool(pruned.pruned[best_row]):
        violations.append(
            f"prune-parity: best row {best_row} (metric {incumbent}) was "
            "pruned against its own incumbent"
        )
    for row in range(len(mappings)):
        checked += 1
        if bool(pruned.pruned[row]):
            if metrics[row] < incumbent - PRUNE_MARGIN:
                violations.append(
                    f"prune-parity: row {row} pruned but its true metric "
                    f"{metrics[row]} beats the incumbent {incumbent}"
                )
            continue
        if metrics[row] != float(pruned.metric[row]):
            violations.append(
                f"prune-parity: row {row} metric differs with pruning on "
                f"({float(pruned.metric[row])}) vs off ({metrics[row]})"
            )
        if bool(free.valid[row]) != bool(pruned.valid[row]):
            violations.append(
                f"prune-parity: row {row} validity differs with pruning "
                "on vs off"
            )
    return checked, violations


def check_enumeration_count_parity(seed: int = 0) -> Tuple[int, List[str]]:
    """Scalar enumeration, batched packing, and the closed count agree.

    The scalar exhaustive path used to carry a signature dedup set; this
    check is the evidence it was vestigial: chain enumeration emits each
    candidate exactly once (distinct chain combinations produce distinct
    cells, hence distinct signatures), so all three counts must match.
    """
    _, arch, workload = _toy_setup(seed)
    checked = 0
    violations: List[str] = []
    for kind in MapspaceKind:
        checked += 1
        space = MapSpace(arch, workload, kind)
        signatures = [
            m.signature() for m in space.enumerate_mappings(limit=200_000)
        ]
        scalar_count = len(signatures)
        unique_count = len(set(signatures))
        if scalar_count != unique_count:
            violations.append(
                f"count-parity: {kind.value} scalar enumeration emitted "
                f"{scalar_count - unique_count} duplicate signatures"
            )
        closed_count = space.count_completions()
        if scalar_count != closed_count:
            violations.append(
                f"count-parity: {kind.value} scalar enumeration count "
                f"{scalar_count} != closed-form count {closed_count}"
            )
        batch_rows = sum(
            batch.size for batch in space.iter_batches(batch_size=512)
        )
        if batch_rows != scalar_count:
            violations.append(
                f"count-parity: {kind.value} batched path packed "
                f"{batch_rows} rows vs {scalar_count} scalar candidates"
            )
    return checked, violations


def _sampler_fixtures():
    """(label, arch, workload) triples for sampler stream parity: a 1-D
    toy fanout, Eyeriss and Simba (both with 2-D fanouts)."""
    from repro.arch.eyeriss import eyeriss_like
    from repro.arch.simba import simba_like

    return [
        (
            "toy",
            toy_glb_architecture(num_pes=6, glb_bytes=4096),
            vector_workload("v100", 100),
        ),
        ("eyeriss", eyeriss_like(), GemmLayer("e", m=28, n=27, k=14).workload()),
        ("simba", simba_like(), GemmLayer("s", m=12, n=10, k=8).workload()),
    ]


def _object_draw(space: MapSpace, rng: random.Random):
    """One draw of the object path: chains, assembly, then bypass."""
    mapping = space.assemble(space.sample_chains(rng), rng)
    if space.explore_bypass and space._bypass_candidates:
        bypass = [
            pair
            for pair in space._bypass_candidates
            if rng.random() < space.BYPASS_PROBABILITY
        ]
        if bypass:
            mapping = mapping.with_bypass(bypass)
    return mapping


def check_sampler_stream_parity(
    seed: int = 0, rows: int = 24
) -> Tuple[int, List[str]]:
    """The columnar sampler is stream-exact against the object path.

    For every fixture, kind, bypass setting, sampling mode and with or
    without fixed permutations, ``sample_batch(rng, n)`` must produce the
    columns :func:`pack_mappings` makes of the object path's ``n``
    mappings bit for bit, rebuild each of them exactly with
    ``mapping_at``, and leave the RNG in the same state.
    """
    from repro.mapspace.constraints import ConstraintSet
    from repro.model.batch import pack_mappings

    checked = 0
    violations: List[str] = []
    for label, arch, workload in _sampler_fixtures():
        dims = workload.dim_names
        fixed = ConstraintSet.build(
            fixed_permutations={
                arch.levels[0].name: tuple(reversed(dims)),
                arch.levels[1].name: dims[-1:],
            }
        )
        for kind in MapspaceKind:
            for bypass in (False, True):
                for sampling in DimAllocator.SAMPLING_MODES:
                    for constraints in (None, fixed):
                        checked += 1
                        case = (
                            f"sampler-stream-parity: {label}/{kind.value} "
                            f"bypass={bypass} sampling={sampling} "
                            f"fixed={constraints is not None}"
                        )
                        space = MapSpace(
                            arch, workload, kind, constraints,
                            sampling=sampling, explore_bypass=bypass,
                        )
                        oracle_rng = random.Random(seed)
                        oracle = [
                            _object_draw(space, oracle_rng)
                            for _ in range(rows)
                        ]
                        rng = random.Random(seed)
                        batch = space.sample_batch(rng, rows)
                        packed = pack_mappings(space.batch_layout(), oracle)
                        for name in ("bounds", "rems", "pos", "fallback"):
                            ours = getattr(batch, name)
                            theirs = getattr(packed, name)
                            if ours.dtype != theirs.dtype or not (
                                ours == theirs
                            ).all():
                                violations.append(
                                    f"{case}: {name} columns differ from "
                                    "pack_mappings of the object path"
                                )
                        for i, mapping in enumerate(oracle):
                            if batch.mapping_at(i) != mapping:
                                violations.append(
                                    f"{case}: row {i} rebuilds "
                                    f"{batch.mapping_at(i)} != {mapping}"
                                )
                                break
                        if rng.getstate() != oracle_rng.getstate():
                            violations.append(f"{case}: RNG states diverge")
    return checked, violations


def _parity_fixtures(seed: int):
    """(label, mapspace, evaluator) triples for branch-bound parity."""
    from repro.arch.eyeriss import eyeriss_like

    _, toy_arch, toy_workload = _toy_setup(seed)
    toy_table = estimate_energy_table(toy_arch)
    fixtures = []
    for kind in (MapspaceKind.PFM, MapspaceKind.RUBY_S):
        fixtures.append(
            (
                f"toy/{kind.value}",
                MapSpace(toy_arch, toy_workload, kind),
                Evaluator(toy_arch, toy_workload, toy_table),
            )
        )
    eyeriss = eyeriss_like()
    gemm = GemmLayer("g8x4x4", m=8, n=4, k=4).workload()
    eyeriss_table = estimate_energy_table(eyeriss)
    # Ruby-S on Eyeriss: 20 540 candidates, within the exhaustive limit,
    # with imperfect spatial blocks the toy cannot produce.
    for kind in (MapspaceKind.PFM, MapspaceKind.RUBY_S):
        fixtures.append(
            (
                f"eyeriss/{kind.value}",
                MapSpace(eyeriss, gemm, kind),
                Evaluator(eyeriss, gemm, eyeriss_table),
            )
        )
    # Row-stationary conv where the PE buffers bind: 47 313 candidates,
    # of which 6 979 overflow a buffer, so the walk's capacity cuts (child
    # mask and leaf-sweep mask) decide real cells.
    conv = ConvLayer("c4m8p3", c=4, m=8, p=3, q=3, r=3, s=3).workload()
    fixtures.append(
        (
            "eyeriss-rs/pfm",
            MapSpace(eyeriss, conv, MapspaceKind.PFM, eyeriss_row_stationary()),
            Evaluator(eyeriss, conv, eyeriss_table),
        )
    )
    return fixtures


def check_branch_bound_parity(seed: int = 0) -> Tuple[int, List[str]]:
    """Branch-and-bound matches exhaustive search on the optimum exactly.

    On each fixture the B&B searcher must reach the bit-identical best
    EDP that full enumeration finds, from two different warm-start seeds —
    the pruning bound is admissible, so the warm start only affects speed,
    never the answer. The comparison is on the metric, not the mapping
    signature: mapspaces routinely hold several co-optimal mappings, and
    which one a searcher reports depends on visit order (enumeration order
    for exhaustive, best-first heap order for B&B).

    The parallel searcher (``workers=2``, subtree work-sharing over a
    shared incumbent) is held to the same standard: cross-process cuts
    keep the serial prune margin and the driver re-prices every worker
    claim, so the optimum must be bit-identical regardless of incumbent
    race timing.
    """
    checked = 0
    violations: List[str] = []
    for label, space, evaluator in _parity_fixtures(seed):
        checked += 1
        exhaustive = ExhaustiveSearch(space, evaluator, limit=200_000).run()
        runs = [
            BranchBoundSearch(space, evaluator, seed=s).run()
            for s in (seed, seed + 1)
        ]
        runs.append(
            BranchBoundSearch(space, evaluator, seed=seed, workers=2).run()
        )
        keys = []
        for result in (exhaustive, *runs):
            best = result.best
            keys.append(
                best.metric("edp") if best is not None else None
            )
        if any(key != keys[0] for key in keys[1:]):
            violations.append(
                f"branch-bound-parity: {label}: best EDP diverges from "
                f"exhaustive (exhaustive={keys[0]!r}, "
                f"bnb={keys[1]!r}/{keys[2]!r}, parallel={keys[3]!r})"
            )
    return checked, violations


def _searcher_runs(seed: int):
    """(name, run-callable) pairs for the six searchers, tiny budgets."""
    _, arch, workload = _toy_setup(seed)
    table = estimate_energy_table(arch)

    def fixture(kind: MapspaceKind):
        space = MapSpace(arch, workload, kind)
        return space, Evaluator(arch, workload, table)

    def random_run():
        space, evaluator = fixture(MapspaceKind.RUBY)
        return RandomSearch(
            space, evaluator, max_evaluations=200, patience=None, seed=seed
        ).run()

    def exhaustive_run():
        space, evaluator = fixture(MapspaceKind.PFM)
        return ExhaustiveSearch(space, evaluator, limit=20_000).run()

    def genetic_run():
        space, evaluator = fixture(MapspaceKind.RUBY_S)
        return GeneticSearch(
            space, evaluator, population_size=8, generations=4, seed=seed
        ).run()

    def annealing_run():
        space, evaluator = fixture(MapspaceKind.RUBY_T)
        return SimulatedAnnealing(space, evaluator, steps=80, seed=seed).run()

    def pareto_run():
        space, evaluator = fixture(MapspaceKind.RUBY)
        return ParetoSearch(space, evaluator, max_evaluations=150, seed=seed).run()

    def branch_bound_run():
        space, evaluator = fixture(MapspaceKind.RUBY_S)
        return BranchBoundSearch(space, evaluator, seed=seed).run()

    return [
        ("random", random_run),
        ("exhaustive", exhaustive_run),
        ("branch-bound", branch_bound_run),
        ("genetic", genetic_run),
        ("annealing", annealing_run),
        ("pareto", pareto_run),
    ]


def _result_fingerprint(result) -> Tuple:
    frontier = getattr(result, "frontier", None)
    if frontier is not None:
        front_key = tuple(
            (e.mapping.signature(), e.energy_pj, e.cycles) for e in frontier
        )
        return (None, front_key, getattr(result, "num_evaluated", None))
    best = result.best
    best_key = (
        (best.mapping.signature(), best.energy_pj, best.cycles)
        if best is not None
        else None
    )
    return (best_key, None, getattr(result, "num_evaluated", None))


def check_seed_determinism(seed: int = 0) -> Tuple[int, List[str]]:
    """Each searcher run twice from one seed retraces itself exactly."""
    checked = 0
    violations: List[str] = []
    for name, run in _searcher_runs(seed):
        checked += 1
        if _result_fingerprint(run()) != _result_fingerprint(run()):
            violations.append(
                f"seed-determinism: {name} search diverged between two runs "
                f"with seed {seed}"
            )
    return checked, violations


def check_parallel_start_methods(
    seed: int = 0, max_evaluations: int = 240, workers: int = 2
) -> Tuple[int, List[str]]:
    """Fork and spawn parallel searches agree on the best mapping found."""
    import multiprocessing

    _, arch, workload = _toy_setup(seed)
    available = multiprocessing.get_all_start_methods()
    fingerprints: Dict[str, Tuple] = {}
    checked = 0
    violations: List[str] = []
    for method in START_METHODS:
        if method not in available:
            continue
        checked += 1
        result = parallel_random_search(
            arch,
            workload,
            kind=MapspaceKind.RUBY_S,
            max_evaluations=max_evaluations,
            patience=None,
            workers=workers,
            seed=seed,
            start_method=method,
        )
        best = result.best
        fingerprints[method] = (
            (best.mapping.signature(), best.energy_pj, best.cycles)
            if best is not None
            else None
        )
    if len(set(fingerprints.values())) > 1:
        violations.append(
            "start-method-determinism: parallel search best differs across "
            + ", ".join(sorted(fingerprints))
        )
    return checked, violations


#: The invariant registry, in the order the CLI reports them.
INVARIANTS: Tuple[Tuple[str, Callable[[int], Tuple[int, List[str]]]], ...] = (
    ("pfm-containment", check_pfm_containment),
    ("counting-consistency", check_counting_consistency),
    ("cache-transparency", check_cache_transparency),
    ("prune-parity", check_prune_parity),
    ("count-parity", check_enumeration_count_parity),
    ("sampler-stream-parity", check_sampler_stream_parity),
    ("branch-bound-parity", check_branch_bound_parity),
    ("seed-determinism", check_seed_determinism),
    ("start-method-determinism", check_parallel_start_methods),
)


def run_invariants(
    seed: int = 0,
    include_parallel: bool = True,
    only: Optional[List[str]] = None,
) -> InvariantReport:
    """Run the metamorphic invariant suite.

    ``include_parallel=False`` skips the fork/spawn comparison (the one
    invariant that spins up worker processes — the quick CLI profile keeps
    it, CI smoke under constrained runners may not want it). ``only``
    restricts to a subset of invariant names.
    """
    started = time.monotonic()
    report = InvariantReport()
    for name, check in INVARIANTS:
        if only is not None and name not in only:
            continue
        if name == "start-method-determinism" and not include_parallel:
            continue
        checked, violations = check(seed)
        report.checked[name] = checked
        report.violations += violations
    report.elapsed_s = time.monotonic() - started
    return report
