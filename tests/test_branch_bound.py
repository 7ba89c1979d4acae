"""Branch-and-bound mapper: prefix enumeration, bounds, and the search.

Three layers of guarantees, mirroring the construction:

* the prefix tree partitions the enumeration — per-prefix counts sum to
  the flat counts and the closed forms, and prefix batches reproduce the
  flat batch stream exactly;
* the partial-cost bounds are admissible — never above the true metric
  of any completion — and the vectorized paths (``child_bounds``,
  ``suffix_bounds``) agree with the scalar ``bound`` elementwise;
* the search itself returns the exhaustive optimum bit-for-bit, on
  every mapspace kind, deterministically per seed, with or without the
  batch engine.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.arch import eyeriss_like, simba_like, toy_glb_architecture
from repro.exceptions import SearchError
from repro.mapspace import MapspaceKind
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.counting import count_mapspace_size
from repro.mapspace.factory import make_mapspace
from repro.model import Evaluator
from repro.model.batch import BatchEvaluator
from repro.problem import ConvLayer, GemmLayer
from repro.search import BranchBoundSearch, branch_bound_search
from repro.search.branch_bound import partial_bound_engine
from repro.search.exhaustive import ExhaustiveSearch


def _toy():
    return toy_glb_architecture(num_pes=6, glb_bytes=1024)


def _bound_engine(space, evaluator):
    engine = BatchEvaluator(evaluator, layout=space.batch_layout())
    assert engine.supported, engine.unsupported_reason
    return partial_bound_engine(space, engine)


def _cell_metrics(space, evaluator, objective="edp"):
    """True metric per enumerated candidate, keyed by menu-index cell.

    The flat enumeration is the row-major product of the per-dim menus
    with jointly-infeasible combos skipped, so walking the index product
    in the same order aligns cells with batch rows one-to-one.
    """
    engine = BatchEvaluator(evaluator, layout=space.batch_layout())
    metrics = []
    for batch in space.iter_batches(batch_size=256):
        out = engine.evaluate_batch(batch, objective=objective, prune=False)
        for i in range(batch.size):
            metrics.append(
                float(out.metric[i]) if out.valid[i] else float("inf")
            )
    menus = space.dim_chain_menus()
    cells = []
    for combo_idx in itertools.product(
        *[range(len(menu)) for _, menu in menus]
    ):
        chains = {
            menus[d][0]: menus[d][1][k] for d, k in enumerate(combo_idx)
        }
        if space.prefix_feasible(chains):
            cells.append(combo_idx)
    assert len(cells) == len(metrics)
    return dict(zip(cells, metrics))


class TestPrefixEnumeration:
    @pytest.mark.parametrize("kind", list(MapspaceKind))
    def test_prefix_counts_partition_flat_count(self, vector100, kind):
        """Per-prefix counts sum to the flat count and the closed form."""
        arch = _toy()
        space = make_mapspace(arch, vector100, kind.value)
        flat = space.count_completions()
        assert flat == count_mapspace_size(
            arch, vector100, kind, count_valid=False
        ).raw
        for dim, menu in space.dim_chain_menus():
            by_prefix = sum(
                space.count_completions({dim: chain}) for chain in menu
            )
            assert by_prefix == flat

    def test_prefix_counts_partition_along_every_dim(self, small_gemm):
        """Multi-dim space: any dimension's menu partitions the count."""
        space = make_mapspace(_toy(), small_gemm, "pfm")
        flat = space.count_completions()
        assert flat > 0
        for dim, menu in space.dim_chain_menus():
            assert (
                sum(space.count_completions({dim: chain}) for chain in menu)
                == flat
            )
        # A two-dim prefix partitions one dim's sub-count the same way.
        (d0, menu0), (d1, menu1) = space.dim_chain_menus()[:2]
        for chain0 in menu0[:3]:
            assert space.count_completions({d0: chain0}) == sum(
                space.count_completions({d0: chain0, d1: chain1})
                for chain1 in menu1
            )

    def test_batch_counts_match_prefix_counts(self, small_gemm):
        space = make_mapspace(_toy(), small_gemm, "pfm")
        dim, menu = space.dim_chain_menus()[0]
        for chain in menu[:4]:
            batched = sum(
                batch.size
                for batch in space.iter_batches(
                    batch_size=64, prefix={dim: chain}
                )
            )
            assert batched == space.count_completions({dim: chain})

    def test_prefix_batches_reproduce_flat_stream(self, small_gemm):
        """Concatenating one dim's prefix batches equals the flat stream."""
        space = make_mapspace(_toy(), small_gemm, "pfm")
        dim, menu = space.dim_chain_menus()[0]

        def stacked(batches):
            batches = list(batches)
            bounds = np.concatenate([b.bounds for b in batches])
            rems = np.concatenate([b.rems for b in batches])
            return bounds, rems

        flat_bounds, flat_rems = stacked(space.iter_batches(batch_size=128))
        pref_bounds, pref_rems = stacked(
            space.iter_prefix_batches(
                [{dim: chain} for chain in menu], batch_size=128
            )
        )
        assert np.array_equal(flat_bounds, pref_bounds)
        assert np.array_equal(flat_rems, pref_rems)

    def test_infeasible_prefix_counts_zero(self, small_gemm):
        space = make_mapspace(_toy(), small_gemm, "pfm")
        menus = space.dim_chain_menus()
        full = {dim: menu[0] for dim, menu in menus}
        if space.prefix_feasible(full):
            assert space.count_completions(full) == 1
        else:
            assert space.count_completions(full) == 0


class TestBoundAdmissibility:
    CASES = [
        ("toy-gemm-pfm", "toy"),
        ("toy-v100-ruby-s", "toy"),
        ("eyeriss-conv-pfm", "eyeriss"),
    ]

    def _setup(self, case, vector100, small_gemm):
        if case == "toy-gemm-pfm":
            arch = _toy()
            return arch, small_gemm, make_mapspace(arch, small_gemm, "pfm")
        if case == "toy-v100-ruby-s":
            arch = _toy()
            return arch, vector100, make_mapspace(arch, vector100, "ruby-s")
        # Adversarial: a conv with genuine R/S coefficient ranks, under
        # the row-stationary constraint set (sliding-window reuse is the
        # hard case for the projection-multiplier bound).
        arch = eyeriss_like()
        workload = ConvLayer(
            "tiny", c=2, m=2, p=3, q=3, r=3, s=3
        ).workload()
        return arch, workload, make_mapspace(
            arch, workload, "pfm", eyeriss_row_stationary()
        )

    @pytest.mark.parametrize("case", [c for c, _ in CASES])
    def test_full_assignment_bound_below_true_metric(
        self, case, vector100, small_gemm
    ):
        """The tightest bound (all dims pinned) never exceeds the truth."""
        arch, workload, space = self._setup(case, vector100, small_gemm)
        evaluator = Evaluator(arch, workload)
        be = _bound_engine(space, evaluator)
        metrics = _cell_metrics(space, evaluator)
        for cell, metric in metrics.items():
            if metric == float("inf"):
                continue
            assigned = {
                dim: k
                for (dim, _), k in zip(space.dim_chain_menus(), cell)
            }
            assert be.bound(assigned) <= metric * (1 + 1e-9)

    @pytest.mark.parametrize("case", [c for c, _ in CASES])
    def test_partial_bounds_admissible_on_random_prefixes(
        self, case, vector100, small_gemm
    ):
        """bound(prefix) <= min true metric over the prefix's completions."""
        arch, workload, space = self._setup(case, vector100, small_gemm)
        evaluator = Evaluator(arch, workload)
        be = _bound_engine(space, evaluator)
        metrics = _cell_metrics(space, evaluator)
        menus = space.dim_chain_menus()
        dims = [dim for dim, _ in menus]
        rng = random.Random(7)
        for _ in range(40):
            chosen = rng.sample(dims, rng.randrange(len(dims) + 1))
            assigned = {
                dim: rng.randrange(len(dict(menus)[dim]))
                for dim in chosen
            }
            completions = [
                metric
                for cell, metric in metrics.items()
                if all(
                    cell[d] == assigned[dim]
                    for d, dim in enumerate(dims)
                    if dim in assigned
                )
            ]
            finite = [m for m in completions if m != float("inf")]
            if not finite:
                continue
            for objective in ("edp", "energy", "delay"):
                true_min = min(
                    m
                    for cell, m in metrics.items()
                    if all(
                        cell[d] == assigned[dim]
                        for d, dim in enumerate(dims)
                        if dim in assigned
                    )
                ) if objective == "edp" else None
                bound = be.bound(assigned, objective)
                if objective == "edp":
                    assert bound <= true_min * (1 + 1e-9)
                else:
                    assert bound >= 0

    @pytest.mark.parametrize("case", [c for c, _ in CASES])
    def test_vectorized_bounds_match_scalar(
        self, case, vector100, small_gemm
    ):
        """child_bounds and suffix_bounds equal the scalar bound per cell."""
        arch, workload, space = self._setup(case, vector100, small_gemm)
        be = _bound_engine(space, Evaluator(arch, workload))
        menus = dict(space.dim_chain_menus())
        dims = list(be.layout.dims)
        rng = random.Random(3)
        for _ in range(12):
            chosen = rng.sample(dims, rng.randrange(len(dims)))
            assigned = {d: rng.randrange(len(menus[d])) for d in chosen}
            free = [d for d in dims if d not in assigned]
            for objective in ("edp", "energy", "delay"):
                if free:
                    branch = rng.choice(free)
                    vec = be.child_bounds(assigned, branch, objective)
                    for idx in range(len(menus[branch])):
                        scalar = be.bound(
                            {**assigned, branch: idx}, objective
                        )
                        assert float(vec[idx]) == pytest.approx(
                            scalar, rel=1e-12
                        )

    @pytest.mark.parametrize("case", [c for c, _ in CASES])
    def test_multi_leaf_sweep_matches_scalar_bound(
        self, case, vector100, small_gemm
    ):
        """One ``suffix_bounds`` call over L leaves equals the scalar bound
        on every cell, and each leaf's slab equals a one-leaf call bit for
        bit; with no assigned dim the root is the one leaf."""
        arch, workload, space = self._setup(case, vector100, small_gemm)
        be = _bound_engine(space, Evaluator(arch, workload))
        menus = dict(space.dim_chain_menus())
        dims = list(be.layout.dims)
        rng = random.Random(5)

        def check_every_cell(leaves, assigned_dims, objective):
            assigned = {
                dim: np.array([leaf[i] for leaf in leaves])
                for i, dim in enumerate(assigned_dims)
            }
            grid = be.suffix_bounds(assigned, objective)
            free = [d for d in dims if d not in assigned]
            assert grid.shape == (len(leaves), *(len(menus[d]) for d in free))
            for cell in itertools.product(*(range(n) for n in grid.shape)):
                full = dict(zip(assigned_dims, leaves[cell[0]]))
                full.update(zip(free, cell[1:]))
                assert float(grid[cell]) == pytest.approx(
                    be.bound(full, objective), rel=1e-12
                )
            for i, leaf in enumerate(leaves):
                one = be.suffix_bounds(
                    {dim: [k] for dim, k in zip(assigned_dims, leaf)}, objective
                )
                assert np.array_equal(grid[i], one[0])

        for objective in ("edp", "energy", "delay"):
            check_every_cell([()], [], objective)
            for _ in range(4):
                # Pin dims until each leaf has at most 256 completions.
                order = rng.sample(dims, len(dims))
                assigned_dims = []
                while len(assigned_dims) < len(dims) and np.prod(
                    [len(menus[d]) for d in order[len(assigned_dims):]]
                ) > 256:
                    assigned_dims.append(order[len(assigned_dims)])
                if not assigned_dims:
                    assigned_dims = order[:1]
                leaves = [
                    tuple(rng.randrange(len(menus[d])) for d in assigned_dims)
                    for _ in range(3)
                ]
                check_every_cell(leaves, assigned_dims, objective)

    def test_bound_monotone_under_assignment(self, small_gemm):
        """Assigning a dim never loosens the bound (tree monotonicity)."""
        arch = _toy()
        space = make_mapspace(arch, small_gemm, "pfm")
        be = _bound_engine(space, Evaluator(arch, small_gemm))
        menus = dict(space.dim_chain_menus())
        dims = list(be.layout.dims)
        rng = random.Random(11)
        for _ in range(30):
            chosen = rng.sample(dims, rng.randrange(len(dims)))
            assigned = {d: rng.randrange(len(menus[d])) for d in chosen}
            parent = be.bound(assigned)
            free = [d for d in dims if d not in assigned]
            if not free:
                continue
            branch = rng.choice(free)
            child = min(
                be.bound({**assigned, branch: idx})
                for idx in range(len(menus[branch]))
            )
            assert child >= parent * (1 - 1e-12)


def _validity_oracle(space, engine):
    """``BatchEvaluator._validity`` of every cell of the menu product (C
    order, fanout-violating cells included), gathered straight from the
    menus and reshaped to the product grid."""
    menus = space.dim_chain_menus()
    shape = tuple(len(menu) for _, menu in menus)
    cells = np.indices(shape).reshape(len(shape), -1).T
    bounds = np.stack(
        [
            np.array([c.bounds for c in menu])[cells[:, d]]
            for d, (_, menu) in enumerate(menus)
        ],
        axis=2,
    )
    rems = np.stack(
        [
            np.array([c.remainders for c in menu])[cells[:, d]]
            for d, (_, menu) in enumerate(menus)
        ],
        axis=2,
    )
    return engine._validity(bounds, rems).reshape(shape)


class TestFeasibility:
    """The bound engine's one feasibility rule against the batch kernels'
    validity: exact on the leaf sweep, admissible on a node's children."""

    def _setup(self, case, small_gemm, vector100):
        eyeriss_conv = ConvLayer("tiny", c=2, m=2, p=3, q=3, r=3, s=3).workload()
        arch, workload, kind, constraints = {
            # Row-stationary Eyeriss: per-tensor PE buffers and the GLB.
            "eyeriss-rs-pfm": (
                eyeriss_like(), eyeriss_conv, "pfm", eyeriss_row_stationary()
            ),
            "eyeriss-rs-ruby-s": (
                eyeriss_like(), eyeriss_conv, "ruby-s",
                eyeriss_row_stationary(),
            ),
            # Simba: partitioned PE buffers (the output tile overflows).
            "simba-pfm": (
                simba_like(),
                ConvLayer("wide", c=1, m=2, p=56, q=56, r=1, s=1).workload(),
                "pfm", None,
            ),
            # Toy: shared GLB and register capacity; the vector's X and Y
            # tiles fill the 4-word register exactly at extent 2.
            "toy-pfm": (_toy(), small_gemm, "pfm", None),
            "toy-v100-ruby-s": (_toy(), vector100, "ruby-s", None),
        }[case]
        space = make_mapspace(arch, workload, kind, constraints)
        engine = BatchEvaluator(Evaluator(arch, workload), layout=space.batch_layout())
        return space, engine, partial_bound_engine(space, engine)

    CASES = [
        "eyeriss-rs-pfm", "eyeriss-rs-ruby-s", "simba-pfm", "toy-pfm",
        "toy-v100-ruby-s",
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_sweep_mask_equals_validity(self, case, small_gemm, vector100):
        space, engine, be = self._setup(case, small_gemm, vector100)
        oracle = _validity_oracle(space, engine)
        # Capacity really binds: some fanout-feasible cells overflow.
        assert oracle.any()
        assert oracle.sum() < space.count_completions()
        root = be.suffix_feasible({})
        assert root.shape == (1, *oracle.shape)
        assert np.array_equal(root[0], oracle)
        # One leaf per chain of the first dim: the same cells, L > 1.
        first = be.layout.dims[0]
        leaves = be.suffix_feasible({first: np.arange(oracle.shape[0])})
        assert np.array_equal(leaves, oracle)

    @pytest.mark.parametrize("case", CASES)
    def test_child_cut_is_admissible(self, case, small_gemm, vector100):
        """No rejected child has a completion ``_validity`` accepts."""
        space, engine, be = self._setup(case, small_gemm, vector100)
        oracle = _validity_oracle(space, engine)
        dims = list(be.layout.dims)
        rng = random.Random(13)
        rejected = 0
        for trial in range(30):
            chosen = [] if trial == 0 else rng.sample(dims, rng.randrange(len(dims)))
            assigned = {d: rng.randrange(oracle.shape[dims.index(d)]) for d in chosen}
            for branch in (d for d in dims if d not in assigned):
                mask = be.child_feasible(assigned, branch)
                assert mask.shape == (oracle.shape[dims.index(branch)],)
                for k in np.flatnonzero(~mask):
                    rejected += 1
                    pinned = {**assigned, branch: int(k)}
                    sub = oracle[
                        tuple(pinned.get(d, slice(None)) for d in dims)
                    ]
                    assert not sub.any(), (assigned, branch, int(k))
        assert rejected > 0

    def test_footprints_past_the_exact_limit_never_cut(
        self, monkeypatch, small_gemm, vector100
    ):
        """A footprint that could pass 2**53 is kept, not cut on a
        possibly wrapped int64 product: with the limit lowered below
        every footprint only the fanout caps reject cells."""
        from repro.model import batch as batch_module

        space, engine, _ = self._setup("eyeriss-rs-pfm", small_gemm, vector100)
        monkeypatch.setattr(batch_module, "_EXACT_LIMIT", 2.0)
        mask = partial_bound_engine(space, engine).suffix_feasible({})[0]
        assert mask.sum() == space.count_completions()
        assert (mask | ~_validity_oracle(space, engine)).all()

    @pytest.mark.parametrize("case", CASES)
    def test_walk_prices_only_feasible_rows(self, case, small_gemm, vector100):
        """Without a warm start every priced row is valid, and the answer
        is still the exhaustive optimum (narrow leaves, so children are
        cut at expansion too)."""
        space, engine, _ = self._setup(case, small_gemm, vector100)
        evaluator = engine.evaluator
        exact = ExhaustiveSearch(space, evaluator).run()
        result = BranchBoundSearch(
            space, evaluator, seed=0, warm_samples=0, leaf_width=16
        ).run()
        assert result.stats["bnb"]["infeasible_subtrees"] > 0
        assert result.num_valid == result.num_evaluated
        assert result.best_metric == exact.best_metric


class TestBranchBoundSearch:
    @pytest.mark.parametrize("kind", ["pfm", "ruby-s"])
    def test_matches_exhaustive_on_toy(
        self, toy_arch, vector100, toy_evaluator, kind
    ):
        space = make_mapspace(toy_arch, vector100, kind)
        exact = ExhaustiveSearch(space, toy_evaluator).run()
        pruned = BranchBoundSearch(
            make_mapspace(toy_arch, vector100, kind),
            Evaluator(toy_arch, vector100),
            seed=0,
        ).run()
        assert pruned.best_metric == exact.best_metric

    def test_matches_exhaustive_on_eyeriss_gemm(self):
        arch = eyeriss_like()
        workload = GemmLayer("g8x4x4", m=8, n=4, k=4).workload()
        exact = ExhaustiveSearch(
            make_mapspace(arch, workload, "pfm"), Evaluator(arch, workload)
        ).run()
        pruned = branch_bound_search(
            make_mapspace(arch, workload, "pfm"),
            Evaluator(arch, workload),
            seed=5,
        )
        assert pruned.best_metric == exact.best_metric

    def test_seed_deterministic(self, toy_arch, vector100):
        def run():
            return BranchBoundSearch(
                make_mapspace(toy_arch, vector100, "pfm"),
                Evaluator(toy_arch, vector100),
                seed=42,
            ).run()

        a, b = run(), run()
        assert a.best_metric == b.best_metric
        assert a.num_evaluated == b.num_evaluated
        assert a.best.mapping.signature() == b.best.mapping.signature()
        assert a.stats["bnb"] == b.stats["bnb"]

    def test_leaf_width_does_not_change_optimum(self, toy_arch, small_gemm):
        metrics = set()
        for leaf_width in (1, 8, 512, 100_000):
            result = BranchBoundSearch(
                make_mapspace(toy_arch, small_gemm, "pfm"),
                Evaluator(toy_arch, small_gemm),
                seed=2,
                leaf_width=leaf_width,
            ).run()
            metrics.add(result.best_metric)
        assert len(metrics) == 1

    def test_scalar_fallback_same_optimum_and_schema(
        self, toy_arch, vector100, scalar_route
    ):
        batched = BranchBoundSearch(
            make_mapspace(toy_arch, vector100, "pfm"),
            Evaluator(toy_arch, vector100),
            seed=0,
        ).run()
        with scalar_route():
            fallback = BranchBoundSearch(
                make_mapspace(toy_arch, vector100, "pfm"),
                Evaluator(toy_arch, vector100),
                seed=0,
            ).run()
        assert fallback.best_metric == batched.best_metric
        assert set(fallback.stats["bnb"]) == set(batched.stats["bnb"])
        assert fallback.stats["bnb"]["subtrees_pruned"] == 0
        # The exhaustive degrade prices every candidate on the scalar route.
        batch = fallback.stats["batch"]
        assert batch["fallback"] == batch["candidates"]
        assert batch["candidates"] == fallback.num_evaluated > 0

    def test_stats_schema(self, toy_arch, vector100):
        result = BranchBoundSearch(
            make_mapspace(toy_arch, vector100, "pfm"),
            Evaluator(toy_arch, vector100),
            seed=0,
        ).run()
        assert set(result.stats["batch"]) == {
            "batches", "candidates", "pruned", "prune_rate", "fallback",
        }
        assert set(result.stats["bnb"]) == {
            "nodes_expanded", "leaves_deferred", "subtrees_pruned",
            "infeasible_subtrees", "root_bound", "bound_tightness",
            "warm_start_metric",
        }
        assert result.stats["bnb"]["root_bound"] is not None
        # Leaf-buffered nodes are deferrals, not expansions: both stats
        # count real events (a deferred leaf used to short-circuit the
        # expansion counter via `continue`, leaving nodes_expanded == 1
        # next to hundreds of thousands of pruned subtrees).
        assert result.stats["bnb"]["leaves_deferred"] > 0

    def test_warm_start_disabled_still_exact(self, toy_arch, vector100):
        exact = ExhaustiveSearch(
            make_mapspace(toy_arch, vector100, "pfm"),
            Evaluator(toy_arch, vector100),
        ).run()
        cold = BranchBoundSearch(
            make_mapspace(toy_arch, vector100, "pfm"),
            Evaluator(toy_arch, vector100),
            seed=0,
            warm_samples=0,
        ).run()
        assert cold.best_metric == exact.best_metric
        assert cold.stats["bnb"]["warm_start_metric"] is None

    def test_constructor_validation(self, toy_arch, vector100):
        space = make_mapspace(toy_arch, vector100, "pfm")
        evaluator = Evaluator(toy_arch, vector100)
        with pytest.raises(SearchError):
            BranchBoundSearch(space, evaluator, warm_samples=-1)
        with pytest.raises(SearchError):
            BranchBoundSearch(space, evaluator, leaf_width=0)
        with pytest.raises(SearchError):
            BranchBoundSearch(space, evaluator, batch_size=0)

    def test_limit_enforced(self, toy_arch, vector100):
        with pytest.raises(SearchError):
            BranchBoundSearch(
                make_mapspace(toy_arch, vector100, "pfm"),
                Evaluator(toy_arch, vector100),
                seed=0,
                warm_samples=0,
                limit=3,
            ).run()


class TestPinnedCounts:
    """``conv5_expand`` PFM on row-stationary Eyeriss at seed 0, the
    ``make bench-bnb`` case: the walk's counters are pinned exactly, so a
    faster leaf path that changes which rows are priced or pruned (or the
    answer) fails here before it reaches a benchmark."""

    BEST_EDP = 523603827315777.7

    def _run(self, workers):
        from repro.mapspace.factory import pfm_mapspace
        from repro.zoo.resnet50 import RESNET50_LAYERS

        arch = eyeriss_like()
        by_name = {layer.name: layer for layer, _ in RESNET50_LAYERS}
        workload = by_name["conv5_expand"].workload()
        return BranchBoundSearch(
            pfm_mapspace(arch, workload, constraints=eyeriss_row_stationary()),
            Evaluator(arch, workload),
            seed=0,
            workers=workers,
        ).run()

    def test_serial_counts(self):
        result = self._run(workers=1)
        bnb = result.stats["bnb"]
        assert result.best_metric == self.BEST_EDP
        assert result.num_evaluated == 382
        assert bnb["subtrees_pruned"] == 112_262
        # 74 of the root's 244 children fail capacity at expansion; the
        # leaf sweeps reject the rest (cells) by fanout or capacity.
        assert bnb["infeasible_subtrees"] == 333_574
        assert bnb["nodes_expanded"] == 1
        assert bnb["leaves_deferred"] == 170
        # Warm start, then leaf-flush improvements at their row positions.
        assert [(p.evaluations, p.best_metric) for p in result.curve] == [
            (13, 2111902231036108.5),
            (14, 1042820046016925.1),
            (67, 878161593762227.9),
            (69, 710254374192123.9),
            (71, 626300764407071.9),
            (73, 584323959514545.9),
            (129, 565580632208303.8),
            (131, self.BEST_EDP),
        ]

    def test_two_workers_same_optimum(self):
        """With two workers, priced and pruned counts depend on when each
        worker sees the other's incumbent; the optimum and the partition
        (244 top-level units, each deferred as a leaf) do not."""
        result = self._run(workers=2)
        bnb = result.stats["bnb"]
        assert result.best_metric == self.BEST_EDP
        assert bnb["infeasible_subtrees"] > 0
        assert bnb["nodes_expanded"] == 0
        assert bnb["leaves_deferred"] == 244
        assert result.stats["pool"]["num_units"] == 244
