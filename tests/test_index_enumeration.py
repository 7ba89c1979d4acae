"""Columnar enumeration and NumPy factor tables against test-local oracles.

* :meth:`MapSpace.iter_index_batches` — the one enumeration primitive
  behind exhaustive search, prefix enumeration and the branch-and-bound
  leaf flush — must emit exactly the rows of an ``itertools.product``
  over the chain menus filtered by ``_fanout_ok``: same columns, same
  order, same tags, for every batch size.
* :meth:`PartialBoundEngine._factor_tables` — one NumPy fold over
  (menu chain x cutoff) — must equal the scalar per-chain projection
  factor replay for every (dim, chain, cut, parent, inner, cutoff).
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.arch import eyeriss_like, toy_glb_architecture
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import make_mapspace
from repro.model import Evaluator
from repro.model.batch import BatchEvaluator
from repro.problem import ConvLayer, GemmLayer
from repro.search.branch_bound import partial_bound_engine


def _space(case):
    if case.startswith("toy"):
        arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
        workload = GemmLayer("g6x4x3", m=6, n=4, k=3).workload()
    else:
        arch = eyeriss_like()
        workload = GemmLayer("g8x4x4", m=8, n=4, k=4).workload()
    kind = case.split("/")[1]
    return make_mapspace(arch, workload, kind)


CASES = ["toy/pfm", "toy/ruby-s", "eyeriss/pfm", "eyeriss/ruby-s"]


def _oracle(space, prefixes, tags):
    """``(bounds, rems, tags)`` rows of each prefix's completions: the
    joint-fanout-filtered cartesian product, one chain combo at a time."""
    spatial = [o for o, slot in enumerate(space.slots) if slot.spatial]
    bounds, rems, row_tags = [], [], []
    for prefix, tag in zip(prefixes, tags):
        per_dim = [
            [prefix[dim]] if dim in prefix else list(menu)
            for dim, menu in space.dim_chain_menus()
        ]
        for combo in itertools.product(*per_dim):
            if not space._fanout_ok(combo, spatial):
                continue
            bounds.append(np.array([c.bounds for c in combo]).T)
            rems.append(np.array([c.remainders for c in combo]).T)
            row_tags.append(tag)
    return np.array(bounds), np.array(rems), np.array(row_tags)


def _stacked(batches, size):
    batches = list(batches)
    assert all(b.size == size for b in batches[:-1])
    assert 0 < batches[-1].size <= size
    for batch in batches:
        assert np.array_equal(batch.pos[0], batch.layout.grid_pos)
        assert not batch.fallback.any()
    return (
        np.concatenate([b.bounds for b in batches]),
        np.concatenate([b.rems for b in batches]),
        (
            np.concatenate([b.tags for b in batches])
            if batches[0].tags is not None
            else None
        ),
    )


def _prefixes(space):
    """Single-dim prefixes over one menu, then a few two-dim ones."""
    (d0, menu0), (d1, menu1) = space.dim_chain_menus()[:2]
    prefixes = [{d0: chain} for chain in menu0[:5]]
    prefixes += [{d0: menu0[-1], d1: chain} for chain in menu1[-3:]]
    prefixes.append({})
    return prefixes


class TestIndexEnumeration:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("batch_size", [1, 7, 512])
    def test_unprefixed_matches_product_oracle(self, case, batch_size):
        space = _space(case)
        bounds, rems, _ = _oracle(space, [{}], [0])
        got_bounds, got_rems, got_tags = _stacked(
            space.iter_batches(batch_size=batch_size), batch_size
        )
        assert got_tags is None
        assert np.array_equal(got_bounds, bounds)
        assert np.array_equal(got_rems, rems)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("batch_size", [1, 7, 512])
    def test_prefixed_matches_product_oracle(
        self, case, batch_size, monkeypatch
    ):
        space = _space(case)
        # Tiny chunks: rows straddle chunk and batch boundaries alike.
        monkeypatch.setattr(type(space), "INDEX_CHUNK_ROWS", 13)
        prefixes = _prefixes(space)
        tags = [100 + 3 * i for i in range(len(prefixes))]
        bounds, rems, row_tags = _oracle(space, prefixes, tags)
        got_bounds, got_rems, got_tags = _stacked(
            space.iter_prefix_batches(
                prefixes, batch_size=batch_size, tags=tags
            ),
            batch_size,
        )
        assert np.array_equal(got_bounds, bounds)
        assert np.array_equal(got_rems, rems)
        assert np.array_equal(got_tags, row_tags)

    @pytest.mark.parametrize("case", CASES)
    def test_index_rows_in_any_order(self, case):
        """Rows come out in the order given, fanout rejects dropped in
        place, tags riding along."""
        space = _space(case)
        menus = space.dim_chain_menus()
        rng = random.Random(5)
        rows = np.array(
            [
                [rng.randrange(len(menu)) for _, menu in menus]
                for _ in range(300)
            ],
            dtype=np.int64,
        )
        tags = np.arange(len(rows), dtype=np.int64) * 2
        chunks = [
            (rows[:40], tags[:40]),
            (rows[40:41], tags[40:41]),
            (rows[41:], tags[41:]),
        ]
        got_bounds, got_rems, got_tags = _stacked(
            space.iter_index_batches(chunks, batch_size=64), 64
        )
        spatial = [o for o, slot in enumerate(space.slots) if slot.spatial]
        kept = [
            i
            for i, row in enumerate(rows)
            if space._fanout_ok(
                [menus[d][1][k] for d, k in enumerate(row)], spatial
            )
        ]
        assert len(kept) < len(rows) or case.startswith("toy")
        assert np.array_equal(got_tags, tags[kept])
        for j, i in enumerate(kept):
            combo = [menus[d][1][k] for d, k in enumerate(rows[i])]
            assert np.array_equal(
                got_bounds[j], np.array([c.bounds for c in combo]).T
            )
            assert np.array_equal(
                got_rems[j], np.array([c.remainders for c in combo]).T
            )

    def test_prefix_rows_stream_in_bounded_chunks(self):
        space = _space("eyeriss/ruby-s")
        chunks = list(space.prefix_index_rows({}))
        total = space.enumeration_upper_bound()
        assert sum(len(c) for c in chunks) == total
        assert max(len(c) for c in chunks) <= space.INDEX_CHUNK_ROWS
        flat = np.concatenate(chunks)
        shape = [len(menu) for _, menu in space.dim_chain_menus()]
        expected = np.stack(
            np.unravel_index(np.arange(total), shape), axis=1
        )
        assert np.array_equal(flat, expected)


def _projection_factor(layout, dim, chain, cut, parent, inner, cutoff):
    """Scalar replay of one irrelevant dim's projection-count factor."""
    d = layout.dim_index[dim]
    f = 1
    l = 1
    for c in range(layout.num_columns - 1, -1, -1):
        if layout.col_level[c] >= cut:
            continue
        b = int(chain.bounds[c])
        r = int(chain.remainders[c])
        if layout.col_spatial[c]:
            if inner or layout.col_level[c] < parent:
                l = (r - 1) * f + l
                f = b * f
            elif r >= 2:
                l = f
        else:
            if int(layout.grid_pos[c, d]) < cutoff:
                l = (r - 1) * f + l
                f = b * f
            elif r >= 2:
                l = f
    return l


def _factor_space(case):
    if case == "eyeriss-conv-rs/pfm":
        # Genuine R/S coefficient ranks under row-stationary constraints.
        conv = ConvLayer("tiny", c=2, m=2, p=3, q=3, r=3, s=3).workload()
        return make_mapspace(
            eyeriss_like(), conv, "pfm", eyeriss_row_stationary()
        )
    return _space(case)


class TestFactorTables:
    @pytest.mark.parametrize(
        "case", ["toy/ruby-s", "eyeriss/ruby-s", "eyeriss-conv-rs/pfm"]
    )
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_tables_equal_scalar_replay(self, case, dtype, monkeypatch):
        space = _factor_space(case)
        evaluator = Evaluator(space.arch, space.workload)
        engine = BatchEvaluator(evaluator, layout=space.batch_layout())
        be = partial_bound_engine(space, engine)
        if dtype is object:
            # Tables of chains past the exact limit fold Python ints.
            monkeypatch.setattr("repro.model.batch._EXACT_LIMIT", 1.0)
        layout = be.layout
        parents = sorted(
            {parent for meta in layout.tensors for parent, _ in meta.boundaries}
        )
        cutoffs = range(-1, int(layout.grid_pos.max()) + 1)
        checked = 0
        for dim, menu in space.dim_chain_menus():
            for cut in be.cuts:
                for parent in parents:
                    for inner in (False, True):
                        table, table_min = be._factor_tables(
                            dim, cut, parent, inner
                        )
                        expected = np.array(
                            [
                                [
                                    _projection_factor(
                                        layout, dim, chain, cut, parent,
                                        inner, cutoff,
                                    )
                                    for cutoff in cutoffs
                                ]
                                for chain in menu
                            ],
                            dtype=np.int64,
                        )
                        assert table.dtype == dtype
                        assert np.array_equal(table, expected)
                        assert np.array_equal(table_min, expected.min(axis=0))
                        for cutoff in (-1, max(cutoffs)):
                            assert be._factor(
                                dim, len(menu) - 1, cut, parent, inner, cutoff
                            ) == expected[-1, cutoff + 1]
                            assert be._factor_min(
                                dim, cut, parent, inner, cutoff
                            ) == expected[:, cutoff + 1].min()
                        checked += expected.size
        assert checked > 0
