"""Columnar random sampling: mappings drawn straight into batch columns.

:meth:`MapSpace.sample_batch <repro.mapspace.generator.MapSpace.sample_batch>`
is the repository's one mapping sampler. For every row it makes exactly
the RNG calls the object path — ``assemble(sample_chains(rng), rng)`` plus
the bypass draws — makes, in the same order:

1. the perfect-seed ``random()`` (imperfect kinds only);
2. ``shuffle`` of the dimension order;
3. each dimension's chain draws (:meth:`DimAllocator.draw`);
4. per storage level, the ``shuffle`` of its nontrivial temporal loops,
   then the stable sort by the level's fixed permutation, if any;
5. the bypass draws (``explore_bypass`` only).

It writes the bounds, remainders and nest positions into int64
``[n, slots, dims]`` columns and builds no ``DimChain``, ``Loop`` or
``Mapping`` objects; a row that drew a bypass set is the exception — it is
flagged ``fallback`` and keeps its ``Mapping`` for the scalar evaluator,
with identity cells in the columns, exactly as
:func:`~repro.model.batch.pack_mappings` packs it. Columns and final RNG
state are bit-identical to packing the object path's mappings; the
``sampler-stream-parity`` invariant of ``repro verify`` checks it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mapping.nest import Mapping
from repro.model.batch import MappingBatch
from repro.obs import scope as _obs


class ColumnSampler:
    """The compiled sampler of one mapspace (slot, level and dim tables).

    Built once per :class:`~repro.mapspace.generator.MapSpace`; the chain
    drawer's divisor-option and remainder memos live on its allocators.
    """

    def __init__(self, mapspace) -> None:
        self.layout = mapspace.batch_layout()
        workload = mapspace.workload
        self.dims: Tuple[str, ...] = workload.dim_names
        self.sizes: Tuple[int, ...] = tuple(workload.size(d) for d in self.dims)
        self.num_slots = len(mapspace.slots)
        self.allocator = mapspace.allocator
        self.perfect_allocator = mapspace._perfect_allocator
        self.perfect_probability = mapspace.PERFECT_SEED_PROBABILITY
        self.budgets: List[int] = [
            slot.fanout_cap if slot.spatial else 0 for slot in mapspace.slots
        ]
        # Per level: its temporal slot, the fixed-permutation rank of each
        # dim (None without a fixed permutation) and its spatial slots.
        self.levels: List[Tuple[int, Optional[Tuple[int, ...]], Tuple[int, ...]]] = []
        for level_index, level in enumerate(mapspace.arch.levels):
            offsets = [
                offset
                for offset, slot in enumerate(mapspace.slots)
                if slot.level_index == level_index
            ]
            temporal = [o for o in offsets if not mapspace.slots[o].spatial]
            spatial = tuple(o for o in offsets if mapspace.slots[o].spatial)
            fixed = mapspace.constraints.permutation(level.name)
            rank = None
            if fixed:
                priority = {dim: i for i, dim in enumerate(fixed)}
                rank = tuple(priority.get(d, len(priority)) for d in self.dims)
            self.levels.append((temporal[0], rank, spatial))
        self.bypass_candidates: List[Tuple[str, str]] = (
            list(mapspace._bypass_candidates) if mapspace.explore_bypass else []
        )
        self.bypass_probability = mapspace.BYPASS_PROBABILITY

    def draw(self, rng: random.Random, n: int) -> MappingBatch:
        """Draw ``n`` rows into a :class:`~repro.model.batch.MappingBatch`."""
        _obs.inc("mapspace.samples", n)
        randbelow = rng._randbelow  # what shuffle() calls, draw for draw
        dims = self.dims
        sizes = self.sizes
        num_dims = len(dims)
        num_slots = self.num_slots
        dim_range = range(num_dims)
        shuffle_steps = list(reversed(range(1, num_dims)))
        all_bounds: List[List[Tuple[int, ...]]] = []
        all_rems: List[List[Tuple[int, ...]]] = []
        all_pos: List[List[List[int]]] = []
        bypass_rows: Dict[int, List[Tuple[str, str]]] = {}
        for row in range(n):
            allocator = self.allocator
            if (
                self.perfect_allocator is not None
                and rng.random() < self.perfect_probability
            ):
                allocator = self.perfect_allocator
            budgets = list(self.budgets)
            order = list(dim_range)
            for i in shuffle_steps:
                j = randbelow(i + 1)
                order[i], order[j] = order[j], order[i]
            row_bounds: List[Tuple[int, ...]] = [()] * num_dims
            row_rems: List[Tuple[int, ...]] = [()] * num_dims
            for d in order:
                row_bounds[d], row_rems[d] = allocator.draw(
                    dims[d], sizes[d], rng, budgets
                )
            row_pos = [[-1] * num_slots for _ in dim_range]
            position = 0
            for temporal, rank, spatial in self.levels:
                loops = [d for d in dim_range if row_bounds[d][temporal] > 1]
                for i in reversed(range(1, len(loops))):
                    j = randbelow(i + 1)
                    loops[i], loops[j] = loops[j], loops[i]
                if rank is not None:
                    loops.sort(key=rank.__getitem__)
                for d in loops:
                    row_pos[d][temporal] = position
                    position += 1
                for offset in spatial:
                    for d in dim_range:
                        if row_bounds[d][offset] > 1:
                            row_pos[d][offset] = position
                            position += 1
            all_bounds.append(row_bounds)
            all_rems.append(row_rems)
            all_pos.append(row_pos)
            if self.bypass_candidates:
                bypass = [
                    pair
                    for pair in self.bypass_candidates
                    if rng.random() < self.bypass_probability
                ]
                if bypass:
                    bypass_rows[row] = bypass
        if n:
            bounds = _columns(all_bounds)
            rems = _columns(all_rems)
            pos = _columns(all_pos)
        else:
            shape = (0, num_slots, num_dims)
            bounds = np.ones(shape, dtype=np.int64)
            rems = np.ones(shape, dtype=np.int64)
            pos = np.full(shape, -1, dtype=np.int64)
        fallback = np.zeros(n, dtype=bool)
        mappings: Dict[int, Mapping] = {}
        for row, bypass in bypass_rows.items():
            mappings[row] = self.layout.materialize(
                bounds[row], rems[row], pos[row]
            ).with_bypass(bypass)
            fallback[row] = True
            bounds[row] = 1
            rems[row] = 1
            pos[row] = -1
        return MappingBatch(
            layout=self.layout,
            bounds=bounds,
            rems=rems,
            pos=pos,
            fallback=fallback,
            mappings=mappings,
        )


def _columns(rows) -> np.ndarray:
    """``[n][dims][slots]`` nested lists -> contiguous int64 ``[n, slots, dims]``."""
    return np.ascontiguousarray(np.array(rows, dtype=np.int64).transpose(0, 2, 1))
