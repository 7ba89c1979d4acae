"""Vectorized batch evaluation: the columnar (structure-of-arrays) cost model.

The scalar :class:`~repro.model.evaluator.Evaluator` prices one mapping at a
time through pure-Python recursions; search loops are bounded by interpreter
overhead, not by the math. This module packs N candidate mappings into three
integer tensors and replays the exact same recursions as NumPy kernels over
whole batches:

* ``bounds[n, c, d]`` / ``rems[n, c, d]`` — the Eq. (5) bound and remainder
  of candidate ``n`` at *column* ``c`` for problem dimension ``d``. Columns
  are the fixed loop-block skeleton of the architecture (one temporal block
  per storage level plus one spatial block per mesh axis with fanout), the
  same skeleton :func:`~repro.mapspace.slots.build_slots` derives. An absent
  loop is the identity cell ``(bound=1, remainder=1)``, which every cost
  recursion passes through unchanged — so kernels run over the full fixed
  grid with no per-candidate filtering.
* ``pos[n, c, d]`` — the loop's position in the global nest (``-1`` when
  absent). Only *order* matters: the one order-sensitive quantity in the
  cost model is the innermost-relevant-temporal cutoff, and every predicate
  against it compares positions of loops that are both present, so any
  order-isomorphic numbering works (enumeration uses a virtual grid
  numbering; packed ``Mapping`` objects use their real positions).

Exactness: integers stay integers (int64, with a float-side overflow guard
that routes rows whose intermediates could exceed 2**53 back to the scalar
evaluator), and floats are composed in the same order as the scalar model
(per-level energy accumulation in architecture order, compute energy last),
so energy_pj, cycles, EDP — and utilization — match the scalar evaluator
bit for bit. The parity suite in ``tests/test_batch_eval.py`` asserts this
across presets, workload kinds, and imperfect mappings.

Lower-bound pruning: traffic through every boundary is at least one full
sweep of delivered tiles, and the per-rank delivery sum is multilinear in
the per-dimension tile counts, so its minimum over the feasible box
``t_j in [1, size_j]`` is attained at a box vertex. Minimizing over the
(at most four) vertices per rank yields a compulsory-traffic energy bound
that is a true constant per (architecture, workload); multiplied by the
(cheaply vectorized) exact cycle count it lower-bounds EDP, letting the
engine discard candidates that cannot beat the incumbent *before* the
expensive traffic stage. A relative margin keeps float rounding from ever
pruning a true improvement (see :data:`PRUNE_MARGIN`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arch.spec import Architecture
from repro.mapping.loop import Loop
from repro.mapping.nest import LevelNest, Mapping
from repro.model.evaluator import Evaluation, Evaluator
from repro.obs import scope as _obs
from repro.problem.workload import Workload

import numpy as np

#: Default number of candidates packed per batch. Large enough to amortize
#: kernel launch overhead, small enough that a pruned batch wastes little.
DEFAULT_BATCH_SIZE = 512

#: Relative safety margin on the lower-bound prune test. A candidate is
#: pruned only when ``lower_bound * (1 - PRUNE_MARGIN) >= incumbent``; the
#: bound is computed with a handful of float roundings (relative error
#: ~1e-15), so the margin guarantees a pruned candidate's true metric is
#: strictly worse than the incumbent — no improvement is ever discarded,
#: and exact ties are left to the (tie-rejecting) search loops.
PRUNE_MARGIN = 1e-9

#: Intermediate integer quantities are kept below 2**53 so that int64
#: arithmetic cannot wrap and int->float conversions stay exact. Rows that
#: could exceed it fall back to the scalar evaluator (exact bigints).
_EXACT_LIMIT = float(2**53)


@dataclass(frozen=True)
class Column:
    """One loop block of the fixed columnar grid.

    Mirrors :class:`~repro.mapspace.slots.Slot` structure (which depends
    only on the architecture — constraints change caps and allowed dims,
    never which blocks exist), plus the hardware fanout limit used by the
    vectorized validity check.
    """

    level_index: int
    level_name: str
    spatial: bool
    axis: int = 0
    fanout_limit: int = 0  # hardware per-axis limit (spatial columns only)


def derive_columns(arch: Architecture) -> List[Column]:
    """Build the columnar grid skeleton for ``arch`` (outer to inner)."""
    columns: List[Column] = []
    for index, level in enumerate(arch.levels):
        columns.append(Column(index, level.name, spatial=False))
        if level.fanout > 1:
            axis_fanouts = [(0, level.fanout_x), (1, level.fanout_y)]
            if level.fanout_x is None:
                axis_fanouts = [(0, level.fanout)]
            for axis, axis_fanout in axis_fanouts:
                if axis_fanout is None or axis_fanout < 2:
                    continue
                columns.append(
                    Column(
                        index,
                        level.name,
                        spatial=True,
                        axis=axis,
                        fanout_limit=axis_fanout,
                    )
                )
    return columns


@dataclass(frozen=True)
class _TensorMeta:
    """Precomputed per-tensor projection structure (dim names -> indices)."""

    name: str
    is_output: bool
    bits_per_element: int
    ranks: Tuple[Tuple[Tuple[int, int], ...], ...]  # ((dim_idx, coef), ...)
    relevant_idx: Tuple[int, ...]  # workload dim order
    irrelevant_idx: Tuple[int, ...]  # workload dim order
    keepers: Tuple[int, ...]
    boundaries: Tuple[Tuple[int, Optional[int]], ...]  # (parent, child)
    partition_words: Tuple[Optional[int], ...]  # per storage level


class BatchLayout:
    """The fixed columnar structure of one (architecture, workload) pair.

    Holds everything that depends only on the specs — the column grid, the
    virtual position numbering used by enumeration, per-tensor projection
    metadata, and the per-level capacity/fanout limits. Energy coefficients
    live in :class:`BatchEvaluator` (they come from the evaluator's table).

    Args:
        arch: target architecture.
        workload: the tensor operation.
        permutation_priority: optional ``{level_name: fixed_dim_order}``
            matching the mapspace's constraint permutations, so the virtual
            grid numbering is order-isomorphic to the real nest positions
            that :meth:`~repro.mapspace.generator.MapSpace.assemble`
            produces with ``rng=None``. Irrelevant for packed ``Mapping``
            objects, which carry their real positions.
    """

    def __init__(
        self,
        arch: Architecture,
        workload: Workload,
        permutation_priority: Optional[Dict[str, Optional[Tuple[str, ...]]]] = None,
    ) -> None:
        self.arch = arch
        self.workload = workload
        self.columns = derive_columns(arch)
        self.num_columns = len(self.columns)
        self.level_names: Tuple[str, ...] = tuple(l.name for l in arch.levels)
        self.num_levels = len(arch.levels)
        self.dims: Tuple[str, ...] = workload.dim_names
        self.dim_index: Dict[str, int] = {d: i for i, d in enumerate(self.dims)}
        self.num_dims = len(self.dims)
        self.sizes = np.array(
            [workload.size(d) for d in self.dims], dtype=np.int64
        )
        self.col_level: Tuple[int, ...] = tuple(
            c.level_index for c in self.columns
        )
        self.col_spatial: Tuple[bool, ...] = tuple(c.spatial for c in self.columns)
        self.col_axis: Tuple[int, ...] = tuple(c.axis for c in self.columns)
        self._col_lookup: Dict[Tuple[int, bool, int], int] = {}
        for offset, column in enumerate(self.columns):
            key = (column.level_index, column.spatial, column.axis)
            self._col_lookup[key] = offset
        self._build_grid(permutation_priority or {})
        self._build_tensor_meta()
        self._build_limits()

    # -- construction ---------------------------------------------------

    def _build_grid(self, priorities: Dict[str, Optional[Tuple[str, ...]]]) -> None:
        """Number the grid cells in virtual nest order (see module doc)."""
        order: List[Tuple[int, int]] = []
        self.grid_cells_by_level: List[List[Tuple[int, int]]] = []
        for level_index, level_name in enumerate(self.level_names):
            cells: List[Tuple[int, int]] = []
            fixed = priorities.get(level_name)
            if fixed:
                priority = {dim: i for i, dim in enumerate(fixed)}
                dim_order = sorted(
                    range(self.num_dims),
                    key=lambda d: (
                        priority.get(self.dims[d], len(priority)),
                        d,
                    ),
                )
            else:
                dim_order = list(range(self.num_dims))
            for offset, column in enumerate(self.columns):
                if column.level_index != level_index or column.spatial:
                    continue
                cells.extend((offset, d) for d in dim_order)
            for offset, column in enumerate(self.columns):
                if column.level_index != level_index or not column.spatial:
                    continue
                cells.extend((offset, d) for d in range(self.num_dims))
            self.grid_cells_by_level.append(cells)
            order.extend(cells)
        self.grid_pos = np.full(
            (self.num_columns, self.num_dims), -1, dtype=np.int64
        )
        for position, (offset, d) in enumerate(order):
            self.grid_pos[offset, d] = position

    def _build_tensor_meta(self) -> None:
        self.tensors: List[_TensorMeta] = []
        self.paths_supported = True
        self.paths_reason = ""
        for tensor in self.workload.tensors:
            relevant = tensor.relevant_dims
            rel_idx = tuple(
                i for i, d in enumerate(self.dims) if d in relevant
            )
            irr_idx = tuple(
                i for i, d in enumerate(self.dims) if d not in relevant
            )
            ranks = tuple(
                tuple((self.dim_index[term.dim], term.coefficient) for term in rank)
                for rank in tensor.ranks
            )
            keepers = tuple(
                i
                for i, level in enumerate(self.arch.levels)
                if level.keeps_tensor(tensor.name)
            )
            if not keepers or keepers[0] != 0:
                # The scalar model raises SpecError on these architectures;
                # keep its semantics by pricing every row scalar.
                self.paths_supported = False
                self.paths_reason = (
                    f"tensor {tensor.name} has no outermost keeper level"
                )
            boundaries: List[Tuple[int, Optional[int]]] = [
                (parent, child) for parent, child in zip(keepers, keepers[1:])
            ]
            if keepers:
                boundaries.append((keepers[-1], None))
            partition = tuple(
                level.tensor_capacity(tensor.name) for level in self.arch.levels
            )
            self.tensors.append(
                _TensorMeta(
                    name=tensor.name,
                    is_output=tensor.is_output,
                    bits_per_element=tensor.bits_per_element,
                    ranks=ranks,
                    relevant_idx=rel_idx,
                    irrelevant_idx=irr_idx,
                    keepers=keepers,
                    boundaries=tuple(boundaries),
                    partition_words=partition,
                )
            )

    def _build_limits(self) -> None:
        # Spatial-dataflow restrictions: per spatial column, the dims that
        # may NOT take a nontrivial bound there (None = unrestricted).
        self.spatial_disallowed: List[Optional[Any]] = []
        for column in self.columns:
            if not column.spatial:
                self.spatial_disallowed.append(None)
                continue
            allowed = self.arch.levels[column.level_index].spatial_dims
            if allowed is None:
                self.spatial_disallowed.append(None)
            else:
                mask = np.array(
                    [d not in allowed for d in self.dims], dtype=bool
                )
                self.spatial_disallowed.append(mask if mask.any() else None)
        # Capacity checks: per bounded level, which tensors are kept there.
        self.capacity_levels: List[Tuple[int, Any]] = []
        for level_index, level in enumerate(self.arch.levels):
            if level.total_capacity_words is None:
                continue
            kept = tuple(
                t
                for t, tensor in enumerate(self.workload.tensors)
                if level.keeps_tensor(tensor.name)
            )
            suffix_cols = tuple(
                c
                for c in range(self.num_columns)
                if self.col_level[c] >= level_index
            )
            self.capacity_levels.append(
                (
                    level_index,
                    {
                        "kept": kept,
                        "cols": suffix_cols,
                        "word_bits": level.word_bits,
                        "shared_capacity": (
                            level.capacity_words
                            if not level.is_partitioned
                            else None
                        ),
                    },
                )
            )

    # -- packing and materialization ------------------------------------

    def column_for(
        self, level_index: int, spatial: bool, axis: int
    ) -> Optional[int]:
        """Grid column holding a loop at ``(level, block, axis)``, if any."""
        return self._col_lookup.get((level_index, spatial, axis if spatial else 0))

    def _row_levels(self, bounds_row: Any, rems_row: Any, pos_row: Any):
        """Per level, the nontrivial ``(column, dim, bound, remainder)``
        cells of one row as (temporal, spatial) lists in nest order."""
        bounds = bounds_row.tolist()
        rems = rems_row.tolist()
        pos = pos_row.tolist()
        for level_index, level_name in enumerate(self.level_names):
            temporal = []
            spatial = []
            for offset, d in self.grid_cells_by_level[level_index]:
                bound = bounds[offset][d]
                remainder = rems[offset][d]
                if bound == 1 and remainder == 1:
                    continue
                cell = (pos[offset][d], offset, d, bound, remainder)
                (spatial if self.col_spatial[offset] else temporal).append(cell)
            temporal.sort()
            spatial.sort()
            yield level_name, temporal, spatial

    def materialize(self, bounds_row: Any, rems_row: Any, pos_row: Any) -> Mapping:
        """Rebuild the :class:`Mapping` one packed row encodes.

        Each level's temporal and spatial loops are emitted in the order of
        the row's ``pos``. Enumerated rows carry the virtual grid numbering,
        which reproduces what
        :meth:`~repro.mapspace.generator.MapSpace.assemble` builds with
        ``rng=None``; sampled and packed rows carry real nest positions.
        """
        nests: List[LevelNest] = []
        dims = self.dims
        axes = self.col_axis
        for level_name, temporal, spatial in self._row_levels(
            bounds_row, rems_row, pos_row
        ):
            nests.append(
                LevelNest(
                    level_name=level_name,
                    temporal=tuple(
                        Loop(dims[d], bound, remainder)
                        for _, _, d, bound, remainder in temporal
                    ),
                    spatial=tuple(
                        Loop(dims[d], bound, remainder, True, axes[c])
                        for _, c, d, bound, remainder in spatial
                    ),
                )
            )
        return Mapping(levels=tuple(nests))

    def row_signature(self, bounds_row: Any, rems_row: Any, pos_row: Any) -> Tuple:
        """:meth:`Mapping.signature` of the row, built without ``Loop``
        objects (a row without a bypass set; fallback rows keep theirs)."""
        dims = self.dims
        axes = self.col_axis
        key = []
        for level_name, temporal, spatial in self._row_levels(
            bounds_row, rems_row, pos_row
        ):
            spatial_key = tuple(
                (dims[d], bound, remainder, axes[c])
                for _, c, d, bound, remainder in spatial
            )
            if all(cell[3] == cell[4] for cell in spatial):
                spatial_key = tuple(sorted(spatial_key))
            key.append(
                (
                    level_name,
                    tuple(
                        (dims[d], bound, remainder)
                        for _, _, d, bound, remainder in temporal
                    ),
                    spatial_key,
                )
            )
        key.append(())
        return tuple(key)


@dataclass
class MappingBatch:
    """N candidate mappings in structure-of-arrays form.

    ``bounds``/``rems``/``pos`` are int64 arrays of shape
    ``[n, num_columns, num_dims]``; absent loops hold the identity cell
    ``(1, 1, -1)``. ``fallback`` flags rows the columnar grid cannot
    represent (bypass sets, misaligned levels, duplicate cells); those are
    priced by the scalar evaluator instead.

    Rows come from three sources: :meth:`MapSpace.iter_index_batches`
    (enumeration, virtual grid positions), :meth:`MapSpace.sample_batch`
    (random sampling, real positions) and :func:`pack_mappings` (existing
    ``Mapping`` objects). ``mappings`` keeps the original ``Mapping`` of
    some rows by row index: every row of a packed batch, the fallback rows
    of a sampled one; any other row is rebuilt from its columns on demand.
    """

    layout: BatchLayout
    bounds: Any
    rems: Any
    pos: Any
    fallback: Any
    mappings: Optional[Dict[int, Mapping]] = None
    #: Optional per-row provenance stamped by
    #: :meth:`MapSpace.iter_index_batches` (the caller's row tag);
    #: pricing kernels ignore it.
    tags: Any = None

    @property
    def size(self) -> int:
        return int(self.bounds.shape[0])

    def mapping_at(self, index: int) -> Mapping:
        """The ``Mapping`` object of row ``index`` (rebuilt if not stored)."""
        if self.mappings and index in self.mappings:
            return self.mappings[index]
        return self.layout.materialize(
            self.bounds[index], self.rems[index], self.pos[index]
        )

    def signature(self, index: int) -> Tuple:
        """``mapping_at(index).signature()``, without building the mapping
        unless it is stored."""
        if self.mappings and index in self.mappings:
            return self.mappings[index].signature()
        return self.layout.row_signature(
            self.bounds[index], self.rems[index], self.pos[index]
        )

    def take(self, rows: Sequence[int]) -> "MappingBatch":
        """A batch of the given rows, in the given order."""
        index = np.asarray(rows, dtype=np.intp)
        mappings = None
        if self.mappings:
            mappings = {
                new: self.mappings[old]
                for new, old in enumerate(rows)
                if old in self.mappings
            }
        return MappingBatch(
            layout=self.layout,
            bounds=self.bounds[index],
            rems=self.rems[index],
            pos=self.pos[index],
            fallback=self.fallback[index],
            mappings=mappings,
            tags=self.tags[index] if self.tags is not None else None,
        )

    def to_shared(self, allow_shm: bool = True):
        """Ship this batch's SoA arrays through one shared-memory segment.

        Returns ``(bundle, descriptor)``: the driver keeps ``bundle``
        alive until every worker is done (and then ``release()``-s it,
        exactly once); ``descriptor`` is a small picklable dict a worker
        hands to :meth:`from_shared`. Enumerated batches carry a
        row-constant broadcast of the layout's virtual position grid —
        that case is detected and shipped as a flag instead of ``n``
        materialized copies. Degrades to a pickle payload when shared
        memory is unavailable (see :class:`repro.model.shm.ShmArrayBundle`).
        """
        from repro.model.shm import ShmArrayBundle

        if self.mappings and bool(self.fallback.any()):
            raise ValueError(
                "cannot transport a batch whose fallback rows need their "
                "original Mapping objects; re-pack without fallback rows"
            )
        grid_pos = (
            self.pos.ndim == 3
            and self.pos.strides[0] == 0
            and bool(np.array_equal(self.pos[0], self.layout.grid_pos))
        )
        arrays = {
            "bounds": self.bounds,
            "rems": self.rems,
            "fallback": self.fallback,
        }
        if not grid_pos:
            arrays["pos"] = self.pos
        if self.tags is not None:
            arrays["tags"] = self.tags
        bundle = ShmArrayBundle.share(arrays, allow_shm=allow_shm)
        descriptor = {"bundle": bundle.handle, "grid_pos": grid_pos}
        return bundle, descriptor

    @classmethod
    def from_shared(cls, layout: BatchLayout, descriptor):
        """Attach a transported batch (worker side).

        Returns ``(batch, bundle)``; the caller must keep ``bundle``
        referenced while the batch is in use, and may ``close()`` it only
        after dropping every view (accessing a view whose mapping was
        closed is undefined behavior). Pool workers can simply leave the
        mapping open for the process lifetime — the driver's single
        ``unlink`` is what prevents ``/dev/shm`` leaks.
        """
        from repro.model.shm import ShmArrayBundle

        bundle = ShmArrayBundle.attach(descriptor["bundle"])
        bounds = bundle.arrays["bounds"]
        if descriptor["grid_pos"]:
            pos = np.broadcast_to(layout.grid_pos[None, :, :], bounds.shape)
        else:
            pos = bundle.arrays["pos"]
        batch = cls(
            layout=layout,
            bounds=bounds,
            rems=bundle.arrays["rems"],
            pos=pos,
            fallback=bundle.arrays["fallback"],
            tags=bundle.arrays.get("tags"),
        )
        return batch, bundle


def pack_mappings(layout: BatchLayout, mappings: Sequence[Mapping]) -> MappingBatch:
    """Pack ``Mapping`` objects into columnar form (real nest positions).

    Rows the grid cannot represent are flagged ``fallback`` rather than
    rejected, so callers get uniform batch semantics with scalar-exact
    results for the exotic cases.
    """
    n = len(mappings)
    shape = (n, layout.num_columns, layout.num_dims)
    bounds = np.ones(shape, dtype=np.int64)
    rems = np.ones(shape, dtype=np.int64)
    pos = np.full(shape, -1, dtype=np.int64)
    fallback = np.zeros(n, dtype=bool)
    for i, mapping in enumerate(mappings):
        if mapping.bypass:
            fallback[i] = True
            continue
        if tuple(nest.level_name for nest in mapping.levels) != layout.level_names:
            fallback[i] = True
            continue
        for placed in mapping.placed_loops():
            loop = placed.loop
            d = layout.dim_index.get(loop.dim)
            if d is None:
                # Unknown dim: the scalar validity check reports it even
                # for trivial loops, so the row must go scalar.
                fallback[i] = True
                break
            if loop.bound == 1:
                continue  # identity cell; nontrivial_loops drops it too
            c = layout.column_for(placed.level_index, loop.spatial, loop.axis)
            if c is None or pos[i, c, d] != -1:
                fallback[i] = True
                break
            bounds[i, c, d] = loop.bound
            rems[i, c, d] = loop.remainder
            pos[i, c, d] = placed.position
    return MappingBatch(
        layout=layout,
        bounds=bounds,
        rems=rems,
        pos=pos,
        fallback=fallback,
        mappings=dict(enumerate(mappings)),
    )


@dataclass(frozen=True)
class CandidateOutcome:
    """Per-candidate result of :meth:`BatchEvaluator.evaluate_mappings`.

    ``metric`` is ``inf`` for invalid or pruned candidates. ``evaluation``
    is populated only when a full scalar :class:`Evaluation` was produced
    anyway (cache hits and fallback rows); improvements should be
    re-priced through :meth:`Evaluator.evaluate_fresh` by the caller.
    ``energy_pj``/``cycles``/``utilization`` carry the bit-exact component
    metrics for valid, unpruned candidates (multi-objective searches need
    the raw coordinates, not just the collapsed objective) and are ``None``
    otherwise.
    """

    valid: bool
    pruned: bool
    metric: float
    evaluation: Optional[Evaluation] = None
    energy_pj: Optional[float] = None
    cycles: Optional[int] = None
    utilization: Optional[float] = None


@dataclass
class BatchOutcome:
    """Vectorized results for one :class:`MappingBatch`.

    Arrays are indexed by batch row. ``metric`` holds ``inf`` at invalid
    and pruned rows; ``energy_pj``/``cycles``/``utilization`` are only
    meaningful where ``valid & ~pruned``. ``evaluations`` maps fallback
    row indices to their full scalar evaluations.
    """

    valid: Any
    pruned: Any
    fallback: Any
    metric: Any
    energy_pj: Any
    cycles: Any
    utilization: Any
    evaluations: Dict[int, Evaluation] = field(default_factory=dict)


class BatchEvaluator:
    """Price whole batches of mappings with vectorized kernels.

    The one pricing path of every searcher. Wraps a scalar
    :class:`Evaluator` (whose energy table, cache, and fallback path it
    reuses) and guarantees bit-exact agreement with it on ``energy_pj``,
    ``cycles``, EDP, and ``utilization`` for every row it prices
    vectorized. Rows it cannot represent (bypass, overflow guard) go
    through the scalar evaluator unchanged, and so does *every* row when
    :attr:`supported` is false: cost-model configs the kernels do not
    cover (NoC/static energy, bandwidth stalls, workloads of 2**53 or
    more operations, tensors without an outermost keeper). Either way the
    ``stats_payload`` ``fallback`` counter records the scalar-priced rows.
    """

    def __init__(
        self, evaluator: Evaluator, layout: Optional[BatchLayout] = None
    ) -> None:
        self.evaluator = evaluator
        self.layout = layout or BatchLayout(evaluator.arch, evaluator.workload)
        self.supported, self.unsupported_reason = self._support_check(evaluator)
        if self.supported and not self.layout.paths_supported:
            self.supported = False
            self.unsupported_reason = self.layout.paths_reason
        self.batches_evaluated = 0
        self.candidates_evaluated = 0
        self.candidates_pruned = 0
        self.candidates_fallback = 0
        if self.supported:
            self._precompute()

    @staticmethod
    def _support_check(evaluator: Evaluator) -> Tuple[bool, str]:
        if evaluator.include_noc or evaluator.include_static:
            return False, "NoC/static energy components enabled"
        if any(
            level.bandwidth_words_per_cycle is not None
            for level in evaluator.arch.levels
        ):
            return False, "bandwidth stall model enabled"
        if evaluator.workload.total_operations >= _EXACT_LIMIT:
            return False, "workload exceeds exact-float operation count"
        return True, ""

    def _precompute(self) -> None:
        layout = self.layout
        table = self.evaluator.energy_table
        self.read_pj: List[float] = []
        self.write_pj: List[float] = []
        for level in layout.arch.levels:
            self.read_pj.append(table.read_pj(level.name))
            self.write_pj.append(table.write_pj(level.name))
        # Matches the scalar energy model: compute energy is one exact
        # int * float product added after the per-level accumulation.
        self.compute_energy = layout.workload.total_operations * table.mac_pj
        self.units_opc = (
            layout.arch.total_compute_units * layout.arch.compute.ops_per_cycle
        )
        self.ops_f = float(layout.workload.total_operations)
        sizes = {d: int(s) for d, s in zip(layout.dims, layout.sizes)}
        self._build_lower_bound(sizes)
        self._build_overflow_guard()

    def _build_lower_bound(self, sizes: Dict[str, int]) -> None:
        """Compulsory-energy constant: see the module docstring derivation."""
        layout = self.layout
        lower = 0.0
        for meta in layout.tensors:
            base_lb = 1
            for rank in meta.ranks:
                base_lb *= self._rank_vertex_min(rank, layout)
            for parent, child in meta.boundaries:
                if not meta.is_output:
                    lower += self.read_pj[parent] * base_lb
                    if child is not None:
                        lower += self.write_pj[child] * base_lb
                else:
                    lower += self.write_pj[parent] * base_lb
                    if child is not None:
                        lower += self.read_pj[child] * base_lb
        self.lb_energy = lower + self.compute_energy

    @staticmethod
    def _rank_vertex_min(
        rank: Tuple[Tuple[int, int], ...], layout: "BatchLayout"
    ) -> int:
        """Minimum delivery sum of one rank over the tile-count box.

        The sum is affine in each (independently relaxed) tile count, so
        the box minimum sits at a vertex ``t_j in {1, size_j}``.
        """
        sizes = [int(layout.sizes[d]) for d, _ in rank]
        best: Optional[int] = None
        for vertex in itertools.product(*[(1, s) for s in sizes]):
            all_tiles = 1
            for t in vertex:
                all_tiles *= t
            total = all_tiles
            for (d, coef), t, size in zip(rank, vertex, sizes):
                total += coef * (size - t) * (all_tiles // t)
            if best is None or total < best:
                best = total
        return best if best is not None else 1

    def _build_overflow_guard(self) -> None:
        """Per-tensor bound factors: traffic <= C_t * prod_d BD_d**e_td.

        ``BD_d`` is the product of all of dim ``d``'s bounds; relevant dims
        contribute once per rank they appear in (the delivery-sum bound),
        irrelevant dims once (the projection-count bound); ``C_t`` collects
        the ``1 + sum(coef)`` slack per rank. Rows where any factor — or
        the iteration-space product times the compute capacity — reaches
        2**53 fall back to the exact scalar path.
        """
        layout = self.layout
        self._guard_tensors: List[Tuple[float, Any]] = []
        for meta in layout.tensors:
            c_const = 1.0
            exponents = np.ones(layout.num_dims, dtype=np.float64)
            for d in meta.relevant_idx:
                exponents[d] = 0.0
            for rank in meta.ranks:
                c_const *= 1.0 + sum(coef for _, coef in rank)
                for d, _ in rank:
                    exponents[d] += 1.0
            self._guard_tensors.append((c_const, exponents))

    # -- public API ------------------------------------------------------

    def stats_payload(self) -> Dict[str, Any]:
        """Observability counters for ``SearchResult.stats['batch']``."""
        evaluated = self.candidates_evaluated
        return {
            "batches": self.batches_evaluated,
            "candidates": evaluated,
            "pruned": self.candidates_pruned,
            "prune_rate": (self.candidates_pruned / evaluated) if evaluated else 0.0,
            "fallback": self.candidates_fallback,
        }

    def evaluate_batch(
        self,
        batch: MappingBatch,
        objective: str = "edp",
        incumbent: float = float("inf"),
        prune: bool = False,
    ) -> BatchOutcome:
        """Price one packed batch; optionally prune against ``incumbent``.

        On an unsupported engine every row is materialized and priced by
        :meth:`Evaluator.evaluate` (one cache lookup, stored on a miss),
        exactly as a scalar sweep over the same candidates would.
        """
        n = batch.size
        pruned = np.zeros(n, dtype=bool)
        metric = np.full(n, float("inf"))
        energy = np.full(n, float("nan"))
        utilization = np.full(n, float("nan"))
        if self.supported:
            bounds, rems, pos = batch.bounds, batch.rems, batch.pos
            fallback = batch.fallback | self._overflow_rows(bounds)
            valid = self._validity(bounds, rems)
            cycles = self._cycles(bounds, rems)
            cycles_f = cycles.astype(np.float64)
            if prune and incumbent != float("inf"):
                if objective == "edp":
                    bound_metric = self.lb_energy * cycles_f
                elif objective == "energy":
                    bound_metric = np.full(n, self.lb_energy)
                else:
                    bound_metric = cycles_f
                pruned = (
                    valid
                    & ~fallback
                    & (bound_metric * (1.0 - PRUNE_MARGIN) >= incumbent)
                )
            live = np.flatnonzero(valid & ~fallback & ~pruned)
            if live.size:
                reads, writes = self._traffic(bounds, rems, pos, live)
                live_energy = self._energy(reads, writes)
                energy[live] = live_energy
                capacity = (cycles[live] * self.units_opc).astype(np.float64)
                utilization[live] = self.ops_f / capacity
                if objective == "edp":
                    metric[live] = live_energy * cycles_f[live]
                elif objective == "energy":
                    metric[live] = live_energy
                else:
                    metric[live] = cycles_f[live]
            # Callers already made any cache lookup for these rows.
            price = self.evaluator.evaluate_fresh
        else:
            fallback = np.ones(n, dtype=bool)
            valid = np.zeros(n, dtype=bool)
            cycles = np.zeros(n, dtype=np.int64)
            price = self.evaluator.evaluate
        evaluations: Dict[int, Evaluation] = {}
        for i in np.flatnonzero(fallback):
            i = int(i)
            evaluation = price(batch.mapping_at(i))
            evaluations[i] = evaluation
            valid[i] = evaluation.valid
            pruned[i] = False
            if evaluation.valid:
                metric[i] = evaluation.metric(objective)
                energy[i] = evaluation.energy_pj
                cycles[i] = evaluation.cycles
                utilization[i] = evaluation.utilization
            else:
                metric[i] = float("inf")
        self._record(n, int(pruned.sum()), int(fallback.sum()))
        return BatchOutcome(
            valid=valid,
            pruned=pruned,
            fallback=fallback,
            metric=metric,
            energy_pj=energy,
            cycles=cycles,
            utilization=utilization,
            evaluations=evaluations,
        )

    def evaluate_mappings(
        self,
        mappings: Sequence[Mapping],
        objective: str = "edp",
        incumbent: float = float("inf"),
        prune: bool = False,
    ) -> List[CandidateOutcome]:
        """Price a list of ``Mapping`` objects: :meth:`evaluate_rows` of
        their :func:`pack_mappings` batch."""
        return self.evaluate_rows(
            pack_mappings(self.layout, mappings),
            objective=objective,
            incumbent=incumbent,
            prune=prune,
        )

    def evaluate_rows(
        self,
        batch: MappingBatch,
        objective: str = "edp",
        incumbent: float = float("inf"),
        prune: bool = False,
    ) -> List[CandidateOutcome]:
        """Price every row of ``batch``, one outcome per row.

        With a cache attached to the wrapped evaluator, every row costs
        exactly one cache lookup, keyed by :meth:`MappingBatch.signature`;
        hits bypass the kernels entirely (their outcome carries the
        evaluation, re-pointed at the row's ``Mapping``). Misses are
        priced vectorized — only improvements and fallback rows are
        re-priced scalar (and stored), so a batched search fills the cache
        more sparsely than a scalar one. On an unsupported engine each row
        goes through :meth:`Evaluator.evaluate` instead, so every miss is
        stored.
        """
        if not self.supported:
            outcomes = [
                self._outcome(
                    self.evaluator.evaluate(batch.mapping_at(i)), objective
                )
                for i in range(batch.size)
            ]
            self._record(batch.size, 0, batch.size)
            return outcomes
        cache = self.evaluator.cache
        results: List[Optional[CandidateOutcome]] = [None] * batch.size
        rows: Sequence[int] = range(batch.size)
        if cache is not None:
            rows = []
            for i in range(batch.size):
                hit = cache.get(batch.signature(i))
                if hit is None:
                    rows.append(i)
                    continue
                mapping = batch.mapping_at(i)
                if hit.mapping is not mapping:
                    hit = replace(hit, mapping=mapping)
                results[i] = self._outcome(hit, objective)
            if rows and len(rows) < batch.size:
                batch = batch.take(rows)
        if not rows:
            return results  # type: ignore[return-value]
        outcome = self.evaluate_batch(
            batch, objective=objective, incumbent=incumbent, prune=prune
        )
        for row, i in enumerate(rows):
            valid = bool(outcome.valid[row])
            live = valid and not bool(outcome.pruned[row])
            results[i] = CandidateOutcome(
                valid=valid,
                pruned=bool(outcome.pruned[row]),
                metric=float(outcome.metric[row]),
                evaluation=outcome.evaluations.get(row),
                energy_pj=float(outcome.energy_pj[row]) if live else None,
                cycles=int(outcome.cycles[row]) if live else None,
                utilization=float(outcome.utilization[row]) if live else None,
            )
        return results  # type: ignore[return-value]

    @staticmethod
    def _outcome(evaluation: Evaluation, objective: str) -> CandidateOutcome:
        """A candidate outcome carrying a full scalar evaluation."""
        valid = evaluation.valid
        return CandidateOutcome(
            valid=valid,
            pruned=False,
            metric=evaluation.metric(objective) if valid else float("inf"),
            evaluation=evaluation,
            energy_pj=evaluation.energy_pj if valid else None,
            cycles=evaluation.cycles if valid else None,
            utilization=evaluation.utilization if valid else None,
        )

    def _record(self, candidates: int, pruned: int, fallback: int) -> None:
        self.batches_evaluated += 1
        self.candidates_evaluated += candidates
        self.candidates_pruned += pruned
        self.candidates_fallback += fallback
        _obs.inc("batch.batches")
        _obs.inc("batch.candidates", candidates)
        _obs.inc("batch.pruned", pruned)
        _obs.inc("batch.fallback", fallback)

    # -- vectorized kernels ----------------------------------------------

    def _overflow_rows(self, bounds: Any) -> Any:
        layout = self.layout
        bd = np.ones((bounds.shape[0], layout.num_dims), dtype=np.float64)
        bounds_f = bounds.astype(np.float64)
        for c in range(layout.num_columns):
            bd *= bounds_f[:, c, :]
        over = bd.prod(axis=1) * self.units_opc >= _EXACT_LIMIT
        for c_const, exponents in self._guard_tensors:
            over |= c_const * (bd**exponents).prod(axis=1) >= _EXACT_LIMIT
        return over

    def _validity(self, bounds: Any, rems: Any) -> Any:
        """Replay ``check_mapping`` as boolean masks (structure is packed)."""
        layout = self.layout
        n = bounds.shape[0]
        # Coverage: the full per-dim Eq. (5) chain must equal the dim size.
        cov = np.zeros((n, layout.num_dims), dtype=np.int64)
        for c in range(layout.num_columns):
            cov = cov * bounds[:, c, :] + rems[:, c, :] - 1
        valid = ((cov + 1) == layout.sizes[None, :]).all(axis=1)
        # Fanout and dataflow restrictions per spatial column.
        for c, column in enumerate(layout.columns):
            if not column.spatial:
                continue
            allocation = bounds[:, c, :].prod(axis=1)
            valid &= allocation <= column.fanout_limit
            disallowed = layout.spatial_disallowed[c]
            if disallowed is not None:
                valid &= ~(bounds[:, c, disallowed] > 1).any(axis=1)
        # Capacity: the largest tile held at each bounded level must fit.
        for level_index, info in layout.capacity_levels:
            ext = np.ones((n, layout.num_dims), dtype=np.int64)
            for c in info["cols"]:
                ext *= bounds[:, c, :]
            shared = np.zeros(n, dtype=np.int64)
            for t in info["kept"]:
                meta = layout.tensors[t]
                footprint = np.ones(n, dtype=np.int64)
                for rank in meta.ranks:
                    span = np.zeros(n, dtype=np.int64)
                    for d, coef in rank:
                        span += coef * (ext[:, d] - 1)
                    footprint *= span + 1
                words = np.maximum(
                    footprint * meta.bits_per_element // info["word_bits"], 1
                )
                partition = meta.partition_words[level_index]
                if partition is not None:
                    valid &= words <= partition
                else:
                    shared += words
            if info["shared_capacity"] is not None:
                valid &= shared <= info["shared_capacity"]
        return valid

    def _cycles(self, bounds: Any, rems: Any) -> Any:
        """Per-dim shadowed temporal-step recursion, product over dims."""
        layout = self.layout
        n = bounds.shape[0]
        steps = np.zeros((n, layout.num_dims), dtype=np.int64)
        shadowed = np.zeros((n, layout.num_dims), dtype=bool)
        for c in range(layout.num_columns):
            if layout.col_spatial[c]:
                shadowed |= rems[:, c, :] >= 2
            else:
                effective = np.where(shadowed, bounds[:, c, :], rems[:, c, :])
                steps = steps * bounds[:, c, :] + effective - 1
        return (steps + 1).prod(axis=1)

    def _traffic(
        self, bounds: Any, rems: Any, pos: Any, live: Any
    ) -> Tuple[Any, Any]:
        """Exact per-level reads/writes for the surviving rows.

        A direct vectorization of ``compute_access_counts``: identical
        recursions over the fixed grid, with boundary predicates reduced
        to level comparisons and the cutoff carried as a per-row position.
        """
        layout = self.layout
        b = bounds[live]
        r = rems[live]
        p = pos[live]
        m = live.size
        reads = np.zeros((m, layout.num_levels), dtype=np.int64)
        writes = np.zeros((m, layout.num_levels), dtype=np.int64)
        for meta in layout.tensors:
            rel = list(meta.relevant_idx)
            for parent, child in meta.boundaries:
                child_level = layout.num_levels if child is None else child
                above = [
                    c
                    for c in range(layout.num_columns)
                    if layout.col_level[c] < child_level
                ]
                # Innermost relevant temporal loop above the boundary.
                cutoff = np.full(m, -1, dtype=np.int64)
                for c in above:
                    if layout.col_spatial[c]:
                        continue
                    candidate = np.where(b[:, c, rel] > 1, p[:, c, rel], -1)
                    if candidate.shape[1]:
                        cutoff = np.maximum(cutoff, candidate.max(axis=1))
                # Delivered-tile counts per dim above the boundary.
                tiles = np.zeros((m, layout.num_dims), dtype=np.int64)
                for c in above:
                    tiles = tiles * b[:, c, :] + r[:, c, :] - 1
                tiles += 1
                base = np.ones(m, dtype=np.int64)
                for rank in meta.ranks:
                    all_tiles = np.ones(m, dtype=np.int64)
                    for d, _ in rank:
                        all_tiles = all_tiles * tiles[:, d]
                    total = all_tiles.copy()
                    for d, coef in rank:
                        total += (
                            coef
                            * (layout.sizes[d] - tiles[:, d])
                            * (all_tiles // tiles[:, d])
                        )
                    base *= total
                inner, outer, inner_sp, outer_sp = self._projection_multipliers(
                    b, r, p, meta, above, cutoff, parent
                )
                if not meta.is_output:
                    reads[:, parent] += base * outer
                    if child is not None:
                        writes[:, child] += base * inner
                else:
                    writes[:, parent] += base * outer
                    reads[:, parent] += base * (outer - outer_sp)
                    if child is not None:
                        reads[:, child] += base * inner
                        writes[:, child] += base * (inner - inner_sp)
        return reads, writes

    def _projection_multipliers(
        self,
        b: Any,
        r: Any,
        p: Any,
        meta: _TensorMeta,
        above: List[int],
        cutoff: Any,
        parent: int,
    ) -> Tuple[Any, Any, Any, Any]:
        """The four ``_projection_count`` products over irrelevant dims.

        Each recursion walks the boundary's columns inner to outer keeping
        (full-subtree, last-path) projection counts; a selected loop
        multiplies, an unselected one promotes ``full`` when it carries a
        genuine remainder. Selections (see ``_boundary_traffic``):

        * inner: spatial or inside-the-cutoff temporal (refetch + copies);
        * outer: spatial above the parent, or inside-the-cutoff temporal;
        * inner_spatial / outer_spatial: the copy-only multiplicities.
        """
        layout = self.layout
        m = b.shape[0]
        ones = np.ones(m, dtype=np.int64)
        inner = ones.copy()
        outer = ones.copy()
        inner_sp = ones.copy()
        outer_sp = ones.copy()
        for d in meta.irrelevant_idx:
            f_in, l_in = ones.copy(), ones.copy()
            f_out, l_out = ones.copy(), ones.copy()
            f_is, l_is = ones.copy(), ones.copy()
            f_os, l_os = ones.copy(), ones.copy()
            for c in reversed(above):
                bc = b[:, c, d]
                rc = r[:, c, d]
                if layout.col_spatial[c]:
                    above_parent = layout.col_level[c] < parent
                    # inner / inner_spatial: always selected.
                    l_in = (rc - 1) * f_in + l_in
                    f_in = bc * f_in
                    l_is = (rc - 1) * f_is + l_is
                    f_is = bc * f_is
                    if above_parent:
                        l_out = (rc - 1) * f_out + l_out
                        f_out = bc * f_out
                        l_os = (rc - 1) * f_os + l_os
                        f_os = bc * f_os
                    else:
                        l_out = np.where(rc >= 2, f_out, l_out)
                        l_os = np.where(rc >= 2, f_os, l_os)
                else:
                    selected = p[:, c, d] < cutoff
                    promoted = rc >= 2
                    l_in = np.where(
                        selected,
                        (rc - 1) * f_in + l_in,
                        np.where(promoted, f_in, l_in),
                    )
                    f_in = np.where(selected, bc * f_in, f_in)
                    l_out = np.where(
                        selected,
                        (rc - 1) * f_out + l_out,
                        np.where(promoted, f_out, l_out),
                    )
                    f_out = np.where(selected, bc * f_out, f_out)
                    l_is = np.where(promoted, f_is, l_is)
                    l_os = np.where(promoted, f_os, l_os)
            inner = inner * l_in
            outer = outer * l_out
            inner_sp = inner_sp * l_is
            outer_sp = outer_sp * l_os
        return inner, outer, inner_sp, outer_sp

    def _energy(self, reads: Any, writes: Any) -> Any:
        """Float accumulation in the scalar model's exact operation order."""
        layout = self.layout
        total = np.zeros(reads.shape[0], dtype=np.float64)
        for level in range(layout.num_levels):
            level_energy = (
                reads[:, level].astype(np.float64) * self.read_pj[level]
                + writes[:, level].astype(np.float64) * self.write_pj[level]
            )
            total = total + level_energy
        return total + self.compute_energy


class PartialBoundEngine:
    """Admissible completion bounds for partial chain assignments.

    The batch engine's lower bound (:meth:`BatchEvaluator._build_lower_bound`)
    is a single constant — the per-rank multilinear delivery sum minimized
    over the whole tile-count box. This class refines that bound along the
    per-dimension prefix tree: a prefix pins the full Eq. (5) chains of a
    subset of problem dimensions, which fixes those dimensions' per-boundary
    delivered-tile counts and per-dimension cycle factors *exactly*, while
    unassigned dimensions stay relaxed over the box spanned by their chain
    menu. The result lower-bounds the metric of **every** mapping that
    completes the prefix, so a branch-and-bound search can discard whole
    subtrees before they are enumerated:

    * **cycles** — the cycle count is an exact per-dimension product
      (see :meth:`BatchEvaluator._cycles`); assigned dims contribute their
      exact factor, free dims the minimum factor over their menu.
    * **energy** — each tensor boundary's traffic is its rank delivery-sum
      product times per-dimension projection multipliers over the
      irrelevant dims. Each rank sum is multilinear in the per-dim
      delivered tile counts, so with assigned counts pinned the minimum
      over the free counts sits at a vertex of their menu's [min, max]
      box. The multipliers factor per irrelevant dimension and are coupled
      to the rest of the mapping only through the boundary's *cutoff* (the
      innermost relevant temporal position above it, a max over relevant
      dims); both the per-dim factor and the cutoff are monotone under
      assignment, so replaying each factor at a cutoff *lower bound*
      (assigned relevant dims exact, free ones at their menu minimum)
      stays admissible. The output tensor's read-delta terms
      (``outer - outer_sp`` / ``inner - inner_sp``), which are always
      nonnegative, are the only traffic dropped outright.
    * **EDP** — both factors are nonnegative, so the product of the two
      bounds lower-bounds the product.

    Bounds are monotone along the tree (fixing more dimensions can only
    raise them), which makes best-first search with a single
    front-of-heap cutoff exact. The scalar :meth:`bound` multiplies
    Python ints; the projection-factor tables and the vectorized sweeps
    (:meth:`child_bounds`, :meth:`suffix_bounds`) use int64, like the
    batch kernels. A factor never exceeds its chain's bound product, and
    a table whose menu could reach 2**53 is built with Python ints
    instead. The same :data:`PRUNE_MARGIN` discipline as row-level
    pruning keeps float rounding from ever cutting a true improvement.

    Besides bounds the engine decides **feasibility** with one rule
    (:meth:`_fits`): the joint fanout caps and, per bounded storage level,
    the capacity check of :meth:`BatchEvaluator._validity` (partitioned
    words and shared capacity). Both depend on a dimension's chain only
    through its bound at each spatial column and its tile *extent* at
    each capacity level (the product of its bounds over the level's
    columns), and footprints are monotone in extents. So the rule is
    exact on complete assignments (:meth:`suffix_feasible`, the leaf
    sweep's mask) and admissible on a node's children
    (:meth:`child_feasible`: free dims at their menu-minimum extent and
    spatial bound 1). A (level, tensor) whose footprint could reach
    2**53 is never used to cut.
    """

    def __init__(
        self,
        engine: BatchEvaluator,
        menus: Sequence[Tuple[str, Sequence[Any]]],
        fanout_caps: Sequence[int],
    ) -> None:
        if not engine.supported:
            raise RuntimeError(
                f"partial bounds need a supported batch engine: "
                f"{engine.unsupported_reason}"
            )
        self.engine = engine
        layout = engine.layout
        self.layout = layout
        # Boundary cut levels at which delivered-tile counts are needed
        # (a boundary (parent, child) folds the columns above ``child``;
        # the innermost boundary folds everything).
        self.cuts: Tuple[int, ...] = tuple(
            sorted(
                {
                    layout.num_levels if child is None else child
                    for meta in layout.tensors
                    for _, child in meta.boundaries
                }
            )
        )
        #: Per dim, per menu chain: (cycle factor, {cut: delivered tiles}).
        self.chain_stats: Dict[str, List[Tuple[int, Dict[int, int]]]] = {}
        #: Per dim: minimum cycle factor over the menu (free-dim relaxation).
        self.min_cycles: Dict[str, int] = {}
        #: Per dim, per cut: [min, max] delivered-tile box over the menu.
        self.tile_range: Dict[str, Dict[int, Tuple[int, int]]] = {}
        #: Per dim: the menu chains themselves (projection-factor replay).
        self.menus: Dict[str, Sequence[Any]] = {}
        #: Per dim, per chain: {cut: innermost qualifying temporal position}
        #: (-1 when the chain has no bound>1 temporal loop above the cut).
        self.qual: Dict[str, List[Dict[int, int]]] = {}
        #: Per dim: {cut: minimum qualifying position over the menu}.
        self.qual_min: Dict[str, Dict[int, int]] = {}
        for dim, menu in menus:
            stats = [
                (self._chain_cycles(chain), self._chain_tiles(chain))
                for chain in menu
            ]
            if not stats:
                raise RuntimeError(f"dimension {dim} has an empty chain menu")
            self.chain_stats[dim] = stats
            self.min_cycles[dim] = min(s[0] for s in stats)
            self.tile_range[dim] = {
                cut: (
                    min(s[1][cut] for s in stats),
                    max(s[1][cut] for s in stats),
                )
                for cut in self.cuts
            }
            self.menus[dim] = list(menu)
            quals = [self._chain_qual(dim, chain) for chain in menu]
            self.qual[dim] = quals
            self.qual_min[dim] = {
                cut: min(q[cut] for q in quals) for cut in self.cuts
            }
        # Menu-vectorized views of the per-chain stats, for pricing every
        # child of a tree node in one :meth:`child_bounds` call.
        self._cyc_vec = {
            dim: np.array([s[0] for s in stats], dtype=np.int64)
            for dim, stats in self.chain_stats.items()
        }
        self._tiles_vec = {
            dim: {
                cut: np.array([s[1][cut] for s in stats], dtype=np.int64)
                for cut in self.cuts
            }
            for dim, stats in self.chain_stats.items()
        }
        self._qual_vec = {
            dim: {
                cut: np.array([q[cut] for q in quals], dtype=np.int64)
                for cut in self.cuts
            }
            for dim, quals in self.qual.items()
        }
        #: Per dim: the menu's (bounds, remainders) as ``(menu, columns)``
        #: int64 tables, the operands of the projection-factor fold.
        self._menu_cols = {
            dim: (
                np.array([c.bounds for c in menu], dtype=np.int64),
                np.array([c.remainders for c in menu], dtype=np.int64),
            )
            for dim, menu in self.menus.items()
        }
        #: Cutoffs are virtual grid positions, or -1; factor tables hold
        #: cutoff ``k`` at column ``k + 1``.
        self._cutoffs = np.arange(
            -1, int(self.layout.grid_pos.max()) + 1, dtype=np.int64
        )
        #: (dim, cut, parent, inner) -> (factor table, its menu minimum).
        self._tables: Dict[Tuple, Tuple[Any, Any]] = {}
        self._build_feasibility(fanout_caps)

    def _build_feasibility(self, fanout_caps: Sequence[int]) -> None:
        """Per-chain operands of :meth:`_fits`.

        ``fanout_caps`` holds one joint cap per spatial column: the
        mapspace's, which constraints may set below the hardware fanout
        limits that :meth:`BatchEvaluator._validity` checks.
        """
        layout = self.layout
        spatial_cols = [
            c for c in range(layout.num_columns) if layout.col_spatial[c]
        ]
        if len(fanout_caps) != len(spatial_cols):
            raise ValueError("fanout_caps needs one cap per spatial column")
        #: Per spatial column: (cap, dims whose menu ever goes spatial there).
        self._fanout: List[Tuple[int, Tuple[int, ...]]] = []
        for cap, c in zip(fanout_caps, spatial_cols):
            dims = tuple(
                d for d, dim in enumerate(layout.dims)
                if (self._menu_cols[dim][0][:, c] > 1).any()
            )
            self._fanout.append((int(cap), dims))
        #: Per dim: each chain's bound at every spatial column.
        self._spatial_vec = {
            dim: [bounds[:, c] for c in spatial_cols]
            for dim, (bounds, _) in self._menu_cols.items()
        }
        #: Per dim, per capacity level: each chain's tile extent there.
        self._ext_vec = {
            dim: [
                np.prod(bounds[:, list(info["cols"])], axis=1)
                for _, info in layout.capacity_levels
            ]
            for dim, (bounds, _) in self._menu_cols.items()
        }
        #: Per dim: the menu-minimum extent at each capacity level.
        self._ext_min = {
            dim: [int(v.min()) for v in vecs]
            for dim, vecs in self._ext_vec.items()
        }
        #: Per capacity level: the kept tensors whose largest footprint
        #: (every dim at its menu-maximum extent, in Python ints) stays
        #: below 2**53, and whether that covers every tensor sharing the
        #: level.
        self._cap_exact: List[Tuple[Tuple[int, ...], bool]] = []
        for j, (level_index, info) in enumerate(layout.capacity_levels):
            ext_max = {
                dim: max(
                    math.prod(chain.bounds[c] for c in info["cols"])
                    for chain in menu
                )
                for dim, menu in self.menus.items()
            }
            exact = []
            for t in info["kept"]:
                meta = layout.tensors[t]
                footprint = 1
                for rank in meta.ranks:
                    footprint *= 1 + sum(
                        coef * (ext_max[layout.dims[d]] - 1)
                        for d, coef in rank
                    )
                if footprint * meta.bits_per_element < _EXACT_LIMIT:
                    exact.append(t)
            shared_exact = all(
                t in exact
                for t in info["kept"]
                if layout.tensors[t].partition_words[level_index] is None
            )
            self._cap_exact.append((tuple(exact), shared_exact))

    def _fits(self, ext: Sequence[Sequence[Any]], spatial: Sequence[Any]) -> Any:
        """The one feasibility rule: joint fanout caps and capacity.

        ``ext[d][j]`` is dimension ``d``'s tile extent at the ``j``-th
        capacity level and ``spatial[d][s]`` its bound at the ``s``-th
        spatial column (``spatial[d] is None``: bound 1 everywhere); all
        values broadcast against each other. Replays the fanout and
        capacity parts of :meth:`BatchEvaluator._validity` (coverage and
        dataflow restrictions hold by construction of the menus), so on
        exact operands the verdict is exact, and on operands that
        under-state every extent and bound it never rejects a feasible
        completion.
        """
        layout = self.layout
        ok: Any = True
        for s, (cap, dims) in enumerate(self._fanout):
            used: Any = 1
            for d in dims:
                if spatial[d] is not None:
                    # Clamped above the cap: the verdict is unchanged and
                    # the product stays far from int64 overflow.
                    used = np.minimum(used * spatial[d][s], cap + 1)
            ok = ok & (used <= cap)
        for j, (level_index, info) in enumerate(layout.capacity_levels):
            exact, shared_exact = self._cap_exact[j]
            shared: Any = 0
            for t in exact:
                meta = layout.tensors[t]
                footprint: Any = 1
                for rank in meta.ranks:
                    span: Any = 0
                    for d, coef in rank:
                        span = span + coef * (ext[d][j] - 1)
                    footprint = footprint * (span + 1)
                words = np.maximum(
                    footprint * meta.bits_per_element // info["word_bits"], 1
                )
                partition = meta.partition_words[level_index]
                if partition is not None:
                    ok = ok & (words <= partition)
                else:
                    shared = shared + words
            if info["shared_capacity"] is not None and shared_exact:
                ok = ok & (shared <= info["shared_capacity"])
        return ok

    def child_feasible(self, assigned: Dict[str, int], branch_dim: str) -> Any:
        """Admissible feasibility of every child of a node, menu-vectorized.

        Element ``k`` is false only when no completion of
        ``assigned | {branch_dim: k}`` fits: assigned dims contribute
        their exact extents and spatial bounds, ``branch_dim`` its whole
        menu, and free dims their menu-minimum extents and bound 1.
        """
        layout = self.layout
        ext: List[Any] = []
        spatial: List[Any] = []
        for dim in layout.dims:
            idx = assigned.get(dim)
            if dim == branch_dim:
                ext.append(self._ext_vec[dim])
                spatial.append(self._spatial_vec[dim])
            elif idx is not None:
                ext.append([v[idx] for v in self._ext_vec[dim]])
                spatial.append([v[idx] for v in self._spatial_vec[dim]])
            else:
                ext.append(self._ext_min[dim])
                spatial.append(None)
        return np.broadcast_to(
            self._fits(ext, spatial), (len(self.menus[branch_dim]),)
        )

    def _sweep_index(
        self, assigned: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Tuple[int, ...]]:
        """Chain-index operands of a multi-leaf sweep.

        ``assigned`` maps each assigned dim to a vector of ``L`` leaf
        chain indices (no assigned dim: one leaf, the root). Returns, per
        dim, an index array broadcastable into the sweep grid — assigned
        dims along axis 0, free dims (in layout dim order) along axes
        ``1..k`` — and the grid shape ``(L, *free menu lengths)``, so any
        per-chain vector ``v`` of a dim reads ``v[index[dim]]``.
        """
        layout = self.layout
        free = [dim for dim in layout.dims if dim not in assigned]
        k = len(free)
        index: Dict[str, Any] = {}
        leaves = 1
        for dim, idx in assigned.items():
            idx = np.asarray(idx, dtype=np.int64).reshape((-1,) + (1,) * k)
            leaves = idx.shape[0]
            index[dim] = idx
        shape = [leaves]
        for i, dim in enumerate(free):
            n = len(self.menus[dim])
            axes = [1] * (k + 1)
            axes[i + 1] = n
            index[dim] = np.arange(n, dtype=np.int64).reshape(axes)
            shape.append(n)
        return index, tuple(shape)

    def suffix_feasible(self, assigned: Dict[str, Any]) -> Any:
        """Exact feasibility of every cell of :meth:`suffix_bounds`.

        Same arguments and grid as :meth:`suffix_bounds`; every cell pins
        every dimension, so the verdict equals the fanout-and-capacity
        part of :meth:`BatchEvaluator._validity` on that mapping.
        """
        index, shape = self._sweep_index(assigned)
        ext = []
        spatial = []
        for dim in self.layout.dims:
            ix = index[dim]
            ext.append([v[ix] for v in self._ext_vec[dim]])
            spatial.append([v[ix] for v in self._spatial_vec[dim]])
        return np.broadcast_to(self._fits(ext, spatial), shape)

    def _chain_cycles(self, chain: Any) -> int:
        """One dimension's exact factor of the cycle product.

        The scalar replay of the :meth:`BatchEvaluator._cycles` kernel for
        a single (dim, chain) column walk.
        """
        layout = self.layout
        steps = 0
        shadowed = False
        for c in range(layout.num_columns):
            b = chain.bounds[c]
            r = chain.remainders[c]
            if layout.col_spatial[c]:
                shadowed = shadowed or r >= 2
            else:
                steps = steps * b + (b if shadowed else r) - 1
        return steps + 1

    def _chain_tiles(self, chain: Any) -> Dict[int, int]:
        """Delivered-tile counts of one dimension above each boundary cut.

        The per-dim fold from :meth:`BatchEvaluator._traffic`: columns are
        level-ordered, so the cuts (ascending) share one running fold.
        """
        layout = self.layout
        tiles: Dict[int, int] = {}
        t = 0
        c = 0
        for cut in self.cuts:
            while c < layout.num_columns and layout.col_level[c] < cut:
                t = t * chain.bounds[c] + chain.remainders[c] - 1
                c += 1
            tiles[cut] = t + 1
        return tiles

    def _chain_qual(self, dim: str, chain: Any) -> Dict[int, int]:
        """Innermost qualifying temporal position per cut for one chain.

        The per-dim ingredient of a boundary's cutoff in
        :meth:`BatchEvaluator._traffic`: the deepest virtual grid position
        among this dimension's bound>1 temporal loops above the cut, or
        ``-1`` when there is none. The boundary cutoff is the max of these
        over the tensor's relevant dims.
        """
        layout = self.layout
        d = layout.dim_index[dim]
        qual: Dict[int, int] = {}
        for cut in self.cuts:
            deepest = -1
            for c in range(layout.num_columns):
                if layout.col_level[c] >= cut or layout.col_spatial[c]:
                    continue
                if chain.bounds[c] > 1:
                    deepest = max(deepest, int(layout.grid_pos[c, d]))
            qual[cut] = deepest
        return qual

    def _factor_tables(
        self, dim: str, cut: int, parent: int, inner: bool
    ) -> Tuple[Any, Any]:
        """One irrelevant dimension's projection-count factors, tabulated.

        Returns ``(table, table_min)``: ``table[idx, cutoff + 1]`` is the
        factor of menu chain ``idx`` at ``cutoff``, and ``table_min`` its
        minimum over the menu (the free-dim relaxation). This is one
        ``d`` iteration of :meth:`BatchEvaluator._projection_multipliers`
        as a NumPy fold over every (chain, cutoff) pair at once: walk the
        boundary's columns inner to outer keeping (full-subtree,
        last-path) counts; spatial loops are always selected on the inner
        multiplier and selected above the parent on the outer one;
        temporal loops are selected when their position is inside the
        cutoff, and otherwise promote the full count when they carry a
        genuine remainder. Both counts are monotone in the selected set,
        so evaluating at a cutoff lower bound is admissible.
        """
        key = (dim, cut, parent, inner)
        tables = self._tables.get(key)
        if tables is not None:
            return tables
        layout = self.layout
        d = layout.dim_index[dim]
        bounds, rems = self._menu_cols[dim]
        shape = (bounds.shape[0], self._cutoffs.size)
        f = np.ones(shape, dtype=np.int64)
        # Every count is at most its chain's bound product; past the
        # exact limit the fold runs on Python ints instead.
        if np.prod(bounds.astype(np.float64), axis=1).max() >= _EXACT_LIMIT:
            bounds, rems, f = (a.astype(object) for a in (bounds, rems, f))
        l = f.copy()
        for c in range(layout.num_columns - 1, -1, -1):
            if layout.col_level[c] >= cut:
                continue
            b = bounds[:, c, None]
            r = rems[:, c, None]
            if layout.col_spatial[c]:
                selected = inner or layout.col_level[c] < parent
            else:
                selected = int(layout.grid_pos[c, d]) < self._cutoffs
            l = np.where(selected, (r - 1) * f + l, np.where(r >= 2, f, l))
            f = np.where(selected, b * f, f)
        tables = (l, l.min(axis=0))
        self._tables[key] = tables
        return tables

    def _factor(
        self, dim: str, idx: int, cut: int, parent: int,
        inner: bool, cutoff: int,
    ) -> int:
        """Exact projection factor of one assigned chain."""
        return int(self._factor_tables(dim, cut, parent, inner)[0][idx, cutoff + 1])

    def _factor_min(
        self, dim: str, cut: int, parent: int, inner: bool, cutoff: int
    ) -> int:
        """Menu-minimum projection factor of a free dimension."""
        return int(self._factor_tables(dim, cut, parent, inner)[1][cutoff + 1])

    def suffix_bounds(
        self, assigned: Dict[str, Any], objective: str = "edp"
    ) -> Any:
        """:meth:`bound` of every complete assignment of ``L`` leaves.

        ``assigned`` maps each assigned dimension to an int vector of
        ``L`` chain indices, one per leaf; every leaf pins the same dims.
        With no assigned dim the one leaf is the root. Returns an array
        shaped ``(L, *free menu lengths)`` (free dims in layout dim
        order). Nothing is relaxed — each cell fixes every dimension, so
        the cell value equals the scalar ``bound`` of that full
        assignment, computed densely for all leaves in one broadcast: the
        leaf regime of the tree walk, where sweeping every completion's
        bound costs far less than branching further. Each cell goes
        through the same element-wise operations in the same order as a
        one-leaf sweep, so its float does not depend on which other
        leaves share the call.
        """
        layout = self.layout
        index, shape = self._sweep_index(assigned)
        cycles: Any = 1
        for dim in layout.dims:
            cycles = cycles * self._cyc_vec[dim][index[dim]]
        if objective == "delay":
            return np.broadcast_to(cycles, shape).astype(float)
        engine = self.engine
        energy: Any = np.float64(engine.compute_energy)
        for meta in layout.tensors:
            for parent, child in meta.boundaries:
                cut = layout.num_levels if child is None else child
                base: Any = 1
                for rank in meta.ranks:
                    tiles = []
                    sizes = []
                    for d, _ in rank:
                        dim = layout.dims[d]
                        sizes.append(int(layout.sizes[d]))
                        tiles.append(self._tiles_vec[dim][cut][index[dim]])
                    all_tiles: Any = 1
                    for t in tiles:
                        all_tiles = all_tiles * t
                    total = all_tiles
                    for (_, coef), t, size in zip(rank, tiles, sizes):
                        total = total + coef * (size - t) * (all_tiles // t)
                    base = base * total
                cutoff: Any = np.int64(-1)
                for d in meta.relevant_idx:
                    dim = layout.dims[d]
                    cutoff = np.maximum(
                        cutoff, self._qual_vec[dim][cut][index[dim]]
                    )
                cutoff_idx = cutoff + 1
                outer: Any = 1
                inner: Any = 1
                for d in meta.irrelevant_idx:
                    dim = layout.dims[d]
                    outer = outer * self._factor_tables(
                        dim, cut, parent, False
                    )[0][index[dim], cutoff_idx]
                    if child is not None:
                        inner = inner * self._factor_tables(
                            dim, cut, parent, True
                        )[0][index[dim], cutoff_idx]
                if not meta.is_output:
                    energy = energy + engine.read_pj[parent] * (base * outer)
                    if child is not None:
                        energy = energy + engine.write_pj[child] * (
                            base * inner
                        )
                else:
                    energy = energy + engine.write_pj[parent] * (base * outer)
                    if child is not None:
                        energy = energy + engine.read_pj[child] * (
                            base * inner
                        )
        if objective == "energy":
            return np.broadcast_to(energy, shape).astype(float)
        return np.broadcast_to(energy * cycles.astype(float), shape)

    def _rank_min_vec(
        self,
        rank: Tuple[Tuple[int, int], ...],
        cut: int,
        assigned: Dict[str, int],
        branch_dim: str,
    ) -> Any:
        """:meth:`_rank_min` with ``branch_dim`` swept over its whole menu.

        Returns a scalar when the branch dimension does not appear in the
        rank (the sum is then child-independent), else an int64 vector
        over the branch menu. Identical vertex-relaxation math, so every
        element equals the scalar bound of the corresponding child.
        """
        b_idx = self.layout.dim_index[branch_dim]
        if all(d != b_idx for d, _ in rank):
            return self._rank_min(rank, cut, assigned)
        t_branch = self._tiles_vec[branch_dim][cut]
        choices: List[Optional[Tuple[int, ...]]] = []
        sizes: List[int] = []
        for d, _ in rank:
            dim = self.layout.dims[d]
            sizes.append(int(self.layout.sizes[d]))
            if d == b_idx:
                choices.append(None)  # placeholder: the swept menu axis
                continue
            idx = assigned.get(dim)
            if idx is not None:
                choices.append((self.chain_stats[dim][idx][1][cut],))
            else:
                lo, hi = self.tile_range[dim][cut]
                choices.append((lo,) if lo == hi else (lo, hi))
        best: Any = None
        for vertex in itertools.product(
            *[c if c is not None else (None,) for c in choices]
        ):
            scalar_tiles = 1
            for t in vertex:
                if t is not None:
                    scalar_tiles *= t
            all_tiles = t_branch * scalar_tiles
            total = all_tiles.copy()
            for (_, coef), t, size in zip(rank, vertex, sizes):
                tv = t_branch if t is None else t
                total = total + coef * (size - tv) * (all_tiles // tv)
            best = total if best is None else np.minimum(best, total)
        return best

    def child_bounds(
        self, assigned: Dict[str, int], branch_dim: str,
        objective: str = "edp",
    ) -> Any:
        """:meth:`bound` for every child of a node, menu-vectorized.

        Element ``k`` is the bound of ``assigned | {branch_dim: k}`` —
        the same per-component math as the scalar path (asserted by the
        admissibility tests), computed once per expansion instead of once
        per child. This is what makes deep branching affordable: the
        scalar bound re-derives every rank sum per child, turning tree
        walks over wide menus into millions of tiny Python folds.
        """
        layout = self.layout
        menu_len = len(self.menus[branch_dim])
        b_idx = layout.dim_index[branch_dim]
        cycles_base = 1
        for dim in layout.dims:
            if dim == branch_dim:
                continue
            idx = assigned.get(dim)
            cycles_base *= (
                self.chain_stats[dim][idx][0]
                if idx is not None
                else self.min_cycles[dim]
            )
        cycles_vec = cycles_base * self._cyc_vec[branch_dim]
        if objective == "delay":
            return cycles_vec.astype(float)
        engine = self.engine
        energy = np.full(menu_len, engine.compute_energy, dtype=float)
        for meta in layout.tensors:
            branch_relevant = b_idx in meta.relevant_idx
            for parent, child in meta.boundaries:
                cut = layout.num_levels if child is None else child
                base: Any = 1
                for rank in meta.ranks:
                    base = base * self._rank_min_vec(
                        rank, cut, assigned, branch_dim
                    )
                if branch_relevant:
                    fixed = -1
                    for d in meta.relevant_idx:
                        if d == b_idx:
                            continue
                        dim = layout.dims[d]
                        idx = assigned.get(dim)
                        qual = (
                            self.qual[dim][idx][cut]
                            if idx is not None
                            else self.qual_min[dim][cut]
                        )
                        if qual > fixed:
                            fixed = qual
                    cutoff_idx = (
                        np.maximum(fixed, self._qual_vec[branch_dim][cut]) + 1
                    )
                    outer: Any = np.ones(menu_len, dtype=np.int64)
                    inner: Any = np.ones(menu_len, dtype=np.int64)
                    for d in meta.irrelevant_idx:
                        dim = layout.dims[d]
                        idx = assigned.get(dim)
                        table, table_min = self._factor_tables(
                            dim, cut, parent, False
                        )
                        outer = outer * (
                            table[idx, cutoff_idx]
                            if idx is not None
                            else table_min[cutoff_idx]
                        )
                        if child is not None:
                            table, table_min = self._factor_tables(
                                dim, cut, parent, True
                            )
                            inner = inner * (
                                table[idx, cutoff_idx]
                                if idx is not None
                                else table_min[cutoff_idx]
                            )
                else:
                    # The branch dim is irrelevant here, so the cutoff is
                    # child-independent and the branch contributes its
                    # menu factor vector at that one cutoff.
                    cutoff = -1
                    for d in meta.relevant_idx:
                        dim = layout.dims[d]
                        idx = assigned.get(dim)
                        qual = (
                            self.qual[dim][idx][cut]
                            if idx is not None
                            else self.qual_min[dim][cut]
                        )
                        if qual > cutoff:
                            cutoff = qual
                    outer = self._factor_tables(
                        branch_dim, cut, parent, False
                    )[0][:, cutoff + 1]
                    inner = (
                        self._factor_tables(
                            branch_dim, cut, parent, True
                        )[0][:, cutoff + 1]
                        if child is not None
                        else None
                    )
                    for d in meta.irrelevant_idx:
                        if d == b_idx:
                            continue
                        dim = layout.dims[d]
                        idx = assigned.get(dim)
                        if idx is not None:
                            outer = outer * self._factor(
                                dim, idx, cut, parent, False, cutoff
                            )
                            if child is not None:
                                inner = inner * self._factor(
                                    dim, idx, cut, parent, True, cutoff
                                )
                        else:
                            outer = outer * self._factor_min(
                                dim, cut, parent, False, cutoff
                            )
                            if child is not None:
                                inner = inner * self._factor_min(
                                    dim, cut, parent, True, cutoff
                                )
                if not meta.is_output:
                    energy = energy + engine.read_pj[parent] * (base * outer)
                    if child is not None:
                        energy = energy + engine.write_pj[child] * (
                            base * inner
                        )
                else:
                    energy = energy + engine.write_pj[parent] * (base * outer)
                    if child is not None:
                        energy = energy + engine.read_pj[child] * (
                            base * inner
                        )
        if objective == "energy":
            return energy
        return energy * cycles_vec.astype(float)

    def bound(self, assigned: Dict[str, int], objective: str = "edp") -> float:
        """Lower bound on ``objective`` over all completions of ``assigned``.

        ``assigned`` maps dimension names to chain indices into the menus
        this engine was built with. Invalid completions price to ``inf``
        under every search, so bounding the raw model metric is admissible
        for them too.
        """
        cycles_lb = 1
        for dim in self.layout.dims:
            idx = assigned.get(dim)
            cycles_lb *= (
                self.chain_stats[dim][idx][0]
                if idx is not None
                else self.min_cycles[dim]
            )
        if objective == "delay":
            return float(cycles_lb)
        engine = self.engine
        layout = self.layout
        energy = 0.0
        for meta in layout.tensors:
            for parent, child in meta.boundaries:
                cut = layout.num_levels if child is None else child
                base = 1
                for rank in meta.ranks:
                    base *= self._rank_min(rank, cut, assigned)
                # Cutoff lower bound: assigned relevant dims contribute
                # their exact innermost qualifying position, free ones
                # their menu minimum. The true cutoff is the max over
                # exact positions, so this never overshoots.
                cutoff = -1
                for d in meta.relevant_idx:
                    dim = layout.dims[d]
                    idx = assigned.get(dim)
                    qual = (
                        self.qual[dim][idx][cut]
                        if idx is not None
                        else self.qual_min[dim][cut]
                    )
                    if qual > cutoff:
                        cutoff = qual
                outer = 1
                inner = 1
                for d in meta.irrelevant_idx:
                    dim = layout.dims[d]
                    idx = assigned.get(dim)
                    if idx is not None:
                        outer *= self._factor(
                            dim, idx, cut, parent, False, cutoff
                        )
                        if child is not None:
                            inner *= self._factor(
                                dim, idx, cut, parent, True, cutoff
                            )
                    else:
                        outer *= self._factor_min(
                            dim, cut, parent, False, cutoff
                        )
                        if child is not None:
                            inner *= self._factor_min(
                                dim, cut, parent, True, cutoff
                            )
                if not meta.is_output:
                    energy += engine.read_pj[parent] * base * outer
                    if child is not None:
                        energy += engine.write_pj[child] * base * inner
                else:
                    energy += engine.write_pj[parent] * base * outer
                    if child is not None:
                        energy += engine.read_pj[child] * base * inner
        energy += engine.compute_energy
        if objective == "energy":
            return energy
        return energy * float(cycles_lb)

    def _rank_min(
        self,
        rank: Tuple[Tuple[int, int], ...],
        cut: int,
        assigned: Dict[str, int],
    ) -> int:
        """Box-vertex minimum of one rank's delivery sum at one boundary.

        Assigned dims contribute their exact delivered-tile count at this
        cut; free dims relax over their menu's [min, max] box. The sum is
        affine in each count separately, so the box minimum sits at a
        vertex (at most 2**|free| evaluations; ranks couple <= 2 dims).
        """
        choices: List[Tuple[int, ...]] = []
        sizes: List[int] = []
        for d, _ in rank:
            dim = self.layout.dims[d]
            sizes.append(int(self.layout.sizes[d]))
            idx = assigned.get(dim)
            if idx is not None:
                choices.append((self.chain_stats[dim][idx][1][cut],))
            else:
                lo, hi = self.tile_range[dim][cut]
                choices.append((lo,) if lo == hi else (lo, hi))
        best: Optional[int] = None
        for vertex in itertools.product(*choices):
            all_tiles = 1
            for t in vertex:
                all_tiles *= t
            total = all_tiles
            for (_, coef), t, size in zip(rank, vertex, sizes):
                total += coef * (size - t) * (all_tiles // t)
            if best is None or total < best:
                best = total
        return best if best is not None else 1
