"""MapSpace: samples and enumerates complete mappings.

Combines per-dimension bound chains (from the allocator) with loop-order
(permutation) choices into :class:`~repro.mapping.nest.Mapping` objects,
respecting joint spatial-fanout budgets across dimensions.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.spec import Architecture
from repro.exceptions import MapspaceError
from repro.mapping.loop import Loop
from repro.mapping.nest import LevelNest, Mapping
from repro.mapspace.allocation import DimAllocator, DimChain
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.sampler import ColumnSampler
from repro.mapspace.slots import Slot, build_slots
from repro.model.batch import MappingBatch
from repro.obs import scope as _obs
from repro.utils.rng import make_rng


class MapspaceKind(str, enum.Enum):
    """The four mapspaces studied by the paper."""

    PFM = "pfm"
    RUBY = "ruby"
    RUBY_S = "ruby-s"
    RUBY_T = "ruby-t"

    @property
    def spatial_imperfect(self) -> bool:
        """Whether spatial slots may take non-divisor bounds."""
        return self in (MapspaceKind.RUBY, MapspaceKind.RUBY_S)

    @property
    def temporal_imperfect(self) -> bool:
        """Whether temporal slots may take non-divisor bounds."""
        return self in (MapspaceKind.RUBY, MapspaceKind.RUBY_T)


class MapSpace:
    """A mapspace for one (architecture, workload, kind) triple.

    Args:
        arch: target accelerator.
        workload: tensor operation to map.
        kind: which factorization regime to use.
        constraints: optional dataflow constraints.
    """

    BYPASS_PROBABILITY = 0.2

    def __init__(
        self,
        arch: Architecture,
        workload,
        kind: MapspaceKind,
        constraints: Optional[ConstraintSet] = None,
        sampling: str = "structured",
        explore_bypass: bool = False,
    ) -> None:
        self.arch = arch
        self.workload = workload
        self.kind = MapspaceKind(kind)
        self.constraints = constraints or ConstraintSet()
        self.explore_bypass = explore_bypass
        self.slots: List[Slot] = build_slots(arch, self.constraints)
        self.allocator = DimAllocator(
            self.slots,
            spatial_imperfect=self.kind.spatial_imperfect,
            temporal_imperfect=self.kind.temporal_imperfect,
            sampling=sampling,
        )
        # Bypass candidates: every non-outermost level a tensor may use.
        self._bypass_candidates = [
            (level.name, tensor.name)
            for level in arch.levels[1:]
            for tensor in workload.tensors
            if level.keeps_tensor(tensor.name)
        ]
        # Imperfect mapspaces contain the perfect one; drawing an all-exact
        # sample now and then keeps their random search from ever lagging a
        # PFM search merely for lack of density on the perfect sub-space.
        self._perfect_allocator: Optional[DimAllocator] = None
        if self.kind is not MapspaceKind.PFM:
            self._perfect_allocator = DimAllocator(
                self.slots,
                spatial_imperfect=False,
                temporal_imperfect=False,
                sampling=sampling,
            )
        self._batch_layout = None
        self._sampler = None
        self._dim_chain_menus: Optional[List[Tuple[str, Tuple[DimChain, ...]]]] = None
        self._menu_array_cache: Optional[List[Tuple[np.ndarray, ...]]] = None

    def _initial_budgets(self) -> Dict[int, int]:
        return {
            offset: slot.fanout_cap
            for offset, slot in enumerate(self.slots)
            if slot.spatial
        }

    def sample_batch(self, rng: Optional[random.Random], n: int):
        """Draw ``n`` mappings straight into a columnar
        :class:`~repro.model.batch.MappingBatch` (see
        :mod:`repro.mapspace.sampler`).

        Row ``i`` equals the ``i``-th :meth:`sample` drawn from the same
        stream, and the stream ends in the same state.
        """
        rng = make_rng(rng)
        if self._sampler is None:
            self._sampler = ColumnSampler(self)
        return self._sampler.draw(rng, n)

    def sample(self, rng: Optional[random.Random] = None) -> Mapping:
        """Sample one mapping (bounds, remainders, permutations, bypass)."""
        return self.sample_batch(rng, 1).mapping_at(0)

    PERFECT_SEED_PROBABILITY = 0.15

    def sample_chains(
        self, rng: Optional[random.Random] = None
    ) -> Dict[str, DimChain]:
        """Sample per-dimension bound chains under the joint fanout budget."""
        rng = make_rng(rng)
        allocator = self.allocator
        if (
            self._perfect_allocator is not None
            and rng.random() < self.PERFECT_SEED_PROBABILITY
        ):
            allocator = self._perfect_allocator
        budgets = self._initial_budgets()
        dims = list(self.workload.dim_names)
        rng.shuffle(dims)
        return {
            dim: allocator.sample_chain(
                dim, self.workload.size(dim), rng, budgets
            )
            for dim in dims
        }

    def resample_dim(
        self,
        chains: Dict[str, DimChain],
        dim: str,
        rng: Optional[random.Random] = None,
    ) -> Dict[str, DimChain]:
        """Return a copy of ``chains`` with ``dim`` re-allocated.

        The fanout budget offered to ``dim`` is whatever the other
        dimensions leave free — the mutation operator of the genetic search.
        """
        rng = make_rng(rng)
        budgets = self.remaining_budgets(chains, exclude=dim)
        updated = dict(chains)
        updated[dim] = self.allocator.sample_chain(
            dim, self.workload.size(dim), rng, budgets
        )
        return updated

    def remaining_budgets(
        self, chains: Dict[str, DimChain], exclude: Optional[str] = None
    ) -> Dict[int, int]:
        """Spatial budget left at each spatial slot given ``chains``."""
        budgets = self._initial_budgets()
        for offset in list(budgets):
            used = 1
            for dim, chain in chains.items():
                if dim == exclude:
                    continue
                used *= chain.bounds[offset]
            budgets[offset] = max(0, budgets[offset] // used)
        return budgets

    def chains_within_fanout(self, chains: Dict[str, DimChain]) -> bool:
        """True if the joint spatial allocation fits every slot cap."""
        for offset, slot in enumerate(self.slots):
            if not slot.spatial:
                continue
            used = 1
            for chain in chains.values():
                used *= chain.bounds[offset]
            if used > slot.fanout_cap:
                return False
        return True

    # -- prefix enumeration ----------------------------------------------
    #
    # The flat enumeration (enumerate_mappings / iter_batches) walks the
    # cartesian product of per-dimension chain menus. A *prefix* fixes the
    # chains of a subset of dimensions; the prefix tree over dimensions is
    # the decomposition under which the cost model factors exactly (cycles
    # are a per-dim product, delivered-tile counts are per-dim folds), so a
    # hierarchical searcher can bound and prune whole subtrees before they
    # are ever enumerated.

    def dim_chain_menus(self) -> List[Tuple[str, Tuple[DimChain, ...]]]:
        """Per-dimension chain menus in workload dim order (cached).

        Each menu is the full ``enumerate_chains`` list for that dimension;
        the flat enumeration is exactly the joint-fanout-filtered cartesian
        product of these menus.
        """
        if self._dim_chain_menus is None:
            self._dim_chain_menus = [
                (
                    dim,
                    tuple(
                        self.allocator.enumerate_chains(
                            dim, self.workload.size(dim)
                        )
                    ),
                )
                for dim in self.workload.dim_names
            ]
        return self._dim_chain_menus

    def enumeration_upper_bound(self) -> int:
        """Cheap upper bound on the flat enumeration: the menu-size
        product *before* joint-fanout filtering.

        Costs one multiply per dimension (menus are cached), unlike
        :meth:`count_completions`, which walks the whole product. Used as
        the total-work estimate for exhaustive-search progress tracking —
        an over-estimate only tightens to 1.0 when the run finishes.
        """
        total = 1
        for _, menu in self.dim_chain_menus():
            total *= len(menu)
        return total

    def prefix_feasible(self, chains: Dict[str, DimChain]) -> bool:
        """True when some completion of ``chains`` can fit the fanout caps.

        Unassigned dimensions contribute a spatial bound of at least 1, so
        a prefix whose running per-slot product already exceeds a cap has
        no feasible completion — the whole subtree can be discarded.
        """
        for offset, slot in enumerate(self.slots):
            if not slot.spatial:
                continue
            used = 1
            for chain in chains.values():
                used *= chain.bounds[offset]
            if used > slot.fanout_cap:
                return False
        return True

    def count_completions(
        self, prefix: Optional[Dict[str, DimChain]] = None
    ) -> int:
        """Exact number of enumerated mappings completing ``prefix``.

        Counts the joint-fanout-filtered product of the unassigned menus
        with the prefix dims pinned; ``prefix=None`` counts the whole flat
        enumeration. Summed over all chains of any one dimension this
        reproduces the flat count exactly (the prefix tree partitions the
        enumeration) — asserted by the prefix-counting tests.
        """
        prefix = prefix or {}
        per_dim = [
            [prefix[dim]] if dim in prefix else list(menu)
            for dim, menu in self.dim_chain_menus()
        ]
        spatial_offsets = [
            offset for offset, slot in enumerate(self.slots) if slot.spatial
        ]
        count = 0
        for combo in itertools.product(*per_dim):
            if self._fanout_ok(combo, spatial_offsets):
                count += 1
        return count

    def sample_many(
        self, count: int, rng: Optional[random.Random] = None
    ) -> List[Mapping]:
        """Sample ``count`` mappings from one RNG stream."""
        batch = self.sample_batch(rng, count)
        return [batch.mapping_at(i) for i in range(count)]

    def assemble(
        self, chains: Dict[str, DimChain], rng: Optional[random.Random] = None
    ) -> Mapping:
        """Build a Mapping from per-dim chains, ordering loops per level.

        The object path genetic search, annealing and the branch-and-bound
        warm start build on; ``assemble(sample_chains(rng), rng)`` plus the
        bypass draws is also the oracle :meth:`sample_batch` is
        stream-exact against.
        """
        nests: List[LevelNest] = []
        for level_index, level in enumerate(self.arch.levels):
            temporal_loops: List[Loop] = []
            spatial_loops: List[Loop] = []
            for offset, slot in enumerate(self.slots):
                if slot.level_index != level_index:
                    continue
                for dim in self.workload.dim_names:
                    chain = chains[dim]
                    bound = chain.bounds[offset]
                    remainder = chain.remainders[offset]
                    if bound == 1 and remainder == 1:
                        continue
                    loop = Loop(
                        dim, bound, remainder, spatial=slot.spatial, axis=slot.axis
                    )
                    if slot.spatial:
                        spatial_loops.append(loop)
                    else:
                        temporal_loops.append(loop)
            temporal_loops = self._order_temporal(level.name, temporal_loops, rng)
            nests.append(
                LevelNest(
                    level_name=level.name,
                    temporal=tuple(temporal_loops),
                    spatial=tuple(spatial_loops),
                )
            )
        return Mapping(levels=tuple(nests))

    def _order_temporal(
        self,
        level_name: str,
        loops: List[Loop],
        rng: Optional[random.Random],
    ) -> List[Loop]:
        fixed = self.constraints.permutation(level_name)
        if rng is not None:
            rng.shuffle(loops)
        if not fixed:
            return loops
        priority = {dim: i for i, dim in enumerate(fixed)}
        return sorted(
            loops, key=lambda loop: priority.get(loop.dim, len(priority))
        )

    def enumerate_mappings(
        self,
        limit: Optional[int] = None,
        permutations: bool = False,
    ) -> Iterator[Mapping]:
        """Exhaustively yield mappings (joint fanout filtered).

        With ``permutations=False`` every level keeps canonical (workload)
        dim order; with True all temporal orders per level are emitted.
        Only feasible for toy problems — imperfect mapspaces are huge.
        """
        dims = list(self.workload.dim_names)
        per_dim = [
            list(
                self.allocator.enumerate_chains(dim, self.workload.size(dim))
            )
            for dim in dims
        ]
        spatial_offsets = [
            offset for offset, slot in enumerate(self.slots) if slot.spatial
        ]
        emitted = 0
        for combo in itertools.product(*per_dim):
            if not self._fanout_ok(combo, spatial_offsets):
                continue
            chains = {chain.dim: chain for chain in combo}
            base = self.assemble(chains, rng=None)
            if permutations:
                for mapping in self._permute(base):
                    yield mapping
                    emitted += 1
                    if limit is not None and emitted >= limit:
                        return
            else:
                yield base
                emitted += 1
                if limit is not None and emitted >= limit:
                    return

    def batch_layout(self):
        """The columnar :class:`~repro.model.batch.BatchLayout` of this space.

        Built once and cached. The layout's column grid mirrors this
        space's slots one-to-one (both derive the same fixed skeleton from
        the architecture), and its virtual position numbering honours the
        constraints' fixed permutations so materialized batch rows equal
        what :meth:`assemble` produces with ``rng=None``.
        """
        if self._batch_layout is not None:
            return self._batch_layout
        from repro.model.batch import BatchLayout

        priorities = {
            level.name: self.constraints.permutation(level.name)
            for level in self.arch.levels
        }
        layout = BatchLayout(
            self.arch, self.workload, permutation_priority=priorities
        )
        columns = [(c.level_index, c.spatial, c.axis) for c in layout.columns]
        slots = [(s.level_index, s.spatial, s.axis) for s in self.slots]
        if columns != slots:
            raise MapspaceError(
                "batch layout columns do not mirror the mapspace slots; "
                "the columnar encoding cannot represent this architecture"
            )
        self._batch_layout = layout
        return layout

    def iter_batches(
        self,
        batch_size: int = 512,
        prefix: Optional[Dict[str, DimChain]] = None,
    ) -> Iterator[MappingBatch]:
        """Exhaustively enumerate straight into packed columnar batches.

        The batch analogue of :meth:`enumerate_mappings` with
        ``permutations=False``: identical chain combinations in identical
        order (same joint-fanout filter), but each candidate lands as a
        row of a :class:`~repro.model.batch.MappingBatch` — no ``Mapping``
        objects, no per-candidate Python loop-nest assembly. Positions are
        the layout's virtual grid numbering, which is order-isomorphic to
        the real nest positions, so batch evaluation results are bit-exact
        against the scalar evaluator; rows can still be materialized on
        demand via :meth:`MappingBatch.mapping_at`.

        ``prefix`` pins some dimensions to fixed chains and enumerates
        only the completions. The prefix dims keep their menu slot in the
        product order, so iterating every prefix of one dimension
        reproduces the flat enumeration order exactly.
        """
        yield from self.iter_prefix_batches(
            [prefix or {}], batch_size=batch_size
        )

    def partition_prefixes(self, dims: Sequence[str]) -> List[Tuple[int, ...]]:
        """Partition the chain product into subtree work units over ``dims``.

        The cross product of the named dimensions' menus defines disjoint
        subtrees that jointly cover the whole enumerable space; units
        whose prefix already violates a joint fanout cap are dropped (no
        completion of theirs is enumerable). Each surviving unit is its
        menu-index tuple along ``dims``, so a parallel driver can bound,
        order and dispatch units as jobs, and enumerate them with
        :meth:`prefix_index_rows`.
        """
        menus = dict(self.dim_chain_menus())
        menu_list = [(dim, menus[dim]) for dim in dims]
        return [
            combo
            for combo in itertools.product(
                *(range(len(menu)) for _, menu in menu_list)
            )
            if self.prefix_feasible(
                {dim: menu[k] for (dim, menu), k in zip(menu_list, combo)}
            )
        ]

    #: Index rows expanded per chunk by :meth:`prefix_index_rows`: bounds
    #: the enumeration's working memory whatever the product size.
    INDEX_CHUNK_ROWS = 1 << 14

    def prefix_index_rows(
        self, pinned: Dict[str, int]
    ) -> Iterator[np.ndarray]:
        """Menu-index rows of every completion of ``pinned``, in chunks.

        ``pinned`` maps dimensions to menu indices. Rows have one int64
        column per workload dimension (menu indices into
        :meth:`dim_chain_menus`) and come in C order over the free
        dimensions, at most :attr:`INDEX_CHUNK_ROWS` at a time, so even a
        10**10-cell product is never materialized.
        """
        menus = self.dim_chain_menus()
        base = np.array(
            [pinned.get(dim, 0) for dim, _ in menus], dtype=np.int64
        )
        free = [d for d, (dim, _) in enumerate(menus) if dim not in pinned]
        shape = tuple(len(menus[d][1]) for d in free)
        total = math.prod(shape)
        for start in range(0, total, self.INDEX_CHUNK_ROWS):
            flat = np.arange(
                start, min(total, start + self.INDEX_CHUNK_ROWS),
                dtype=np.int64,
            )
            rows = np.repeat(base[None, :], flat.size, axis=0)
            if free:
                rows[:, free] = np.stack(np.unravel_index(flat, shape), axis=1)
            yield rows

    def _menu_arrays(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per workload dim: its menu's ``(bounds, remainders)`` as
        ``(len(menu), slots)`` int64 tables, plus the bounds of the
        spatial slots alone (the joint-fanout filter's operand)."""
        if self._menu_array_cache is None:
            spatial = [o for o, slot in enumerate(self.slots) if slot.spatial]
            shape = (-1, len(self.slots))
            tables = []
            for _, menu in self.dim_chain_menus():
                bounds = np.array(
                    [c.bounds for c in menu], dtype=np.int64
                ).reshape(shape)
                rems = np.array(
                    [c.remainders for c in menu], dtype=np.int64
                ).reshape(shape)
                tables.append((bounds, rems, bounds[:, spatial]))
            self._menu_array_cache = tables
        return self._menu_array_cache

    def iter_prefix_batches(
        self,
        prefixes: Sequence[Optional[Dict[str, DimChain]]],
        batch_size: int = 512,
        tags: Optional[Sequence[int]] = None,
    ) -> Iterator[MappingBatch]:
        """Enumerate many prefixes' completions into *shared* packed batches.

        Rows from consecutive prefixes share one fill buffer, so pricing a
        large set of small subtrees still produces full-width batches —
        one partial batch per call, not one per subtree. Within each
        prefix the candidate order matches :meth:`iter_batches` exactly.
        Prefix chains must come from :meth:`dim_chain_menus`.

        ``tags`` — when given, one int per prefix — stamps every row of a
        yielded batch with its source prefix's tag in ``batch.tags``.
        """
        if tags is not None and len(tags) != len(prefixes):
            raise MapspaceError("tags must align one-to-one with prefixes")
        index = {
            dim: {chain: k for k, chain in enumerate(menu)}
            for dim, menu in self.dim_chain_menus()
        }

        def chunks():
            for i, prefix in enumerate(prefixes):
                pinned = {}
                for dim, chain in (prefix or {}).items():
                    k = index[dim].get(chain)
                    if k is None:
                        raise MapspaceError(
                            f"prefix chain {chain!r} is not in the {dim} menu"
                        )
                    pinned[dim] = k
                for rows in self.prefix_index_rows(pinned):
                    row_tags = (
                        np.full(len(rows), tags[i], dtype=np.int64)
                        if tags is not None
                        else None
                    )
                    yield rows, row_tags

        yield from self.iter_index_batches(chunks(), batch_size=batch_size)

    def iter_index_batches(
        self,
        chunks: Iterable[Tuple[np.ndarray, Optional[np.ndarray]]],
        batch_size: int = 512,
    ) -> Iterator[MappingBatch]:
        """Pack menu-index rows into batches: the one enumeration primitive.

        ``chunks`` yields ``(rows, tags)`` pairs: ``rows`` is an int array
        with one column per workload dimension holding menu indices into
        :meth:`dim_chain_menus`; ``tags`` is ``None`` or one int per row,
        stamped into ``batch.tags``. Rows whose joint spatial allocation
        exceeds a slot's fanout cap are dropped in place; the rest keep
        their order and fill shared full-width batches, with one partial
        batch at the end. Bounds and remainders are gathered from the
        per-dim menu tables by fancy indexing, one batch at a time, so
        memory stays at one chunk plus one batch.
        """
        if batch_size < 1:
            raise MapspaceError("batch_size must be >= 1")
        tables = self._menu_arrays()
        caps = np.array(
            [slot.fanout_cap for slot in self.slots if slot.spatial],
            dtype=np.int64,
        )
        pending: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
        filled = 0
        for rows, tags in chunks:
            rows = np.asarray(rows, dtype=np.int64)
            if caps.size:
                used = np.ones((len(rows), caps.size), dtype=np.int64)
                for d, (_, _, spatial) in enumerate(tables):
                    used *= spatial[rows[:, d]]
                    # Clamped above the cap: the product stays far from
                    # int64 overflow and the verdict is unchanged.
                    np.minimum(used, caps + 1, out=used)
                keep = (used <= caps).all(axis=1)
                if not keep.all():
                    rows = rows[keep]
                    if tags is not None:
                        tags = np.asarray(tags)[keep]
            if not len(rows):
                continue
            pending.append((rows, tags))
            filled += len(rows)
            if filled < batch_size:
                continue
            rows, tags = self._join(pending)
            full = filled - filled % batch_size
            for start in range(0, full, batch_size):
                yield self._gather(
                    rows[start:start + batch_size],
                    tags[start:start + batch_size] if tags is not None else None,
                )
            pending = [(rows[full:], tags[full:] if tags is not None else None)]
            filled -= full
        if filled:
            yield self._gather(*self._join(pending))

    @staticmethod
    def _join(pending):
        rows = np.concatenate([r for r, _ in pending])
        if pending[0][1] is None:
            return rows, None
        return rows, np.concatenate([t for _, t in pending]).astype(np.int64)

    def _gather(self, rows: np.ndarray, tags: Optional[np.ndarray]) -> MappingBatch:
        """One batch of the given menu-index rows (fanout already checked)."""
        layout = self.batch_layout()
        n = len(rows)
        shape = (n, len(self.slots), len(self.workload.dim_names))
        bounds = np.empty(shape, dtype=np.int64)
        rems = np.empty(shape, dtype=np.int64)
        for d, (dim_bounds, dim_rems, _) in enumerate(self._menu_arrays()):
            bounds[:, :, d] = dim_bounds[rows[:, d]]
            rems[:, :, d] = dim_rems[rows[:, d]]
        _obs.inc("mapspace.batches")
        _obs.inc("mapspace.candidates", n)
        return MappingBatch(
            layout=layout,
            bounds=bounds,
            rems=rems,
            # Positions are row-constant on the virtual grid; a read-only
            # broadcast view is enough (kernels never write pos).
            pos=np.broadcast_to(layout.grid_pos[None, :, :], shape),
            fallback=np.zeros(n, dtype=bool),
            tags=tags,
        )

    def _fanout_ok(
        self, combo: Sequence[DimChain], spatial_offsets: List[int]
    ) -> bool:
        for offset in spatial_offsets:
            cap = self.slots[offset].fanout_cap
            product = 1
            for chain in combo:
                product *= chain.bounds[offset]
            if product > cap:
                return False
        return True

    def _permute(self, base: Mapping) -> Iterator[Mapping]:
        per_level_orders = [
            list(itertools.permutations(nest.temporal)) for nest in base.levels
        ]
        for orders in itertools.product(*per_level_orders):
            yield Mapping(
                levels=tuple(
                    LevelNest(
                        level_name=nest.level_name,
                        temporal=tuple(order),
                        spatial=nest.spatial,
                    )
                    for nest, order in zip(base.levels, orders)
                )
            )
