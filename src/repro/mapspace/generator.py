"""MapSpace: samples and enumerates complete mappings.

Combines per-dimension bound chains (from the allocator) with loop-order
(permutation) choices into :class:`~repro.mapping.nest.Mapping` objects,
respecting joint spatial-fanout budgets across dimensions.
"""

from __future__ import annotations

import enum
import itertools
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arch.spec import Architecture
from repro.exceptions import MapspaceError
from repro.mapping.loop import Loop
from repro.mapping.nest import LevelNest, Mapping
from repro.mapspace.allocation import DimAllocator, DimChain
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.sampler import ColumnSampler
from repro.mapspace.slots import Slot, build_slots
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
    ) -> Iterator["object"]:
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
        only the completions — the leaf-pricing primitive of the
        branch-and-bound searcher. The prefix dims keep their menu slot in
        the product order, so iterating every prefix of one dimension
        reproduces the flat enumeration order exactly.
        """
        yield from self.iter_prefix_batches(
            [prefix or {}], batch_size=batch_size
        )

    def partition_prefixes(
        self, dims: Sequence[str]
    ) -> List[Tuple[Tuple[int, ...], Dict[str, DimChain]]]:
        """Partition the chain product into subtree work units over ``dims``.

        The cross product of the named dimensions' menus defines disjoint
        subtrees that jointly cover the whole enumerable space; units
        whose prefix already violates a joint fanout cap are dropped (no
        completion of theirs is enumerable). Each surviving unit is
        returned as ``(indices, prefix)`` — the menu-index tuple along
        ``dims`` plus the pinned-chain dict ready for
        :meth:`prefix_feasible` / :meth:`iter_prefix_batches` — so a
        parallel driver can bound, order, and dispatch them as jobs while
        workers reconstruct the same unit from the tiny index tuple.
        """
        menus = dict(self.dim_chain_menus())
        menu_list = [(dim, menus[dim]) for dim in dims]
        units: List[Tuple[Tuple[int, ...], Dict[str, DimChain]]] = []
        for combo in itertools.product(
            *(range(len(menu)) for _, menu in menu_list)
        ):
            prefix = {
                dim: menu[k] for (dim, menu), k in zip(menu_list, combo)
            }
            if not self.prefix_feasible(prefix):
                continue
            units.append((combo, prefix))
        return units

    def iter_prefix_batches(
        self,
        prefixes: Sequence[Optional[Dict[str, DimChain]]],
        batch_size: int = 512,
        tags: Optional[Sequence[int]] = None,
    ) -> Iterator["object"]:
        """Enumerate many prefixes' completions into *shared* packed batches.

        Rows from consecutive prefixes share one fill buffer, so pricing a
        large set of small subtrees (the branch-and-bound leaf regime)
        still produces full-width batches — one partial batch per call,
        not one per subtree. Within each prefix the candidate order
        matches :meth:`iter_batches` exactly.

        ``tags`` — when given, one int per prefix — stamps every row of a
        yielded batch with its source prefix's tag in ``batch.tags``, so
        callers that pack many subtrees into one batch can recover which
        subtree an improving row came from (provenance survives the
        fanout filter, which silently drops rows).
        """
        layout = self.batch_layout()
        if batch_size < 1:
            raise MapspaceError("batch_size must be >= 1")
        if tags is not None and len(tags) != len(prefixes):
            raise MapspaceError("tags must align one-to-one with prefixes")
        import numpy as np

        from repro.model.batch import MappingBatch

        dims = list(self.workload.dim_names)
        # The menus and their packed arrays never change for a given
        # mapspace; cache them (the branch-and-bound leaf flush calls this
        # many times per search). entry_by_id short-circuits the pinned
        # branch below for chains drawn from these same menus.
        cached = getattr(self, "_menu_entry_cache", None)
        if cached is None:
            menu_entries = {
                dim: [
                    (
                        chain,
                        np.asarray(chain.bounds, dtype=np.int64),
                        np.asarray(chain.remainders, dtype=np.int64),
                    )
                    for chain in menu
                ]
                for dim, menu in self.dim_chain_menus()
            }
            entry_by_id = {
                id(entry[0]): entry
                for entries in menu_entries.values()
                for entry in entries
            }
            cached = (menu_entries, entry_by_id)
            self._menu_entry_cache = cached
        menu_entries, entry_by_id = cached
        spatial_caps = [
            (offset, slot.fanout_cap)
            for offset, slot in enumerate(self.slots)
            if slot.spatial
        ]
        shape = (batch_size, len(self.slots), len(dims))
        # Positions are row-constant on the virtual grid; a read-only
        # broadcast view is enough (kernels never write pos).
        pos = np.broadcast_to(layout.grid_pos[None, :, :], shape)
        bounds = np.ones(shape, dtype=np.int64)
        rems = np.ones(shape, dtype=np.int64)
        tag_buf = (
            np.zeros(batch_size, dtype=np.int64) if tags is not None else None
        )
        fill = 0
        for prefix_index, prefix in enumerate(prefixes):
            row_tag = tags[prefix_index] if tags is not None else 0
            prefix = prefix or {}
            per_dim = [
                (
                    [
                        entry_by_id.get(id(prefix[dim]))
                        or (
                            prefix[dim],
                            np.asarray(prefix[dim].bounds, dtype=np.int64),
                            np.asarray(
                                prefix[dim].remainders, dtype=np.int64
                            ),
                        )
                    ]
                    if dim in prefix
                    else menu_entries[dim]
                )
                for dim in dims
            ]
            for combo in itertools.product(*per_dim):
                feasible = True
                for offset, cap in spatial_caps:
                    product = 1
                    for chain, _, _ in combo:
                        product *= chain.bounds[offset]
                    if product > cap:
                        feasible = False
                        break
                if not feasible:
                    continue
                for d, (_, chain_bounds, chain_rems) in enumerate(combo):
                    bounds[fill, :, d] = chain_bounds
                    rems[fill, :, d] = chain_rems
                if tag_buf is not None:
                    tag_buf[fill] = row_tag
                fill += 1
                if fill == batch_size:
                    _obs.inc("mapspace.batches")
                    _obs.inc("mapspace.candidates", batch_size)
                    yield MappingBatch(
                        layout=layout,
                        bounds=bounds,
                        rems=rems,
                        pos=pos,
                        fallback=np.zeros(batch_size, dtype=bool),
                        tags=tag_buf,
                    )
                    bounds = np.ones(shape, dtype=np.int64)
                    rems = np.ones(shape, dtype=np.int64)
                    if tag_buf is not None:
                        tag_buf = np.zeros(batch_size, dtype=np.int64)
                    fill = 0
        if fill:
            _obs.inc("mapspace.batches")
            _obs.inc("mapspace.candidates", fill)
            yield MappingBatch(
                layout=layout,
                bounds=bounds[:fill],
                rems=rems[:fill],
                pos=pos[:fill],
                fallback=np.zeros(fill, dtype=bool),
                tags=tag_buf[:fill] if tag_buf is not None else None,
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
