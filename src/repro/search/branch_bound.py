"""Hierarchical branch-and-bound mapper with partial-cost pruning.

The flat searchers traverse the whole chain-product enumeration, pricing
every candidate at least partially (the batch engine's row pruning still
packs and cycles every row). This searcher instead walks the *prefix tree*
over problem dimensions: each tree level fixes one dimension's complete
Eq. (5) bound+remainder chain, and every node is priced with an admissible
lower bound over all completions
(:class:`~repro.model.batch.PartialBoundEngine`). Any subtree whose bound
cannot beat the incumbent is cut before a single one of its candidates is
enumerated — the lift from "prune rows in a packed batch" to "prune
regions of the mapspace" (ROADMAP item 2; cf. the level-by-level
ComputeLevelMapper idiom).

Search order and exactness:

* **warm start** — a short random-sampling pass seeds the incumbent. The
  samples are assembled in canonical loop order (``assemble(..., rng=None)``),
  so every warm candidate is a member of the enumerated space and the
  final best is always an enumeration member.
* **best-first** — nodes pop in ascending bound order (ties broken by a
  monotone insertion counter, so the trajectory is seed-deterministic).
  Bounds are monotone along the tree, so the first prunable node at the
  front of the heap proves every remaining node prunable and the search
  terminates with the exact optimum.
* **feasibility cuts** — a child whose every completion overflows a
  buffer or a joint fanout cap is cut at expansion (admissible: free
  dims at their smallest extents), and the leaf sweep masks infeasible
  cells exactly; both are one rule,
  :meth:`~repro.model.batch.PartialBoundEngine._fits`. Such candidates
  would price to ``inf``, so cutting them never changes the answer.
* **leaf batches** — once a subtree is small enough, it is buffered
  rather than branched; buffered subtrees flush together. At flush time
  each buffered bound is re-checked against the incumbent — which
  usually improved since the leaf was popped — so late leaves are often
  cut without enumerating a row, and the surviving leaves' completions
  get one dense feasibility-and-bound sweep. The surviving cells become
  menu-index rows, and :meth:`MapSpace.iter_index_batches` packs the
  rows of *many* subtrees into shared full-width batches (tiny per-leaf
  batches would otherwise dominate the runtime). They are priced by the
  bit-exact vectorized engine with row-level pruning against the same
  incumbent.
  The returned best-EDP is therefore bit-identical to
  :class:`~repro.search.exhaustive.ExhaustiveSearch` — asserted by the
  ``branch-bound-parity`` invariant in :mod:`repro.verify.invariants`.

The walk itself lives in :class:`_SubtreeWalker`, parameterized by an
*incumbent cell* (:class:`~repro.search.worker_pool.LocalIncumbent` here;
:class:`~repro.search.worker_pool.SharedIncumbent` when
:mod:`repro.search.branch_bound_parallel` fans subtrees over a worker
pool with ``workers > 1``). Serial search reads and writes the local cell
exactly where it used to read ``best_metric``, so the trajectory — and
the returned best — is unchanged; parallel workers read the shared cell
at the same points, which makes every cross-process cut subject to the
same ``PRUNE_MARGIN`` guard and keeps the best-EDP bit-identical.

When the batch engine does not support the (arch, workload, evaluator)
triple, the search degrades to the scalar exhaustive sweep — same result,
no subtree pruning — and reports ``mode="scalar-fallback"`` (``workers``
is ignored on that path).
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.generator import MapSpace
from repro.model.batch import PRUNE_MARGIN, BatchEvaluator, PartialBoundEngine
from repro.model.evaluator import Evaluation, Evaluator
from repro.obs import SearchTimer
from repro.search.result import ConvergencePoint, SearchResult
from repro.search.worker_pool import LocalIncumbent
from repro.utils.rng import make_rng

#: Default number of warm-start samples seeding the incumbent.
DEFAULT_WARM_SAMPLES = 64

#: Default subtree size below which completions are priced as batches
#: rather than branched further. Leaves get a dense per-completion bound
#: sweep at flush time, so wide leaves are cheap: the sweep is a handful
#: of broadcast kernels, and only surviving cells are ever enumerated.
DEFAULT_LEAF_WIDTH = 4_096

#: Buffered leaf rows (pre-fanout-filter estimate) that trigger a flush.
#: Large enough that flushes pack full batches; small enough that the
#: incumbent stays fresh between flushes.
FLUSH_ROWS_FACTOR = 8


def dims_branch_order(menus: Sequence[Tuple[str, Tuple]]) -> List[Tuple[str, Tuple]]:
    """Branch the widest menus first: that is where bounds can cut the
    largest subtrees, and it keeps the frontier small. Ties break on
    workload dim order, so the trajectory is fully deterministic — and
    identical between the serial walk and the parallel partitioning."""
    return sorted(menus, key=lambda pair: (-len(pair[1]), pair[0]))


def partial_bound_engine(mapspace: MapSpace, engine) -> PartialBoundEngine:
    """The bound engine of ``mapspace``'s menus, with its feasibility rule
    held to the space's own joint fanout caps (which constraints may set
    below the hardware's)."""
    return PartialBoundEngine(
        engine,
        mapspace.dim_chain_menus(),
        fanout_caps=[slot.fanout_cap for slot in mapspace.slots if slot.spatial],
    )


class _SubtreeWalker:
    """Best-first walk of a prefix (sub)tree against an incumbent cell.

    One implementation serves both regimes: the serial search walks the
    whole tree with a :class:`LocalIncumbent`, and each parallel worker
    walks its assigned top-level subtree with a
    :class:`~repro.search.worker_pool.SharedIncumbent`. The walker keeps
    a cached cut metric (``_cut``) refreshed from the incumbent at every
    node pop, flush, and batch — the points where the serial search read
    ``best_metric`` — and re-reads it whenever an ``offer`` loses a race,
    so pruning is never done against anything but a real candidate's
    true metric. Under the local cell this is bit-for-bit the original
    serial trajectory.

    Alongside the incumbent the walker tracks its own best candidate
    (evaluation, metric, chains, and menu-index signature in workload dim
    order) so a parallel driver can re-price every worker's claim and
    return a bit-identical best metric regardless of race timing.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        engine,
        evaluator: Evaluator,
        bound_engine,
        dims_order: Sequence[Tuple[str, Tuple]],
        objective: str,
        leaf_width: int,
        batch_size: int,
        limit: Optional[int],
        incumbent,
        tracker=None,
    ) -> None:
        self.mapspace = mapspace
        self.engine = engine
        self.evaluator = evaluator
        self.bound_engine = bound_engine
        self.dims_order = list(dims_order)
        self.objective = objective
        self.leaf_width = leaf_width
        self.batch_size = batch_size
        self.limit = limit
        self.incumbent = incumbent
        #: Optional ProgressTracker advanced as cells are covered (serial
        #: search passes the timer's; parallel workers leave it None and
        #: the driver advances per arriving unit instead).
        self.tracker = tracker
        self.menu_by_dim = dict(self.dims_order)
        self.num_dims = len(self.dims_order)
        #: Workload dim order — the canonical signature axis (matches
        #: ``dim_chain_menus`` and the batch layout's dim columns).
        self.workload_dims = [dim for dim, _ in mapspace.dim_chain_menus()]
        # suffix_product[k] = candidates (pre-fanout-filter) below depth k.
        suffix = [1] * (self.num_dims + 1)
        for k in range(self.num_dims - 1, -1, -1):
            suffix[k] = suffix[k + 1] * len(self.dims_order[k][1])
        self.suffix_product = suffix

        self.evaluations = 0
        self.num_valid = 0
        self.nodes_expanded = 0
        self.leaves_deferred = 0
        self.subtrees_pruned = 0
        self.infeasible_subtrees = 0
        #: Pre-filter cells this walker has resolved (priced, pruned, or
        #: proved infeasible). Every cell of a walked subtree is counted
        #: exactly once, so a completed ``walk(root)`` accumulates exactly
        #: ``suffix_product[len(root)]`` — the progress-total invariant
        #: the branch-bound tests pin.
        self.cells_covered = 0.0
        #: The incumbent's evaluation thunk; :attr:`best` runs it once.
        self._make_best: Optional[Callable[[], Evaluation]] = None
        self._best: Optional[Evaluation] = None
        self.best_metric = float("inf")
        self.best_chains: Optional[Dict[str, object]] = None
        self.best_signature: Optional[Tuple[int, ...]] = None
        self.curve: List[ConvergencePoint] = []

        self._cut = float(incumbent.read())
        # Leaf subtrees are buffered and flushed together so their rows
        # pack into shared full-width batches (per-leaf batches would be
        # mostly empty and the per-batch kernel overhead would swamp the
        # pruning win).
        self._leaf_buffer: List[Tuple[float, Tuple[int, ...]]] = []
        self._leaf_rows = 0
        self._flush_rows = FLUSH_ROWS_FACTOR * batch_size
        self._counter = 1

    @property
    def best(self) -> Optional[Evaluation]:
        """The walker's best candidate's :class:`Evaluation`.

        Improvements keep only a thunk; it is materialized here, on the
        first read after the last improvement, so a walk prices its answer
        once instead of once per improvement (parallel workers never read
        it: :func:`~repro.search.branch_bound_parallel.run_parallel_tree`
        re-prices their claims).
        """
        if self._make_best is not None:
            self._best = self._make_best()
            self._make_best = None
        return self._best

    def _cover(self, cells: float) -> None:
        """Account ``cells`` pre-filter candidates as resolved."""
        if cells <= 0:
            return
        self.cells_covered += cells
        if self.tracker is not None:
            self.tracker.advance(cells)

    # -- improvements ----------------------------------------------------

    def _consider(
        self,
        metric: float,
        make_evaluation: Callable[[], Evaluation],
        chains: Optional[Dict[str, object]] = None,
        signature: Optional[Tuple[int, ...]] = None,
    ) -> bool:
        """Offer a true candidate metric to the incumbent.

        ``make_evaluation`` is kept, not called: :attr:`best` calls the
        last winner's once. A losing offer — possible only under a shared
        incumbent, when another worker posted a better true metric first —
        refreshes the cut instead.
        """
        if not metric < self._cut:
            return False

        if signature is None:
            signature = (-1,) * len(self.workload_dims)
        if not self.incumbent.offer(metric, signature):
            self._cut = float(self.incumbent.read())
            return False
        self._cut = metric
        self._make_best = make_evaluation
        self.best_metric = metric
        self.best_chains = dict(chains) if chains is not None else None
        self.best_signature = tuple(int(x) for x in signature)
        self.curve.append(
            ConvergencePoint(evaluations=self.evaluations, best_metric=metric)
        )
        obs.inc("search.improvements", driver="branch-bound")
        obs.set_gauge("search.best_metric", metric, driver="branch-bound")
        if self.tracker is not None:
            self.tracker.improved(metric)
        return True

    def price_mappings(self, mappings, chains_list=None) -> None:
        """Price assembled mappings through the engine (no row pruning).

        Used for the warm start and for the parallel driver's final
        re-price of worker claims; every improving candidate goes through
        :meth:`_consider`, so order decides ties deterministically.
        """
        outcomes = self.engine.evaluate_mappings(
            mappings, objective=self.objective, prune=False
        )
        for i, (mapping, outcome) in enumerate(zip(mappings, outcomes)):
            self.evaluations += 1
            if not outcome.valid:
                continue
            self.num_valid += 1

            def make_evaluation(outcome=outcome, mapping=mapping):
                if outcome.evaluation is not None:
                    return outcome.evaluation
                return self.evaluator.evaluate_fresh(mapping)

            self._consider(
                float(outcome.metric),
                make_evaluation,
                chains=chains_list[i] if chains_list is not None else None,
            )

    # -- the walk --------------------------------------------------------

    def walk(self, root_indices: Tuple[int, ...] = ()) -> float:
        """Best-first walk of the subtree rooted at ``root_indices``
        (menu indices along ``dims_order``; empty = the whole tree).
        Returns the root's bound. Buffered leaves are flushed before
        returning, so the walker's best is final when this returns.
        """
        dims_order = self.dims_order
        root_assigned = {
            dims_order[i][0]: k for i, k in enumerate(root_indices)
        }
        root_bound = self.bound_engine.bound(root_assigned, self.objective)
        # Heap entries: (bound, insertion counter, chain-index tuple
        # along dims_order). The counter makes ties deterministic.
        heap: List[Tuple[float, int, Tuple[int, ...]]] = [
            (root_bound, 0, tuple(root_indices))
        ]
        while heap:
            node_bound, _, indices = heapq.heappop(heap)
            self._cut = float(self.incumbent.read())
            if (
                self._cut != float("inf")
                and node_bound * (1.0 - PRUNE_MARGIN) >= self._cut
            ):
                # Best-first: every remaining node's bound is at least
                # this one, so the whole frontier is proved prunable.
                pruned_now = 1 + len(heap)
                self.subtrees_pruned += pruned_now
                obs.inc("search.subtrees_pruned", pruned_now,
                        driver="branch-bound")
                self._cover(
                    self.suffix_product[len(indices)]
                    + sum(
                        self.suffix_product[len(entry[2])] for entry in heap
                    )
                )
                heap.clear()
                break
            depth = len(indices)
            if depth == self.num_dims or (
                self.suffix_product[depth] <= self.leaf_width
            ):
                # Deferred, not expanded: the node's completions will be
                # priced (or cut) at flush time. Counted separately from
                # expansions so both stats stay meaningful.
                self.leaves_deferred += 1
                self._leaf_buffer.append((node_bound, indices))
                self._leaf_rows += self.suffix_product[depth]
                if self._leaf_rows >= self._flush_rows:
                    self.flush_leaves()
                continue
            self.nodes_expanded += 1
            dim, menu = dims_order[depth]
            assigned = {
                dims_order[i][0]: k for i, k in enumerate(indices)
            }
            # One vectorized call each prices and feasibility-checks the
            # whole menu of children.
            child_bounds = self.bound_engine.child_bounds(
                assigned, dim, self.objective
            )
            feasible = np.flatnonzero(
                self.bound_engine.child_feasible(assigned, dim)
            )
            infeasible = len(menu) - feasible.size
            if infeasible:
                # No completion of these children fits the fanout caps or
                # a buffer; not a bound decision, so counted separately.
                self.infeasible_subtrees += infeasible
                self._cover(infeasible * self.suffix_product[depth + 1])
            for k in feasible.tolist():
                child_bound = float(child_bounds[k])
                if (
                    self._cut != float("inf")
                    and child_bound * (1.0 - PRUNE_MARGIN) >= self._cut
                ):
                    self.subtrees_pruned += 1
                    obs.inc("search.subtrees_pruned",
                            driver="branch-bound")
                    self._cover(self.suffix_product[depth + 1])
                    continue
                heapq.heappush(
                    heap, (child_bound, self._counter, indices + (k,))
                )
                self._counter += 1

        # Leaves buffered after the last threshold flush (including any
        # left when the frontier drained) still need pricing; the flush
        # re-checks their bounds against the final incumbent.
        self.flush_leaves()
        return root_bound

    def flush_leaves(self) -> None:
        """Price every buffered leaf subtree through shared batches.

        At flush time each leaf's stored bound is re-checked against the
        incumbent — which usually improved since the leaf was popped.
        The surviving leaves are then swept together, one
        :meth:`~repro.model.batch.PartialBoundEngine.suffix_bounds` and
        one :meth:`~repro.model.batch.PartialBoundEngine.suffix_feasible`
        call per run of equal-depth leaves (every leaf of one tree sits at
        the same depth, so that is one sweep per flush). A cell that fails
        fanout or capacity counts in ``infeasible_subtrees``; a feasible
        cell whose complete-assignment bound cannot beat the incumbent
        counts in ``subtrees_pruned``. Neither is ever enumerated into a
        batch. Surviving cells become menu-index rows (one column per
        workload dimension) in leaf order, then C order, and
        :meth:`MapSpace.iter_index_batches` gathers them into batches.
        """
        if not self._leaf_buffer:
            return
        self._cut = float(self.incumbent.read())
        live: List[Tuple[int, ...]] = []
        for leaf_bound, leaf_indices in self._leaf_buffer:
            if (
                self._cut != float("inf")
                and leaf_bound * (1.0 - PRUNE_MARGIN) >= self._cut
            ):
                self.subtrees_pruned += 1
                obs.inc("search.subtrees_pruned", driver="branch-bound")
                self._cover(self.suffix_product[len(leaf_indices)])
                continue
            live.append(leaf_indices)
        self._leaf_buffer.clear()
        self._leaf_rows = 0
        pieces = [np.empty((0, len(self.workload_dims)), dtype=np.int64)]
        for depth, group in itertools.groupby(live, key=len):
            group = list(group)
            leaves = np.array(group, dtype=np.int64).reshape(len(group), depth)
            pieces.append(self._sweep(leaves))
        cells = np.concatenate(pieces)
        if not len(cells):
            return
        rows_priced = 0
        with obs.trace("search.leaf_flush", subtrees=len(cells)):
            for batch in self.mapspace.iter_index_batches(
                [(cells, np.arange(len(cells), dtype=np.int64))],
                batch_size=self.batch_size,
            ):
                if (
                    self.limit is not None
                    and self.evaluations + batch.size > self.limit
                ):
                    raise SearchError(
                        f"branch-and-bound search exceeded limit of "
                        f"{self.limit} priced mappings"
                    )
                self._cut = float(self.incumbent.read())
                outcome = self.engine.evaluate_batch(
                    batch,
                    objective=self.objective,
                    incumbent=self._cut,
                    prune=True,
                )
                obs.inc(
                    "search.candidates", batch.size, driver="branch-bound"
                )
                rows_priced += batch.size
                self._cover(batch.size)
                # The cut only falls during a batch, so a row that does
                # not beat it at batch start can never improve. The rest
                # are offered in row order, each with ``evaluations`` at
                # its own row: the curve of a row-by-row loop.
                start = self.evaluations
                self.num_valid += int(outcome.valid.sum())
                improving = np.flatnonzero(
                    outcome.valid
                    & ~outcome.pruned
                    & (outcome.metric < self._cut)
                )
                for i in improving:
                    i = int(i)
                    self.evaluations = start + i + 1
                    cell = cells[int(batch.tags[i])]

                    def make_evaluation(outcome=outcome, batch=batch, i=i):
                        evaluation = outcome.evaluations.get(i)
                        if evaluation is not None:
                            return evaluation
                        return self.evaluator.evaluate_fresh(
                            batch.mapping_at(i)
                        )

                    self._consider(
                        float(outcome.metric[i]),
                        make_evaluation,
                        chains={
                            dim: self.menu_by_dim[dim][int(k)]
                            for dim, k in zip(self.workload_dims, cell)
                        },
                        signature=tuple(int(k) for k in cell),
                    )
                self.evaluations = start + batch.size
        # Cells the joint-fanout filter dropped never became rows; they
        # are resolved all the same.
        self._cover(len(cells) - rows_priced)

    def _sweep(self, leaves: np.ndarray) -> np.ndarray:
        """Menu-index rows of the cells of ``leaves`` that survive the
        feasibility mask and the bound cut (``leaves``: one row of menu
        indices along ``dims_order`` per leaf, all of one depth)."""
        depth = leaves.shape[1]
        assigned = {
            self.dims_order[i][0]: leaves[:, i] for i in range(depth)
        }
        feasible = self.bound_engine.suffix_feasible(assigned)
        grid = self.bound_engine.suffix_bounds(assigned, self.objective)
        keep = feasible
        infeasible = feasible.size - int(np.count_nonzero(feasible))
        if infeasible:
            self.infeasible_subtrees += infeasible
            self._cover(infeasible)
        if self._cut != float("inf"):
            keep = feasible & (grid * (1.0 - PRUNE_MARGIN) < self._cut)
            cut = feasible.size - infeasible - int(np.count_nonzero(keep))
            if cut:
                self.subtrees_pruned += cut
                obs.inc("search.subtrees_pruned", cut, driver="branch-bound")
                # Each cut cell is one complete assignment.
                self._cover(cut)
        # Grid axes: the leaf, then the free dims in workload order.
        coords = np.unravel_index(np.flatnonzero(keep), grid.shape)
        rows = np.empty((coords[0].size, len(self.workload_dims)), np.int64)
        column = {dim: d for d, dim in enumerate(self.workload_dims)}
        for i in range(depth):
            rows[:, column[self.dims_order[i][0]]] = leaves[coords[0], i]
        free = [dim for dim in self.workload_dims if dim not in assigned]
        for dim, axis in zip(free, coords[1:]):
            rows[:, column[dim]] = axis
        return rows


class BranchBoundSearch:
    """Exact best-first branch-and-bound over the per-dimension prefix tree.

    Args:
        mapspace: must be enumerable (same regime as exhaustive search).
        evaluator: prices candidates (through the batch engine).
        objective: optimization metric name ("edp", "energy", "delay").
        warm_samples: random samples seeding the incumbent before the
            tree walk; 0 disables warm start.
        leaf_width: subtrees with at most this many candidates are priced
            as packed batches instead of being branched further.
        batch_size: candidates per packed leaf batch.
        limit: safety cap on *priced* candidates (pruned subtrees are
            free); exceeding it raises. ``None`` disables the cap. With
            ``workers > 1`` the cap applies per work unit, not globally.
        seed: RNG seed or generator (consumed only by the warm start).
        workers: fan top-level subtrees over a process pool when > 1
            (see :mod:`repro.search.branch_bound_parallel`); the best
            metric is bit-identical to the serial walk. Ignored on the
            exhaustive fallback.
        start_method: force a multiprocessing start method ("fork" or
            "spawn") for ``workers > 1``; by default each is tried in
            that order before degrading to sequential execution.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        warm_samples: int = DEFAULT_WARM_SAMPLES,
        leaf_width: int = DEFAULT_LEAF_WIDTH,
        batch_size: int = 512,
        limit: Optional[int] = 10_000_000,
        seed: Optional[Union[int, random.Random]] = None,
        workers: int = 1,
        start_method: Optional[str] = None,
    ) -> None:
        if warm_samples < 0:
            raise SearchError("warm_samples must be >= 0")
        if leaf_width < 1:
            raise SearchError("leaf_width must be >= 1")
        if batch_size < 1:
            raise SearchError("batch_size must be >= 1")
        if workers < 1:
            raise SearchError("workers must be >= 1")
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = objective
        self.warm_samples = warm_samples
        self.leaf_width = leaf_width
        self.batch_size = batch_size
        self.limit = limit
        self.rng = make_rng(seed)
        self.workers = workers
        self.start_method = start_method

    def run(self) -> SearchResult:
        engine = BatchEvaluator(
            self.evaluator, layout=self.mapspace.batch_layout()
        )
        if not engine.supported:
            return self._run_exhaustive(engine)
        if self.workers > 1:
            from repro.search.branch_bound_parallel import run_parallel_tree

            return run_parallel_tree(self, engine)
        return self._run_tree(engine)

    # -- exhaustive fallback ---------------------------------------------

    def _run_exhaustive(self, engine) -> SearchResult:
        """No kernels, no bounds: degrade to the exhaustive sweep.

        The partial-bound engine needs the vectorized kernels, so on a
        cost-model config they do not cover (the engine prices every row
        scalar) the tree walk would bound nothing. Same best mapping (the
        tree walk is exact), uniform stats schema (zeroed ``bnb``
        sub-dict), driver relabeled so the run is attributable in traces
        and footers.
        """
        from repro.search.exhaustive import ExhaustiveSearch

        with obs.trace(
            "search.run", driver="branch-bound", mode="scalar-fallback",
            objective=self.objective,
        ):
            result = ExhaustiveSearch(
                self.mapspace,
                self.evaluator,
                objective=self.objective,
                limit=self.limit if self.limit is not None else 1_000_000_000,
                batch_size=self.batch_size,
                batch_engine=engine,
            ).run()
        result.stats["bnb"] = _bnb_stats()
        return result

    # -- the tree walk ---------------------------------------------------

    def _warm_start(self, walker: _SubtreeWalker) -> Optional[float]:
        """Seed the incumbent so bounds bite immediately.

        Runs on the walker so improvements flow through the same
        incumbent protocol (and curve/obs hooks) as tree candidates.
        """
        if not self.warm_samples:
            return None
        mapspace = self.mapspace
        with obs.trace("search.warm_start", samples=self.warm_samples):
            chain_sets = [
                mapspace.sample_chains(self.rng)
                for _ in range(self.warm_samples)
            ]
            mappings = [
                mapspace.assemble(chains, rng=None) for chains in chain_sets
            ]
            walker.price_mappings(mappings, chains_list=chain_sets)
        obs.inc("search.candidates", self.warm_samples,
                driver="branch-bound")
        return walker.best_metric if walker.best_metric < float("inf") else None

    def _run_tree(self, engine) -> SearchResult:
        mapspace = self.mapspace
        menus = mapspace.dim_chain_menus()
        bound_engine = partial_bound_engine(mapspace, engine)
        dims_order = dims_branch_order(menus)

        # Total work = the pre-filter menu product: every cell is either
        # priced, pruned, or proved infeasible exactly once, so the
        # walker's covered-cells accounting lands exactly on this number.
        total_cells = 1
        for _, menu in menus:
            total_cells *= len(menu)
        timer = SearchTimer(
            self.evaluator, driver="branch-bound", total_units=total_cells
        )
        with timer, obs.trace(
            "search.run", driver="branch-bound", objective=self.objective
        ):
            walker = _SubtreeWalker(
                mapspace,
                engine,
                self.evaluator,
                bound_engine,
                dims_order,
                objective=self.objective,
                leaf_width=self.leaf_width,
                batch_size=self.batch_size,
                limit=self.limit,
                incumbent=LocalIncumbent(len(menus)),
                tracker=timer.progress,
            )
            warm_metric = self._warm_start(walker)
            root_bound = walker.walk(())
            tightness = (
                root_bound / walker.best_metric
                if walker.best is not None and walker.best_metric > 0
                else None
            )
            if tightness is not None:
                obs.set_gauge(
                    "search.bound_tightness", tightness, driver="branch-bound"
                )

        stats = timer.stats(walker.evaluations, engine=engine)
        stats["bnb"] = _bnb_stats(
            nodes_expanded=walker.nodes_expanded,
            leaves_deferred=walker.leaves_deferred,
            subtrees_pruned=walker.subtrees_pruned,
            infeasible_subtrees=walker.infeasible_subtrees,
            root_bound=root_bound,
            bound_tightness=tightness,
            warm_start_metric=warm_metric,
        )
        return SearchResult(
            best=walker.best,
            objective=self.objective,
            num_evaluated=walker.evaluations,
            num_valid=walker.num_valid,
            terminated_by="exhausted",
            curve=walker.curve,
            stats=stats,
        )


def _bnb_stats(
    nodes_expanded: int = 0,
    leaves_deferred: int = 0,
    subtrees_pruned: int = 0,
    infeasible_subtrees: int = 0,
    root_bound: Optional[float] = None,
    bound_tightness: Optional[float] = None,
    warm_start_metric: Optional[float] = None,
) -> Dict[str, object]:
    """The ``bnb`` stats sub-dict (uniform keys on every path)."""
    return {
        "nodes_expanded": nodes_expanded,
        "leaves_deferred": leaves_deferred,
        "subtrees_pruned": subtrees_pruned,
        "infeasible_subtrees": infeasible_subtrees,
        "root_bound": root_bound,
        "bound_tightness": bound_tightness,
        "warm_start_metric": warm_start_metric,
    }


def branch_bound_search(
    mapspace: MapSpace,
    evaluator: Evaluator,
    objective: str = "edp",
    warm_samples: int = DEFAULT_WARM_SAMPLES,
    leaf_width: int = DEFAULT_LEAF_WIDTH,
    batch_size: int = 512,
    limit: Optional[int] = 10_000_000,
    seed: Optional[Union[int, random.Random]] = None,
    workers: int = 1,
    start_method: Optional[str] = None,
) -> SearchResult:
    """One-shot functional wrapper around :class:`BranchBoundSearch`."""
    return BranchBoundSearch(
        mapspace,
        evaluator,
        objective=objective,
        warm_samples=warm_samples,
        leaf_width=leaf_width,
        batch_size=batch_size,
        limit=limit,
        seed=seed,
        workers=workers,
        start_method=start_method,
    ).run()
