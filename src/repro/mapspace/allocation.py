"""Per-dimension bound allocation: where PFM and Ruby actually differ.

A dimension of size ``D`` gets one bound per slot. Walking slots inner to
outer with a running residue ``V`` (initially ``D``):

* an **exact** slot must pick a divisor of ``V`` and leaves ``V / b``;
* an **imperfect** slot may pick any ``b`` and leaves ``ceil(V / b)`` — the
  shortfall becomes the Eq. (5) remainder on the globally-last iteration;
* the outermost temporal slot absorbs whatever residue remains.

Which slots are exact defines the mapspace: all exact = PFM; spatial free =
Ruby-S; temporal free = Ruby-T; all free = Ruby. The remainders are then
uniquely determined by the mixed-radix decomposition of ``D - 1`` over the
inner-to-outer bounds (see :func:`assign_remainders`), which is why
generation never has to search over remainder values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import MapspaceError
from repro.mapspace.slots import Slot
from repro.utils.mathx import ceil_div, divisors, mixed_radix_digits


@dataclass(frozen=True)
class DimChain:
    """The allocated loop bounds of one dimension, aligned with the slots.

    ``bounds`` and ``remainders`` are outer-to-inner (slot order).
    """

    dim: str
    bounds: Tuple[int, ...]
    remainders: Tuple[int, ...]


def assign_remainders(size: int, bounds_outer_to_inner: Sequence[int]) -> Tuple[int, ...]:
    """Derive Eq. (5) remainders for given bounds covering ``size`` points.

    Writing the bounds inner-to-outer as radices, ``size - 1`` decomposes
    into mixed-radix digits; ``R_i = digit_i + 1``. Raises
    :class:`MapspaceError` when the bounds cannot cover ``size`` (the
    most-significant digit would exceed the outermost bound).
    """
    if size < 1:
        raise MapspaceError(f"dimension size must be >= 1, got {size}")
    if not bounds_outer_to_inner:
        if size == 1:
            return ()
        raise MapspaceError(f"no bounds to cover size {size}")
    inner_to_outer = list(reversed(bounds_outer_to_inner))
    digits = mixed_radix_digits(size - 1, inner_to_outer[:-1])
    outermost_remainder = digits[-1] + 1
    if outermost_remainder > inner_to_outer[-1]:
        raise MapspaceError(
            f"bounds {tuple(bounds_outer_to_inner)} cannot cover {size}: "
            f"outermost needs remainder {outermost_remainder}"
        )
    remainders_inner_to_outer = [digit + 1 for digit in digits]
    return tuple(reversed(remainders_inner_to_outer))


#: Entries a chain-drawer memo holds before it is cleared, which bounds
#: the memory of very long searches over large imperfect spaces.
MEMO_LIMIT = 1 << 15


def _memoize(memo: Dict, key, value) -> None:
    if len(memo) >= MEMO_LIMIT:
        memo.clear()
    memo[key] = value


class DimAllocator:
    """Allocates per-dimension bounds over a slot skeleton.

    Args:
        slots: outer-to-inner slot list from :func:`~repro.mapspace.slots.build_slots`.
        spatial_imperfect: spatial slots may take non-divisor bounds.
        temporal_imperfect: temporal slots may take non-divisor bounds.
    """

    SAMPLING_MODES = ("structured", "uniform")

    def __init__(
        self,
        slots: Sequence[Slot],
        spatial_imperfect: bool,
        temporal_imperfect: bool,
        sampling: str = "structured",
    ) -> None:
        if not slots or slots[0].spatial:
            raise MapspaceError("slot list must start with a temporal slot")
        if sampling not in self.SAMPLING_MODES:
            raise MapspaceError(
                f"sampling must be one of {self.SAMPLING_MODES}, got {sampling!r}"
            )
        self.slots = list(slots)
        self.spatial_imperfect = spatial_imperfect
        self.temporal_imperfect = temporal_imperfect
        self.sampling = sampling
        self._plans: Dict[str, Tuple[Tuple[int, bool, bool], ...]] = {}
        self._divisor_memo: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._remainder_memo: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}

    def _slot_is_imperfect(self, slot: Slot) -> bool:
        return self.spatial_imperfect if slot.spatial else self.temporal_imperfect

    def sample_chain(
        self,
        dim: str,
        size: int,
        rng: random.Random,
        spatial_budgets: Dict[int, int],
    ) -> DimChain:
        """Sample one bound chain for ``dim``; mutates ``spatial_budgets``.

        ``spatial_budgets`` maps slot list indices to the remaining fanout
        available at each spatial slot (shared across dimensions; a missing
        spatial slot has budget 1).
        """
        budgets = [spatial_budgets.get(offset, 1) for offset in range(len(self.slots))]
        bounds, remainders = self.draw(dim, size, rng, budgets)
        for offset, slot in enumerate(self.slots):
            if slot.spatial and bounds[offset] > 1:
                spatial_budgets[offset] = budgets[offset]
        return DimChain(dim=dim, bounds=bounds, remainders=remainders)

    def draw(
        self, dim: str, size: int, rng: random.Random, budgets: List[int]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Draw one chain's outer-to-inner bounds and remainders; mutates
        ``budgets``.

        The chain drawer shared by :meth:`sample_chain` and the columnar
        sampler (:meth:`MapSpace.sample_batch`). ``budgets`` is indexed by
        slot offset and holds the fanout left at each spatial slot.

        Slots are visited inner to outer with a running residue. A slot
        whose dim is disallowed, or reached once the residue is 1, takes
        bound 1 without touching the RNG; the outermost slot absorbs the
        residue. Every other slot draws from ``[1, cap]`` (``cap`` is the
        residue, clipped to the budget at spatial slots):

        * an exact slot picks uniformly among the divisors of the residue
          up to ``cap``;
        * an imperfect slot in ``"uniform"`` mode picks uniformly from
          ``[1, cap]``;
        * an imperfect slot in ``"structured"`` mode (default) adds density
          on the high-value regions: 40% uniform, 40% a divisor of the
          residue (the perfect sub-space, so Ruby never converges slower
          than PFM merely for lack of samples), 20% the cap itself (the
          utilization-maximizing choice imperfect factorization exists to
          reach). Every value stays reachable; only density differs.

        The RNG calls are exactly those of ``rng.randint(1, cap)`` and
        ``rng.choice(options)`` (both reduce to one ``_randbelow``), so the
        stream matches the object sampler's draw for draw.
        """
        randbelow = rng._randbelow
        divisor_memo = self._divisor_memo
        plan = self._plans.get(dim)
        if plan is None:
            plan = self._plan(dim)
        bounds = [1] * len(self.slots)
        residue = size
        for offset, spatial, imperfect in plan:
            if residue == 1:
                break
            cap = residue
            if spatial:
                cap = min(residue, max(1, budgets[offset]))
            if imperfect and self.sampling == "uniform":
                bound = 1 + randbelow(cap)
            elif imperfect:
                roll = rng.random()
                if roll < 0.4:
                    bound = 1 + randbelow(cap)
                elif roll < 0.8:
                    options = divisor_memo.get(
                        (residue, cap)
                    ) or self._divisors_upto(residue, cap)
                    bound = options[randbelow(len(options))]
                else:
                    bound = cap
            else:
                options = divisor_memo.get(
                    (residue, cap)
                ) or self._divisors_upto(residue, cap)
                bound = options[randbelow(len(options))]
            if bound > 1:
                bounds[offset] = bound
                residue = -(-residue // bound)
                if spatial:
                    budgets[offset] //= bound
        bounds[0] = residue
        chain = tuple(bounds)
        remainders = self._remainder_memo.get((size, chain))
        if remainders is None:
            remainders = assign_remainders(size, chain)
            _memoize(self._remainder_memo, (size, chain), remainders)
        return chain, remainders

    def _plan(self, dim: str) -> Tuple[Tuple[int, bool, bool], ...]:
        """Build and cache ``(offset, spatial, imperfect)`` of the slots
        ``dim`` may use, inner to outer, outermost excluded."""
        plan = tuple(
            (offset, slot.spatial, self._slot_is_imperfect(slot))
            for offset, slot in reversed(list(enumerate(self.slots)))
            if offset > 0 and slot.allows(dim)
        )
        self._plans[dim] = plan
        return plan

    def _divisors_upto(self, residue: int, cap: int) -> Tuple[int, ...]:
        """Build and memoize the divisors of ``residue`` not above ``cap``."""
        options = tuple(d for d in divisors(residue) if d <= cap)
        _memoize(self._divisor_memo, (residue, cap), options)
        return options

    @staticmethod
    def _advance(slot: Slot, residue: int, bound: int) -> int:
        if residue % bound == 0:
            return residue // bound
        return ceil_div(residue, bound)

    def enumerate_chains(
        self,
        dim: str,
        size: int,
        spatial_caps: Optional[Dict[int, int]] = None,
    ) -> Iterator[DimChain]:
        """Exhaustively yield every bound chain for ``dim``.

        ``spatial_caps`` optionally overrides each spatial slot's cap (list
        index -> cap). Joint cross-dimension fanout limits are the caller's
        concern. Intended for toy problems and counting studies — the
        imperfect spaces grow like ``size**num_free_slots``.
        """
        caps = spatial_caps or {}

        def options(offset: int, residue: int) -> List[int]:
            slot = self.slots[offset]
            if offset == 0:
                return [residue]
            if residue == 1 or not slot.allows(dim):
                return [1]
            cap = residue
            if slot.spatial:
                cap = min(cap, caps.get(offset, slot.fanout_cap or 1))
                cap = max(cap, 1)
            if self._slot_is_imperfect(slot):
                return list(range(1, cap + 1))
            return [d for d in divisors(residue) if d <= cap]

        def recurse(offset: int, residue: int, acc: List[int]) -> Iterator[List[int]]:
            if offset < 0:
                if residue == 1:
                    yield list(acc)
                return
            slot = self.slots[offset]
            for bound in options(offset, residue):
                if offset == 0:
                    yield list(acc) + [bound]
                    continue
                next_residue = self._advance(slot, residue, bound)
                yield from recurse(offset - 1, next_residue, acc + [bound])

        for inner_to_outer in recurse(len(self.slots) - 1, size, []):
            bounds = tuple(reversed(inner_to_outer))
            yield DimChain(
                dim=dim,
                bounds=bounds,
                remainders=assign_remainders(size, bounds),
            )
