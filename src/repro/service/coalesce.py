"""Request coalescing and the shared warm-evaluator pool.

Two forms of sharing keep a mapper service cheap under repeated load:

1. **Request coalescing** — two requests with the same canonical
   ``(architecture, workload, search-config)`` signature are the *same
   search* (searches are seeded and deterministic), so the second attaches
   to the first's job instead of burning a worker slot. The signature is a
   SHA-256 over the sorted-JSON serde dicts, so a preset-name request and
   the equivalent full-dict request coalesce.

2. **Evaluator warm-keep** — repeated requests against the same
   ``(architecture, workload)`` pair reuse one
   :class:`~repro.model.evaluator.Evaluator` carrying a thread-safe
   :class:`~repro.model.eval_cache.EvaluationCache` and one shared
   :class:`~repro.model.batch.BatchEvaluator`. The pool is bounded;
   eviction is *warm-keep*: cold entries (fewest cache hits since
   admission) go first, and entries pinned by in-flight jobs are never
   evicted regardless of temperature.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.arch.spec import Architecture
from repro.energy.table import EnergyTable
from repro.exceptions import ServiceError
from repro.io.serde import architecture_to_dict, workload_to_dict
from repro.model.batch import BatchEvaluator
from repro.model.eval_cache import EvaluationCache
from repro.model.evaluator import Evaluation, Evaluator
from repro.problem.workload import Workload

#: Default bound on distinct (arch, workload) evaluator entries kept warm.
DEFAULT_POOL_SIZE = 8

#: Per-entry evaluation-cache bound. Smaller than the library default:
#: the service keeps several caches alive at once.
DEFAULT_CACHE_ENTRIES = 20_000


def canonical_signature(payload: Dict[str, Any]) -> str:
    """Deterministic hash of a JSON-serializable request payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def pair_signature(arch: Architecture, workload: Workload) -> str:
    """Signature of an (architecture, workload) pair — the pool key."""
    return canonical_signature(
        {
            "arch": architecture_to_dict(arch),
            "workload": workload_to_dict(workload),
        }
    )


class ThreadSafeEvaluationCache(EvaluationCache):
    """An :class:`EvaluationCache` safe to share across worker threads.

    The parent is deliberately lock-free (single-owner search loops); the
    service shares one cache per (arch, workload) entry across its worker
    pool, so lookups and inserts here take a lock. Counter updates ride
    inside it, keeping hit/miss stats exact under concurrency.
    """

    __slots__ = ("_cache_lock",)

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        super().__init__(max_entries)
        self._cache_lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Evaluation]:
        with self._cache_lock:
            return super().get(key)

    def put(self, key: Hashable, evaluation: Evaluation) -> None:
        with self._cache_lock:
            super().put(key, evaluation)

    def clear(self) -> None:
        with self._cache_lock:
            super().clear()


class SharedBatchEngine:
    """Serialize access to one :class:`BatchEvaluator` across threads.

    The batch engine mutates its own counters and scratch state per call,
    so concurrent searches sharing one engine must not interleave inside
    any of its pricing entry points: ``evaluate_rows`` (what random search
    calls), ``evaluate_mappings`` and ``evaluate_batch``. A plain lock
    suffices: batch calls are long enough that contention is amortized,
    and the shared evaluation cache means the *second* search through a
    region mostly hits anyway.
    """

    def __init__(self, engine: Any) -> None:
        self._engine = engine
        self._lock = threading.Lock()

    def evaluate_rows(self, *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            return self._engine.evaluate_rows(*args, **kwargs)

    def evaluate_mappings(self, *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            return self._engine.evaluate_mappings(*args, **kwargs)

    def evaluate_batch(self, *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            return self._engine.evaluate_batch(*args, **kwargs)

    def stats_payload(self) -> Dict[str, Any]:
        with self._lock:
            return self._engine.stats_payload()


class _PoolEntry:
    """One warm (architecture, workload) evaluator slot."""

    __slots__ = (
        "signature",
        "arch",
        "workload",
        "evaluator",
        "cache",
        "engine",
        "pins",
        "admitted_hits",
        "last_used",
    )

    def __init__(
        self,
        signature: str,
        arch: Architecture,
        workload: Workload,
        evaluator: Evaluator,
        cache: ThreadSafeEvaluationCache,
        engine: SharedBatchEngine,
    ) -> None:
        self.signature = signature
        self.arch = arch
        self.workload = workload
        self.evaluator = evaluator
        self.cache = cache
        self.engine = engine
        self.pins = 0
        # Hit count at admission: temperature is hits *since* this entry
        # joined the pool, so a re-admitted pair starts cold again.
        self.admitted_hits = 0
        self.last_used = 0

    def temperature(self) -> int:
        """Cache hits earned since admission — the warm-keep key."""
        return self.cache.hits - self.admitted_hits


class EvaluatorPool:
    """Bounded pool of warm per-(arch, workload) evaluators.

    ``acquire`` returns a pinned entry (refcounted; call ``release`` when
    the job finishes). When admitting a new pair would exceed the bound,
    the *coldest* unpinned entry — fewest cache hits since admission,
    ties broken least-recently-used — is evicted. If every entry is
    pinned the pool grows past its bound rather than stall a job; it
    shrinks back as pins drop.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_POOL_SIZE,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        energy_table: Optional[EnergyTable] = None,
    ) -> None:
        if max_entries < 1:
            raise ServiceError(
                f"evaluator pool needs max_entries >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.cache_entries = cache_entries
        self.energy_table = energy_table
        self._lock = threading.Lock()
        self._entries: Dict[str, _PoolEntry] = {}
        self._clock = 0
        self.admissions = 0
        self.reuses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def acquire(
        self, arch: Architecture, workload: Workload
    ) -> Tuple[_PoolEntry, bool]:
        """Pin and return the entry for this pair; build one on miss.

        Returns ``(entry, reused)``. The build (energy table + batch
        layout precompute) runs outside the pool lock so a cold miss
        does not stall warm acquires; the small race where two threads
        build the same pair resolves by keeping the first-registered
        entry.
        """
        with self._lock:
            signature = pair_signature(arch, workload)
            entry = self._entries.get(signature)
            if entry is not None:
                entry.pins += 1
                self._clock += 1
                entry.last_used = self._clock
                self.reuses += 1
                return entry, True
        built = self._build(signature, arch, workload)
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                entry = built
                entry.admitted_hits = entry.cache.hits
                self._entries[signature] = entry
                self.admissions += 1
                reused = False
            else:
                reused = True
                self.reuses += 1
            # Pin and touch BEFORE the eviction sweep: a freshly admitted
            # entry must not be its own (coldest, never-used) victim.
            entry.pins += 1
            self._clock += 1
            entry.last_used = self._clock
            if not reused:
                self._evict_cold_locked()
            return entry, reused

    def release(self, entry: _PoolEntry) -> None:
        """Drop one pin; an over-bound pool sheds cold entries here."""
        with self._lock:
            if entry.pins <= 0:
                raise ServiceError(
                    f"evaluator pool entry {entry.signature[:8]} released "
                    f"more times than acquired"
                )
            entry.pins -= 1
            self._evict_cold_locked()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            entries = list(self._entries.values())
            return {
                "size": len(entries),
                "max_entries": self.max_entries,
                "admissions": self.admissions,
                "reuses": self.reuses,
                "evictions": self.evictions,
                "pinned": sum(1 for e in entries if e.pins > 0),
                "cache": {
                    "hits": sum(e.cache.hits for e in entries),
                    "misses": sum(e.cache.misses for e in entries),
                },
            }

    def _build(
        self, signature: str, arch: Architecture, workload: Workload
    ) -> _PoolEntry:
        cache = ThreadSafeEvaluationCache(self.cache_entries)
        evaluator = Evaluator(
            arch, workload, self.energy_table, cache=cache
        )
        engine = SharedBatchEngine(BatchEvaluator(evaluator))
        return _PoolEntry(signature, arch, workload, evaluator, cache, engine)

    def _evict_cold_locked(self) -> None:
        while len(self._entries) > self.max_entries:
            evictable: List[_PoolEntry] = [
                e for e in self._entries.values() if e.pins == 0
            ]
            if not evictable:
                return  # everything in flight; shed on release
            victim = min(
                evictable, key=lambda e: (e.temperature(), e.last_used)
            )
            del self._entries[victim.signature]
            self.evictions += 1
