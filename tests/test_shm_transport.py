"""Shared-memory transport: roundtrips, fallback parity, crash hygiene.

The transport's contract has three legs:

* **fidelity** — arrays and packed batches attach bit-identical to what
  was shared, whether the bundle rode shared memory or the pickle
  fallback;
* **hygiene** — the driver is the only unlinker, so ``/dev/shm`` ends
  clean even when a worker dies mid-batch by SIGKILL;
* **schema stability** — a search forced onto the pickle fallback
  returns the same ``SearchResult.stats`` shape (and the same optimum)
  as the shm path, so downstream consumers never branch on transport.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.arch import eyeriss_like
from repro.mapspace import MapspaceKind
from repro.mapspace.factory import make_mapspace
from repro.model import Evaluator
from repro.model.batch import BatchEvaluator, MappingBatch
from repro.model.shm import SEGMENT_PREFIX, BundleHandle, ShmArrayBundle
from repro.problem import GemmLayer
from repro.search import BranchBoundSearch


def _segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


def _arrays():
    return {
        "a": np.arange(12, dtype=np.int64).reshape(3, 4),
        "b": np.array([5.0, 6.5], dtype=np.float64),
        "c": np.array([7], dtype=np.int64),
    }


def _fixture():
    arch = eyeriss_like()
    workload = GemmLayer("g8x4x4", m=8, n=4, k=4).workload()
    space = make_mapspace(arch, workload, MapspaceKind.PFM)
    return space, Evaluator(arch, workload)


class TestBundleRoundtrip:
    def test_share_attach_roundtrip(self):
        bundle = ShmArrayBundle.share(_arrays())
        try:
            assert bundle.transport == "shm"
            assert bundle.handle.segment.startswith(SEGMENT_PREFIX)
            attached = ShmArrayBundle.attach(bundle.handle)
            for name, original in _arrays().items():
                view = attached.arrays[name]
                np.testing.assert_array_equal(view, original)
                assert not view.flags.writeable
            # Views must be dropped before the mapping is closed.
            del view, attached
        finally:
            bundle.release()
        assert not _segments()

    def test_pickle_fallback_roundtrip(self):
        bundle = ShmArrayBundle.share(_arrays(), allow_shm=False)
        assert bundle.transport == "pickle"
        assert bundle.handle.segment is None
        attached = ShmArrayBundle.attach(bundle.handle)
        for name, original in _arrays().items():
            np.testing.assert_array_equal(attached.arrays[name], original)
        bundle.release()
        assert not _segments()

    def test_release_is_idempotent(self):
        bundle = ShmArrayBundle.share(_arrays())
        bundle.release()
        bundle.release()
        assert not _segments()


class TestBatchTransport:
    def _first_batch(self, space):
        batch = next(iter(space.iter_batches(batch_size=64)))
        batch.tags = np.arange(batch.size, dtype=np.int64)
        return batch

    @pytest.mark.parametrize("allow_shm", [True, False], ids=["shm", "pickle"])
    def test_batch_prices_identically_after_transport(self, allow_shm):
        space, evaluator = _fixture()
        engine = BatchEvaluator(evaluator, layout=space.batch_layout())
        assert engine.supported
        batch = self._first_batch(space)
        bundle, descriptor = batch.to_shared(allow_shm=allow_shm)
        try:
            restored, attachment = MappingBatch.from_shared(
                space.batch_layout(), descriptor
            )
            np.testing.assert_array_equal(restored.tags, batch.tags)
            before = engine.evaluate_batch(batch, objective="edp")
            after = engine.evaluate_batch(restored, objective="edp")
            np.testing.assert_array_equal(before.valid, after.valid)
            np.testing.assert_array_equal(before.metric, after.metric)
            del restored, attachment
        finally:
            bundle.release()
        assert not _segments()


def _attach_and_hang(handle: BundleHandle, ready) -> None:
    bundle = ShmArrayBundle.attach(handle)
    # Touch the views so the mapping is genuinely live when we die.
    total = int(sum(int(array.sum()) for array in bundle.arrays.values()))
    ready.put((os.getpid(), total))
    time.sleep(60)


class TestCrashHygiene:
    def test_sigkilled_worker_leaks_no_segments(self):
        bundle = ShmArrayBundle.share(_arrays())
        assert bundle.transport == "shm"
        ctx = multiprocessing.get_context("fork")
        ready = ctx.Queue()
        child = ctx.Process(
            target=_attach_and_hang, args=(bundle.handle, ready)
        )
        child.start()
        try:
            pid, total = ready.get(timeout=30)
            expected = int(
                sum(int(array.sum()) for array in _arrays().values())
            )
            assert total == expected
            # Kill mid-use: no atexit hooks, no cleanup, nothing — the
            # exact failure mode a pool worker crash produces.
            os.kill(pid, signal.SIGKILL)
            child.join(timeout=30)
            assert child.exitcode == -signal.SIGKILL
        finally:
            bundle.release()
        assert not _segments()


class TestFallbackSchemaParity:
    def test_search_stats_schema_identical_on_pickle_fallback(
        self, monkeypatch
    ):
        space, evaluator = _fixture()
        # Default leaf width and batch size: this space is small enough
        # for price mode, whose driver-enumerated batches ride the
        # transport (walk units ship only index tuples).
        shm_run = BranchBoundSearch(space, evaluator, seed=0, workers=2).run()
        assert shm_run.stats["pool"]["transport"] == "shm"
        # Simulate a platform without multiprocessing.shared_memory: the
        # same search must degrade to pickle transport, find the same
        # optimum, and emit the same stats schema.
        monkeypatch.setattr("repro.model.shm.HAS_SHM", False)
        pickle_run = BranchBoundSearch(
            space, evaluator, seed=0, workers=2
        ).run()
        assert pickle_run.stats["pool"]["transport"] == "pickle"
        assert pickle_run.best_metric == shm_run.best_metric
        assert set(pickle_run.stats) == set(shm_run.stats)
        assert set(pickle_run.stats["bnb"]) == set(shm_run.stats["bnb"])
        assert set(pickle_run.stats["pool"]) == set(shm_run.stats["pool"])
        assert not _segments()
