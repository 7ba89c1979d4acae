"""Mapper-service concurrency tests: coalescing under parallel clients,
journal integrity, monotone per-job progress, and warm-cache reuse.

Determinism under concurrency comes from construction, not sleeps: a
gate holds the single worker on a blocker job while client threads race
their submissions in, so "identical requests coalesce to one job" is a
hard invariant here, not a timing hope.
"""

import json
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.io.journal import Journal
from repro.obs import progress_owner
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressTracker, active_trackers
from repro.service import MappingService

pytestmark = pytest.mark.service


def post_json(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8")
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get_json(url):
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


def spec(seed, max_evaluations=300, **overrides):
    payload = {
        "arch": "toy16",
        "workload": {"gemm": {"m": 48, "n": 12, "k": 24}},
        "max_evaluations": max_evaluations,
        "patience": None,
        "seed": seed,
    }
    payload.update(overrides)
    return payload


def run_clients(call, count):
    """Run ``call(index)`` on ``count`` threads at once; return the results.

    A client thread that raises records its exception, and the first one
    is re-raised here, so a dead client fails the test with its own error.
    """
    results = [None] * count
    errors = [None] * count
    barrier = threading.Barrier(count)

    def client(index):
        try:
            barrier.wait(timeout=60)
            results[index] = call(index)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors[index] = error

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results


def wait_all_terminal(url, job_ids, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        states = {
            job["job_id"]: job["state"]
            for job in get_json(url + "/v1/jobs")["jobs"]
        }
        if all(
            states.get(job_id) in ("ok", "failed", "cancelled")
            for job_id in job_ids
        ):
            return states
        time.sleep(0.05)
    raise AssertionError(f"jobs never finished: {states}")


class TestConcurrentClients:
    BLOCKER_SEED = 999_999

    def test_racing_identical_requests_coalesce_to_one_job(self, tmp_path):
        registry = MetricsRegistry()
        journal_path = str(tmp_path / "service.jsonl")
        service = MappingService(
            registry, workers=1, journal_path=journal_path
        )
        with service:
            manager = service.manager
            original = manager._execute
            gate = threading.Event()

            def gated(job):
                if job.spec.config.seed == self.BLOCKER_SEED:
                    assert gate.wait(timeout=60)
                return original(job)

            manager._execute = gated
            _, blocker = post_json(
                service.url + "/v1/search", spec(self.BLOCKER_SEED)
            )
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                job = get_json(
                    f"{service.url}/v1/jobs/{blocker['job_id']}"
                )
                if job["state"] == "running":
                    break
                time.sleep(0.01)
            assert job["state"] == "running"

            # 12 identical + 6 distinct submissions race in from threads
            # while the worker is pinned, so every outcome is forced:
            # the identical twelve MUST share one job id.
            payloads = [spec(7)] * 12 + [spec(seed) for seed in range(6)]
            results = run_clients(
                lambda index: post_json(
                    service.url + "/v1/search", payloads[index]
                ),
                len(payloads),
            )
            assert all(status == 202 for status, _ in results)

            identical_ids = {
                body["job_id"] for _, body in results[:12]
            }
            distinct_ids = {
                body["job_id"] for _, body in results[12:]
            }
            assert len(identical_ids) == 1
            assert len(distinct_ids) == 6
            assert distinct_ids.isdisjoint(identical_ids)

            gate.set()
            all_ids = (
                {blocker["job_id"]} | identical_ids | distinct_ids
            )
            states = wait_all_terminal(service.url, all_ids)
            assert all(states[job_id] == "ok" for job_id in all_ids)

            stats = get_json(service.url + "/v1/stats")
            assert stats["coalesced"] == 11
            # Distinct jobs shared one warm (arch, workload) evaluator:
            # random search re-draws duplicates, so the shared cache must
            # have answered a meaningful share of lookups.
            assert stats["pool"]["size"] == 1
            assert stats["pool"]["cache"]["hits"] > 0

        # Journal integrity after the storm: every line parses, one
        # request record per distinct job, exactly one terminal record
        # per accepted job, no torn interleavings.
        records = Journal(journal_path).read()
        requests = [r for r in records if r.get("kind") == "request"]
        terminals = [r for r in records if r.get("kind") == "job"]
        assert {r["job_id"] for r in requests} == all_ids
        assert len(requests) == len(all_ids)
        terminal_ids = [r["job_id"] for r in terminals]
        assert sorted(terminal_ids) == sorted(all_ids)
        assert len(set(terminal_ids)) == len(terminal_ids)

    def test_identical_rerun_after_completion_hits_warm_cache(self):
        registry = MetricsRegistry()
        service = MappingService(registry, workers=1)
        with service:
            payload = spec(31, max_evaluations=400)
            _, first = post_json(service.url + "/v1/search", payload)
            states = wait_all_terminal(service.url, [first["job_id"]])
            assert states[first["job_id"]] == "ok"
            # The job finished, so an identical request is NEW work —
            # but it replays the same seeded draws against the warm
            # cache, so the result is bit-identical.
            _, second = post_json(service.url + "/v1/search", payload)
            assert second["coalesced"] is False
            assert second["job_id"] != first["job_id"]
            wait_all_terminal(service.url, [second["job_id"]])
            first_body = get_json(
                f"{service.url}/v1/jobs/{first['job_id']}"
            )
            second_body = get_json(
                f"{service.url}/v1/jobs/{second['job_id']}"
            )
            assert (
                first_body["result"]["best"]["edp"]
                == second_body["result"]["best"]["edp"]
            )
            # The batch engine stores only improvements (and rows it
            # priced scalar), and every candidate costs one lookup. Each
            # entry the first run stored is drawn again at the same
            # position of the replay, so each one is a hit there.
            stored = first_body["result"]["stats"]["cache"]["size"]
            cache = second_body["result"]["stats"].get("cache")
            assert cache is not None
            assert stored >= 1
            assert cache["hits"] >= stored

    def test_progress_is_monotone_and_owned_per_job(self):
        registry = MetricsRegistry()
        service = MappingService(registry, workers=2)
        with service:
            _, body = post_json(
                service.url + "/v1/search",
                spec(77, max_evaluations=60_000),
            )
            job_id = body["job_id"]
            observed = []
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                progress = get_json(
                    f"{service.url}/v1/jobs/{job_id}/progress"
                )
                for snapshot in progress["searches"]:
                    assert snapshot["owner"] == job_id
                    observed.append(snapshot["completed_units"])
                if progress["state"] in ("ok", "failed"):
                    break
                time.sleep(0.01)
            assert progress["state"] == "ok"
            assert observed == sorted(observed), (
                "per-job completed_units went backwards"
            )


class TestListenBacklog:
    def test_burst_of_connects_under_cpu_load_all_answered(self):
        """64 simultaneous connects while a CPU hog competes for the cores.

        A starved accept loop lets connects pile up in the listen backlog;
        one shorter than the burst makes the kernel reset the surplus.
        """
        hog = subprocess.Popen([sys.executable, "-c", "while True: pass"])
        try:
            service = MappingService(MetricsRegistry(), workers=1)
            with service:
                url = service.url + "/healthz"

                # A fitting backlog answers the burst in about a second;
                # an overflowed one leaves connects waiting on SYN
                # retransmits for tens of seconds, or resets them.
                def probe(_index):
                    with urllib.request.urlopen(url, timeout=15) as response:
                        return response.status, response.read()

                results = run_clients(probe, 64)
        finally:
            hog.kill()
            hog.wait()
        assert results == [(200, b"ok\n")] * 64


class TestProgressOwnershipIsolation:
    """Regression: concurrent searches must not cross-contaminate the
    shared ``search.progress_fraction`` gauge or each other's
    ``/progress`` views (the pre-service obs server keyed everything on
    the single ambient scope)."""

    def test_active_trackers_filter_by_owner(self):
        with progress_owner("job-a"):
            tracker_a = ProgressTracker(driver="random", total_units=10)
        with progress_owner("job-b"):
            tracker_b = ProgressTracker(driver="random", total_units=10)
        unowned = ProgressTracker(driver="random", total_units=10)
        try:
            owned_a = active_trackers(owner="job-a")
            assert tracker_a in owned_a
            assert tracker_b not in owned_a
            assert unowned not in owned_a
            everything = active_trackers()
            assert {tracker_a, tracker_b, unowned} <= set(everything)
        finally:
            tracker_a.finish()
            tracker_b.finish()
            unowned.finish()

    def test_owned_trackers_publish_job_labelled_gauges(self):
        from repro.obs import obs_scope

        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            with progress_owner("job-x"):
                tracker_x = ProgressTracker(driver="random", total_units=10)
            with progress_owner("job-y"):
                tracker_y = ProgressTracker(driver="random", total_units=10)
            tracker_x.advance(5)
            tracker_y.advance(2)
            gauge = registry.gauge("search.progress_fraction")
            assert gauge.value(driver="random", job="job-x") == 0.5
            assert gauge.value(driver="random", job="job-y") == 0.2
            # Two concurrent owned searches never collapse onto the
            # single unowned series.
            assert gauge.value(driver="random") is None
            tracker_x.finish()
            tracker_y.finish()

    def test_unowned_tracker_keeps_legacy_single_series(self):
        from repro.obs import obs_scope

        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            tracker = ProgressTracker(driver="random", total_units=10)
            tracker.advance(4)
            gauge = registry.gauge("search.progress_fraction")
            assert gauge.value(driver="random") == 0.4
            tracker.finish()
