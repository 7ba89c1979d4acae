"""The ``service_mix`` workload: a closed loop against ``repro serve``.

A ``repro serve`` subprocess runs with 2 worker threads and its journal
on. Two client threads in this process form a closed loop: each POSTs
``/v1/search``, polls ``GET /v1/jobs/<id>`` every ``POLL_INTERVAL_S``
until the job ends, and only then sends its next request. A pass is one
round of ``ROUND_SIZE`` requests shared by the two clients.

Specs are drawn with a Zipf skew from {eyeriss, simba} x {pfm, ruby-s} x
4 ResNet-50 shapes x 3 search seeds; the popularity order is part of the
workload, the seed draws the requests. So some requests repeat a finished
spec (a new job on a warm evaluator pool), a few repeat an in-flight one
(coalesced onto it) and the rest are fresh.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from common import (
    OUT_DIR,
    ROOT,
    SRC,
    PassResult,
    Workload,
    pid_peak_rss_mb,
    probe,
    ref_key,
    speed_scale,
)
from spans import SpanRecorder, layer_totals

from repro.arch import eyeriss_like, simba_like
from repro.core import find_best_mapping
from repro.problem import ConvLayer
from repro.zoo.resnet50 import RESNET50_LAYERS

ARCHS = {"eyeriss": eyeriss_like, "simba": simba_like}
KINDS = ("pfm", "ruby-s")
SHAPES = ("conv2_3x3", "conv3_expand", "conv4_3x3", "conv5_expand")
SPEC_SEEDS = (1, 2, 3)
#: Random-search budget per request; no patience, so each job does a
#: fixed amount of work.
BUDGET = 300
WORKERS = 2
CLIENTS = 2
ROUND_SIZE = 16
POLL_INTERVAL_S = 0.01
ZIPF_EXPONENT = 1.0
#: A job not finished by then counts as failed.
JOB_TIMEOUT_S = 60.0
TERMINAL = ("ok", "failed", "cancelled")


def shape_dims(shape: str) -> Dict[str, int]:
    layer = {layer.name: layer for layer, _ in RESNET50_LAYERS}[shape]
    return {
        "c": layer.c, "m": layer.m, "p": layer.p, "q": layer.q,
        "r": layer.r, "s": layer.s,
        "stride_h": layer.stride_h, "stride_w": layer.stride_w,
    }


def make_spec(arch: str, shape: str, kind: str, seed: int) -> Dict[str, Any]:
    """One ``POST /v1/search`` body."""
    return {
        "arch": arch,
        "workload": {"conv": shape_dims(shape), "name": shape},
        "kind": kind,
        "max_evaluations": BUDGET,
        "patience": None,
        "seed": seed,
    }


def spec_pool() -> List[Dict[str, Any]]:
    """Every request body the mix draws from, in a fixed order."""
    return [
        make_spec(arch, shape, kind, seed)
        for arch in ARCHS
        for shape in SHAPES
        for kind in KINDS
        for seed in SPEC_SEEDS
    ]


def spec_key(spec: Dict[str, Any]) -> str:
    """Best-known EDP key: (arch, shape, kind); the seed does not matter."""
    return ref_key(spec["arch"], spec["workload"]["name"], spec["kind"])


def round_specs(seed: int, round_index: int, size: int = ROUND_SIZE) -> List[int]:
    """Pool indices of one round's requests, drawn from the seed with a
    Zipf skew over a fixed popularity order of the pool."""
    pool = len(spec_pool())
    order = list(range(pool))
    random.Random("service-popularity").shuffle(order)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(pool)]
    rng = random.Random(f"service-round:{seed}:{round_index}")
    return [order[rank] for rank in rng.choices(range(pool), weights, k=size)]


def direct_search(spec: Dict[str, Any]):
    """The same search as ``spec``, run in this process."""
    workload = ConvLayer(
        name=spec["workload"]["name"], **spec["workload"]["conv"]
    ).workload()
    return find_best_mapping(
        ARCHS[spec["arch"]](),
        workload,
        kind=spec["kind"],
        max_evaluations=spec["max_evaluations"],
        patience=spec["patience"],
        seed=spec["seed"],
    )


def post_json(url: str, payload: Any) -> Tuple[int, Dict[str, Any]]:
    request = urllib.request.Request(url, data=json.dumps(payload).encode())
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get_json(url: str) -> Dict[str, Any]:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


class Request:
    """Client-side record of one request."""

    __slots__ = ("spec_index", "latency", "error", "job", "polls")

    def __init__(self, spec_index: int) -> None:
        self.spec_index = spec_index
        self.latency = float("inf")
        self.error: Optional[str] = None
        self.job: Dict[str, Any] = {}
        self.polls = 0


class ServiceMix(Workload):
    name = "service_mix"

    def __init__(
        self,
        seed: int,
        references: Dict[str, Dict[str, float]],
        round_size: int = ROUND_SIZE,
    ) -> None:
        self.seed = seed
        self.references = references[self.name]
        self.round_size = round_size
        self.pool = spec_pool()
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.last_ok: Dict[int, Dict[str, Any]] = {}
        self.requests_sent = 0

    # -- server lifetime --------------------------------------------------

    def setup(self) -> None:
        """Spawn the server and wait until ``/healthz`` answers."""
        self.workdir = OUT_DIR / f"service-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.log = open(self.workdir / "server.log", "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workers", str(WORKERS),
                "--journal", str(self.workdir / "journal.jsonl"),
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        banner = self.proc.stdout.readline()
        found = re.search(r"serving mapper API at (http://\S+)", banner)
        if found is None:
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.url = found.group(1)
        # Keep reading so the server never blocks on a full pipe.
        threading.Thread(
            target=self.proc.stdout.read, daemon=True
        ).start()
        deadline = time.monotonic() + 30
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5) as r:
                    if r.read().decode().strip() == "ok":
                        return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.01)

    def close(self) -> None:
        if self.proc is not None:
            # SIGTERM, not SIGINT: a process started in the background
            # inherits SIGINT ignored, and the server would never see it.
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None
            self.log.close()
        if getattr(self, "workdir", None) is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def prepare(self) -> None:
        """Warm the evaluator pool: one search per (arch, shape), seed 0."""
        for arch in ARCHS:
            for shape in SHAPES:
                request = Request(-1)
                self._request(
                    request, make_spec(arch, shape, "ruby-s", 0), None, "warmup"
                )
                if request.error is not None:
                    raise RuntimeError(f"warm-up request failed: {request.error}")

    # -- the closed loop --------------------------------------------------

    def _request(
        self,
        request: Request,
        spec: Dict[str, Any],
        recorder: Optional[SpanRecorder],
        sid: str,
    ) -> None:
        root = recorder.open("client.request", sid=sid) if recorder else None
        start = time.perf_counter()
        try:
            span = recorder.open("service.submit") if recorder else None
            status, body = post_json(self.url + "/v1/search", spec)
            if span is not None:
                recorder.close(span)
            if status != 202:
                request.error = f"HTTP {status}: {body.get('error')}"
                return
            job_url = f"{self.url}/v1/jobs/{body['job_id']}"
            deadline = start + JOB_TIMEOUT_S
            while body["state"] not in TERMINAL:
                if time.perf_counter() > deadline:
                    request.error = f"job {body['job_id']} timed out"
                    return
                time.sleep(POLL_INTERVAL_S)
                span = recorder.open("service.poll") if recorder else None
                body = get_json(job_url)
                if span is not None:
                    recorder.close(span)
                request.polls += 1
            request.job = body
            if body["state"] != "ok" or body["result"]["best"] is None:
                request.error = f"job ended {body['state']}: {body.get('error')}"
                return
            request.latency = time.perf_counter() - start
        finally:
            if root is not None:
                recorder.close(root, 1)

    def run_pass(
        self, pass_index: int, recorder: Optional[SpanRecorder] = None
    ) -> PassResult:
        indices = round_specs(self.seed, pass_index, self.round_size)
        requests = [Request(index) for index in indices]
        self.requests_sent += len(requests)
        todo = deque(enumerate(requests))
        lock = threading.Lock()
        first_span = len(recorder.spans) if recorder is not None else 0

        def client() -> None:
            while True:
                with lock:
                    if not todo:
                        return
                    position, request = todo.popleft()
                try:
                    self._request(
                        request,
                        self.pool[request.spec_index],
                        recorder,
                        f"r{pass_index}.q{position}",
                    )
                except Exception as error:  # counted as a failed request
                    request.error = repr(error)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        probes = [probe(), probe()]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=2 * JOB_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError("a service client thread hung")
        wall = time.perf_counter() - start
        probes += [probe(), probe()]

        outcome = PassResult(
            wall_s=wall, attempted=len(requests), scale=speed_scale(probes)
        )
        for request in requests:
            outcome.latencies.append(request.latency)
            if request.error is not None:
                outcome.failed += 1
                print(f"FAILED {self.name}: {request.error}", file=sys.stderr)
                continue
            spec = self.pool[request.spec_index]
            outcome.gaps.append(
                request.job["result"]["best"]["edp"]
                / self.references[spec_key(spec)]
            )
            self.last_ok[request.spec_index] = request.job["result"]["best"]
        done = [r for r in requests if r.job]
        outcome.layer = {
            "service.job_run_s": statistics.fmean(
                r.job["run_s"] or 0.0 for r in done
            ) if done else 0.0,
            "service.queue_wait_s": statistics.fmean(
                r.job["queue_wait_s"] or 0.0 for r in done
            ) if done else 0.0,
            "service.polls_per_request": statistics.fmean(
                r.polls for r in requests
            ),
        }
        if recorder is not None:
            outcome.traced = True
            totals = layer_totals(recorder.spans[first_span:])
            submit = totals.get("service.submit", {"self_s": 0.0, "n": 0})
            poll = totals.get("service.poll", {"self_s": 0.0})
            outcome.layer["service.submit_s"] = (
                submit["self_s"] / submit["n"] if submit["n"] else 0.0
            )
            outcome.layer["service.poll_s"] = poll["self_s"] / len(requests)
        return outcome

    # -- run-level checks and counters -------------------------------------

    def begin(self) -> None:
        self.stats_before = get_json(self.url + "/v1/stats")
        self.requests_sent = 0

    def finish(self) -> Tuple[int, int, Dict[str, float]]:
        """Parity of one spec against a direct search, and the server's
        counters over the timed window."""
        after = get_json(self.url + "/v1/stats")
        before = self.stats_before

        def delta(*path: str) -> int:
            a, b = after, before
            for key in path:
                a, b = a[key], b[key]
            return a - b

        submitted = self.requests_sent
        reuses, admissions = delta("pool", "reuses"), delta("pool", "admissions")
        hits, misses = delta("pool", "cache", "hits"), delta("pool", "cache", "misses")
        layer = {
            "service.coalesced_ratio": (
                delta("coalesced") / submitted if submitted else 0.0
            ),
            "service.rejected": float(delta("rejected")),
            "service.pool_reuse_ratio": (
                reuses / (reuses + admissions) if reuses + admissions else 0.0
            ),
            "service.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }

        failed = 0
        if self.last_ok:
            spec_index = random.Random(f"service-parity:{self.seed}").choice(
                sorted(self.last_ok)
            )
            spec = self.pool[spec_index]
            served = self.last_ok[spec_index]
            direct = direct_search(spec).best
            if (
                direct is None
                or served["edp"] != direct.edp
                or served["cycles"] != direct.cycles
                or served["energy_pj"] != direct.energy_pj
            ):
                failed = 1
                print(
                    f"FAILED {self.name}: served EDP {served['edp']!r} != "
                    f"direct {getattr(direct, 'edp', None)!r} for {spec}",
                    file=sys.stderr,
                )
        else:
            failed = 1
        return 1, failed, layer
