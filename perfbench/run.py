#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload fig10_random --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from common import (
    OUT_DIR,
    SRC,
    PassResult,
    Workload,
    geomean,
    load_references,
    median,
    percentile,
    probe,
    speed_scale,
)
from spans import SpanRecorder

WORKLOADS = ("fig10_random", "exact_bnb", "service_mix")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "edp_gap": "ratio",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units. A metric of a layer
#: a workload does not reach reads 0 on that workload.
PER_LAYER = {
    "mapspace.sample_s": "s",
    "mapspace.sample_calls": "count",
    "mapspace.enumerate_s": "s",
    "mapspace.enumerate_batches": "count",
    "mapspace.valid_ratio": "ratio",
    "batch.pack_s": "s",
    "batch.kernel_s": "s",
    "batch.rows": "count",
    "batch.prune_rate": "ratio",
    "bound.suffix_s": "s",
    "bound.child_s": "s",
    "bnb.nodes_expanded": "count",
    "bnb.subtrees_pruned": "count",
    "bnb.leaves_deferred": "count",
    "bnb.bound_tightness": "ratio",
    "bnb.priced_ratio": "ratio",
    "evaluator.scalar_s": "s",
    "evaluator.scalar_calls": "count",
    "search.run_s": "s",
    "search.self_s": "s",
    "service.submit_s": "s",
    "service.job_run_s": "s",
    "service.queue_wait_s": "s",
    "service.poll_s": "s",
    "service.polls_per_request": "count",
    "service.coalesced_ratio": "ratio",
    "service.rejected": "count",
    "service.pool_reuse_ratio": "ratio",
    "service.cache_hit_rate": "ratio",
    "trace.overhead": "ratio",
}

#: Set-up is measured in this many fresh processes; the median is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def make_workload(name: str, seed: int) -> Workload:
    references = load_references()
    if name == "fig10_random":
        from search_workloads import Fig10Random

        return Fig10Random(seed, references)
    if name == "exact_bnb":
        from search_workloads import ExactBnb

        return ExactBnb(seed, references)
    from service_mix import ServiceMix

    return ServiceMix(seed, references)


def measure_setup(name: str, seed: int, samples: int = SETUP_SAMPLES) -> List[float]:
    """Reference seconds from process start to ready, in ``samples``
    fresh processes."""
    times = []
    for _ in range(samples):
        scale = speed_scale([probe() for _ in range(3)])
        start = time.perf_counter()
        child = subprocess.Popen(
            [
                sys.executable, __file__, "--workload", name,
                "--seed", str(seed), "--setup-only",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed (exit {child.returncode})")
        times.append(elapsed * scale)
    return times


def finite(value: float) -> float:
    """JSON has no infinity; a metric nothing succeeded for reads huge."""
    return value if value < float("inf") else sys.float_info.max


def run_passes(
    workload: Workload, seconds: float, trace: bool, recorder=None
) -> List[PassResult]:
    """Passes until ``seconds`` have gone by; with ``trace``, odd passes
    are traced and at least one of each kind runs."""
    passes = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        passes.append(workload.run_pass(index, recorder if traced else None))
        index += 1
        if time.perf_counter() - start >= seconds and (not trace or index >= 2):
            return passes


def end_to_end(
    passes: Sequence[PassResult], setup: Sequence[float], peak_rss_mb: float
) -> Dict[str, tuple]:
    """Metric -> (value, sample count); times in reference seconds."""
    latencies = [x * p.scale for p in passes for x in p.latencies]
    walls = [p.wall_s * p.scale for p in passes]
    gaps = [x for p in passes for x in p.gaps]
    completed = sum(p.attempted - p.failed for p in passes)
    return {
        "setup_s": (median(setup), len(setup)),
        "wall_s": (median(walls), len(walls)),
        "edp_gap": (geomean(gaps) if gaps else float("inf"), len(gaps)),
        "latency_p50_s": (percentile(latencies, 0.5), len(latencies)),
        "latency_p90_s": (percentile(latencies, 0.9), len(latencies)),
        "throughput_rps": (completed / sum(walls), len(latencies)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


def per_layer(
    passes: Sequence[PassResult], run_layer: Dict[str, float]
) -> Dict[str, tuple]:
    """Metric -> (median over traced passes, traced pass count); times in
    reference seconds."""
    traced = [p for p in passes if p.traced]

    def value(p: PassResult, name: str) -> float:
        return p.layer.get(name, 0.0) * (p.scale if PER_LAYER[name] == "s" else 1.0)

    values = {
        name: (median([value(p, name) for p in traced]), len(traced))
        for name in PER_LAYER
    }
    for name, run_value in run_layer.items():
        values[name] = (run_value, 1)
    values["trace.overhead"] = (
        median([p.wall_s * p.scale for p in traced])
        / median([p.wall_s * p.scale for p in passes if not p.traced]),
        len(passes),
    )
    return values


def run(
    workload: Workload, seconds: float, trace: bool, setup: Sequence[float] = ()
) -> Dict:
    """One benchmark run over ``workload``; ``setup`` holds the set-up
    samples (``--trace 0`` only). Returns the result object."""
    recorder = SpanRecorder() if trace else None
    try:
        workload.setup()
        workload.prepare()
        workload.begin()
        passes = run_passes(workload, seconds, trace, recorder)
        extra_attempted, extra_failed, run_layer = workload.finish()
        if trace:
            metrics = per_layer(passes, run_layer)
        else:
            metrics = end_to_end(passes, setup, workload.peak_rss_mb())
    finally:
        workload.close()
    if recorder is not None:
        recorder.write(OUT_DIR / f"{workload.name}.trace.jsonl")

    units = PER_LAYER if trace else END_TO_END
    print(f"speed scale (reference s per measured s): median "
          f"{median([p.scale for p in passes]):.4f} over {len(passes)} passes")
    for metric, (value, samples) in metrics.items():
        print(f"{metric:28s} {value:16.6g} {units[metric]:6s} n={samples}")
    attempted = sum(p.attempted for p in passes) + extra_attempted
    failed = sum(p.failed for p in passes) + extra_failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": finite(value), "unit": units[metric]}
            for metric, (value, _) in metrics.items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print 'ready', tear down (used to time set-up)",
    )
    args = parser.parse_args(argv)
    # Exit through the ``finally`` blocks on SIGTERM, so a server this run
    # started is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        workload = make_workload(args.workload, args.seed)
        try:
            workload.setup()
            print("ready", flush=True)
        finally:
            workload.close()
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = make_workload(args.workload, args.seed)
    result = run(workload, args.seconds, bool(args.trace), setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
