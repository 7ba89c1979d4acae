"""Shared pieces of the benchmark: paths, references, statistics."""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Run outputs (trace files, the service journal); ignored by git.
OUT_DIR = BENCH_DIR / "out"
REFERENCES_PATH = BENCH_DIR / "references.json"


def load_references(path: Path = REFERENCES_PATH) -> Dict[str, Dict[str, float]]:
    """Stored exact optima and best-known EDPs, keyed by workload."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def ref_key(*parts: str) -> str:
    return "/".join(parts)


@dataclass
class PassResult:
    """One pass over a workload's operations (searches or requests).

    ``latencies`` holds one entry per operation, ``inf`` for a failed
    one; ``gaps`` holds best EDP found / best-known EDP per successful
    operation; ``layer`` holds per-pass per-layer values that the program
    reports itself (search stats, job payloads).
    """

    wall_s: float
    latencies: List[float] = field(default_factory=list)
    gaps: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layer: Dict[str, float] = field(default_factory=dict)
    traced: bool = False
    #: Reference seconds per measured second over this pass (``speed_scale``).
    scale: float = 1.0


#: Duration of one :func:`probe` on the reference machine state.
PROBE_NOMINAL_S = 0.009


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The host's speed drifts by up to 1.9x over minutes with the load of
    its neighbours. The benchmark runs this probe next to every pass and
    reports times scaled by ``PROBE_NOMINAL_S / probe``, so runs made at
    different moments compare. The probe uses no code of the program,
    so a change to the program cannot move it.
    """
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(60_000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


def speed_scale(probes: Sequence[float]) -> float:
    """Reference seconds per measured second, from probes taken alongside."""
    return PROBE_NOMINAL_S / statistics.median(probes)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1); ``inf`` entries sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Workload:
    """What ``run.py`` needs from a workload.

    ``setup`` is the timed set-up (``setup_s``); ``prepare`` is untimed
    warm-up after it; ``begin`` and ``finish`` bracket the timed passes,
    and ``finish`` returns extra (attempted, failed, per-layer values)
    from run-level checks and counters.
    """

    name = ""

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def begin(self) -> None:
        pass

    def run_pass(self, pass_index: int, recorder=None) -> PassResult:
        raise NotImplementedError

    def finish(self) -> Tuple[int, int, Dict[str, float]]:
        return 0, 0, {}

    def peak_rss_mb(self) -> float:
        raise NotImplementedError

    def close(self) -> None:
        pass
