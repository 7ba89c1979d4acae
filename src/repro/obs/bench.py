"""Benchmark regression ledger: normalize, record, compare.

The repo's performance story lives in three ad-hoc ``BENCH_*.json``
files with three divergent schemas and no history — a speedup shipped in
one PR can silently rot in the next. This module gives them one durable
trajectory:

* :func:`normalize_bench_payload` flattens any of the known benchmark
  payloads (``batch_eval``, ``branch_bound``, ``branch_bound_parallel``)
  into uniform ``(benchmark, case, metric, value, higher_is_better)``
  entries, keeping only the metrics that *mean* something for regression
  tracking (throughputs and wall-clocks, not counters like
  ``candidates`` whose drift is not a performance signal).
* :func:`record_benchmarks` appends one machine-tagged, schema-versioned
  record to the ``BENCH_HISTORY.jsonl`` ledger — journal framing
  (:class:`repro.io.journal.Journal`), so reads are torn-tail tolerant
  and the file is append-only history, never rewritten.
* :func:`compare_ledger` diffs the newest record against its baseline
  (the most recent earlier record from the same machine — host,
  platform and CPU count — when one exists; cross-machine timing
  comparisons are noise) and flags any metric that moved past the
  threshold in the bad direction.

``repro bench record|compare`` is the CLI face; ``make bench-compare``
wires the compare gate into CI, exiting nonzero on a ≥20% regression.
"""

from __future__ import annotations

import os
import platform
import socket
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import BenchLedgerError
from repro.io.journal import Journal
from repro.io.serde import load_json

#: Ledger record schema version.
LEDGER_SCHEMA = 1

#: Default relative-change threshold: a metric that worsens by more than
#: this fraction of its baseline is a regression.
DEFAULT_THRESHOLD = 0.2

#: Per-benchmark regression-tracked metrics: ``metric -> higher_is_better``.
#: Counters (candidates, priced rows, units) are deliberately absent:
#: they characterize *what* ran, not how fast, and drift in them is a
#: correctness-review question rather than a performance regression.
_TRACKED_METRICS: Dict[str, Dict[str, bool]] = {
    "batch_eval": {
        "batch_mappings_per_sec": True,
        "scalar_mappings_per_sec": True,
        "speedup": True,
    },
    "branch_bound": {
        "branch_bound_s": False,
        "exhaustive_s": False,
        "speedup": True,
    },
    "branch_bound_parallel": {
        "parallel_s": False,
        "serial_s": False,
        "speedup": True,
    },
    # Mapper-service load profile (scripts/service_smoke.py): end-to-end
    # request latency quantiles (submit -> terminal, queue wait included)
    # and completed-search throughput under concurrent clients.
    "service_latency": {
        "p50_s": False,
        "p95_s": False,
        "throughput_rps": True,
    },
}


def machine_fingerprint() -> Dict[str, Any]:
    """Identity tag for a ledger record: timings only compare within one
    machine/python, so the baseline picker needs to know where a record
    came from."""
    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def normalize_bench_payload(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten one ``BENCH_*.json`` payload into uniform ledger entries.

    Unknown benchmarks contribute no entries (recorded sources still list
    them, so the omission is visible); cases missing a tracked metric are
    skipped silently — e.g. ``branch_bound``'s ``seed_stability`` case
    carries no wall-clock.
    """
    benchmark = payload.get("benchmark")
    tracked = _TRACKED_METRICS.get(benchmark, {})
    entries: List[Dict[str, Any]] = []
    for case, fields in sorted(payload.get("cases", {}).items()):
        if not isinstance(fields, dict):
            continue
        for metric, higher_is_better in sorted(tracked.items()):
            value = fields.get(metric)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            entries.append(
                {
                    "benchmark": benchmark,
                    "case": case,
                    "metric": metric,
                    "value": float(value),
                    "higher_is_better": higher_is_better,
                }
            )
    return entries


def record_benchmarks(
    paths: Sequence[Union[str, Path]],
    ledger_path: Union[str, Path],
    note: Optional[str] = None,
) -> Dict[str, Any]:
    """Normalize ``paths`` and append one record to the ledger.

    Returns the appended record. Raises :class:`BenchLedgerError` when
    no tracked metric survives normalization — an empty record would
    poison the baseline chain.
    """
    entries: List[Dict[str, Any]] = []
    sources: List[str] = []
    for path in paths:
        payload = load_json(path)
        sources.append(Path(path).name)
        entries.extend(normalize_bench_payload(payload))
    if not entries:
        raise BenchLedgerError(
            f"no tracked benchmark metrics found in {sources!r}"
        )
    record: Dict[str, Any] = {
        "kind": "bench",
        "schema": LEDGER_SCHEMA,
        "time": time.time(),
        "machine": machine_fingerprint(),
        "sources": sources,
        "entries": entries,
    }
    if note:
        record["note"] = note
    Journal(ledger_path).append(record)
    return record


@dataclass
class BenchDelta:
    """One metric's baseline-vs-current movement."""

    benchmark: str
    case: str
    metric: str
    baseline: float
    current: float
    higher_is_better: bool
    threshold: float

    @property
    def change(self) -> float:
        """Signed relative change, positive = better."""
        if self.baseline == 0:
            return 0.0
        raw = (self.current - self.baseline) / abs(self.baseline)
        return raw if self.higher_is_better else -raw

    @property
    def regressed(self) -> bool:
        return self.change < -self.threshold

    @property
    def improved(self) -> bool:
        return self.change > self.threshold

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.benchmark, self.case, self.metric)


@dataclass
class BenchComparison:
    """The outcome of :func:`compare_ledger`."""

    baseline_time: float
    current_time: float
    same_machine: bool
    deltas: List[BenchDelta]
    missing: List[Tuple[str, str, str]]  # in baseline, absent now
    added: List[Tuple[str, str, str]]  # new now, absent in baseline

    @property
    def regressions(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def ok(self) -> bool:
        return not self.regressions


def read_ledger(ledger_path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Bench records from the ledger, oldest first (journal framing:
    torn trailing lines are tolerated, foreign kinds skipped)."""
    path = Path(ledger_path)
    if not path.exists():
        return []
    return [r for r in Journal(path).read() if r.get("kind") == "bench"]


def _machine_key(record: Dict[str, Any]) -> Tuple[Any, ...]:
    """The fingerprint fields that decide whether timings compare."""
    machine = record.get("machine", {})
    return tuple(machine.get(key) for key in ("host", "platform", "cpu_count"))


def compare_ledger(
    ledger_path: Union[str, Path],
    threshold: float = DEFAULT_THRESHOLD,
    prefer_same_machine: bool = True,
) -> BenchComparison:
    """Diff the newest ledger record against its baseline.

    The baseline is the most recent earlier record from the same
    machine (when ``prefer_same_machine`` and one exists); otherwise the
    most recent earlier record outright. A machine is its fingerprint's
    host, platform and CPU count: host names alone do not tell
    containers apart. Raises :class:`BenchLedgerError`
    when the ledger holds fewer than two records — there is nothing to
    compare, which is different from "no regression".
    """
    records = read_ledger(ledger_path)
    if len(records) < 2:
        raise BenchLedgerError(
            f"ledger {ledger_path} holds {len(records)} bench record(s); "
            "need at least two to compare (run `repro bench record` first)"
        )
    current = records[-1]
    earlier = records[:-1]
    baseline = None
    if prefer_same_machine:
        machine = _machine_key(current)
        for candidate in reversed(earlier):
            if _machine_key(candidate) == machine:
                baseline = candidate
                break
    if baseline is None:
        baseline = earlier[-1]

    def index(record: Dict[str, Any]) -> Dict[Tuple[str, str, str], Dict]:
        return {
            (e["benchmark"], e["case"], e["metric"]): e
            for e in record.get("entries", [])
        }

    base_entries = index(baseline)
    curr_entries = index(current)
    deltas = [
        BenchDelta(
            benchmark=key[0],
            case=key[1],
            metric=key[2],
            baseline=base_entries[key]["value"],
            current=entry["value"],
            higher_is_better=bool(entry["higher_is_better"]),
            threshold=threshold,
        )
        for key, entry in sorted(curr_entries.items())
        if key in base_entries
    ]
    return BenchComparison(
        baseline_time=baseline.get("time", 0.0),
        current_time=current.get("time", 0.0),
        same_machine=_machine_key(baseline) == _machine_key(current),
        deltas=deltas,
        missing=sorted(k for k in base_entries if k not in curr_entries),
        added=sorted(k for k in curr_entries if k not in base_entries),
    )


def format_comparison(comparison: BenchComparison) -> str:
    """Human-readable comparison table (what ``repro bench compare``
    prints)."""
    lines = [
        f"{'benchmark/case/metric':<58} {'baseline':>12} {'current':>12} "
        f"{'change':>8}  verdict"
    ]
    for delta in comparison.deltas:
        label = f"{delta.benchmark}/{delta.case}/{delta.metric}"
        if delta.regressed:
            verdict = "REGRESSED"
        elif delta.improved:
            verdict = "improved"
        else:
            verdict = "ok"
        lines.append(
            f"{label:<58} {delta.baseline:>12.4g} {delta.current:>12.4g} "
            f"{delta.change:>+7.1%}  {verdict}"
        )
    for key in comparison.missing:
        lines.append(f"{'/'.join(key):<58} (present in baseline only)")
    for key in comparison.added:
        lines.append(f"{'/'.join(key):<58} (new metric, no baseline)")
    if not comparison.same_machine:
        lines.append(
            "note: baseline is from a different machine; "
            "timing deltas are unreliable"
        )
    summary = (
        f"{len(comparison.deltas)} compared, "
        f"{len(comparison.regressions)} regressed, "
        f"{len(comparison.improvements)} improved"
    )
    lines.append(summary)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Tiny direct entry point (the full UX lives in ``repro bench``)."""
    from repro.cli import main as cli_main

    return cli_main(["bench"] + list(argv if argv is not None else sys.argv[1:]))
