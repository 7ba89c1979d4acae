"""Benchmark regression ledger: normalize, record, compare, CLI gate.

Synthetic payloads exercise the normalization and comparison math with
exact numbers; the repo's real ``BENCH_*.json`` files pin that all three
divergent schemas actually normalize; and the CLI tests nail the exit
codes (0 clean, 1 regression, 10 ledger errors) that ``make
bench-compare`` turns into a CI gate.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.exceptions import BenchLedgerError
from repro.io.journal import Journal
from repro.obs.bench import (
    BenchDelta,
    compare_ledger,
    format_comparison,
    machine_fingerprint,
    normalize_bench_payload,
    read_ledger,
    record_benchmarks,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def batch_payload(throughput=1000.0, scalar=100.0):
    return {
        "benchmark": "batch_eval",
        "cases": {
            "case_a": {
                "batch_mappings_per_sec": throughput,
                "scalar_mappings_per_sec": scalar,
                "speedup": throughput / scalar,
                "num_mappings": 400,  # counter: must not be tracked
            }
        },
    }


def bnb_payload(bnb_s=2.0, exhaustive_s=6.0):
    return {
        "benchmark": "branch_bound",
        "cases": {
            "case_b": {
                "branch_bound_s": bnb_s,
                "exhaustive_s": exhaustive_s,
                "speedup": exhaustive_s / bnb_s,
                "candidates": 446145,
            },
            "seed_stability": {"stable": True},  # no tracked wall-clock
        },
    }


def write_payload(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestNormalize:
    def test_batch_eval_tracks_throughputs_not_counters(self):
        entries = normalize_bench_payload(batch_payload())
        metrics = {e["metric"] for e in entries}
        assert metrics == {
            "batch_mappings_per_sec",
            "scalar_mappings_per_sec",
            "speedup",
        }
        assert all(e["higher_is_better"] for e in entries)
        assert all(e["benchmark"] == "batch_eval" for e in entries)

    def test_branch_bound_wall_clocks_are_lower_is_better(self):
        entries = normalize_bench_payload(bnb_payload())
        directions = {e["metric"]: e["higher_is_better"] for e in entries}
        assert directions == {
            "branch_bound_s": False,
            "exhaustive_s": False,
            "speedup": True,
        }

    def test_case_missing_tracked_metrics_is_skipped(self):
        entries = normalize_bench_payload(bnb_payload())
        assert not any(e["case"] == "seed_stability" for e in entries)

    def test_unknown_benchmark_contributes_nothing(self):
        payload = {"benchmark": "mystery", "cases": {"x": {"speedup": 2.0}}}
        assert normalize_bench_payload(payload) == []

    def test_bool_and_non_numeric_values_skipped(self):
        payload = {
            "benchmark": "batch_eval",
            "cases": {
                "odd": {
                    "batch_mappings_per_sec": True,
                    "scalar_mappings_per_sec": "fast",
                    "speedup": 2.0,
                }
            },
        }
        entries = normalize_bench_payload(payload)
        assert [e["metric"] for e in entries] == ["speedup"]

    def test_real_bench_files_all_normalize(self):
        from repro.io.serde import load_json

        for name in (
            "BENCH_batch_eval.json",
            "BENCH_branch_bound.json",
            "BENCH_branch_bound_parallel.json",
        ):
            path = REPO_ROOT / name
            if not path.exists():
                pytest.skip(f"{name} not present")
            entries = normalize_bench_payload(load_json(path))
            assert entries, name
            assert all(
                isinstance(e["value"], float) and not isinstance(
                    e["value"], bool
                )
                for e in entries
            )


class TestRecord:
    def test_record_shape_and_machine_tag(self, tmp_path):
        source = write_payload(tmp_path, "BENCH_batch_eval.json", batch_payload())
        ledger = tmp_path / "BENCH_HISTORY.jsonl"
        record = record_benchmarks([source], ledger, note="seed run")
        assert record["kind"] == "bench"
        assert record["schema"] == 1
        assert record["sources"] == ["BENCH_batch_eval.json"]
        assert record["note"] == "seed run"
        assert record["machine"]["host"] == machine_fingerprint()["host"]
        assert len(record["entries"]) == 3
        # The ledger round-trips through journal framing.
        stored = read_ledger(ledger)
        assert len(stored) == 1
        assert stored[0]["entries"] == record["entries"]

    def test_record_appends_history(self, tmp_path):
        source = write_payload(tmp_path, "b.json", batch_payload())
        ledger = tmp_path / "ledger.jsonl"
        record_benchmarks([source], ledger)
        record_benchmarks([source], ledger)
        assert len(read_ledger(ledger)) == 2

    def test_record_with_no_tracked_metrics_raises(self, tmp_path):
        source = write_payload(
            tmp_path, "u.json", {"benchmark": "mystery", "cases": {}}
        )
        with pytest.raises(BenchLedgerError):
            record_benchmarks([source], tmp_path / "ledger.jsonl")

    def test_read_ledger_missing_file_and_foreign_kinds(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        assert read_ledger(ledger) == []
        Journal(ledger).append({"kind": "campaign", "config": {}})
        source = write_payload(tmp_path, "b.json", batch_payload())
        record_benchmarks([source], ledger)
        assert len(read_ledger(ledger)) == 1


class TestCompare:
    def _ledger(self, tmp_path, *payload_sets):
        """Record one ledger entry per payload set, in order."""
        ledger = tmp_path / "ledger.jsonl"
        for i, payloads in enumerate(payload_sets):
            sources = [
                write_payload(tmp_path, f"p{i}_{j}.json", payload)
                for j, payload in enumerate(payloads)
            ]
            record_benchmarks(sources, ledger)
        return ledger

    def test_fewer_than_two_records_raises(self, tmp_path):
        ledger = self._ledger(tmp_path, [batch_payload()])
        with pytest.raises(BenchLedgerError):
            compare_ledger(ledger)

    def test_clean_run_is_ok(self, tmp_path):
        ledger = self._ledger(
            tmp_path, [batch_payload()], [batch_payload(1050.0, 102.0)]
        )
        comparison = compare_ledger(ledger, threshold=0.2)
        assert comparison.ok
        assert comparison.regressions == []
        assert comparison.same_machine

    def test_throughput_drop_regresses(self, tmp_path):
        ledger = self._ledger(
            tmp_path, [batch_payload(1000.0)], [batch_payload(700.0)]
        )
        comparison = compare_ledger(ledger, threshold=0.2)
        assert not comparison.ok
        keys = {d.key for d in comparison.regressions}
        assert ("batch_eval", "case_a", "batch_mappings_per_sec") in keys

    def test_wall_clock_increase_regresses(self, tmp_path):
        ledger = self._ledger(
            tmp_path, [bnb_payload(bnb_s=2.0)], [bnb_payload(bnb_s=3.0)]
        )
        comparison = compare_ledger(ledger, threshold=0.2)
        regressed = {d.key for d in comparison.regressions}
        assert ("branch_bound", "case_b", "branch_bound_s") in regressed

    def test_wall_clock_decrease_is_improvement(self, tmp_path):
        ledger = self._ledger(
            tmp_path, [bnb_payload(bnb_s=3.0)], [bnb_payload(bnb_s=2.0)]
        )
        comparison = compare_ledger(ledger, threshold=0.2)
        improved = {d.key for d in comparison.improvements}
        assert ("branch_bound", "case_b", "branch_bound_s") in improved
        assert comparison.ok

    def test_threshold_boundary_is_not_regression(self):
        delta = BenchDelta(
            benchmark="b",
            case="c",
            metric="m",
            baseline=100.0,
            current=80.0,
            higher_is_better=True,
            threshold=0.2,
        )
        assert delta.change == pytest.approx(-0.2)
        assert not delta.regressed  # strictly-worse-than-threshold gates
        worse = BenchDelta(
            benchmark="b",
            case="c",
            metric="m",
            baseline=100.0,
            current=79.0,
            higher_is_better=True,
            threshold=0.2,
        )
        assert worse.regressed

    def test_zero_baseline_never_divides(self):
        delta = BenchDelta(
            benchmark="b",
            case="c",
            metric="m",
            baseline=0.0,
            current=5.0,
            higher_is_better=True,
            threshold=0.2,
        )
        assert delta.change == 0.0

    def test_missing_and_added_metrics_reported(self, tmp_path):
        ledger = self._ledger(
            tmp_path,
            [batch_payload(), bnb_payload()],
            [batch_payload()],
        )
        comparison = compare_ledger(ledger)
        assert ("branch_bound", "case_b", "branch_bound_s") in (
            comparison.missing
        )
        assert comparison.added == []

    def test_same_host_baseline_preferred(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        journal = Journal(ledger)

        def entry(value):
            return {
                "benchmark": "batch_eval",
                "case": "case_a",
                "metric": "speedup",
                "value": value,
                "higher_is_better": True,
            }

        def record(host, value, when):
            journal.append(
                {
                    "kind": "bench",
                    "time": when,
                    "machine": {"host": host},
                    "sources": ["x"],
                    "entries": [entry(value)],
                }
            )

        record("box-a", 10.0, 1.0)
        record("box-b", 99.0, 2.0)  # other machine, newer: must be skipped
        record(machine_fingerprint()["host"], 99.0, 2.5)
        record(machine_fingerprint()["host"], 10.0, 3.0)
        comparison = compare_ledger(ledger)
        assert comparison.same_machine
        # Baseline is the *same-host* 99.0 record, so 10.0 regresses.
        assert not comparison.ok
        no_pref = compare_ledger(ledger, prefer_same_machine=False)
        assert not no_pref.ok  # previous record outright is also 99.0

    def test_same_host_other_cpu_count_is_another_machine(self, tmp_path):
        """Containers share host names; CPU count and platform tell
        them apart, so a same-host record with other CPUs is skipped."""
        here = machine_fingerprint()
        other_cpus = (here["cpu_count"] or 1) + 7

        def ledger_of(name, records):
            path = tmp_path / name
            journal = Journal(path)
            for when, (cpu_count, value) in enumerate(records):
                journal.append(
                    {
                        "kind": "bench",
                        "time": float(when),
                        "machine": dict(here, cpu_count=cpu_count),
                        "sources": ["x"],
                        "entries": [
                            {
                                "benchmark": "batch_eval",
                                "case": "case_a",
                                "metric": "speedup",
                                "value": value,
                                "higher_is_better": True,
                            }
                        ],
                    }
                )
            return path

        comparison = compare_ledger(
            ledger_of(
                "skip.jsonl",
                [
                    (here["cpu_count"], 10.0),
                    (other_cpus, 99.0),  # same host, newer: skipped
                    (here["cpu_count"], 10.0),
                ],
            )
        )
        assert comparison.same_machine
        assert comparison.baseline_time == 0.0
        assert comparison.ok

        # Only the other-CPU record precedes: fall back, and say so.
        comparison = compare_ledger(
            ledger_of(
                "fallback.jsonl",
                [(other_cpus, 10.0), (here["cpu_count"], 10.0)],
            )
        )
        assert not comparison.same_machine
        assert "different machine" in format_comparison(comparison)

    def test_cross_machine_fallback_flagged(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        journal = Journal(ledger)
        for host, value in (("elsewhere", 10.0), (machine_fingerprint()["host"], 10.0)):
            journal.append(
                {
                    "kind": "bench",
                    "time": 1.0,
                    "machine": {"host": host},
                    "sources": ["x"],
                    "entries": [
                        {
                            "benchmark": "batch_eval",
                            "case": "case_a",
                            "metric": "speedup",
                            "value": value,
                            "higher_is_better": True,
                        }
                    ],
                }
            )
        comparison = compare_ledger(ledger)
        assert not comparison.same_machine
        text = format_comparison(comparison)
        assert "different machine" in text


class TestFormatComparison:
    def test_table_verdicts_and_summary(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        source_good = write_payload(tmp_path, "g.json", batch_payload(1000.0))
        source_bad = write_payload(tmp_path, "b.json", batch_payload(500.0, 200.0))
        record_benchmarks([source_good], ledger)
        record_benchmarks([source_bad], ledger)
        text = format_comparison(compare_ledger(ledger, threshold=0.2))
        assert "REGRESSED" in text
        assert "improved" in text
        assert "batch_eval/case_a/batch_mappings_per_sec" in text
        # batch throughput and speedup both halve-or-worse; scalar doubles.
        assert text.splitlines()[-1] == "3 compared, 2 regressed, 1 improved"


class TestBenchCLI:
    def test_record_then_clean_compare_exits_zero(self, tmp_path, capsys):
        source = write_payload(tmp_path, "BENCH_batch_eval.json", batch_payload())
        ledger = tmp_path / "BENCH_HISTORY.jsonl"
        assert cli_main(
            ["bench", "record", str(source), "--ledger", str(ledger)]
        ) == 0
        out = capsys.readouterr().out
        assert "recorded 3 metric(s)" in out
        assert cli_main(
            ["bench", "record", str(source), "--ledger", str(ledger)]
        ) == 0
        assert cli_main(
            ["bench", "compare", "--ledger", str(ledger)]
        ) == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        good = write_payload(tmp_path, "good.json", batch_payload(1000.0))
        bad = write_payload(tmp_path, "bad.json", batch_payload(600.0))
        ledger = tmp_path / "ledger.jsonl"
        cli_main(["bench", "record", str(good), "--ledger", str(ledger)])
        cli_main(["bench", "record", str(bad), "--ledger", str(ledger)])
        code = cli_main(["bench", "compare", "--ledger", str(ledger)])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSED" in captured.out
        assert "regression" in captured.err

    def test_tolerant_threshold_passes_same_data(self, tmp_path, capsys):
        good = write_payload(tmp_path, "good.json", batch_payload(1000.0))
        bad = write_payload(tmp_path, "bad.json", batch_payload(600.0))
        ledger = tmp_path / "ledger.jsonl"
        cli_main(["bench", "record", str(good), "--ledger", str(ledger)])
        cli_main(["bench", "record", str(bad), "--ledger", str(ledger)])
        assert cli_main(
            [
                "bench",
                "compare",
                "--ledger",
                str(ledger),
                "--threshold",
                "0.5",
            ]
        ) == 0

    def test_ledger_errors_exit_ten(self, tmp_path, capsys):
        empty = write_payload(
            tmp_path, "u.json", {"benchmark": "mystery", "cases": {}}
        )
        ledger = tmp_path / "ledger.jsonl"
        assert cli_main(
            ["bench", "record", str(empty), "--ledger", str(ledger)]
        ) == 10
        source = write_payload(tmp_path, "b.json", batch_payload())
        cli_main(["bench", "record", str(source), "--ledger", str(ledger)])
        # One record: nothing to compare against.
        assert cli_main(["bench", "compare", "--ledger", str(ledger)]) == 10
        assert "BenchLedgerError" in capsys.readouterr().err
