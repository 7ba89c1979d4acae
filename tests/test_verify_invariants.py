"""Tests for the metamorphic invariant suite."""

import pytest

from repro.verify.invariants import (
    INVARIANTS,
    InvariantReport,
    check_cache_transparency,
    check_counting_consistency,
    check_pfm_containment,
    check_prune_parity,
    check_seed_determinism,
    _parity_fixtures,
    run_invariants,
)
from repro.search import BranchBoundSearch
from repro.search.exhaustive import ExhaustiveSearch


class TestIndividualInvariants:
    def test_pfm_containment_holds(self):
        checked, violations = check_pfm_containment(seed=0)
        assert checked > 0
        assert violations == []

    def test_counting_consistency_holds(self):
        checked, violations = check_counting_consistency(seed=0)
        assert checked > 0
        assert violations == []

    def test_cache_transparency_holds(self):
        checked, violations = check_cache_transparency(seed=0)
        assert checked > 0
        assert violations == []

    def test_prune_parity_holds(self):
        checked, violations = check_prune_parity(seed=0)
        assert checked > 0
        assert violations == []

    def test_branch_bound_parity_has_a_capacity_bound_fixture(self):
        """One parity fixture is a space where buffers bind, so the walk's
        capacity cuts decide real cells under the differential check."""
        fixtures = {label: rest for label, *rest in _parity_fixtures(0)}
        space, evaluator = fixtures["eyeriss-rs/pfm"]
        exhaustive = ExhaustiveSearch(space, evaluator, limit=200_000).run()
        # Some enumerated (fanout-feasible) candidates overflow a buffer.
        assert exhaustive.num_evaluated == space.count_completions() <= 200_000
        assert exhaustive.num_valid < exhaustive.num_evaluated
        result = BranchBoundSearch(space, evaluator, seed=0).run()
        assert result.stats["bnb"]["infeasible_subtrees"] > 0
        assert result.best_metric == exhaustive.best_metric

    def test_seed_determinism_covers_all_six_searchers(self):
        checked, violations = check_seed_determinism(seed=0)
        assert checked == 6
        assert violations == []

    @pytest.mark.parametrize("seed", [1, 2])
    def test_invariants_hold_across_seeds(self, seed):
        report = run_invariants(seed=seed, include_parallel=False)
        assert report.ok, report.summary()


class TestRunInvariants:
    def test_aggregates_every_invariant(self):
        report = run_invariants(seed=0, include_parallel=False)
        assert isinstance(report, InvariantReport)
        assert report.ok, report.summary()
        expected = {name for name, _ in INVARIANTS} - {
            "start-method-determinism"
        }
        assert set(report.checked) == expected
        assert all(count > 0 for count in report.checked.values())

    def test_only_filter(self):
        report = run_invariants(seed=0, only=["cache-transparency"])
        assert set(report.checked) == {"cache-transparency"}

    def test_summary_mentions_counts(self):
        report = run_invariants(seed=0, only=["counting-consistency"])
        text = report.summary()
        assert "counting-consistency" in text
        assert "violations=0" in text

    @pytest.mark.deep
    def test_start_method_determinism(self):
        # Spawns worker pools under both fork and spawn; slow, so deep.
        report = run_invariants(
            seed=0, only=["start-method-determinism"], include_parallel=True
        )
        assert report.ok, report.summary()
        assert report.checked.get("start-method-determinism", 0) >= 1
