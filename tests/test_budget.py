"""Compute budgets: deadlines, quotas, partials, and bit-identical resume.

Tier-1 coverage for :mod:`repro.budget` and its integration with the
samplers and the assessment recipe (ISSUE 5, deadline-aware anytime
assessment).  The headline property: interrupting a Gibbs chain at *any*
sweep boundary, snapshotting through JSON, and resuming reproduces the
uninterrupted run bit for bit — across 100 random instances.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.budget import ComputeBudget, PartialEstimate
from repro.errors import BudgetExceeded, FormatError, ReproError, SimulationError
from repro.graph import space_from_frequencies
from repro.recipe.assess import Decision, assess_risk
from repro.simulation.estimate import simulate_expected_cracks
from repro.simulation.exact import best_expected_cracks, sample_chain_cracks
from repro.simulation.gibbs import GibbsAssignmentSampler


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def random_space(rng, n_items=8, resolution=10):
    """A compliant frequency mapping space over a coarse frequency grid."""
    from repro.beliefs import interval_belief

    frequencies = {
        i: float(rng.integers(1, resolution + 1)) / resolution
        for i in range(1, n_items + 1)
    }
    intervals = {}
    for item, f in frequencies.items():
        width = float(rng.random()) * 0.3
        intervals[item] = (max(0.0, f - width), min(1.0, f + width))
    return space_from_frequencies(interval_belief(intervals), frequencies)


class TestComputeBudget:
    def test_deadline_raises_with_reason(self):
        clock = FakeClock()
        budget = ComputeBudget(seconds=10.0, clock=clock)
        budget.poll()  # within budget
        assert not budget.expired()
        clock.advance(11.0)
        assert budget.expired()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.poll()
        assert excinfo.value.reason == "deadline"
        assert excinfo.value.partial is None

    def test_remaining_seconds(self):
        clock = FakeClock()
        budget = ComputeBudget(seconds=10.0, clock=clock)
        clock.advance(4.0)
        assert budget.remaining_seconds() == pytest.approx(6.0)
        assert ComputeBudget().remaining_seconds() is None
        assert not ComputeBudget().expired()

    def test_cancellation(self):
        budget = ComputeBudget(seconds=1000.0)
        budget.poll()
        budget.cancel()
        assert budget.cancelled()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.poll()
        assert excinfo.value.reason == "cancelled"

    def test_sweep_quota_records_then_raises(self):
        budget = ComputeBudget(max_sweeps=3)
        budget.sweep_tick()
        budget.sweep_tick()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.sweep_tick()
        assert excinfo.value.reason == "sweeps"
        assert budget.sweeps_completed == 3

    def test_checkpoint_throttles_polls(self):
        budget = ComputeBudget(poll_every=10)
        for _ in range(9):
            budget.checkpoint()
        assert budget.polls == 0
        budget.checkpoint()
        assert budget.polls == 1
        budget.checkpoint(weight=10)  # heavy unit of work polls at once
        assert budget.polls == 2

    def test_poll_fires_fault_hook(self):
        sites = []
        budget = ComputeBudget(fault_hook=sites.append)
        budget.poll()
        budget.checkpoint(weight=budget.poll_every)
        assert sites == ["budget.poll", "budget.poll"]

    def test_constructor_validation(self):
        with pytest.raises(FormatError):
            ComputeBudget(seconds=0)
        with pytest.raises(FormatError):
            ComputeBudget(max_sweeps=0)
        with pytest.raises(FormatError):
            ComputeBudget(poll_every=0)

    def test_budget_exceeded_is_a_repro_error(self):
        # Retry logic classifies ReproError as deterministic; a budget
        # exhaustion must never be retried as if it were transient.
        assert issubclass(BudgetExceeded, ReproError)


class TestPartialEstimate:
    def test_json_round_trip(self):
        partial = PartialEstimate(
            value=3.5, std_error=0.25, sweeps_completed=17, rung="mcmc-gibbs",
            reason="sweeps",
        )
        payload = json.loads(json.dumps(partial.to_json()))
        assert PartialEstimate.from_json(payload) == partial

    def test_std_error_must_be_finite(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(FormatError):
                PartialEstimate(value=1.0, std_error=bad, sweeps_completed=0, rung="x")

    def test_negative_sweeps_rejected(self):
        with pytest.raises(FormatError):
            PartialEstimate(value=1.0, std_error=0.0, sweeps_completed=-1, rung="x")

    def test_from_json_rejects_malformed(self):
        with pytest.raises(FormatError):
            PartialEstimate.from_json({"type": "something_else"})
        with pytest.raises(FormatError):
            PartialEstimate.from_json({"type": "partial_estimate", "value": 1.0})


class TestRequestBudget:
    def test_validation(self):
        from repro.service.budget import MAX_DEADLINE_SECONDS, request_budget

        with pytest.raises(ReproError):
            request_budget(0)
        with pytest.raises(ReproError):
            request_budget(-1.0)
        with pytest.raises(ReproError):
            request_budget(MAX_DEADLINE_SECONDS + 1)
        budget = request_budget(5.0)
        assert budget.remaining_seconds() <= 5.0


class TestSamplerBudgets:
    def test_generous_budget_is_identity(self, bigmart_space_h):
        for method in ("gibbs", "swap"):
            plain = simulate_expected_cracks(
                bigmart_space_h, runs=2, samples_per_run=20,
                rng=np.random.default_rng(7), method=method,
            )
            budgeted = simulate_expected_cracks(
                bigmart_space_h, runs=2, samples_per_run=20,
                rng=np.random.default_rng(7), method=method,
                budget=ComputeBudget(seconds=1e6, max_sweeps=10**9),
            )
            assert plain == budgeted

    def test_quota_exhaustion_carries_finite_partial(self, bigmart_space_h):
        budget = ComputeBudget(max_sweeps=10)
        with pytest.raises(BudgetExceeded) as excinfo:
            simulate_expected_cracks(
                bigmart_space_h, runs=2, samples_per_run=50,
                burn_in_sweeps=2, sweeps_per_sample=1,
                rng=np.random.default_rng(3), method="gibbs", budget=budget,
            )
        partial = excinfo.value.partial
        assert isinstance(partial, PartialEstimate)
        assert math.isfinite(partial.value)
        assert math.isfinite(partial.std_error)
        assert partial.rung == "mcmc-gibbs"
        assert partial.reason == "sweeps"
        assert partial.sweeps_completed == 10

    def test_quota_before_first_sample_gives_no_partial(self, bigmart_space_h):
        budget = ComputeBudget(max_sweeps=1)
        with pytest.raises(BudgetExceeded) as excinfo:
            simulate_expected_cracks(
                bigmart_space_h, runs=1, samples_per_run=5,
                burn_in_sweeps=5, rng=np.random.default_rng(3),
                method="gibbs", budget=budget,
            )
        assert excinfo.value.partial is None

    def test_chain_sampler_cancellation(self):
        from repro.core import ChainSpec, space_from_chain

        space = space_from_chain(ChainSpec((3, 2), (1, 1), (3,)))
        budget = ComputeBudget(poll_every=1)
        budget.cancel()
        with pytest.raises(BudgetExceeded) as excinfo:
            sample_chain_cracks(
                space, 10, rng=np.random.default_rng(0), budget=budget
            )
        assert excinfo.value.reason == "cancelled"

    def test_best_expected_cracks_exact_rung_ignores_sweep_quota(
        self, bigmart_space_h
    ):
        plain = best_expected_cracks(bigmart_space_h, rng=np.random.default_rng(1))
        budgeted = best_expected_cracks(
            bigmart_space_h,
            rng=np.random.default_rng(1),
            budget=ComputeBudget(max_sweeps=1),
        )
        assert plain == budgeted
        assert plain[2] not in ("mcmc-gibbs", "mcmc-swap")

    def test_ladder_degrades_when_exact_rung_exhausts(
        self, bigmart_space_h, monkeypatch
    ):
        import repro.graph.exact as graph_exact

        def exhausted(space, budget=None):
            raise BudgetExceeded("deadline hit in DP", reason="deadline")

        monkeypatch.setattr(graph_exact, "crack_marginals_exact", exhausted)
        mean, stderr, strategy = best_expected_cracks(
            bigmart_space_h, n_samples=50, rng=np.random.default_rng(5),
            budget=ComputeBudget(seconds=1e6),
        )
        assert strategy in ("chain-sampler", "mcmc-gibbs")
        assert math.isfinite(mean) and math.isfinite(stderr)


class TestSnapshotResume:
    def test_snapshot_survives_json(self, bigmart_space_h):
        sampler = GibbsAssignmentSampler(
            bigmart_space_h, rng=np.random.default_rng(2)
        )
        sampler.sweep(3)
        payload = json.loads(json.dumps(sampler.snapshot()))
        clone = GibbsAssignmentSampler.from_snapshot(bigmart_space_h, payload)
        assert np.array_equal(clone.assignment, sampler.assignment)
        assert clone.rng.bit_generator.state == sampler.rng.bit_generator.state

    def test_restore_rejects_malformed(self, bigmart_space_h):
        sampler = GibbsAssignmentSampler(
            bigmart_space_h, rng=np.random.default_rng(2)
        )
        with pytest.raises(FormatError):
            sampler.restore({"type": "other"})
        snapshot = sampler.snapshot()
        snapshot["n"] = snapshot["n"] + 1
        with pytest.raises(SimulationError):
            sampler.restore(snapshot)

    def test_interrupt_resume_bit_identical_100_instances(self):
        """Acceptance property: interrupt at any sweep + resume == straight run."""
        total_sweeps = 6
        interrupted_runs = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            space = random_space(rng, n_items=int(rng.integers(4, 11)))
            cut = int(rng.integers(1, total_sweeps))

            straight = GibbsAssignmentSampler(
                space, rng=np.random.default_rng(seed + 1)
            )
            straight.sweep(total_sweeps)

            interrupted = GibbsAssignmentSampler(
                space, rng=np.random.default_rng(seed + 1)
            )
            budget = ComputeBudget(max_sweeps=cut)
            try:
                interrupted.sweep(total_sweeps, budget=budget)
                completed = total_sweeps  # k < 2: nothing to interrupt
            except BudgetExceeded as exc:
                assert exc.reason == "sweeps"
                completed = budget.sweeps_completed
                interrupted_runs += 1
                assert completed == cut

            snapshot = json.loads(json.dumps(interrupted.snapshot()))
            resumed = GibbsAssignmentSampler.from_snapshot(space, snapshot)
            resumed.sweep(total_sweeps - completed)

            assert np.array_equal(resumed.assignment, straight.assignment), seed
            assert (
                resumed.rng.bit_generator.state == straight.rng.bit_generator.state
            ), seed
        # The property must actually exercise interruption, not just
        # trivially-complete chains.
        assert interrupted_runs >= 90


class TestRecipeBudget:
    def test_assess_risk_unbudgeted_unchanged(self, bigmart_db):
        profile = bigmart_db.to_profile()
        plain = assess_risk(profile, 0.1, rng=np.random.default_rng(0))
        budgeted = assess_risk(
            profile, 0.1, rng=np.random.default_rng(0),
            budget=ComputeBudget(seconds=1e6),
        )
        assert plain.decision == budgeted.decision
        assert plain.alpha_max == budgeted.alpha_max
        assert not budgeted.partial

    def test_assess_risk_degrades_to_inconclusive(self, bigmart_db):
        profile = bigmart_db.to_profile()
        clock = FakeClock()
        polls = []

        def hook(site):
            polls.append(site)
            # The hook fires before the expiry check, so advancing on the
            # second poll lets the first (pre-bound, partial-less) stage
            # pass and expires the deadline once an O-estimate is bounded.
            if len(polls) == 2:
                clock.advance(100.0)

        budget = ComputeBudget(seconds=50.0, clock=clock, fault_hook=hook)
        report = assess_risk(
            profile, 0.1, rng=np.random.default_rng(0), budget=budget
        )
        assert report.decision is Decision.INCONCLUSIVE
        assert report.partial
        assert not report.disclose
        partial = report.partial_estimate
        assert partial is not None
        assert partial.reason == "deadline"
        assert math.isfinite(partial.value)
        assert math.isfinite(partial.std_error)
        assert "partial" in report.summary()

    def test_inconclusive_assessment_round_trips(self, bigmart_db):
        from repro.io import assessment_from_json, assessment_to_json

        profile = bigmart_db.to_profile()
        clock = FakeClock()
        polls = []

        def hook(site):
            polls.append(site)
            if len(polls) == 2:
                clock.advance(100.0)

        budget = ComputeBudget(seconds=50.0, clock=clock, fault_hook=hook)
        report = assess_risk(
            profile, 0.1, rng=np.random.default_rng(0), budget=budget
        )
        assert report.decision is Decision.INCONCLUSIVE
        restored = assessment_from_json(
            json.loads(json.dumps(assessment_to_json(report)))
        )
        assert restored == report
