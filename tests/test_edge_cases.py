"""Edge-case hardening: degenerate domains, boundary parameters, misuse."""

import pytest

from repro.beliefs import ignorant_belief, point_belief, uniform_width_belief
from repro.core import alpha_max, o_estimate
from repro.data import FrequencyProfile, TransactionDatabase
from repro.errors import RecipeError
from repro.graph import (
    crack_distribution_exact,
    expected_cracks_exact,
    space_from_frequencies,
)
from repro.recipe import assess_risk
from repro.simulation import GibbsAssignmentSampler, MatchingSampler, simulate_expected_cracks


class TestSingleItemDomain:
    def test_everything_degenerates_gracefully(self):
        freqs = {42: 0.5}
        space = space_from_frequencies(point_belief(freqs), freqs)
        assert space.n == 1
        assert o_estimate(space).value == pytest.approx(1.0)
        assert expected_cracks_exact(space) == pytest.approx(1.0)
        assert list(crack_distribution_exact(space)) == pytest.approx([0.0, 1.0])

    def test_simulation_on_single_item(self, rng):
        freqs = {42: 0.5}
        space = space_from_frequencies(point_belief(freqs), freqs)
        result = simulate_expected_cracks(space, runs=2, samples_per_run=10, rng=rng)
        assert result.mean == pytest.approx(1.0)

    def test_recipe_on_single_item(self):
        profile = FrequencyProfile({1: 5}, 10)
        report = assess_risk(profile, tolerance=1.0, delta=0.1)
        assert report.disclose
        with pytest.raises(RecipeError):
            assess_risk(profile, tolerance=0.0)  # needs delta, single group


class TestSingleFrequencyGroup:
    """All items share one frequency: maximal camouflage."""

    @pytest.fixture
    def flat_space(self):
        freqs = {i: 0.5 for i in range(1, 9)}
        return space_from_frequencies(point_belief(freqs), freqs)

    def test_oe_is_one(self, flat_space):
        assert o_estimate(flat_space).value == pytest.approx(1.0)

    def test_gibbs_sampler_handles_k1(self, flat_space, rng):
        sampler = GibbsAssignmentSampler(flat_space, rng=rng)
        moves = sampler.sweep(5)
        assert moves == 0  # no boundaries to resample
        assert sampler.check_consistency()
        assert sampler.rao_blackwell_cracks() == pytest.approx(1.0)

    def test_swap_sampler_mixes_within_group(self, flat_space, rng):
        sampler = MatchingSampler(flat_space, rng=rng)
        accepted = sampler.sweep(10)
        assert accepted > 0
        assert sampler.check_consistency()

    def test_alpha_max_flat(self, flat_space, rng):
        # OE(alpha) <= 1 always: any tolerance above 1/n admits alpha = 1.
        assert alpha_max(flat_space, 0.2, rng=rng) == pytest.approx(1.0)


class TestBoundaryFrequencies:
    def test_frequency_one_and_zero_items(self):
        profile = FrequencyProfile({1: 10, 2: 0, 3: 5}, 10)
        freqs = profile.frequencies()
        belief = uniform_width_belief(freqs, 0.1)
        space = space_from_frequencies(belief, freqs)
        assert space.compliant_mask().all()
        assert o_estimate(space).value > 0

    def test_ignorant_on_extreme_frequencies(self):
        freqs = {1: 0.0, 2: 1.0}
        space = space_from_frequencies(ignorant_belief(freqs), freqs)
        assert o_estimate(space).value == pytest.approx(1.0)


class TestLargeButDegenerate:
    def test_all_items_identical_counts_large(self, rng):
        profile = FrequencyProfile({i: 100 for i in range(1, 2001)}, 1000)
        report = assess_risk(profile, tolerance=0.01, delta=0.001)
        # g = 1 <= 0.01 * 2000: disclose at the point-valued stage.
        assert report.disclose

    def test_two_group_gibbs_large(self, rng):
        counts = {i: 100 for i in range(1, 501)}
        counts.update({i: 200 for i in range(501, 1001)})
        profile = FrequencyProfile(counts, 1000)
        freqs = profile.frequencies()
        belief = uniform_width_belief(freqs, 0.15)  # spans both groups
        space = space_from_frequencies(belief, freqs)
        result = simulate_expected_cracks(
            space, runs=2, samples_per_run=20, rng=rng, method="gibbs",
            rao_blackwell=True,
        )
        # Two groups of 500 mutually confusable: E[X] ~ OE ~ small.
        assert result.mean < 10


class TestMisuse:
    def test_space_requires_matching_domains(self, bigmart_frequencies):
        belief = ignorant_belief([1, 2, 3])
        from repro.errors import DomainMismatchError

        with pytest.raises(DomainMismatchError):
            space_from_frequencies(belief, bigmart_frequencies)

    def test_count_cracks_requires_full_assignment(self, bigmart_space_h):
        # A partial assignment simply scores the pairs it names.
        partial = [bigmart_space_h.true_partner(i) for i in range(3)]
        assert bigmart_space_h.count_cracks(partial) == 3

    def test_transaction_database_rejects_non_iterable_rows(self):
        with pytest.raises(TypeError):
            TransactionDatabase([1, 2, 3])
