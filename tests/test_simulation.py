"""Unit tests for the matching-swap simulator (Section 7.1)."""

import numpy as np
import pytest

from repro.beliefs import ignorant_belief, point_belief
from repro.core import ChainSpec, chain_expected_cracks, space_from_chain
from repro.errors import SimulationError
from repro.graph import expected_cracks_exact, space_from_frequencies
from repro.simulation import MatchingSampler, SimulationResult, simulate_expected_cracks


class TestMatchingSampler:
    def test_seeds_consistent(self, bigmart_space_h, rng):
        sampler = MatchingSampler(bigmart_space_h, rng=rng)
        assert sampler.check_consistency()
        assert sampler.crack_count() == 6  # seeded from the truth

    def test_invariants_survive_sweeps(self, bigmart_space_h, rng):
        sampler = MatchingSampler(bigmart_space_h, rng=rng)
        sampler.sweep(50)
        assert sampler.check_consistency()

    def test_invariants_survive_proposals(self, bigmart_space_h, rng):
        sampler = MatchingSampler(bigmart_space_h, rng=rng)
        sampler.propose(500)
        assert sampler.check_consistency()

    def test_chain_moves_away_from_seed(self, bigmart_space_h, rng):
        sampler = MatchingSampler(bigmart_space_h, rng=rng)
        accepted = sampler.sweep(10)
        assert accepted > 0

    def test_explicit_space_supported(self, two_blocks_space, rng):
        sampler = MatchingSampler(two_blocks_space, rng=rng)
        sampler.sweep(20)
        assert sampler.check_consistency()

    def test_rao_blackwell_needs_frequency_space(self, two_blocks_space, rng):
        sampler = MatchingSampler(two_blocks_space, rng=rng)
        with pytest.raises(SimulationError):
            sampler.rao_blackwell_cracks()

    def test_rao_blackwell_bounds(self, bigmart_space_h, rng):
        sampler = MatchingSampler(bigmart_space_h, rng=rng)
        sampler.sweep(5)
        value = sampler.rao_blackwell_cracks()
        assert 0.0 <= value <= bigmart_space_h.n


class TestGibbsSampler:
    def test_matches_direct_method(self, bigmart_space_h):
        exact = expected_cracks_exact(bigmart_space_h)
        result = simulate_expected_cracks(
            bigmart_space_h,
            runs=5,
            samples_per_run=600,
            rng=np.random.default_rng(21),
            method="gibbs",
            rao_blackwell=True,
        )
        assert result.mean == pytest.approx(exact, abs=max(4 * result.std, 0.1))

    def test_matches_chain_formula(self):
        spec = ChainSpec((5, 3), (3, 2), (3,))
        space = space_from_chain(spec)
        result = simulate_expected_cracks(
            space,
            runs=5,
            samples_per_run=600,
            rng=np.random.default_rng(31),
            method="gibbs",
        )
        assert result.mean == pytest.approx(
            chain_expected_cracks(spec), abs=max(4 * result.std, 0.15)
        )

    def test_state_invariants(self, bigmart_space_h, rng):
        from repro.simulation import GibbsAssignmentSampler

        sampler = GibbsAssignmentSampler(bigmart_space_h, rng=rng)
        assert sampler.check_consistency()
        sampler.sweep(30)
        assert sampler.check_consistency()
        assert 0 <= sampler.crack_count() <= bigmart_space_h.n
        assert 0.0 <= sampler.rao_blackwell_cracks() <= bigmart_space_h.n

    def test_explicit_space_rejected(self, two_blocks_space, rng):
        from repro.simulation import GibbsAssignmentSampler

        with pytest.raises(SimulationError):
            GibbsAssignmentSampler(two_blocks_space, rng=rng)
        with pytest.raises(SimulationError):
            simulate_expected_cracks(two_blocks_space, method="gibbs", rng=rng)

    def test_unknown_method_rejected(self, bigmart_space_h, rng):
        with pytest.raises(SimulationError):
            simulate_expected_cracks(bigmart_space_h, method="metropolis", rng=rng)

    def test_swap_and_gibbs_agree(self, bigmart_space_h):
        swap = simulate_expected_cracks(
            bigmart_space_h, runs=4, samples_per_run=400, rng=np.random.default_rng(6)
        )
        gibbs = simulate_expected_cracks(
            bigmart_space_h,
            runs=4,
            samples_per_run=400,
            rng=np.random.default_rng(6),
            method="gibbs",
        )
        assert swap.mean == pytest.approx(gibbs.mean, abs=0.25)


class TestSimulateExpectedCracks:
    def test_matches_direct_method_bigmart(self, bigmart_space_h):
        exact = expected_cracks_exact(bigmart_space_h)
        result = simulate_expected_cracks(
            bigmart_space_h, runs=5, samples_per_run=400, rng=np.random.default_rng(42)
        )
        assert result.mean == pytest.approx(exact, abs=max(3 * result.std, 0.15))

    def test_matches_chain_formula(self):
        spec = ChainSpec((5, 3), (3, 2), (3,))
        space = space_from_chain(spec)
        result = simulate_expected_cracks(
            space, runs=5, samples_per_run=400, rng=np.random.default_rng(7)
        )
        assert result.mean == pytest.approx(
            chain_expected_cracks(spec), abs=max(3 * result.std, 0.15)
        )

    def test_ignorant_close_to_one(self, bigmart_frequencies):
        space = space_from_frequencies(
            ignorant_belief(bigmart_frequencies), bigmart_frequencies
        )
        result = simulate_expected_cracks(
            space, runs=3, samples_per_run=300, rng=np.random.default_rng(3)
        )
        assert result.mean == pytest.approx(1.0, abs=0.3)

    def test_point_valued_is_exact_g(self, bigmart_frequencies):
        # Singleton groups are pinned; the 4-item group mixes to E=1:
        # simulation should stay near g = 3.
        space = space_from_frequencies(
            point_belief(bigmart_frequencies), bigmart_frequencies
        )
        result = simulate_expected_cracks(
            space, runs=3, samples_per_run=300, rng=np.random.default_rng(4)
        )
        assert result.mean == pytest.approx(3.0, abs=0.3)

    def test_rao_blackwell_same_mean_lower_std(self, bigmart_space_h):
        plain = simulate_expected_cracks(
            bigmart_space_h, runs=5, samples_per_run=300, rng=np.random.default_rng(10)
        )
        rao = simulate_expected_cracks(
            bigmart_space_h,
            runs=5,
            samples_per_run=300,
            rng=np.random.default_rng(10),
            rao_blackwell=True,
        )
        exact = expected_cracks_exact(bigmart_space_h)
        assert rao.mean == pytest.approx(exact, abs=max(3 * rao.std, 0.1))
        assert rao.std <= plain.std + 0.05

    def test_result_metadata(self, bigmart_space_h, rng):
        result = simulate_expected_cracks(
            bigmart_space_h, runs=4, samples_per_run=50, rng=rng
        )
        assert isinstance(result, SimulationResult)
        assert len(result.run_means) == 4
        assert result.n == 6
        assert result.n_samples_per_run == 50
        assert result.fraction == pytest.approx(result.mean / 6)

    def test_within_one_std_helper(self):
        result = SimulationResult(
            mean=2.0, std=0.5, run_means=(1.5, 2.5), n=6, n_samples_per_run=10
        )
        assert result.within_one_std(2.4)
        assert not result.within_one_std(2.6)

    def test_invalid_parameters(self, bigmart_space_h, rng):
        with pytest.raises(SimulationError):
            simulate_expected_cracks(bigmart_space_h, runs=0, rng=rng)
        with pytest.raises(SimulationError):
            simulate_expected_cracks(bigmart_space_h, samples_per_run=0, rng=rng)

    def test_rao_blackwell_rejected_on_explicit(self, two_blocks_space, rng):
        with pytest.raises(SimulationError):
            simulate_expected_cracks(two_blocks_space, rao_blackwell=True, rng=rng)

    def test_reseeding_path(self, bigmart_space_h, rng):
        # samples_per_seed smaller than samples_per_run exercises re-seeding.
        result = simulate_expected_cracks(
            bigmart_space_h,
            runs=2,
            samples_per_run=30,
            samples_per_seed=10,
            rng=rng,
        )
        assert len(result.run_means) == 2
