"""Statistical uniformity tests: do the samplers hit the right law?

The paper's whole risk model rests on "each consistent crack mapping is
equally likely".  These tests verify the samplers actually realize that
law, by chi-square goodness-of-fit of sampled crack-count distributions
against the exact enumeration law on small spaces.
"""

import numpy as np
import pytest
from scipy import stats

from repro.beliefs import interval_belief
from repro.core import ChainSpec, space_from_chain
from repro.graph import crack_distribution_exact, space_from_frequencies
from repro.simulation import GibbsAssignmentSampler, MatchingSampler
from repro.simulation.exact import sample_chain_cracks


@pytest.fixture
def small_space():
    freqs = {1: 0.2, 2: 0.2, 3: 0.5, 4: 0.5, 5: 0.5}
    belief = interval_belief(
        {1: (0.1, 0.3), 2: (0.1, 0.6), 3: (0.4, 0.6), 4: (0.1, 0.6), 5: (0.4, 0.6)}
    )
    return space_from_frequencies(belief, freqs)


def chi_square_pvalue(observed_counts: dict, expected_law: np.ndarray, n_draws: int) -> float:
    support = [k for k, p in enumerate(expected_law) if p > 1e-12]
    observed = np.array([observed_counts.get(k, 0) for k in support], dtype=float)
    expected = np.array([expected_law[k] * n_draws for k in support])
    # merge rare bins into their neighbour to keep expected counts >= 5
    while len(expected) > 2 and expected.min() < 5:
        index = int(expected.argmin())
        neighbour = index - 1 if index > 0 else 1
        expected[neighbour] += expected[index]
        observed[neighbour] += observed[index]
        expected = np.delete(expected, index)
        observed = np.delete(observed, index)
    statistic, pvalue = stats.chisquare(observed, expected)
    return float(pvalue)


def collect_counts(sampler, n_draws: int, gap: int = 3) -> dict:
    counts: dict = {}
    for _ in range(n_draws):
        sampler.sweep(gap)
        value = sampler.crack_count()
        counts[value] = counts.get(value, 0) + 1
    return counts


class TestSwapChainUniformity:
    def test_crack_law_matches_enumeration(self, small_space):
        law = crack_distribution_exact(small_space)
        sampler = MatchingSampler(small_space, rng=np.random.default_rng(3))
        sampler.sweep(50)
        counts = collect_counts(sampler, 4000)
        assert chi_square_pvalue(counts, law, 4000) > 1e-3


class TestGibbsChainUniformity:
    def test_crack_law_matches_enumeration(self, small_space):
        law = crack_distribution_exact(small_space)
        sampler = GibbsAssignmentSampler(small_space, rng=np.random.default_rng(4))
        sampler.sweep(50)
        counts = collect_counts(sampler, 4000, gap=2)
        assert chi_square_pvalue(counts, law, 4000) > 1e-3


class TestExactChainSamplerUniformity:
    def test_crack_law_matches_enumeration(self):
        spec = ChainSpec((3, 2), (1, 1), (3,))
        space = space_from_chain(spec)
        law = crack_distribution_exact(space)
        samples = sample_chain_cracks(
            space, 5000, rng=np.random.default_rng(5), rao_blackwell=False
        )
        counts: dict = {}
        for value in samples:
            counts[int(value)] = counts.get(int(value), 0) + 1
        assert chi_square_pvalue(counts, law, 5000) > 1e-3

    def test_bigmart_swap_matches_full_law(self, bigmart_space_h):
        law = crack_distribution_exact(bigmart_space_h)
        sampler = MatchingSampler(bigmart_space_h, rng=np.random.default_rng(6))
        sampler.sweep(50)
        counts = collect_counts(sampler, 3000)
        assert chi_square_pvalue(counts, law, 3000) > 1e-3
