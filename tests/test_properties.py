"""Cross-module property tests: the invariants that tie the library together.

Hypothesis-driven checks of the equivalences and laws the design relies
on: the compact frequency-group mapping space agrees edge-for-edge with
an explicit reconstruction; the samplers are unbiased against exhaustive
enumeration; OE is invariant under the actual anonymization permutation;
the paper's ordering lemmas hold on random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize import anonymize
from repro.beliefs import (
    alpha_compliant_belief,
    interval_belief,
    uniform_width_belief,
)
from repro.core import o_estimate
from repro.datasets import random_database
from repro.graph import (
    ExplicitMappingSpace,
    crack_distribution_exact,
    expected_cracks_exact,
    space_from_anonymized,
    space_from_frequencies,
)
from repro.simulation import simulate_expected_cracks

seeds = st.integers(0, 2**31)


def random_frequencies(rng, n, resolution=20):
    """Frequencies on a coarse grid so collisions (groups) are common."""
    return {
        i: float(rng.integers(1, resolution + 1)) / resolution
        for i in range(1, n + 1)
    }


def random_interval_belief(rng, frequencies, compliant=True):
    intervals = {}
    for item, f in frequencies.items():
        width = float(rng.random()) * 0.4
        if compliant:
            center = f
        else:
            center = float(rng.random())
        intervals[item] = (max(0.0, center - width), min(1.0, center + width))
    return interval_belief(intervals)


class TestCompactExplicitEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=st.integers(2, 25))
    def test_same_edges_and_outdegrees(self, seed, n):
        rng = np.random.default_rng(seed)
        frequencies = random_frequencies(rng, n)
        belief = random_interval_belief(rng, frequencies, compliant=bool(rng.integers(2)))
        compact = space_from_frequencies(belief, frequencies)
        explicit = ExplicitMappingSpace(
            items=compact.items,
            anonymized=compact.anonymized,
            adjacency=[list(compact.candidates(i)) for i in range(n)],
            true_partner_of=[compact.true_partner(i) for i in range(n)],
        )
        assert list(compact.outdegrees()) == list(explicit.outdegrees())
        for i in range(n):
            for j in range(n):
                assert compact.is_edge(i, j) == explicit.is_edge(i, j)
        assert list(compact.compliant_indices()) == list(explicit.compliant_indices())
        assert o_estimate(compact).value == pytest.approx(o_estimate(explicit).value)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, n=st.integers(2, 7))
    def test_direct_method_agrees_across_forms(self, seed, n):
        rng = np.random.default_rng(seed)
        frequencies = random_frequencies(rng, n, resolution=4)
        belief = random_interval_belief(rng, frequencies)
        compact = space_from_frequencies(belief, frequencies)
        explicit = ExplicitMappingSpace(
            items=compact.items,
            anonymized=compact.anonymized,
            adjacency=[list(compact.candidates(i)) for i in range(n)],
            true_partner_of=[compact.true_partner(i) for i in range(n)],
        )
        assert expected_cracks_exact(compact) == pytest.approx(
            expected_cracks_exact(explicit)
        )


class TestAnonymizationInvariance:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_oe_independent_of_the_renaming(self, seed):
        rng = np.random.default_rng(seed)
        db = random_database(10, 60, density=0.4, rng=rng)
        frequencies = db.frequencies()
        belief = uniform_width_belief(frequencies, 0.05)
        via_frequencies = o_estimate(space_from_frequencies(belief, frequencies))
        for _ in range(3):
            released = anonymize(db, rng=rng)
            via_release = o_estimate(space_from_anonymized(belief, released))
            assert via_release.value == pytest.approx(via_frequencies.value)


class TestSamplerUnbiasedness:
    @pytest.mark.parametrize("method", ["swap", "gibbs"])
    def test_against_enumeration(self, method):
        rng = np.random.default_rng(20)
        frequencies = random_frequencies(rng, 6, resolution=3)
        belief = random_interval_belief(rng, frequencies)
        space = space_from_frequencies(belief, frequencies)
        exact = expected_cracks_exact(space)
        result = simulate_expected_cracks(
            space,
            runs=5,
            samples_per_run=500,
            rng=np.random.default_rng(21),
            method=method,
        )
        assert result.mean == pytest.approx(exact, abs=max(4 * result.std, 0.15))

    def test_distribution_support(self):
        # Every sampled matching count must be attainable per the exact law.
        rng = np.random.default_rng(30)
        frequencies = random_frequencies(rng, 5, resolution=2)
        belief = random_interval_belief(rng, frequencies)
        space = space_from_frequencies(belief, frequencies)
        law = crack_distribution_exact(space)
        attainable = {k for k, p in enumerate(law) if p > 0}
        from repro.simulation import MatchingSampler

        sampler = MatchingSampler(space, rng=np.random.default_rng(31))
        for _ in range(200):
            sampler.sweep(2)
            assert sampler.crack_count() in attainable


class TestOrderingLaws:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, n=st.integers(3, 20))
    def test_alpha_monotone_under_nested_noncompliance(self, seed, n):
        # Lemma 10 operationally: growing the non-compliant set through
        # the builder never raises the O-estimate.
        rng = np.random.default_rng(seed)
        frequencies = random_frequencies(rng, n)
        items = sorted(frequencies, key=repr)
        order = [items[int(k)] for k in rng.permutation(n)]
        previous = float("inf")
        for n_wrong in range(0, n + 1, max(1, n // 4)):
            belief = alpha_compliant_belief(
                frequencies,
                alpha=1.0,
                delta=0.05,
                rng=np.random.default_rng(seed),
                noncompliant_items=order[:n_wrong],
            )
            space = space_from_frequencies(belief, frequencies)
            value = o_estimate(space).value
            assert value <= previous + 1e-9
            previous = value

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, n=st.integers(2, 15))
    def test_oe_bounded_by_domain(self, seed, n):
        rng = np.random.default_rng(seed)
        frequencies = random_frequencies(rng, n)
        belief = random_interval_belief(rng, frequencies, compliant=bool(rng.integers(2)))
        space = space_from_frequencies(belief, frequencies)
        value = o_estimate(space).value
        assert 0.0 <= value <= n


class TestMiningAnonymizationCommutes:
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_support_multiset_invariant(self, seed):
        from repro.mining import fp_growth

        rng = np.random.default_rng(seed)
        db = random_database(8, 50, density=0.4, rng=rng)
        released = anonymize(db, rng=rng)
        original = sorted(
            (fi.support, len(fi.items)) for fi in fp_growth(db, 0.2)
        )
        mined = sorted(
            (fi.support, len(fi.items)) for fi in fp_growth(released.database, 0.2)
        )
        assert original == mined
