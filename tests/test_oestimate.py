"""Unit tests for the O-estimate heuristic (Figure 5) and its properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beliefs import (
    ignorant_belief,
    point_belief,
    uniform_width_belief,
)
from repro.core import o_estimate, o_estimate_from_frequencies
from repro.graph import expected_cracks_exact, space_from_frequencies


class TestBigMart:
    def test_belief_h_value(self, bigmart_space_h):
        # 1/6 + 1/5 + 1/4 + 1/5 + 1/2 + 1/4
        result = o_estimate(bigmart_space_h)
        assert result.value == pytest.approx(1 / 6 + 1 / 5 + 1 / 4 + 1 / 5 + 1 / 2 + 1 / 4)
        assert result.n == 6
        assert result.n_compliant == 6
        assert not result.propagated

    def test_fraction(self, bigmart_space_h):
        result = o_estimate(bigmart_space_h)
        assert result.fraction == pytest.approx(result.value / 6)

    def test_within_tolerance(self, bigmart_space_h):
        result = o_estimate(bigmart_space_h)
        assert result.within_tolerance(0.5)
        assert not result.within_tolerance(0.1)

    def test_convenience_wrapper(self, belief_h, bigmart_frequencies, bigmart_space_h):
        direct = o_estimate_from_frequencies(belief_h, bigmart_frequencies)
        assert direct.value == pytest.approx(o_estimate(bigmart_space_h).value)


class TestSpecialBeliefs:
    def test_ignorant_oe_is_one(self, bigmart_frequencies):
        space = space_from_frequencies(
            ignorant_belief(bigmart_frequencies), bigmart_frequencies
        )
        assert o_estimate(space).value == pytest.approx(1.0)

    def test_point_valued_oe_is_g(self, bigmart_frequencies):
        space = space_from_frequencies(
            point_belief(bigmart_frequencies), bigmart_frequencies
        )
        assert o_estimate(space).value == pytest.approx(3.0)


class TestCompliantSubsets:
    def test_noncompliant_items_excluded(self, bigmart_frequencies):
        belief = uniform_width_belief(bigmart_frequencies, 0.02).replace(
            {5: (0.45, 0.55)}  # wrong guess for item 5 (true 0.3)
        )
        space = space_from_frequencies(belief, bigmart_frequencies)
        result = o_estimate(space)
        assert result.n_compliant == 5
        item5 = space.item_index(5)
        assert item5 not in set(space.compliant_indices())

    def test_explicit_compliant_indices(self, bigmart_space_h):
        result = o_estimate(bigmart_space_h, compliant_indices=[0, 1])
        degrees = bigmart_space_h.outdegrees()
        assert result.value == pytest.approx(1 / degrees[0] + 1 / degrees[1])


class TestPropagation:
    def test_staircase(self, staircase_space):
        raw = o_estimate(staircase_space)
        assert raw.value == pytest.approx(25 / 12)
        propagated = o_estimate(staircase_space, propagate=True)
        assert propagated.value == pytest.approx(4.0)
        assert propagated.n_forced == 4

    def test_propagation_no_op_when_no_degree_one(self, two_blocks_space):
        raw = o_estimate(two_blocks_space)
        propagated = o_estimate(two_blocks_space, propagate=True)
        assert propagated.value == pytest.approx(raw.value)
        assert propagated.n_forced == 0

    def test_forced_wrong_pair_counts_zero(self):
        from repro.graph import ExplicitMappingSpace

        # Anonymized "a" truly belongs to item 1, but only item 2's belief
        # admits it: the forced pair (2, a) is a certain *miss*.
        space = ExplicitMappingSpace(
            items=(1, 2),
            anonymized=("a", "b"),
            adjacency=[[1], [0, 1]],
            true_partner_of=[0, 1],
        )
        result = o_estimate(space, propagate=True)
        # item 1 is forced onto "b" (wrong), item 2 onto "a" (wrong): 0 cracks.
        assert result.value == pytest.approx(0.0)
        assert result.n_forced == 2


class TestMonotonicity:
    def test_lemma8_widening_decreases_oe(self, bigmart_frequencies):
        previous = float("inf")
        for delta in [0.0, 0.05, 0.1, 0.2, 0.5]:
            belief = uniform_width_belief(bigmart_frequencies, delta)
            space = space_from_frequencies(belief, bigmart_frequencies)
            value = o_estimate(space).value
            assert value <= previous + 1e-12
            previous = value

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(2, 20),
        d1=st.floats(0.0, 0.5),
        d2=st.floats(0.0, 0.5),
    )
    def test_lemma8_property(self, seed, n, d1, d2):
        rng = np.random.default_rng(seed)
        freqs = {i: float(f) for i, f in enumerate(rng.random(n), start=1)}
        narrow, wide = min(d1, d2), max(d1, d2)
        narrow_space = space_from_frequencies(
            uniform_width_belief(freqs, narrow), freqs
        )
        wide_space = space_from_frequencies(uniform_width_belief(freqs, wide), freqs)
        assert o_estimate(narrow_space).value >= o_estimate(wide_space).value - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 12))
    def test_lemma10_property(self, seed, n):
        # Removing items from the compliant subset never increases OE.
        rng = np.random.default_rng(seed)
        freqs = {i: float(f) for i, f in enumerate(rng.random(n), start=1)}
        space = space_from_frequencies(uniform_width_belief(freqs, 0.1), freqs)
        order = rng.permutation(n)
        values = [
            o_estimate(space, compliant_indices=order[:count]).value
            for count in range(n + 1)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestAccuracyAgainstExact:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 8), delta=st.floats(0.0, 0.4))
    def test_oe_close_to_direct_method(self, seed, n, delta):
        # On random compliant interval beliefs over small domains the
        # O-estimate tracks the exact value; we bound the gap loosely.
        rng = np.random.default_rng(seed)
        freqs = {i: round(float(f), 2) for i, f in enumerate(rng.random(n), start=1)}
        belief = uniform_width_belief(freqs, delta)
        space = space_from_frequencies(belief, freqs)
        exact = expected_cracks_exact(space)
        estimate = o_estimate(space).value
        assert estimate <= exact + 1e-9  # OE underestimates for compliant beliefs
        assert exact - estimate <= 0.5 * max(1.0, exact)
