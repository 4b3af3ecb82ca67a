"""Unit tests for permanents, matching enumeration and the direct method."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beliefs import ignorant_belief, point_belief
from repro.errors import GraphError, InfeasibleMatchingError
from repro.graph import (
    ExplicitMappingSpace,
    crack_distribution_exact,
    enumerate_consistent_matchings,
    expected_cracks_exact,
    permanent,
    space_from_frequencies,
)
from repro.graph.exact import count_matchings_exact


class TestPermanent:
    def test_identity(self):
        assert permanent(np.eye(4)) == pytest.approx(1.0)

    def test_all_ones_is_factorial(self):
        for n in range(1, 7):
            assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n))

    def test_empty_matrix(self):
        assert permanent(np.zeros((0, 0))) == pytest.approx(1.0)

    def test_2x2(self):
        assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(10.0)

    def test_singular_but_positive_permanent(self):
        matrix = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert permanent(matrix) == pytest.approx(2.0)

    def test_non_square_rejected(self):
        with pytest.raises(GraphError):
            permanent(np.ones((2, 3)))

    def test_size_guard(self):
        with pytest.raises(GraphError, match="infeasible"):
            permanent(np.ones((23, 23)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 6))
    def test_matches_definition_on_random_matrices(self, seed, n):
        from itertools import permutations

        rng = np.random.default_rng(seed)
        matrix = rng.random((n, n))
        expected = sum(
            math.prod(matrix[i, perm[i]] for i in range(n))
            for perm in permutations(range(n))
        )
        assert permanent(matrix) == pytest.approx(expected)


class TestEnumeration:
    def test_counts_match_permanent(self, bigmart_space_h):
        count = sum(1 for _ in enumerate_consistent_matchings(bigmart_space_h))
        assert count == pytest.approx(count_matchings_exact(bigmart_space_h))

    def test_yields_valid_matchings(self, bigmart_space_h):
        for assignment in enumerate_consistent_matchings(bigmart_space_h):
            assert sorted(assignment) == list(range(6))
            assert all(bigmart_space_h.is_edge(i, j) for i, j in enumerate(assignment))

    def test_size_guard(self):
        freqs = {i: i / 20 for i in range(1, 14)}
        space = space_from_frequencies(ignorant_belief(freqs), freqs)
        with pytest.raises(GraphError, match="infeasible"):
            list(enumerate_consistent_matchings(space))


class TestDirectMethod:
    def test_ignorant_gives_one(self, bigmart_frequencies):
        space = space_from_frequencies(
            ignorant_belief(bigmart_frequencies), bigmart_frequencies
        )
        assert expected_cracks_exact(space) == pytest.approx(1.0)

    def test_point_valued_gives_g(self, bigmart_frequencies):
        space = space_from_frequencies(
            point_belief(bigmart_frequencies), bigmart_frequencies
        )
        assert expected_cracks_exact(space) == pytest.approx(3.0)

    def test_bigmart_h(self, bigmart_space_h):
        # Ground truth for belief h, from exhaustive enumeration.
        assert expected_cracks_exact(space=bigmart_space_h) == pytest.approx(1.8125)

    def test_agrees_with_enumeration(self, bigmart_space_h):
        distribution = crack_distribution_exact(bigmart_space_h)
        from_dist = sum(k * p for k, p in enumerate(distribution))
        assert expected_cracks_exact(bigmart_space_h) == pytest.approx(from_dist)

    def test_staircase_all_forced(self, staircase_space):
        assert expected_cracks_exact(staircase_space) == pytest.approx(4.0)

    def test_infeasible_raises(self):
        space = ExplicitMappingSpace(
            items=(1, 2),
            anonymized=("a", "b"),
            adjacency=[[0], [0]],
            true_partner_of=[0, 1],
        )
        with pytest.raises(InfeasibleMatchingError):
            expected_cracks_exact(space)
        with pytest.raises(InfeasibleMatchingError):
            crack_distribution_exact(space)


class TestCrackDistribution:
    def test_is_a_distribution(self, bigmart_space_h):
        distribution = crack_distribution_exact(bigmart_space_h)
        assert distribution.sum() == pytest.approx(1.0)
        assert (distribution >= 0).all()

    def test_no_n_minus_one_cracks(self, bigmart_frequencies):
        # A permutation can never have exactly n-1 fixed points.
        space = space_from_frequencies(
            ignorant_belief(bigmart_frequencies), bigmart_frequencies
        )
        distribution = crack_distribution_exact(space)
        assert distribution[space.n - 1] == pytest.approx(0.0)

    def test_two_blocks_distribution(self, two_blocks_space):
        # Matchings: {1,2} permuted freely (2 ways), {3,4} freely (2 ways),
        # plus the (2',3) edge never usable: 4 matchings, cracks 0,2,2,4.
        distribution = crack_distribution_exact(two_blocks_space)
        assert distribution[0] == pytest.approx(0.25)
        assert distribution[2] == pytest.approx(0.5)
        assert distribution[4] == pytest.approx(0.25)
