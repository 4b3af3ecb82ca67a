"""Unit tests for degree-1 propagation (Figure 7)."""

import pytest

from repro.beliefs import point_belief
from repro.errors import GraphError
from repro.graph import ExplicitMappingSpace, propagate_degree_one, space_from_frequencies


class TestStaircase:
    def test_everything_forced(self, staircase_space):
        result = propagate_degree_one(staircase_space)
        assert result.forced == {0: 0, 1: 1, 2: 2, 3: 3}
        assert result.n_forced == 4
        assert not result.remaining_outdegrees
        assert not result.infeasible

    def test_forced_cracks(self, staircase_space):
        result = propagate_degree_one(staircase_space)
        assert result.forced_cracks(staircase_space) == 4


class TestReverseStaircase:
    def test_anon_side_degree_one_also_propagates(self):
        # Mirror image of Figure 6(a): anonymized node 4' has degree 1.
        space = ExplicitMappingSpace(
            items=(1, 2, 3, 4),
            anonymized=("1'", "2'", "3'", "4'"),
            adjacency=[[0, 1, 2, 3], [1, 2, 3], [2, 3], [3]],
            true_partner_of=[0, 1, 2, 3],
        )
        result = propagate_degree_one(space)
        assert result.forced == {0: 0, 1: 1, 2: 2, 3: 3}


class TestNoPropagation:
    def test_two_blocks_untouched(self, two_blocks_space):
        # Figure 6(b): min degree is 2, so propagation does nothing even
        # though the edge (2', 3) is in no perfect matching.
        result = propagate_degree_one(two_blocks_space)
        assert not result.forced
        assert result.remaining_outdegrees == {0: 2, 1: 2, 2: 3, 3: 2}

    def test_complete_graph_untouched(self, bigmart_frequencies):
        from repro.beliefs import ignorant_belief

        space = space_from_frequencies(
            ignorant_belief(bigmart_frequencies), bigmart_frequencies
        )
        result = propagate_degree_one(space)
        assert not result.forced
        assert len(result.remaining_outdegrees) == 6


class TestInfeasibility:
    def test_empty_neighbourhood_flagged(self):
        space = ExplicitMappingSpace(
            items=(1, 2),
            anonymized=("a", "b"),
            adjacency=[[0], [0]],
            true_partner_of=[0, 1],
        )
        result = propagate_degree_one(space)
        assert result.infeasible

    def test_cascade_can_reveal_infeasibility(self):
        # Item 1 forces anon 0; items 2 and 3 then compete for anon 1.
        space = ExplicitMappingSpace(
            items=(1, 2, 3),
            anonymized=("a", "b", "c"),
            adjacency=[[0], [0, 1], [0, 1]],
            true_partner_of=[0, 1, 2],
        )
        result = propagate_degree_one(space)
        assert result.infeasible


class TestFrequencySpacePropagation:
    def test_point_valued_singletons_forced(self, bigmart_frequencies):
        space = space_from_frequencies(
            point_belief(bigmart_frequencies), bigmart_frequencies
        )
        result = propagate_degree_one(space)
        # Items 2 (freq 0.4) and 5 (freq 0.3) are in singleton groups.
        forced_items = {space.items[i] for i in result.forced}
        assert forced_items == {2, 5}
        assert result.forced_cracks(space) == 2

    def test_edge_guard(self, bigmart_space_h):
        with pytest.raises(GraphError, match="guard"):
            propagate_degree_one(bigmart_space_h, max_edges=3)


class TestChainedForcing:
    def test_partial_cascade(self):
        # Anon "a" only reaches item 1; after forcing, item 2 becomes
        # degree-1 on "b"; items 3-4 remain a free 2x2 block.
        space = ExplicitMappingSpace(
            items=(1, 2, 3, 4),
            anonymized=("a", "b", "c", "d"),
            adjacency=[[0, 1], [1], [2, 3], [2, 3]],
            true_partner_of=[0, 1, 2, 3],
        )
        result = propagate_degree_one(space)
        assert result.forced == {1: 1, 0: 0}
        assert result.remaining_outdegrees == {2: 2, 3: 2}
