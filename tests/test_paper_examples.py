"""Every worked example in the paper, reproduced end-to-end.

These tests pin the library to the paper's own numbers: the BigMart
example (Figures 1-3), Lemmas 1-4, the chain example of Figure 4(a), the
O-estimate counterexamples of Figure 6, and the Section 5.2 error table.
"""

import numpy as np
import pytest

from repro.anonymize import anonymize
from repro.beliefs import ignorant_belief, point_belief
from repro.core import (
    ChainSpec,
    chain_expected_cracks,
    chain_o_estimate,
    expected_cracks_ignorant,
    expected_cracks_point_valued,
    o_estimate,
    space_from_chain,
)
from repro.data import FrequencyGroups
from repro.graph import expected_cracks_exact, space_from_anonymized, space_from_frequencies
from repro.simulation import simulate_expected_cracks


class TestSection2BigMart:
    def test_anonymization_preserves_the_example(self, bigmart_db, rng):
        released = anonymize(bigmart_db, rng=rng)
        observed = sorted(released.observed_frequencies().values())
        assert observed == pytest.approx([0.3, 0.4, 0.5, 0.5, 0.5, 0.5])

    def test_consistency_rule_for_belief_h(self, belief_h, bigmart_frequencies):
        space = space_from_frequencies(belief_h, bigmart_frequencies)
        # "1' can be mapped to 1, 2, 3, 4 and 6; h(5) is the only range
        # not containing 0.5" -- the anonymized item at 0.5 connects to
        # every item except 5.
        one_prime = next(
            j for j, f in enumerate(space.observed) if f == 0.5
        )
        reachable = {
            space.items[i] for i in range(space.n) if space.is_edge(i, one_prime)
        }
        assert reachable == {1, 2, 3, 4, 6}

    def test_consistency_rule_for_2_prime(self, belief_h, bigmart_frequencies):
        # "the observed frequency of 2' is 0.4, and 2' can be mapped to
        # 1, 2, 4 and 5"
        space = space_from_frequencies(belief_h, bigmart_frequencies)
        two_prime = next(j for j, f in enumerate(space.observed) if f == 0.4)
        reachable = {
            space.items[i] for i in range(space.n) if space.is_edge(i, two_prime)
        }
        assert reachable == {1, 2, 4, 5}

    def test_frequency_groups_of_figure_3b(self, bigmart_frequencies):
        groups = FrequencyGroups(bigmart_frequencies)
        assert groups.groups[groups.group_index(1)] == (1, 3, 4, 6)
        assert groups.groups[groups.group_index(2)] == (2,)
        assert groups.groups[groups.group_index(5)] == (5,)


class TestSection3Extremes:
    def test_lemma_1(self):
        assert expected_cracks_ignorant(6) == 1.0

    def test_lemma_1_via_direct_method(self, bigmart_frequencies):
        space = space_from_frequencies(
            ignorant_belief(bigmart_frequencies), bigmart_frequencies
        )
        assert expected_cracks_exact(space) == pytest.approx(1.0)

    def test_lemma_3_bigmart(self, bigmart_frequencies):
        assert expected_cracks_point_valued(bigmart_frequencies) == 3.0

    def test_singleton_groups_cracked_directly(self, bigmart_frequencies):
        # "When the group size is 1, the hacker comes up with the cracks
        # directly (e.g., 2' mapped to 2, and 5' mapped to 5)."
        from repro.extensions import surely_cracked_items

        space = space_from_frequencies(
            point_belief(bigmart_frequencies), bigmart_frequencies
        )
        assert sorted(surely_cracked_items(space)) == [2, 5]


class TestSection4Chain:
    def test_figure_4a_expected_cracks(self):
        spec = ChainSpec((5, 3), (3, 2), (3,))
        assert chain_expected_cracks(spec) == pytest.approx(74 / 45)

    def test_figure_4a_term_by_term(self):
        # E(X) = sum_E1 1/5 + sum_E2 1/3 + sum_S1^1 (2/3)(1/5) + sum_S1^2 (1/3)(1/3)
        expected = 3 * (1 / 5) + 2 * (1 / 3) + 2 * (2 / 3) * (1 / 5) + 1 * (1 / 3) * (1 / 3)
        assert expected == pytest.approx(74 / 45)
        assert chain_expected_cracks(ChainSpec((5, 3), (3, 2), (3,))) == pytest.approx(
            expected
        )

    def test_lemma_5_is_the_k2_case(self):
        spec = ChainSpec((5, 3), (3, 2), (3,))
        n1, n2, e1, e2, s1 = 5, 3, 3, 2, 3
        lemma5 = (
            e1 / n1
            + e2 / n2
            + (n1 - e1) * ((n1 - e1) / s1) * (1 / n1)
            + (n2 - e2) * ((n2 - e2) / s1) * (1 / n2)
        )
        assert chain_expected_cracks(spec) == pytest.approx(lemma5)


class TestSection5OEstimate:
    def test_figure_4a_o_estimate(self):
        assert chain_o_estimate(ChainSpec((5, 3), (3, 2), (3,))) == pytest.approx(
            197 / 120
        )

    def test_figure_6a_staircase(self, staircase_space):
        assert o_estimate(staircase_space).value == pytest.approx(25 / 12)
        assert o_estimate(staircase_space, propagate=True).value == pytest.approx(4.0)
        assert expected_cracks_exact(staircase_space) == pytest.approx(4.0)

    def test_figure_6b_irrelevant_edge(self, two_blocks_space):
        # The edge (2', 3) is in no perfect matching, yet the O-estimate
        # counts it toward item 3's outdegree.
        assert two_blocks_space.outdegree(2) == 3
        assert expected_cracks_exact(two_blocks_space) == pytest.approx(2.0)
        assert o_estimate(two_blocks_space).value < 2.0

    @pytest.mark.parametrize(
        "e,s,expected_error",
        [
            ((10, 10, 10), (20, 20), 1.54),
            ((5, 10, 10), (25, 20), 4.80),
            ((5, 10, 5), (25, 25), 8.33),
            ((5, 6, 5), (27, 27), 5.76),
            ((10, 20, 10), (15, 15), 7.27),
        ],
    )
    def test_section_5_2_table(self, e, s, expected_error):
        from repro.core import chain_percentage_error

        spec = ChainSpec((20, 30, 20), e, s)
        assert chain_percentage_error(spec) == pytest.approx(expected_error, abs=0.05)


class TestSection7Simulation:
    def test_simulation_validates_oe_on_the_chain_example(self):
        spec = ChainSpec((5, 3), (3, 2), (3,))
        space = space_from_chain(spec)
        result = simulate_expected_cracks(
            space, runs=5, samples_per_run=300, rng=np.random.default_rng(2005)
        )
        # The paper's criterion: the O-estimate falls within one standard
        # deviation of the average simulated estimate (here we allow 3 for
        # the reduced sample budget).
        assert abs(result.mean - chain_o_estimate(spec)) <= max(3 * result.std, 0.15)


class TestEndToEndAnonymizedDatabase:
    def test_space_via_real_anonymization(self, bigmart_db, belief_h, rng):
        released = anonymize(bigmart_db, rng=rng)
        space = space_from_anonymized(belief_h, released)
        result = o_estimate(space)
        assert result.value == pytest.approx(1 / 6 + 1 / 5 + 1 / 4 + 1 / 5 + 1 / 2 + 1 / 4)
        assert expected_cracks_exact(space) == pytest.approx(1.8125)
