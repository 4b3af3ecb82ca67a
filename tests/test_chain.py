"""Unit tests for chain belief functions (Lemmas 5-6, Section 5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChainSpec,
    chain_delta,
    chain_expected_cracks,
    chain_from_space,
    chain_o_estimate,
    chain_percentage_error,
    space_from_chain,
)
from repro.errors import NotAChainError
from repro.graph import expected_cracks_exact


class TestChainSpec:
    def test_figure_4a(self):
        spec = ChainSpec((5, 3), (3, 2), (3,))
        assert spec.k == 2
        assert spec.n == 8
        assert spec.correct_to_lower() == (2,)
        assert spec.correct_to_upper() == (1,)

    def test_size_mismatch_rejected(self):
        with pytest.raises(NotAChainError):
            ChainSpec((5, 3), (3, 2), (4,))  # sums differ

    def test_length_mismatch_rejected(self):
        with pytest.raises(NotAChainError):
            ChainSpec((5, 3), (3,), (3,))

    def test_negative_split_rejected(self):
        # e_1 > n_1 forces a negative c_1.
        with pytest.raises(NotAChainError):
            ChainSpec((2, 6), (4, 0), (4,))

    def test_trivial_chain_of_length_one(self):
        spec = ChainSpec((4,), (4,), ())
        assert chain_expected_cracks(spec) == pytest.approx(1.0)
        assert chain_o_estimate(spec) == pytest.approx(1.0)


class TestFormulas:
    def test_figure_4a_values(self):
        spec = ChainSpec((5, 3), (3, 2), (3,))
        assert chain_expected_cracks(spec) == pytest.approx(74 / 45)
        assert chain_o_estimate(spec) == pytest.approx(197 / 120)
        assert chain_delta(spec) == pytest.approx(74 / 45 - 197 / 120)

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
    def test_section_5_2_error_table(self, e, s, expected_error):
        # The paper's table (n = 20, 30, 20).  Note: rows 2-4 are printed
        # with e_1 = 15 in the paper, which contradicts the partition
        # constraint; e_1 = 5 restores it and reproduces the printed
        # error percentages exactly.
        spec = ChainSpec((20, 30, 20), e, s)
        assert chain_percentage_error(spec) == pytest.approx(expected_error, abs=0.05)

    def test_point_valued_chain_reduces_to_lemma3(self):
        # All-exclusive chain: OE = exact = number of groups.
        spec = ChainSpec((4, 2, 5), (4, 2, 5), (0, 0))
        assert chain_expected_cracks(spec) == pytest.approx(3.0)
        assert chain_o_estimate(spec) == pytest.approx(3.0)


class TestSpaceFromChain:
    def test_realizes_group_sizes(self):
        spec = ChainSpec((5, 3), (3, 2), (3,))
        space = space_from_chain(spec)
        assert space.n == 8
        assert tuple(space.groups.counts) == (5, 3)
        assert space.compliant_mask().all()

    def test_exact_formula_matches_direct_method(self):
        for spec in [
            ChainSpec((5, 3), (3, 2), (3,)),
            ChainSpec((2, 1), (1, 0), (2,)),
            ChainSpec((3, 3, 2), (1, 1, 1), (3, 2)),
        ]:
            space = space_from_chain(spec)
            assert expected_cracks_exact(space) == pytest.approx(
                chain_expected_cracks(spec)
            ), spec

    def test_custom_frequencies(self):
        spec = ChainSpec((2, 2), (1, 1), (2,))
        space = space_from_chain(spec, frequencies=(0.3, 0.7))
        assert space.groups.freqs == (0.3, 0.7)

    def test_bad_frequencies_rejected(self):
        spec = ChainSpec((2, 2), (1, 1), (2,))
        with pytest.raises(NotAChainError):
            space_from_chain(spec, frequencies=(0.7, 0.3))
        with pytest.raises(NotAChainError):
            space_from_chain(spec, frequencies=(0.3,))


class TestChainFromSpace:
    def test_roundtrip(self):
        spec = ChainSpec((4, 6, 3), (2, 3, 1), (3, 4))
        assert chain_from_space(space_from_chain(spec)) == spec

    def test_non_chain_rejected(self, bigmart_space_h):
        with pytest.raises(NotAChainError):
            chain_from_space(bigmart_space_h)

    def test_o_estimate_consistency(self):
        from repro.core import o_estimate

        spec = ChainSpec((4, 6, 3), (2, 3, 1), (3, 4))
        space = space_from_chain(spec)
        assert o_estimate(space).value == pytest.approx(chain_o_estimate(spec))


class TestChainProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(1, 6),
        n2=st.integers(1, 6),
        e1=st.integers(0, 6),
        e2=st.integers(0, 6),
    )
    def test_length2_formula_matches_enumeration(self, n1, n2, e1, e2):
        s1 = n1 + n2 - e1 - e2
        if s1 < 0 or e1 > n1 or e2 > n2 or n1 + n2 > 9:
            return
        try:
            spec = ChainSpec((n1, n2), (e1, e2), (s1,))
        except NotAChainError:
            return
        space = space_from_chain(spec)
        assert expected_cracks_exact(space) == pytest.approx(
            chain_expected_cracks(spec)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=2, max_size=3),
        seed=st.integers(0, 2**31),
    )
    def test_oe_is_a_lower_bound_for_chains(self, sizes, seed):
        # Delta >= 0 by Cauchy-Schwarz: c^2/(s*n_i) + d^2/(s*n_{i+1})
        # >= (c+d)^2 / (s*(n_i+n_{i+1})) = s/(n_i+n_{i+1}), so the chain
        # O-estimate never exceeds the exact expected cracks.
        rng = np.random.default_rng(seed)
        k = len(sizes)
        e, s = [], []
        d_prev = 0
        feasible = True
        for g in range(k):
            c_max = sizes[g] - d_prev
            if c_max < 0:
                feasible = False
                break
            if g == k - 1:
                e.append(c_max)
            else:
                e_g = int(rng.integers(0, c_max + 1))
                e.append(e_g)
                c_g = c_max - e_g
                d_g = int(rng.integers(0, 3))
                s.append(c_g + d_g)
                d_prev = d_g
        if not feasible:
            return
        try:
            spec = ChainSpec(tuple(sizes), tuple(e), tuple(s))
        except NotAChainError:
            return
        exact = chain_expected_cracks(spec)
        estimate = chain_o_estimate(spec)
        assert estimate <= exact + 1e-9
