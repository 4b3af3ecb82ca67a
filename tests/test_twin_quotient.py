"""The twin-quotient edge classification of frequency spaces.

``classify_edges`` classifies a :class:`FrequencyMappingSpace` on its
belief-group x frequency-group pairs instead of its item edges.  These
tests hold it to the item-level Hopcroft–Karp/Tarjan path
(``classify_adjacency`` on the explicit adjacency) on random spaces —
twin-heavy, all-singleton, non-compliant and infeasible — and to
brute-force matching enumeration on the smallest ones; pin the served
``AttackSummary`` values on seeded FIMI-calibrated profiles; and check
that the new loops answer to a compute budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beliefs.builders import uniform_width_belief
from repro.budget import ComputeBudget
from repro.data.frequency import FrequencyGroups
from repro.datasets.benchmarks import BENCHMARK_SPECS, generate_benchmark_profile
from repro.errors import BudgetExceeded
from repro.graph import enumerate_consistent_matchings
from repro.graph.bipartite import FrequencyMappingSpace, space_from_frequencies
from repro.graph.refine import classify_adjacency, classify_edges, reduced_blocks
from repro.recipe.assess import AttackSummary, _attack_summary


@st.composite
def frequency_spaces(draw, max_n: int = 14):
    """Random frequency spaces over a few frequency levels.

    ``levels`` small gives many frequency-group and belief-group twins;
    ``levels = n`` gives mostly singleton groups.  Unless the space is
    drawn compliant, interval ends are shifted inwards past the true
    frequency now and then, so some items are non-compliant and some
    spaces have no perfect matching at all.
    """
    n = draw(st.integers(1, max_n))
    levels = draw(st.integers(1, n))
    observed = [float(draw(st.integers(0, levels - 1))) for _ in range(n)]
    truth = draw(st.permutations(range(n)))
    shifts = draw(st.sampled_from(((0,), (0,) * 9 + (1,), (0, 0, 1, 2))))
    intervals = []
    for i in range(n):
        f = observed[truth[i]]
        low = f - draw(st.integers(0, 2)) + draw(st.sampled_from(shifts))
        high = f + draw(st.integers(0, 2)) - draw(st.sampled_from(shifts))
        intervals.append((float(low), float(high)))
    return FrequencyMappingSpace(
        items=list(range(n)),
        anonymized=list(range(n)),
        observed=observed,
        intervals=intervals,
        true_partner_of=list(truth),
    )


def singleton_spaces():
    """Distinct frequencies: every frequency group holds one anon item."""
    return st.integers(1, 14).flatmap(
        lambda n: st.builds(
            lambda truth, widths: FrequencyMappingSpace(
                items=list(range(n)),
                anonymized=list(range(n)),
                observed=[float(j) for j in range(n)],
                intervals=[(truth[i] - widths[i], truth[i] + widths[i]) for i in range(n)],
                true_partner_of=list(truth),
            ),
            st.permutations(range(n)),
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
        )
    )


def explicit_classification(space):
    return classify_adjacency([tuple(space.candidates(i)) for i in range(space.n)])


def assert_same_classification(space):
    quotient = classify_edges(space)
    explicit = explicit_classification(space)
    assert quotient.quotient is not None
    assert quotient.infeasible == explicit.infeasible
    assert quotient.forced == explicit.forced
    assert quotient.n_forced == explicit.n_forced
    assert quotient.n_forbidden == explicit.n_forbidden
    assert quotient.n_undecided == explicit.n_undecided
    for i in range(space.n):
        assert quotient.undecided[i] == explicit.undecided[i], i
        assert quotient.forbidden[i] == explicit.forbidden[i], i
    assert reduced_blocks(quotient) == reduced_blocks(explicit)
    if quotient.infeasible:
        witness = quotient.hall_witness
        assert witness
        neighbourhood = set()
        for i in witness:
            neighbourhood.update(space.candidates(i))
        assert len(neighbourhood) < len(witness)
    else:
        assert quotient.hall_witness is None
    return quotient


class TestQuotientMatchesItemGraph:
    @settings(max_examples=300, deadline=None)
    @given(frequency_spaces())
    def test_random_spaces(self, space):
        assert_same_classification(space)

    @settings(max_examples=100, deadline=None)
    @given(singleton_spaces())
    def test_all_singleton_groups(self, space):
        assert_same_classification(space)

    @settings(max_examples=100, deadline=None)
    @given(frequency_spaces(max_n=8))
    def test_brute_force_enumeration(self, space):
        classification = classify_edges(space)
        matchings = list(enumerate_consistent_matchings(space))
        assert classification.infeasible == (not matchings)
        if not matchings:
            return
        for i in range(space.n):
            for j in space.candidates(i):
                hits = sum(1 for matching in matchings if matching[i] == j)
                expected = (
                    "forced"
                    if hits == len(matchings)
                    else "forbidden"
                    if hits == 0
                    else "undecided"
                )
                assert classification.status(i, j) == expected, (i, j)

    def test_twins_never_forced(self):
        # Two items admit the same two anonymized items: they trade.
        space = FrequencyMappingSpace(
            items=["a", "b", "c"],
            anonymized=["a'", "b'", "c'"],
            observed=[1.0, 1.0, 2.0],
            intervals=[(1.0, 1.0), (1.0, 1.0), (1.0, 2.0)],
            true_partner_of=[0, 1, 2],
        )
        classification = assert_same_classification(space)
        assert classification.forced == {2: 2}
        assert classification.forbidden[2] == frozenset({0, 1})
        assert classification.undecided[0] == frozenset({0, 1})
        assert [block.item_indices for block in reduced_blocks(classification)] == [(0, 1)]

    def test_infeasible_hall_witness(self):
        # Three items can only take the two anonymized items of frequency 1.
        space = FrequencyMappingSpace(
            items=[0, 1, 2],
            anonymized=[0, 1, 2],
            observed=[1.0, 1.0, 2.0],
            intervals=[(1.0, 1.0), (0.5, 1.5), (1.0, 1.0)],
            true_partner_of=[0, 1, 2],
        )
        classification = assert_same_classification(space)
        assert classification.infeasible
        assert classification.forced == {}
        assert reduced_blocks(classification) == ()
        assert classification.n_forbidden == space.edge_count()


def recipe_space(name: str, seed: int):
    """The interval-rung space the recipe builds: width delta_med."""
    profile = generate_benchmark_profile(BENCHMARK_SPECS[name], np.random.default_rng(seed))
    frequencies = profile.frequencies()
    delta = FrequencyGroups(frequencies).median_gap()
    return space_from_frequencies(uniform_width_belief(frequencies, delta), frequencies)


class TestServedAttackSummary:
    """Values recorded from the item-graph implementation."""

    PINNED = {
        ("connect", 0): AttackSummary(62, 62, 0, 68, 68),
        ("connect", 1): AttackSummary(62, 62, 0, 68, 68),
        ("accidents", 0): AttackSummary(70, 70, 0, 48, 48),
        ("accidents", 1): AttackSummary(71, 71, 0, 85, 85),
        ("accidents", 2): AttackSummary(74, 74, 1, 48, 48),
        ("pumsb", 0): AttackSummary(70, 70, 0, 458, 458),
        ("pumsb", 1): AttackSummary(87, 87, 0, 318, 318),
        ("pumsb", 2): AttackSummary(74, 74, 0, 318, 318),
    }

    @pytest.mark.parametrize("name, seed", sorted(PINNED))
    def test_pinned(self, name, seed):
        assert _attack_summary(recipe_space(name, seed)) == self.PINNED[(name, seed)]

    def test_edge_guard_still_skips(self):
        # RETAIL at delta_med has tens of millions of edges: no summary.
        assert _attack_summary(recipe_space("retail", 0)) is None


class TestBudget:
    def test_expired_budget_skips_summary(self):
        now = [0.0]
        budget = ComputeBudget(seconds=1.0, clock=lambda: now[0])
        now[0] = 5.0
        assert _attack_summary(recipe_space("accidents", 0), budget) is None

    def test_budget_running_out_mid_classification(self):
        space = recipe_space("pumsb", 0)
        ticks = [0]

        def clock():
            ticks[0] += 1
            return float(ticks[0])

        # Expires after a few hundred polls: well inside the quotient loops.
        budget = ComputeBudget(seconds=300.0, poll_every=1, clock=clock)
        with pytest.raises(BudgetExceeded):
            classify_edges(space, budget=budget)
        assert budget.polls > 250

    def test_loops_poll(self):
        space = recipe_space("accidents", 0)
        budget = ComputeBudget(poll_every=1)
        classify_edges(space, budget=budget)
        # At least one poll per frequency group and per belief group.
        assert budget.polls > len(space.groups) + len(space.belief_groups())
