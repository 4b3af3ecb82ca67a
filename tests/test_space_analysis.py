"""The per-space block analysis and the array-built groups and beliefs.

A :class:`FrequencyMappingSpace` builds one
:class:`~repro.graph.groups.FrequencyAnalysis` from its run-end arrays:
belief groups, blocks and each block's interval-DP problem.  These tests
hold it to the per-item constructions it replaced (``_decompose_frequency``,
``BeliefGroupPartition(runs)``, ``_frequency_block_problem``) on random
spaces, matchable or not; check that the exact engine and the attack
summary share one analysis; hold ``ObservedGroups``, ``FrequencyGroups``,
``uniform_width_belief`` and ``space_from_frequencies`` to dict-built
references; and pin the served exact and attack values on seeded
FIMI-calibrated profiles.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.bipartite as bipartite_mod
from repro.beliefs.builders import interval_belief, uniform_width_belief
from repro.beliefs.function import BeliefFunction
from repro.beliefs.interval import Interval
from repro.data.frequency import FrequencyGroups, GapStatistics
from repro.datasets.benchmarks import BENCHMARK_SPECS, generate_benchmark_profile
from repro.errors import DataError, InfeasibleMatchingError, InvalidIntervalError
from repro.graph.bipartite import FrequencyMappingSpace, space_from_frequencies
from repro.graph.blocks import _decompose_frequency, decompose
from repro.graph.exact import _frequency_block_problem, crack_marginals_exact, exact_strategy
from repro.graph.groups import BeliefGroupPartition, FrequencyAnalysis, ObservedGroups
from repro.graph.intervaldp import class_placement_totals
from repro.recipe.assess import AttackSummary, _attack_summary, _exact_cracks, _exact_marginals


@st.composite
def frequency_spaces(draw, max_n: int = 200):
    """Random frequency spaces, matchable or not.

    Few ``levels`` give frequency-group and belief-group twins, many give
    singletons; half-widths up to ``wide`` give narrow or wide runs.  In
    ``moved`` spaces some intervals sit around another item's frequency
    (non-compliant items, unbalanced segments); in ``holes`` spaces some
    intervals fall between two levels (items with outdegree 0).
    """
    n = draw(st.integers(1, max_n))
    levels = draw(st.integers(1, n))
    wide = draw(st.sampled_from((0, 1, 3)))
    mode = draw(st.sampled_from(("compliant", "moved", "holes")))

    def per_item(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    observed = [float(level) for level in per_item(st.integers(0, levels - 1))]
    truth = draw(st.permutations(range(n)))
    below, above = per_item(st.integers(0, wide)), per_item(st.integers(0, wide))
    centers = [observed[j] for j in truth]
    if mode == "moved":
        for i, other in enumerate(per_item(st.integers(0, 8 * n - 1))):
            if other < n:
                centers[i] = observed[other]
    intervals = [(f - low, f + high) for f, low, high in zip(centers, below, above)]
    if mode == "holes":
        for i, hole in enumerate(per_item(st.integers(0, 19))):
            if hole == 0:
                intervals[i] = (centers[i] + 0.5, centers[i] + 0.5)
    return FrequencyMappingSpace(
        items=list(range(n)),
        anonymized=list(range(n)),
        observed=observed,
        intervals=intervals,
        true_partner_of=list(truth),
    )


def per_item_marginals(space):
    """Crack marginals item by item, each rounded once from a Fraction."""
    marginals = np.zeros(space.n)
    decomposition = _decompose_frequency(space)
    if not decomposition.matchable:
        raise InfeasibleMatchingError("no consistent perfect matching exists")
    for block in decomposition.blocks:
        capacities, classes, _ = _frequency_block_problem(space, block)
        total, placement = class_placement_totals(capacities, classes)
        if total == 0:
            raise InfeasibleMatchingError("no consistent perfect matching exists")
        a = block.group_range[0]
        for i in block.item_indices:
            g_lo, g_hi = space.admissible_run(i)
            true_group = space.true_group(i)
            if g_lo <= true_group < g_hi:
                run = (g_lo - a, g_hi - a)
                placed = placement.get((run, true_group - a), 0)
                denominator = total * classes[run] * capacities[true_group - a]
                marginals[i] = float(Fraction(placed, denominator))
    return marginals


class TestAnalysisMatchesPerItemOracles:
    @settings(max_examples=200, deadline=None)
    @given(frequency_spaces())
    def test_random_spaces(self, space):
        analysis = space.analysis()
        runs = [space.admissible_run(i) for i in range(space.n)]
        assert analysis.decomposition == _decompose_frequency(space)
        assert analysis.belief_groups.groups == BeliefGroupPartition(runs).groups
        for c, belief_group in enumerate(analysis.belief_groups):
            assert analysis.class_of_item[list(belief_group.items)].tolist() == (
                [c] * len(belief_group.items)
            )
        blocks = analysis.decomposition.blocks
        assert len(analysis.problems) == len(blocks)
        for block, problem in zip(blocks, analysis.problems):
            assert problem == _frequency_block_problem(space, block)

    @settings(max_examples=100, deadline=None)
    @given(frequency_spaces(max_n=40))
    def test_marginals_bit_identical_to_per_item_fractions(self, space):
        try:
            reference = per_item_marginals(space)
        except InfeasibleMatchingError:
            with pytest.raises(InfeasibleMatchingError):
                crack_marginals_exact(space)
            return
        assert crack_marginals_exact(space).tobytes() == reference.tobytes()

    def test_unmatchable_reasons(self):
        outdegree_zero = FrequencyMappingSpace(
            items=[0, 1, 2],
            anonymized=[0, 1, 2],
            observed=[1.0, 2.0, 3.0],
            intervals=[(1.0, 1.0), (2.5, 2.5), (3.0, 3.0)],
            true_partner_of=[0, 1, 2],
        )
        unbalanced = FrequencyMappingSpace(
            items=[0, 1, 2],
            anonymized=[0, 1, 2],
            observed=[1.0, 2.0, 3.0],
            intervals=[(1.0, 1.0), (1.0, 1.0), (3.0, 3.0)],
            true_partner_of=[0, 1, 2],
        )
        for space in (outdegree_zero, unbalanced):
            analysis = space.analysis()
            assert analysis.decomposition == _decompose_frequency(space)
            assert not analysis.decomposition.matchable
            assert analysis.problems == ()
        assert "item #1 admits no frequency group" in decompose(outdegree_zero).reason
        assert decompose(unbalanced).reason == (
            "groups [0, 1) hold 1 anonymized items but 2 originals can map there"
        )

    def test_built_once_across_exact_and_attack(self, monkeypatch):
        built = []

        class Counting(FrequencyAnalysis):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(bipartite_mod, "FrequencyAnalysis", Counting)
        space = recipe_space("accidents", 2)
        plan = exact_strategy(space)
        crack_marginals_exact(space)
        _attack_summary(space)
        assert plan.strategy == "block-interval-dp"
        assert len(built) == 1
        assert space.belief_groups() is space.analysis().belief_groups


def observed_reference(observed):
    """``ObservedGroups`` fields built with a dict, item by item."""
    by_freq = defaultdict(list)
    for j, f in enumerate(observed):
        by_freq[float(f)].append(j)
    freqs = tuple(sorted(by_freq))
    members = tuple(tuple(by_freq[f]) for f in freqs)
    group_of = [0] * len(observed)
    for g, group in enumerate(members):
        for j in group:
            group_of[j] = g
    return freqs, members, [len(m) for m in members], group_of


class GroupsReference:
    """``FrequencyGroups`` built with a dict, item by item."""

    def __init__(self, frequencies):
        if not frequencies:
            raise DataError("cannot build frequency groups over an empty domain")
        by_freq = defaultdict(list)
        for item, freq in frequencies.items():
            if not 0.0 <= freq <= 1.0:
                raise DataError(f"frequency {freq} of item {item!r} outside [0, 1]")
            by_freq[freq].append(item)
        self.frequencies_sorted = tuple(sorted(by_freq))
        self.groups = tuple(tuple(sorted(by_freq[f], key=repr)) for f in self.frequencies_sorted)
        self.group_index = {item: g for g, group in enumerate(self.groups) for item in group}
        self.gaps = tuple(
            b - a for a, b in zip(self.frequencies_sorted, self.frequencies_sorted[1:])
        )


def reference_gap_statistics(gaps):
    ordered = sorted(gaps)
    k = len(ordered)
    median = ordered[k // 2] if k % 2 else (ordered[k // 2 - 1] + ordered[k // 2]) / 2
    return GapStatistics(math.fsum(ordered) / k, median, ordered[0], ordered[-1])


@st.composite
def frequency_tables(draw, max_n: int = 200):
    """item -> frequency over mixed int/str items, with many twins."""
    n = draw(st.integers(1, max_n))
    levels = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=n, unique=True)
    )
    picks = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    as_str = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return {f"item-{i}" if text else i: freq for i, (freq, text) in enumerate(zip(picks, as_str))}


class TestArrayBuiltGroups:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12).map(lambda x: x / 8), min_size=1, max_size=200))
    def test_observed_groups(self, observed):
        groups = ObservedGroups(observed)
        freqs, members, counts, group_of = observed_reference(observed)
        assert groups.freqs == freqs
        assert groups.members == members
        assert groups.counts.tolist() == counts
        assert groups.prefix.tolist() == [0, *np.cumsum(counts).tolist()]
        assert groups.group_of.tolist() == group_of

    @settings(max_examples=100, deadline=None)
    @given(frequency_tables())
    def test_frequency_groups(self, frequencies):
        groups = FrequencyGroups(frequencies)
        reference = GroupsReference(frequencies)
        assert groups.frequencies_sorted == reference.frequencies_sorted
        assert groups.groups == reference.groups
        assert groups.sizes == tuple(len(g) for g in reference.groups)
        assert len(groups) == len(reference.groups)
        assert groups.n_singletons == sum(1 for g in reference.groups if len(g) == 1)
        assert groups.gaps() == reference.gaps
        for item in frequencies:
            assert groups.group_index(item) == reference.group_index[item]
        assert repr(groups) == (
            f"FrequencyGroups(n_groups={len(reference.groups)}, n_items={len(frequencies)})"
        )
        if reference.gaps:
            statistics = groups.gap_statistics()
            assert statistics == reference_gap_statistics(reference.gaps)
            assert groups.gap_statistics() is statistics
            assert groups.median_gap() == statistics.median
        else:
            with pytest.raises(DataError):
                groups.gap_statistics()

    @pytest.mark.parametrize("bad", (1.5, -0.25, float("nan")))
    def test_same_first_offending_item(self, bad):
        frequencies = {"a": 0.5, "b": bad, "c": 0.1, "d": bad}
        for build in (FrequencyGroups, GroupsReference):
            with pytest.raises(DataError) as caught:
                build(frequencies)
            assert str(caught.value) == f"frequency {bad} of item 'b' outside [0, 1]"

    def test_empty_domain_and_unknown_item(self):
        with pytest.raises(DataError, match="empty domain"):
            FrequencyGroups({})
        with pytest.raises(DataError, match="'z' is not in the grouped domain"):
            FrequencyGroups({"a": 0.5}).group_index("z")


class TestArrayBuiltBeliefs:
    @settings(max_examples=100, deadline=None)
    @given(frequency_tables(), st.floats(0.0, 0.6, allow_nan=False))
    def test_uniform_width_belief(self, frequencies, delta):
        belief = uniform_width_belief(frequencies, delta)
        reference = BeliefFunction(
            {item: Interval.around(freq, delta) for item, freq in frequencies.items()}
        )
        assert belief.domain == reference.domain
        assert len(belief) == len(reference)
        assert list(belief) == list(reference)
        for item in frequencies:
            assert belief[item] == reference[item]
        assert belief == reference

    @settings(max_examples=100, deadline=None)
    @given(frequency_tables(), st.floats(0.0, 0.6, allow_nan=False))
    def test_space_bounds_bit_identical(self, frequencies, delta):
        belief = uniform_width_belief(frequencies, delta)
        space = space_from_frequencies(belief, frequencies)
        items = sorted(frequencies, key=repr)
        reference = FrequencyMappingSpace(
            items=items,
            anonymized=space.anonymized,
            observed=[float(frequencies[x]) for x in items],
            intervals=[(belief[x].low, belief[x].high) for x in items],
            true_partner_of=list(range(len(items))),
        )
        dict_backed = space_from_frequencies(
            interval_belief({x: Interval.around(f, delta) for x, f in frequencies.items()}),
            frequencies,
        )
        assert space.items == reference.items == dict_backed.items
        for other in (reference, dict_backed):
            assert space.low.tobytes() == other.low.tobytes()
            assert space.high.tobytes() == other.high.tobytes()
            assert space.observed.tobytes() == other.observed.tobytes()
            assert np.array_equal(space.outdegrees(), other.outdegrees())

    def test_same_errors(self):
        with pytest.raises(InvalidIntervalError) as caught:
            uniform_width_belief({"a": 0.5}, -0.1)
        assert str(caught.value) == "width delta must be non-negative, got -0.1"
        frequencies = {"a": 0.5, "b": 1.5, "c": 1.75}
        for build in (
            lambda: uniform_width_belief(frequencies, 0.25),
            lambda: BeliefFunction({x: Interval.around(f, 0.25) for x, f in frequencies.items()}),
        ):
            with pytest.raises(InvalidIntervalError) as caught:
                build()
            assert str(caught.value) == "interval [1.25, 1.0] violates 0 <= low <= high <= 1"

    def test_nan_frequency_clamps_like_the_builtins(self):
        belief = uniform_width_belief({"a": float("nan"), "b": 0.5}, 0.1)
        assert belief["a"] == Interval.around(float("nan"), 0.1) == Interval(0.0, 1.0)


def recipe_space(name: str, seed: int):
    """The interval-rung space the recipe builds: width delta_med."""
    profile = generate_benchmark_profile(BENCHMARK_SPECS[name], np.random.default_rng(seed))
    frequencies = profile.frequencies()
    delta = FrequencyGroups(frequencies).median_gap()
    return space_from_frequencies(uniform_width_belief(frequencies, delta), frequencies)


class TestServedValues:
    """(exact cracks, exact strategy, attack summary), recorded before the
    analysis was shared."""

    PINNED = {
        ("connect", 0): (None, None, AttackSummary(62, 62, 0, 68, 68)),
        ("connect", 1): (None, None, AttackSummary(62, 62, 0, 68, 68)),
        ("connect", 2): (None, None, AttackSummary(62, 62, 0, 68, 68)),
        ("accidents", 0): (None, None, AttackSummary(70, 70, 0, 48, 48)),
        ("accidents", 1): (None, None, AttackSummary(71, 71, 0, 85, 85)),
        ("accidents", 2): (
            161.92986122875962,
            "block-interval-dp",
            AttackSummary(74, 74, 1, 48, 48),
        ),
        ("pumsb", 0): (391.0037498364031, "block-interval-dp", AttackSummary(70, 70, 0, 458, 458)),
        ("pumsb", 1): (391.5758298015985, "block-interval-dp", AttackSummary(87, 87, 0, 318, 318)),
        ("pumsb", 2): (
            377.26557745484024,
            "block-interval-dp",
            AttackSummary(74, 74, 0, 318, 318),
        ),
    }

    @pytest.mark.parametrize("name, seed", sorted(PINNED))
    def test_pinned(self, name, seed):
        space = recipe_space(name, seed)
        marginals, strategy = _exact_marginals(space)
        exact_cracks = _exact_cracks(space, marginals, None)
        assert (exact_cracks, strategy, _attack_summary(space)) == self.PINNED[(name, seed)]
