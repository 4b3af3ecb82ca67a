"""Bit-identity of the vectorized O-estimate.

``FrequencyMappingSpace`` computes its admissible runs with two
``np.searchsorted`` calls and its outdegrees once, as a read-only array;
``o_estimate`` gathers the compliant outdegrees in the compliant set's
iteration order and adds their reciprocals strictly left to right.  The
served ``interval_estimate.value`` decides Figure 8, so these tests hold
the vectorized pass to the per-item loop it replaced with ``==``, not
``approx``: on random frequency and explicit spaces, under full and
partial compliance, explicit ``compliant_indices`` and ``interest``
subsets.  They also pin served values on seeded FIMI-calibrated
releases and check that suppression's stop test uses the same value.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beliefs.builders import uniform_width_belief
from repro.core.oestimate import o_estimate
from repro.data.database import FrequencyProfile
from repro.data.frequency import FrequencyGroups
from repro.datasets.benchmarks import BENCHMARK_SPECS, generate_benchmark_profile
from repro.errors import GraphError
from repro.graph.bipartite import (
    ExplicitMappingSpace,
    FrequencyMappingSpace,
    space_from_frequencies,
)
from repro.protect.suppress import _estimate
from repro.recipe.assess import assess_risk


def reference_outdegree(space, i: int) -> int:
    """``O_x`` the per-item way: two bisects and a prefix-sum lookup."""
    if isinstance(space, FrequencyMappingSpace):
        return space.groups.count_in_range(float(space.low[i]), float(space.high[i]))
    return len(list(space.candidates(i)))


def reference_o_estimate(space, compliant_indices=None, interest=None) -> float:
    """The per-item loop: one float addition per compliant item, in set order."""
    if compliant_indices is None:
        compliant = set(int(i) for i in space.compliant_indices())
    else:
        compliant = set(int(i) for i in compliant_indices)
    if interest is not None:
        compliant &= {space.item_index(item) for item in interest}
    acc = 0.0
    for i in compliant:
        deg = reference_outdegree(space, i)
        if deg > 0:
            acc = acc + 1.0 / deg
    return acc


@st.composite
def frequency_spaces(draw):
    """Random frequency spaces whose interval ends often hit a group
    frequency exactly or sit at 0 and 1; a drawn fraction of the items
    is widened to be compliant, the rest may miss their true frequency
    or admit no group at all (outdegree 0)."""
    n = draw(st.integers(1, 160))
    levels = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.random(levels)
    observed = grid[rng.integers(0, levels, n)]
    truth = rng.permutation(n)
    ends = np.concatenate((grid, [0.0, 1.0], rng.random(4)))
    a, b = rng.choice(ends, n), rng.choice(ends, n)
    low, high = np.minimum(a, b), np.maximum(a, b)
    widen = rng.random(n) < draw(st.floats(0.0, 1.0))
    true_f = observed[truth]
    low = np.where(widen, np.minimum(low, true_f), low)
    high = np.where(widen, np.maximum(high, true_f), high)
    return FrequencyMappingSpace(
        items=list(range(n)),
        anonymized=list(range(n)),
        observed=observed.tolist(),
        intervals=list(zip(low.tolist(), high.tolist())),
        true_partner_of=truth.tolist(),
    )


@st.composite
def explicit_spaces(draw):
    """Random adjacency; some rows empty, some miss their true partner."""
    n = draw(st.integers(1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 0.3))
    adjacency = [np.flatnonzero(rng.random(n) < density).tolist() for _ in range(n)]
    return ExplicitMappingSpace(
        items=list(range(n)),
        anonymized=list(range(n)),
        adjacency=adjacency,
        true_partner_of=rng.permutation(n).tolist(),
    )


@st.composite
def estimate_arguments(draw, spaces):
    """A space plus ``compliant_indices`` (None, a list with duplicates or
    an int64 array) and an ``interest`` subset (None or some items)."""
    space = draw(spaces)
    kind = draw(st.sampled_from(("default", "list", "array")))
    compliant = None
    if kind != "default":
        picks = draw(st.lists(st.integers(0, space.n - 1), max_size=2 * space.n))
        compliant = picks if kind == "list" else np.asarray(picks, dtype=np.int64)
    interest = None
    if draw(st.booleans()):
        interest = draw(st.lists(st.sampled_from(space.items), unique=True))
    return space, compliant, interest


class TestBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(estimate_arguments(frequency_spaces()))
    def test_frequency_spaces(self, args):
        space, compliant, interest = args
        result = o_estimate(space, compliant_indices=compliant, interest=interest)
        assert result.value == reference_o_estimate(space, compliant, interest)

    @settings(max_examples=100, deadline=None)
    @given(estimate_arguments(explicit_spaces()))
    def test_explicit_spaces(self, args):
        space, compliant, interest = args
        result = o_estimate(space, compliant_indices=compliant, interest=interest)
        assert result.value == reference_o_estimate(space, compliant, interest)

    def test_set_order_not_ascending_order(self):
        # The set {93, 53, 61, 70, 55} does not iterate in ascending
        # order, and adding these five reciprocals in ascending order
        # rounds differently in the last bit.
        degrees = {93: 1, 53: 5, 61: 10, 70: 7, 55: 1}
        n = 94
        adjacency = [list(range(i - degrees.get(i, 1) + 1, i + 1)) for i in range(n)]
        space = ExplicitMappingSpace(
            items=list(range(n)),
            anonymized=list(range(n)),
            adjacency=adjacency,
            true_partner_of=list(range(n)),
        )
        value = o_estimate(space, compliant_indices=list(degrees)).value
        ascending = 0.0
        for i in sorted(degrees):
            ascending = ascending + 1.0 / degrees[i]
        assert value == reference_o_estimate(space, list(degrees))
        assert value != ascending

    def test_empty_compliant_set(self, bigmart_space_h):
        result = o_estimate(bigmart_space_h, compliant_indices=[])
        assert result.value == 0.0 and result.n_compliant == 0


class TestVectorizedRuns:
    @settings(max_examples=150, deadline=None)
    @given(frequency_spaces())
    def test_runs_match_group_range(self, space):
        for i in range(space.n):
            run = space.groups.group_range(float(space.low[i]), float(space.high[i]))
            assert space.admissible_run(i) == run
            assert space.outdegree(i) == space.outdegrees()[i] == reference_outdegree(space, i)

    def test_ends_on_group_frequencies_and_clamped(self):
        # Groups at 0, 0.25, 0.5, 1: closed ends include an exact hit on
        # either side, and [0, 1] admits everything.
        space = FrequencyMappingSpace(
            items=list(range(6)),
            anonymized=list(range(6)),
            observed=[0.0, 0.25, 0.25, 0.5, 1.0, 0.5],
            intervals=[(0.0, 0.0), (0.25, 0.5), (0.0, 1.0), (0.3, 0.49), (1.0, 1.0), (0.5, 1.0)],
            true_partner_of=list(range(6)),
        )
        assert [space.admissible_run(i) for i in range(6)] == [
            (0, 1), (1, 3), (0, 4), (2, 2), (3, 4), (2, 4),
        ]
        assert space.outdegrees().tolist() == [1, 4, 6, 0, 1, 3]

    def test_outdegrees_read_only_and_cached(self, bigmart_space_h):
        degrees = bigmart_space_h.outdegrees()
        assert degrees is bigmart_space_h.outdegrees()
        assert degrees.dtype == np.int64
        with pytest.raises(ValueError):
            degrees[0] = 7

    def test_nan_interval_end_rejected(self):
        with pytest.raises(GraphError):
            FrequencyMappingSpace(
                items=[0], anonymized=[0], observed=[0.5],
                intervals=[(float("nan"), 1.0)], true_partner_of=[0],
            )


def fig8_profile(name: str, seed: int):
    return generate_benchmark_profile(BENCHMARK_SPECS[name], np.random.default_rng(seed))


#: tau grid reaching all three decision rungs on every release below.
TAU_GRID = (0.01, 0.1, 0.2, 0.5, 0.7, 0.97)
AB, DI, DP = "ALPHA_BOUND", "DISCLOSE_INTERVAL", "DISCLOSE_POINT_VALUED"


class TestPinnedServedValues:
    """``(decision, repr(interval_estimate.value), repr(alpha_max))`` per tau
    of TAU_GRID, then for ``interest = items[::3]`` at tau 0.01; recorded
    from the per-item O-estimate loop with ``runs=5, rng=default_rng(0)``."""

    PINNED = {
        ("connect", 0): (
            [(AB, "68.21741641836581", a) for a in (
                "0.023076923076923078", "0.17692307692307693",
                "0.3923076923076923", "0.9461538461538461")]
            + [(DI, "68.21741641836581", None), (DP, None, None)]
            + [(AB, "28.10446559067811", "0.0")]
        ),
        ("connect", 1): (
            [(AB, "68.21741641836584", a) for a in (
                "0.023076923076923078", "0.19230769230769232",
                "0.34615384615384615", "0.9538461538461539")]
            + [(DI, "68.21741641836584", None), (DP, None, None)]
            + [(AB, "20.232818135409136", "0.038461538461538464")]
        ),
        ("accidents", 0): (
            [(AB, "159.0760651629076", a) for a in (
                "0.0255863539445629", "0.27078891257995735", "0.5756929637526652")]
            + [(DI, "159.0760651629076", None), (DP, None, None), (DP, None, None)]
            + [(AB, "51.401646006909175", "0.0255863539445629")]
        ),
        ("accidents", 1): (
            [(AB, "160.19968141356534", a) for a in (
                "0.02771855010660981", "0.302771855010661", "0.5863539445628998")]
            + [(DI, "160.19968141356534", None), (DP, None, None), (DP, None, None)]
            + [(AB, "51.13710585317561", "0.023454157782515993")]
        ),
        ("pumsb", 0): (
            [(AB, "363.851643732664", a) for a in (
                "0.055844770468528156", "0.5802176999526739")]
            + [(DI, "363.851643732664", None)] + [(DP, None, None)] * 3
            + [(AB, "121.25194854944766", "0.057264552768575484")]
        ),
        ("pumsb", 1): (
            [(AB, "366.8874315158449", a) for a in (
                "0.06152389966871746", "0.5873166114529106")]
            + [(DI, "366.8874315158449", None)] + [(DP, None, None)] * 3
            + [(AB, "124.88494608409161", "0.06341694273544723")]
        ),
    }

    @staticmethod
    def served(assessment) -> tuple:
        value = assessment.interval_estimate
        return (
            assessment.decision.name,
            None if value is None else repr(value.value),
            None if assessment.alpha_max is None else repr(assessment.alpha_max),
        )

    @pytest.mark.parametrize("name, seed", sorted(PINNED))
    def test_pinned(self, name, seed):
        profile = fig8_profile(name, seed)
        got = [
            self.served(assess_risk(profile, tau, runs=5, rng=np.random.default_rng(0)))
            for tau in TAU_GRID
        ]
        interest = sorted(profile.frequencies(), key=repr)[::3]
        got.append(self.served(assess_risk(
            profile, 0.01, runs=5, rng=np.random.default_rng(0), interest=interest
        )))
        assert got == self.PINNED[(name, seed)]


class TestOneOEstimate:
    @pytest.mark.parametrize(
        "profile",
        [
            FrequencyProfile({i: 40 * i for i in range(1, 21)}, 1000),
            fig8_profile("connect", 1),
            fig8_profile("pumsb", 0),
        ],
        ids=["spread", "connect", "pumsb"],
    )
    def test_suppression_estimate_is_the_recipe_estimate(self, profile):
        frequencies = profile.frequencies()
        delta = FrequencyGroups(frequencies).median_gap()
        space = space_from_frequencies(uniform_width_belief(frequencies, delta), frequencies)
        value, ranked = _estimate(profile, delta)
        assert value == o_estimate(space).value
        assert value == assess_risk(
            profile, 0.0, delta=delta, runs=1, rng=np.random.default_rng(0)
        ).interval_estimate.value
        contributions = [1.0 / space.outdegree(space.item_index(x)) for x in ranked]
        assert contributions == sorted(contributions, reverse=True)
        assert sorted(ranked, key=repr) == sorted(space.items, key=repr)
