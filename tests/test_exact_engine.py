"""The structure-exploiting exact engine vs Ryser and enumeration.

Property sweeps: on hundreds of random small interval and
alpha-compliant instances, the consecutive-ones DP and the
block-decomposed engines must agree with Ryser *exactly* (counts are
integers below 2**53, so float equality is exact), and every strategy's
``expected_cracks_direct`` must match the mean of its
``crack_distribution``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.beliefs import interval_belief
from repro.errors import GraphError, InfeasibleMatchingError
from repro.graph import (
    ExplicitMappingSpace,
    count_matchings_exact,
    crack_distribution,
    crack_distribution_exact,
    crack_marginals,
    crack_marginals_exact,
    decompose,
    enumerate_consistent_matchings,
    exact_strategy,
    expected_cracks_direct,
    expected_cracks_exact,
    permanent,
    space_from_frequencies,
)
from repro.graph.intervaldp import (
    DPBudget,
    assignment_count,
    class_placement_totals,
    crack_law,
)
from repro.graph.kernels import ryser_int_python as _ryser
from repro.simulation import best_expected_cracks


def random_interval_space(rng: np.random.Generator, alpha_compliant: bool = False):
    """A random small frequency space with interval beliefs.

    With ``alpha_compliant=True`` some items get intervals that *miss*
    their true frequency (the alpha-compliant hacker of Section 6), so
    non-compliant items and empty runs both occur.
    """
    n = int(rng.integers(3, 9))
    n_groups = int(rng.integers(2, min(n, 5) + 1))
    step = 0.8 / n_groups
    frequencies = {
        i: round(0.1 + step * int(rng.integers(0, n_groups)), 9) for i in range(n)
    }
    intervals = {}
    for i, f in frequencies.items():
        lo_w = step * int(rng.integers(0, 3))
        hi_w = step * int(rng.integers(0, 3))
        low, high = max(0.0, f - lo_w), min(1.0, f + hi_w)
        if alpha_compliant and rng.random() < 0.3:
            # Shift the interval off the true frequency.
            shift = step * (1 + int(rng.integers(0, 2)))
            low, high = min(low + shift, 1.0), min(high + shift, 1.0)
        intervals[i] = (low, high)
    return space_from_frequencies(interval_belief(intervals), frequencies)


def random_explicit_space(rng: np.random.Generator):
    n = int(rng.integers(2, 9))
    adjacency = []
    for i in range(n):
        extra = {int(j) for j in range(n) if rng.random() < 0.35}
        row = sorted(extra | {i}) if rng.random() < 0.8 else sorted(extra or {i})
        adjacency.append(row)
    return ExplicitMappingSpace(
        items=tuple(range(n)),
        anonymized=tuple(f"{i}'" for i in range(n)),
        adjacency=adjacency,
        true_partner_of=list(rng.permutation(n).astype(int)),
    )


def enumeration_marginals(space) -> np.ndarray:
    hits = np.zeros(space.n)
    total = 0
    for assignment in enumerate_consistent_matchings(space):
        total += 1
        for i, j in enumerate(assignment):
            if j == space.true_partner(i):
                hits[i] += 1
    if total == 0:
        raise InfeasibleMatchingError("no matching")
    return hits / total


def class_pin_counts(capacities, classes, pins):
    """Assignment counts with one item of a class pinned to a group.

    For each ``(run, group)`` pair in *pins*, counts the assignments of
    the remaining items when one item of *run* is already placed in
    *group* (the class loses one item, the group one capacity slot): the
    one-DP-per-pair oracle that ``class_placement_totals`` replaces.
    """
    results = {}
    for run, group in pins:
        lo, hi = run
        if not lo <= group < hi or classes.get(run, 0) <= 0 or capacities[group] <= 0:
            results[(run, group)] = 0
            continue
        reduced_classes = dict(classes)
        reduced_classes[run] -= 1
        reduced_capacities = list(capacities)
        reduced_capacities[group] -= 1
        results[(run, group)] = assignment_count(tuple(reduced_capacities), reduced_classes)
    return results


class TestCountAgreement:
    def test_interval_instances_match_ryser(self):
        """>= 200 random interval instances: DP count == Ryser, exactly."""
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 200:
            space = random_interval_space(rng)
            ryser = _ryser(space.adjacency_matrix())
            assert float(count_matchings_exact(space)) == ryser
            checked += 1

    def test_alpha_compliant_instances_match_ryser(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            space = random_interval_space(rng, alpha_compliant=True)
            ryser = _ryser(space.adjacency_matrix())
            assert float(count_matchings_exact(space)) == ryser
            checked += 1

    def test_explicit_instances_match_ryser(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            space = random_explicit_space(rng)
            ryser = _ryser(space.adjacency_matrix())
            assert float(count_matchings_exact(space)) == ryser


class TestMarginalAgreement:
    def test_interval_marginals_match_enumeration(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 60:
            space = random_interval_space(rng)
            try:
                truth = enumeration_marginals(space)
            except InfeasibleMatchingError:
                with pytest.raises(InfeasibleMatchingError):
                    crack_marginals_exact(space)
                continue
            assert crack_marginals_exact(space) == pytest.approx(truth, abs=1e-12)
            checked += 1

    def test_explicit_marginals_match_enumeration(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 60:
            space = random_explicit_space(rng)
            try:
                truth = enumeration_marginals(space)
            except InfeasibleMatchingError:
                continue
            assert crack_marginals_exact(space) == pytest.approx(truth, abs=1e-12)
            checked += 1

    def test_expected_matches_distribution_mean_every_strategy(self):
        """E[X] == mean of P(X = k) on interval and explicit strategies."""
        rng = np.random.default_rng(13)
        seen = set()
        for _ in range(120):
            space = (
                random_interval_space(rng)
                if rng.random() < 0.5
                else random_explicit_space(rng)
            )
            plan = exact_strategy(space)
            try:
                law = crack_distribution_exact(space)
            except InfeasibleMatchingError:
                continue
            mean = float((np.arange(len(law)) * law).sum())
            assert expected_cracks_exact(space) == pytest.approx(mean, abs=1e-9)
            seen.add(plan.strategy)
        assert {"interval-dp", "ryser"} <= seen  # both engine families hit

    def test_placement_totals_match_pin_counts(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            space = random_interval_space(rng)
            decomposition = decompose(space)
            if not decomposition.matchable:
                continue
            for block in decomposition.blocks:
                a, b = block.group_range
                capacities = tuple(
                    int(c) for c in space.groups.counts[a:b]
                )
                classes: dict[tuple[int, int], int] = {}
                for i in block.item_indices:
                    lo, hi = space.admissible_run(i)
                    run = (lo - a, hi - a)
                    classes[run] = classes.get(run, 0) + 1
                total, totals = class_placement_totals(capacities, classes)
                assert total == assignment_count(capacities, classes)
                pins = [
                    (run, g) for run in classes for g in range(run[0], run[1])
                ]
                pinned = class_pin_counts(capacities, classes, pins)
                for run, g in pins:
                    assert totals.get((run, g), 0) == classes[run] * pinned[(run, g)]


class TestInfeasibleFrequencySpace:
    @pytest.mark.parametrize("n_wide", [1, 12])
    def test_every_exact_route_raises_infeasible(self, n_wide):
        # Two items believe only the one 0.1 item: no consistent mapping,
        # though every item has candidates.  The 14-item block is beyond
        # the enumeration fallback, so its law comes from the DP alone.
        frequencies = {0: 0.1, **{i: 0.2 for i in range(1, n_wide + 2)}}
        intervals = {i: (0.1, 0.1) if i < 2 else (0.1, 0.2) for i in frequencies}
        space = space_from_frequencies(interval_belief(intervals), frequencies)
        with pytest.raises(InfeasibleMatchingError):
            crack_distribution_exact(space)
        with pytest.raises(InfeasibleMatchingError):
            crack_marginals_exact(space)


class TestDispatcher:
    def test_frequency_plan(self, bigmart_space_h):
        plan = exact_strategy(bigmart_space_h)
        assert plan.strategy == "interval-dp"
        assert plan.feasible and plan.matchable
        assert sum(plan.block_sizes) == bigmart_space_h.n

    def test_explicit_plan(self, two_blocks_space):
        plan = exact_strategy(two_blocks_space)
        assert plan.strategy == "ryser"  # one connected component

    def test_large_explicit_block_is_infeasible(self):
        n = 25
        space = ExplicitMappingSpace(
            items=tuple(range(n)),
            anonymized=tuple(f"{i}'" for i in range(n)),
            adjacency=[list(range(n)) for _ in range(n)],
            true_partner_of=list(range(n)),
        )
        plan = exact_strategy(space)
        assert plan.strategy == "infeasible"
        assert not plan.feasible
        assert plan.largest_block == n
        assert "25" in plan.reason
        with pytest.raises(GraphError, match="Ryser limit"):
            count_matchings_exact(space)

    def test_interval_dp_beyond_ryser_cap(self):
        """A 1,000-item interval domain: exact E[X] under 5 s (acceptance)."""
        rng = np.random.default_rng(5)
        n = 1000
        frequencies = {i: round(0.001 * (i % 200) + 0.001, 9) for i in range(n)}
        intervals = {}
        for i, f in frequencies.items():
            w = int(rng.integers(0, 3))
            intervals[i] = (max(0.0, f - 0.001 * w), min(1.0, f + 0.001 * w))
        space = space_from_frequencies(interval_belief(intervals), frequencies)
        start = time.perf_counter()
        expected = expected_cracks_direct(space)
        elapsed = time.perf_counter() - start
        assert expected > 0
        assert elapsed < 5.0
        law = crack_distribution(space)
        assert float((np.arange(len(law)) * law).sum()) == pytest.approx(
            expected, rel=1e-9
        )

    def test_permanent_error_names_largest_block(self):
        with pytest.raises(GraphError, match="largest connected block has 23"):
            permanent(np.ones((23, 23)))

    def test_permanent_splits_blocks_beyond_limit(self):
        # 26 rows in two disconnected 13-blocks: over the limit as a
        # whole, fine block by block.
        import math

        matrix = np.zeros((26, 26))
        matrix[:13, :13] = 1.0
        matrix[13:, 13:] = 1.0
        assert permanent(matrix) == pytest.approx(float(math.factorial(13)) ** 2)

    def test_best_expected_cracks_ladder(self, bigmart_space_h):
        value, stderr, strategy = best_expected_cracks(bigmart_space_h)
        assert value == pytest.approx(1.8125)
        assert stderr == 0.0
        assert strategy == "interval-dp"


class TestBudgets:
    def test_dp_budget_exhaustion_raises(self):
        # Many overlapping wide runs with distinct deadlines blow a tiny
        # budget (a single class would collapse to one state per layer).
        capacities = tuple([2] * 12)
        classes = {(i, i + 6): 2 for i in range(7)}
        classes[(0, 12)] = 24 - sum(classes.values())
        tiny = DPBudget(max_states=2, max_ops=10)
        with pytest.raises(GraphError, match="budget"):
            assignment_count(capacities, classes, budget=tiny)
        with pytest.raises(GraphError, match="budget"):
            class_placement_totals(capacities, classes, budget=tiny)

    @pytest.mark.parametrize(
        "sweep", ["assignment_count", "class_placement_totals", "crack_law"]
    )
    def test_every_sweep_bounds_its_work(self, sweep):
        capacities = tuple([2] * 12)
        classes = {(i, i + 6): 2 for i in range(7)}
        classes[(0, 12)] = 24 - sum(classes.values())
        # Each item's true partner sits in the first group of its run.
        refined = {(lo, hi, lo): count for (lo, hi), count in classes.items()}

        def run(budget):
            if sweep == "crack_law":
                return crack_law(capacities, refined, budget=budget)
            if sweep == "assignment_count":
                return assignment_count(capacities, classes, budget=budget)
            return class_placement_totals(capacities, classes, budget=budget)

        run(DPBudget())  # generous, and memoized by the sweeps that memoize
        with pytest.raises(GraphError, match="op budget"):
            run(DPBudget(max_ops=10))
        with pytest.raises(GraphError, match="state budget"):
            run(DPBudget(max_states=1))

    def test_auto_marginals_fall_back_to_mcmc_when_plan_expensive(self):
        # One dense 20-item explicit block: a feasible Ryser plan, but
        # its 20^2 * 2^20 cost hint exceeds EXACT_COST_BUDGET.
        n = 20
        space = ExplicitMappingSpace(
            items=tuple(range(n)),
            anonymized=tuple(f"{i}'" for i in range(n)),
            adjacency=[list(range(n)) for _ in range(n)],
            true_partner_of=list(range(n)),
        )
        rng = np.random.default_rng(3)
        marginals = crack_marginals(space, method="auto", n_samples=50, rng=rng)
        # The ignorant explicit space cracks each item with p = 1/n; MCMC
        # noise is fine, exactness would be suspicious.
        assert marginals.sum() == pytest.approx(1.0, abs=0.8)


class TestExactGate:
    """The recipe, the ladder and ``auto`` marginals share one budget."""

    def test_zero_budget_closes_every_exact_route(
        self, bigmart_space_h, two_blocks_space, monkeypatch
    ):
        import repro.graph.exact as graph_exact
        from repro.data.database import FrequencyProfile
        from repro.recipe.assess import assess_risk

        profile = FrequencyProfile({i: 10 * i for i in range(1, 6)}, 100)

        def auto_and_mcmc():
            return (
                crack_marginals(
                    two_blocks_space, "auto", n_samples=50, rng=np.random.default_rng(4)
                ),
                crack_marginals(
                    two_blocks_space, "mcmc", n_samples=50, rng=np.random.default_rng(4)
                ),
            )

        assert assess_risk(profile, 0.1).exact_strategy == "block-interval-dp"
        assert best_expected_cracks(bigmart_space_h)[2] == "interval-dp"
        auto, _ = auto_and_mcmc()
        assert np.array_equal(auto, crack_marginals_exact(two_blocks_space))

        monkeypatch.setattr(graph_exact, "EXACT_COST_BUDGET", 0)
        assert assess_risk(profile, 0.1).exact_strategy is None
        _, _, strategy = best_expected_cracks(
            bigmart_space_h, n_samples=50, rng=np.random.default_rng(5)
        )
        assert strategy in ("chain-sampler", "mcmc-gibbs")
        auto, mcmc = auto_and_mcmc()
        assert np.array_equal(auto, mcmc)


class TestBlockDecomposition:
    def test_frequency_blocks_partition_items(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            space = random_interval_space(rng)
            decomposition = decompose(space)
            if not decomposition.matchable:
                continue
            items = sorted(
                i for block in decomposition.blocks for i in block.item_indices
            )
            assert items == list(range(space.n))
            for block in decomposition.blocks:
                assert block.balanced

    def test_unmatchable_detected(self):
        space = ExplicitMappingSpace(
            items=(1, 2),
            anonymized=("a", "b"),
            adjacency=[[0], [0]],
            true_partner_of=[0, 1],
        )
        decomposition = decompose(space)
        assert not decomposition.matchable
        assert count_matchings_exact(space) == 0
