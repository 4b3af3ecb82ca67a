"""Section 3 — the Lemma 1-4 closed forms on the calibrated benchmarks.

Prints the point-valued expected cracks g (Lemma 3) and the expected
cracks of a "top items of interest" subset (Lemma 4) for every dataset,
validating the Lemma 1/3 values against the permanent-based direct method
on a small instance.
"""

from __future__ import annotations

import pytest

from repro.beliefs import ignorant_belief, point_belief
from repro.core import (
    expected_cracks_ignorant,
    expected_cracks_point_valued,
    expected_cracks_point_valued_subset,
)
from repro.data import FrequencyGroups
from repro.datasets import load_benchmark
from repro.graph import expected_cracks_exact, space_from_frequencies

DATASETS = ["connect", "pumsb", "accidents", "retail", "mushroom", "chess"]


def test_lemma_table(report, benchmark):
    def compute():
        rows = []
        for name in DATASETS:
            profile = load_benchmark(name).profile
            frequencies = profile.frequencies()
            groups = FrequencyGroups(frequencies)
            g = expected_cracks_point_valued(groups)
            # Owner cares about the top 10% most frequent items.
            items_sorted = sorted(frequencies, key=frequencies.get, reverse=True)
            top = items_sorted[: max(1, len(items_sorted) // 10)]
            subset = expected_cracks_point_valued_subset(groups, top)
            rows.append((name, len(frequencies), g, subset, len(top)))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)

    lines = [
        f"{'Dataset':>10} {'n':>6} {'Lemma1':>7} {'g (Lemma3)':>11} "
        f"{'g/n':>7} {'top-10% cracks (Lemma4)':>24}"
    ]
    for name, n, g, subset, n_top in rows:
        lines.append(
            f"{name.upper():>10} {n:>6} {expected_cracks_ignorant(n):>7.1f} "
            f"{g:>11.0f} {g / n:>7.3f} {subset:>17.2f} of {n_top}"
        )
    lines.append("(Lemma 1: ignorant hacker cracks 1 item in expectation, any n)")
    report("lemmas_point_valued", lines)

    for name, n, g, subset, n_top in rows:
        assert 1 <= g <= n
        assert 0 <= subset <= n_top


def test_lemmas_validated_by_direct_method(benchmark):
    frequencies = {i: f for i, f in enumerate([0.1, 0.1, 0.3, 0.3, 0.3, 0.7], start=1)}

    def compute():
        ignorant_space = space_from_frequencies(ignorant_belief(frequencies), frequencies)
        point_space = space_from_frequencies(point_belief(frequencies), frequencies)
        return (
            expected_cracks_exact(ignorant_space),
            expected_cracks_exact(point_space),
        )

    ignorant_value, point_value = benchmark(compute)
    assert ignorant_value == pytest.approx(expected_cracks_ignorant(6))
    assert point_value == pytest.approx(expected_cracks_point_valued(frequencies))
