"""Constructors for the belief-function classes the paper analyzes.

These mirror the paper's taxonomy (Sections 2.2, 5.3, 6.1, 7.4):

* :func:`ignorant_belief` — no knowledge, every interval ``[0, 1]``;
* :func:`point_belief` — exact knowledge of every frequency;
* :func:`interval_belief` — arbitrary intervals, given explicitly;
* :func:`uniform_width_belief` — the recipe's ``[f - delta, f + delta]``;
* :func:`alpha_compliant_belief` — a compliant base with a random
  ``(1 - alpha)`` fraction of items deliberately guessed wrong;
* :func:`from_sample_belief` — the Similarity-by-Sampling construction
  (Figure 13): sampled frequencies widened by the sampled median gap.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Hashable

import numpy as np

from repro.beliefs.function import BeliefFunction
from repro.beliefs.interval import FULL_INTERVAL, Interval
from repro.data.database import FrequencySource
from repro.data.frequency import FrequencyGroups
from repro.errors import BeliefError, InvalidIntervalError

__all__ = [
    "ignorant_belief",
    "point_belief",
    "interval_belief",
    "uniform_width_belief",
    "alpha_compliant_belief",
    "from_sample_belief",
]

Item = Hashable


def ignorant_belief(domain: Iterable[Item]) -> BeliefFunction:
    """The ignorant belief function: every item maps to ``[0, 1]``."""
    return BeliefFunction({item: FULL_INTERVAL for item in domain})


def point_belief(frequencies: Mapping[Item, float]) -> BeliefFunction:
    """The compliant point-valued belief function from true frequencies."""
    return BeliefFunction({item: Interval.point(freq) for item, freq in frequencies.items()})


def interval_belief(intervals: Mapping[Item, object]) -> BeliefFunction:
    """A belief function from an explicit item -> interval mapping."""
    return BeliefFunction(intervals)


def uniform_width_belief(frequencies: Mapping[Item, float], delta: float) -> BeliefFunction:
    """Compliant intervals ``[f - delta, f + delta]`` (Figure 8, step 5).

    Equal to ``Interval.around(f, delta)`` per item, computed as arrays:
    the ends are ``max(0, f - delta)`` and ``min(1, f + delta)`` with
    Python's ``max``/``min`` semantics, and the first invalid interval
    raises what :class:`Interval` would.
    """
    if not frequencies:
        raise BeliefError("a belief function needs a non-empty domain")
    if delta < 0:
        raise InvalidIntervalError(f"width delta must be non-negative, got {delta}")
    values = np.fromiter(frequencies.values(), dtype=np.float64, count=len(frequencies))
    below, above = values - delta, values + delta
    # max(0.0, x) is x only when x > 0.0, min(1.0, x) only when x < 1.0
    # (so a NaN end clamps, as with the builtins).
    low = np.where(below > 0.0, below, 0.0)
    high = np.where(above < 1.0, above, 1.0)
    invalid = np.flatnonzero(~(low <= high))
    if len(invalid):
        i = int(invalid[0])
        raise InvalidIntervalError(
            f"interval [{low[i].item()}, {high[i].item()}] violates 0 <= low <= high <= 1"
        )
    return BeliefFunction.from_bounds(tuple(frequencies), low, high)


def _noncompliant_interval(
    true_frequency: float,
    delta: float,
    observed_frequencies: tuple[float, ...],
    rng: np.random.Generator,
) -> Interval:
    """A wrong-guess interval: excludes the true frequency.

    To keep the consistent-mapping graph non-degenerate (so that
    simulation remains possible), the wrong interval is centered on a
    *different* observed frequency whenever one exists, then clipped just
    enough to exclude the true frequency.
    """
    others = [f for f in observed_frequencies if f != true_frequency]
    if not others:
        # Degenerate domain: a single frequency group.  The only way to be
        # non-compliant is an interval that matches nothing.
        if true_frequency >= 0.5:
            return Interval(0.0, max(0.0, true_frequency - max(delta, 1e-9)) / 2)
        low = min(1.0, true_frequency + max(delta, 1e-9) * 2)
        return Interval(low, 1.0) if low < 1.0 else Interval(1.0, 1.0)

    target = float(others[int(rng.integers(len(others)))])
    low = max(0.0, target - delta)
    high = min(1.0, target + delta)
    if low <= true_frequency <= high:
        midpoint = (true_frequency + target) / 2
        if target > true_frequency:
            low = min(target, np.nextafter(midpoint, 1.0))
        else:
            high = max(target, np.nextafter(midpoint, 0.0))
    return Interval(low, high)


def alpha_compliant_belief(
    frequencies: Mapping[Item, float],
    alpha: float,
    delta: float,
    rng: np.random.Generator | None = None,
    noncompliant_items: Iterable[Item] | None = None,
) -> BeliefFunction:
    """An ``alpha``-compliant interval belief function (Section 5.3).

    A ``ceil((1 - alpha) * n)``-sized subset of items (random unless
    *noncompliant_items* is given) receives a wrong-guess interval that
    excludes its true frequency; every other item gets the compliant
    interval ``[f - delta, f + delta]``.

    Parameters
    ----------
    frequencies:
        True item frequencies (defines the domain).
    alpha:
        Desired degree of compliancy in ``[0, 1]``.
    delta:
        Interval half-width (typically ``delta_med``).
    rng:
        Source of randomness for selecting wrong items and wrong targets.
    noncompliant_items:
        Explicit set of items to guess wrong; overrides the random choice
        (and *alpha* is then implied by its size).
    """
    if not 0.0 <= alpha <= 1.0:
        raise BeliefError(f"alpha must be in [0, 1], got {alpha}")
    rng = np.random.default_rng() if rng is None else rng
    items = sorted(frequencies, key=repr)
    if noncompliant_items is None:
        n_wrong = round((1.0 - alpha) * len(items))
        wrong = set(
            items[i] for i in rng.choice(len(items), size=n_wrong, replace=False)
        ) if n_wrong else set()
    else:
        wrong = set(noncompliant_items)
        stray = wrong - set(items)
        if stray:
            raise BeliefError(f"{len(stray)} non-compliant item(s) outside the domain")

    observed = tuple(sorted(set(frequencies.values())))
    intervals: dict[Item, Interval] = {}
    for item in items:
        freq = frequencies[item]
        if item in wrong:
            intervals[item] = _noncompliant_interval(freq, delta, observed, rng)
        else:
            intervals[item] = Interval.around(freq, delta)
    return BeliefFunction(intervals)


def from_sample_belief(
    sample: FrequencySource,
    delta: float | None = None,
    use_mean_gap: bool = False,
) -> BeliefFunction:
    """Build a belief function from a sampled database (Figure 13).

    The hacker observes the sampled frequency ``f_hat(x)`` of every item
    and widens it by the sampled median frequency gap ``delta'_med``
    (or the sampled *mean* gap when *use_mean_gap* — the paper shows the
    mean makes compliancy misleadingly easy, Section 7.4).

    Parameters
    ----------
    sample:
        The sampled database or frequency profile ``D_p``.
    delta:
        Explicit half-width override; when ``None`` the sampled gap
        statistic is used.
    use_mean_gap:
        Use the sampled mean gap instead of the sampled median gap.
    """
    frequencies = sample.frequencies()
    if delta is None:
        groups = FrequencyGroups(frequencies)
        if len(groups) < 2:
            raise BeliefError(
                "cannot derive a gap-based width from a sample with a single frequency group; "
                "pass delta explicitly"
            )
        delta = groups.mean_gap() if use_mean_gap else groups.median_gap()
    return uniform_width_belief(frequencies, delta)
