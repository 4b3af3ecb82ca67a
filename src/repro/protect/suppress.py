"""Item suppression: withholding the most identifiable items.

The O-estimate decomposes per item (``1/O_x``), so the items driving the
risk are explicit: those with few frequency-compatible anonymized items
(isolated frequencies — typically the singleton groups that dominate the
paper's benchmarks).  Suppressing an item removes its column from the
release entirely; the remaining items are re-analyzed, since the
observed-frequency multiset shrinks with every removal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.beliefs.builders import uniform_width_belief
from repro.core.oestimate import o_estimate
from repro.data.database import FrequencyProfile, FrequencySource
from repro.data.frequency import FrequencyGroups
from repro.errors import DataError
from repro.graph.bipartite import space_from_frequencies

__all__ = ["SuppressionResult", "suppress_most_exposed"]


@dataclass(frozen=True)
class SuppressionResult:
    """Outcome of greedy suppression.

    Attributes
    ----------
    suppressed:
        Items withheld from the release, in suppression order.
    profile:
        The residual (publishable) frequency profile.
    residual_estimate:
        O-estimate of the residual release (same ``delta`` policy).
    delta:
        The interval half-width used throughout.
    """

    suppressed: tuple
    profile: FrequencyProfile
    residual_estimate: float
    delta: float

    @property
    def n_suppressed(self) -> int:
        return len(self.suppressed)


def _profile_of(source: FrequencySource) -> FrequencyProfile:
    counts = {item: source.item_count(item) for item in source.domain}
    return FrequencyProfile(counts, source.n_transactions)


def _estimate(profile: FrequencyProfile, delta: float) -> tuple[float, list]:
    """O-estimate plus items sorted by descending crack probability.

    The value is :func:`~repro.core.oestimate.o_estimate` of the same
    space, so the stop test agrees with the recipe's assessment in the
    last bit.
    """
    frequencies = profile.frequencies()
    belief = uniform_width_belief(frequencies, delta)
    space = space_from_frequencies(belief, frequencies)
    degrees = space.outdegrees()
    ranked = sorted(
        range(space.n), key=lambda i: (-1.0 / degrees[i], repr(space.items[i]))
    )
    return o_estimate(space).value, [space.items[i] for i in ranked]


def suppress_most_exposed(
    source: FrequencySource,
    tolerance: float,
    delta: float | None = None,
    batch_fraction: float = 0.05,
    max_suppressed_fraction: float = 0.5,
) -> SuppressionResult:
    """Greedily suppress items until the O-estimate is within tolerance.

    Repeatedly removes the batch of items with the highest ``1/O_x``
    contributions (recomputing the groups and outdegrees after every
    batch, since removals reshape the observed-frequency multiset) until
    ``OE <= tolerance * n_original``.

    Parameters
    ----------
    source:
        The owner's data.
    tolerance:
        Recipe tolerance ``tau``, applied against the *original* domain
        size — suppression should not get credit for shrinking ``n``.
    delta:
        Interval half-width; defaults to the original median gap and is
        held fixed across iterations for comparability.
    batch_fraction:
        Fraction of the original domain suppressed per iteration.
    max_suppressed_fraction:
        Hard cap; raises :class:`~repro.errors.DataError` when the target
        cannot be met within it (the release is then better withheld or
        binned instead).
    """
    if not 0.0 <= tolerance <= 1.0:
        raise DataError(f"tolerance must be in [0, 1], got {tolerance}")
    profile = _profile_of(source)
    n_original = len(profile.domain)
    if delta is None:
        groups = FrequencyGroups.from_source(profile)
        if len(groups) < 2:
            raise DataError("single frequency group: pass delta explicitly")
        delta = groups.median_gap()

    budget = tolerance * n_original
    batch = max(1, round(batch_fraction * n_original))
    suppressed: list = []

    estimate, ranked = _estimate(profile, delta)
    while estimate > budget:
        if len(suppressed) + batch > max_suppressed_fraction * n_original:
            raise DataError(
                f"cannot reach tolerance {tolerance} by suppressing at most "
                f"{max_suppressed_fraction:.0%} of the items "
                f"({len(suppressed)} suppressed, estimate still {estimate:.1f})"
            )
        victims = ranked[:batch]
        suppressed.extend(victims)
        remaining = {
            item: profile.item_count(item)
            for item in profile.domain
            if item not in set(suppressed)
        }
        if not remaining:
            break
        profile = FrequencyProfile(remaining, profile.n_transactions)
        estimate, ranked = _estimate(profile, delta)

    return SuppressionResult(
        suppressed=tuple(suppressed),
        profile=profile,
        residual_estimate=estimate,
        delta=delta,
    )
