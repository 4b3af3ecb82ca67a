"""The O-estimate heuristic (paper, Section 5, Figure 5).

The O-estimate of the expected number of cracks is::

    OE(beta, D) = sum over compliant items x of 1 / O_x

where ``O_x`` is the outdegree of ``x`` in the consistent-mapping graph —
the number of anonymized items that can map to ``x``.  Under compliancy
the true edge ``(x', x)`` is among them, so ``1/O_x`` approximates the
probability that ``x`` is cracked.  For alpha-compliant belief functions
the sum runs over the compliant subset only (Section 5.3): a
non-compliant item can never be cracked by a consistent mapping.

The efficient implementation follows Figure 5: one pass to get observed
frequencies, a sort into frequency groups, then two binary searches plus
a prefix-sum lookup per item — ``O(|D| + n log n)`` overall.  The space
does the searches as two vectorized calls and keeps the outdegrees, so
an estimate is one array pass over them.  Degree-1
propagation (Figure 7) can optionally be applied first, turning forced
pairs into certainties as in Figure 6(a).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.beliefs.function import BeliefFunction
from repro.graph.bipartite import MappingSpace, space_from_frequencies
from repro.graph.propagation import propagate_degree_one

__all__ = ["OEstimateResult", "o_estimate", "o_estimate_from_frequencies"]

Item = Hashable


@dataclass(frozen=True)
class OEstimateResult:
    """Result of an O-estimate computation.

    Attributes
    ----------
    value:
        The estimated expected number of cracks ``OE(beta, D)``.
    n:
        Domain size, so ``value / n`` is the expected *fraction* cracked.
    n_compliant:
        Number of items the estimate summed over.
    n_forced:
        Number of pairs fixed by degree-1 propagation (0 when propagation
        was not applied); forced true pairs contribute exactly 1 each.
    propagated:
        Whether Figure 7 propagation was applied before estimating.
    """

    value: float
    n: int
    n_compliant: int
    n_forced: int = 0
    propagated: bool = False

    @property
    def fraction(self) -> float:
        """Expected cracks as a fraction of the domain (Figure 11's y-axis)."""
        return self.value / self.n

    def within_tolerance(self, tolerance: float) -> bool:
        """Whether the estimate is inside the owner's tolerance ``tau``."""
        return self.value <= tolerance * self.n


def o_estimate(
    space: MappingSpace,
    compliant_indices: Iterable[int] | None = None,
    propagate: bool = False,
    interest: Iterable | None = None,
) -> OEstimateResult:
    """Compute the O-estimate on a mapping space.

    Parameters
    ----------
    space:
        The consistent-mapping space (frequency-based or explicit).
    compliant_indices:
        Item indices to sum over.  Defaults to the items on which the
        belief is actually compliant (true edge present) — the paper's
        definition for both the fully compliant and alpha-compliant cases.
    propagate:
        Apply degree-1 propagation (Figure 7) first.  Forced pairs count
        1 when true and 0 otherwise; remaining items use their reduced
        outdegrees.
    interest:
        Optional subset of *items* the owner cares about (Lemmas 2 and 4:
        e.g. the frequent items, or those with the highest margin).  The
        estimate then counts expected cracks among these items only; the
        reported ``n`` stays the full domain size.
    """
    if compliant_indices is None:
        compliant = set(space.compliant_indices().tolist())
    else:
        compliant = set(int(i) for i in compliant_indices)
    if interest is not None:
        wanted = {space.item_index(item) for item in interest}
        compliant &= wanted

    if not propagate:
        # Summation-order contract: the terms are added strictly left to
        # right in the set's iteration order, so the value is the same in
        # the last bit on every Python version (np.sum would add pairwise,
        # and builtin sum over floats compensates from Python 3.12 on).
        degrees = space.outdegrees()[np.fromiter(compliant, np.int64, len(compliant))]
        terms = 1.0 / degrees[degrees > 0]
        value = float(np.cumsum(terms)[-1]) if len(terms) else 0.0
        return OEstimateResult(
            value=value, n=space.n, n_compliant=len(compliant)
        )

    result = propagate_degree_one(space)
    value = 0.0
    for i, j in result.forced.items():
        if i in compliant and j == space.true_partner(i):
            value += 1.0
    for i, degree in result.remaining_outdegrees.items():
        if i not in compliant or degree <= 0:
            continue
        if space.true_partner(i) not in result.remaining_adjacency[i]:
            continue  # the true edge was pruned: x can no longer be cracked
        value += 1.0 / degree
    return OEstimateResult(
        value=value,
        n=space.n,
        n_compliant=len(compliant),
        n_forced=result.n_forced,
        propagated=True,
    )


def o_estimate_from_frequencies(
    belief: BeliefFunction,
    true_frequencies: Mapping[Item, float],
    propagate: bool = False,
) -> OEstimateResult:
    """Convenience wrapper: build the space from frequencies, then estimate.

    This is exactly the procedure of Figure 5: the owner knows the true
    frequencies (one database pass), forms the frequency groups of the
    anonymized items, and sums ``1/O_x`` using prefix sums.
    """
    space = space_from_frequencies(belief, true_frequencies)
    return o_estimate(space, propagate=propagate)
