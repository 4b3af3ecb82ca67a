"""The matching-swap Markov chain of Section 7.1.

State: a consistent perfect matching, held as ``match[i] = j`` (item
``i`` is assigned anonymized item ``j``).  One *proposal* picks a pair of
items and swaps their partners when the two new edges are both
consistent; the paper drives proposals from random permutations ``P`` of
the item set, pairing ``i`` with ``P(i)``.

The chain is irreducible on the set of consistent perfect matchings of a
frequency mapping space (any matching can be transformed into any other
by transpositions within/between overlapping groups) and symmetric, so
its stationary distribution is uniform — matching the paper's
equally-likely-mappings assumption.

Crack counting is incremental: a swap changes the crack count only
through the four (item, partner) pairs involved, so sampling stays
``O(1)`` per proposal after an ``O(n)`` setup.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.budget import ComputeBudget
from repro.errors import SimulationError
from repro.graph.bipartite import FrequencyMappingSpace, MappingSpace
from repro.graph.matching import group_feasible_matching

__all__ = ["MatchingSampler"]


class MatchingSampler:
    """Swap-chain sampler over consistent perfect matchings.

    Parameters
    ----------
    space:
        The consistent-mapping space to sample from.  A consistent
        perfect matching must exist (otherwise
        :class:`~repro.errors.InfeasibleMatchingError` propagates from the
        seeding step).
    rng:
        Randomness source.
    seed_with_truth:
        Seed from the ground-truth pairing wherever consistent (the
        paper's "every item is cracked" seed); otherwise seed from an
        arbitrary consistent matching.
    """

    #: Sweeps :meth:`draws` discards before its first draw.
    BURN_IN_SWEEPS = 50
    #: Sweeps :meth:`draws` runs before each draw.
    THINNING_SWEEPS = 3

    def __init__(
        self,
        space: MappingSpace,
        rng: np.random.Generator | None = None,
        seed_with_truth: bool = True,
    ):
        self.space = space
        self.rng = np.random.default_rng() if rng is None else rng
        self.n = space.n
        match = group_feasible_matching(
            space, prefer_truth=seed_with_truth, rng=None if seed_with_truth else self.rng
        )
        self._match: list[int] = [int(j) for j in match]
        self._true: list[int] = [space.true_partner(i) for i in range(self.n)]
        self._cracks = sum(1 for i in range(self.n) if self._match[i] == self._true[i])

        if isinstance(space, FrequencyMappingSpace):
            self._low = space.low.tolist()
            self._high = space.high.tolist()
            self._freq = space.observed.tolist()
            self._edge = None
        else:
            self._low = self._high = self._freq = None
            self._edge = space.is_edge

        # Rao-Blackwell bookkeeping: group of each anonymized item, the
        # true group of each item, and the size of that true group.
        if isinstance(space, FrequencyMappingSpace):
            group_of = space.groups.group_of
            self._anon_group = group_of.tolist()
            self._true_group = [int(group_of[j]) for j in self._true]
            counts = space.groups.counts
            self._true_group_weight = [
                1.0 / int(counts[g]) for g in self._true_group
            ]
        else:
            self._anon_group = None
            self._true_group = None
            self._true_group_weight = None

    # -- chain ------------------------------------------------------------

    def _consistent(self, i: int, j: int) -> bool:
        if self._edge is not None:
            return self._edge(i, j)
        f = self._freq[j]
        return self._low[i] <= f <= self._high[i]

    def sweep(self, n_sweeps: int = 1, budget: ComputeBudget | None = None) -> int:
        """Run whole-permutation sweeps (``n`` proposals each).

        Returns the number of accepted swaps, mainly for diagnostics.
        A *budget* is polled once per proposal (cheap checkpoint) and
        ticked once per completed sweep, so quota interruptions land on
        sweep boundaries.
        """
        accepted = 0
        match = self._match
        true = self._true
        for _ in range(n_sweeps):
            if budget is not None:
                budget.checkpoint(self.n)
            partner = self.rng.permutation(self.n)
            for a in range(self.n):
                b = int(partner[a])
                if a == b:
                    continue
                ja, jb = match[a], match[b]
                if self._consistent(a, jb) and self._consistent(b, ja):
                    before = (ja == true[a]) + (jb == true[b])
                    after = (jb == true[a]) + (ja == true[b])
                    match[a], match[b] = jb, ja
                    self._cracks += after - before
                    accepted += 1
            if budget is not None:
                budget.sweep_tick()
        return accepted

    def draws(self, n_draws: int) -> Iterator[tuple[int, ...]]:
        """Yield *n_draws* thinned matchings after the burn-in.

        The draw loop of every marginal estimate built on this sampler:
        :attr:`BURN_IN_SWEEPS` sweeps, then :attr:`THINNING_SWEEPS`
        sweeps before each draw.
        """
        self.sweep(self.BURN_IN_SWEEPS)
        for _ in range(n_draws):
            self.sweep(self.THINNING_SWEEPS)
            yield self.matching

    def propose(self, n_proposals: int, budget: ComputeBudget | None = None) -> int:
        """Run single random-pair proposals (finer-grained than sweeps)."""
        accepted = 0
        match = self._match
        true = self._true
        if budget is not None:
            budget.checkpoint(n_proposals)
        pairs = self.rng.integers(0, self.n, size=(n_proposals, 2))
        for a, b in pairs:
            a, b = int(a), int(b)
            if a == b:
                continue
            ja, jb = match[a], match[b]
            if self._consistent(a, jb) and self._consistent(b, ja):
                before = (ja == true[a]) + (jb == true[b])
                after = (jb == true[a]) + (ja == true[b])
                match[a], match[b] = jb, ja
                self._cracks += after - before
                accepted += 1
        return accepted

    # -- observables ---------------------------------------------------------

    @property
    def matching(self) -> tuple[int, ...]:
        """The current matching (item index -> anonymized index)."""
        return tuple(self._match)

    def crack_count(self) -> int:
        """Number of cracks in the current matching."""
        return self._cracks

    def rao_blackwell_cracks(self) -> float:
        """Expected cracks conditional on the current group assignment.

        Given the item-to-frequency-group assignment induced by the
        matching, the within-group pairing is uniform, so the conditional
        expectation is ``sum over items assigned to their true group of
        1 / (true group size)``.  Same mean as :meth:`crack_count`,
        strictly lower variance.
        """
        if self._anon_group is None:
            raise SimulationError(
                "Rao-Blackwell estimation needs a frequency mapping space"
            )
        total = 0.0
        match = self._match
        anon_group = self._anon_group
        true_group = self._true_group
        weight = self._true_group_weight
        for i in range(self.n):
            if anon_group[match[i]] == true_group[i]:
                total += weight[i]
        return total

    def check_consistency(self) -> bool:
        """Verify the invariants: perfect, consistent, crack count correct.

        Used by tests and available as a debugging aid.
        """
        seen = set(self._match)
        if len(seen) != self.n:
            return False
        if any(not self._consistent(i, self._match[i]) for i in range(self.n)):
            return False
        actual = sum(1 for i in range(self.n) if self._match[i] == self._true[i])
        return actual == self._cracks
