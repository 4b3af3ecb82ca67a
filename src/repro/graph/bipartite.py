"""Mapping spaces — the bipartite graph of consistent crack mappings.

A :class:`MappingSpace` represents the graph ``G = (J + I, E)`` of
Section 2.3: nodes are the anonymized items ``J`` and original items
``I``; the edge ``(x', y)`` is present when the hacker's belief about
``y`` admits the observed frequency of ``x'``.  Perfect matchings of
``G`` are exactly the consistent crack mappings.

Two implementations:

* :class:`FrequencyMappingSpace` — derives edges from belief intervals
  and observed frequencies on the fly, using the frequency-group
  structure; scales to tens of thousands of items.
* :class:`ExplicitMappingSpace` — an arbitrary adjacency structure, for
  the paper's Section 8.1 generalization (partial knowledge that is not
  frequency-based) and for adversarially-shaped test graphs like the
  staircase of Figure 6(a).

Both know the ground-truth pairing (the owner's secret anonymization
mapping), which analyses use to decide compliancy and to count cracks.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Hashable

import numpy as np

from repro.anonymize.database import AnonymizedDatabase
from repro.anonymize.mapping import AnonymizedItem
from repro.beliefs.function import BeliefFunction
from repro.errors import DomainMismatchError, GraphError
from repro.graph.groups import BeliefGroupPartition, FrequencyAnalysis, ObservedGroups

__all__ = [
    "MappingSpace",
    "FrequencyMappingSpace",
    "ExplicitMappingSpace",
    "space_from_frequencies",
    "space_from_anonymized",
]

Item = Hashable


class MappingSpace(abc.ABC):
    """Abstract bipartite space of consistent crack mappings.

    Indices: original items are ``0..n-1`` in the order of :attr:`items`;
    anonymized items are ``0..n-1`` in the order of :attr:`anonymized`.
    """

    items: tuple[Item, ...]
    anonymized: tuple[Item, ...]

    @property
    def n(self) -> int:
        """Domain size ``|I| = |J|``."""
        return len(self.items)

    @abc.abstractmethod
    def is_edge(self, item_index: int, anon_index: int) -> bool:
        """True when the anonymized item may map to the original item."""

    @abc.abstractmethod
    def candidates(self, item_index: int) -> Iterator[int]:
        """Anonymized-item indices that may map to the item (its edge set)."""

    @abc.abstractmethod
    def outdegree(self, item_index: int) -> int:
        """``O_x`` — the number of anonymized items that may map to the item."""

    @abc.abstractmethod
    def true_partner(self, item_index: int) -> int:
        """Index of the anonymized item that truly corresponds to the item."""

    # -- derived helpers ----------------------------------------------------

    def outdegrees(self) -> np.ndarray:
        """All outdegrees as an array aligned with :attr:`items`."""
        return np.array([self.outdegree(i) for i in range(self.n)], dtype=np.int64)

    def has_true_edge(self, item_index: int) -> bool:
        """Whether the belief is *compliant* on this item.

        Compliancy on ``x`` is exactly the presence of the edge
        ``(x', x)`` in the graph (Section 2.3).
        """
        return self.is_edge(item_index, self.true_partner(item_index))

    def compliant_indices(self) -> np.ndarray:
        """Indices of items on which the belief is compliant."""
        return np.array(
            [i for i in range(self.n) if self.has_true_edge(i)], dtype=np.int64
        )

    def item_index(self, item: Item) -> int:
        """Index of an original item."""
        index_map = getattr(self, "_item_index", None)
        if index_map is None:
            index_map = {x: i for i, x in enumerate(self.items)}
            self._item_index = index_map
        try:
            return index_map[item]
        except KeyError:
            raise GraphError(f"item {item!r} not in the mapping space") from None

    def edge_count(self) -> int:
        """Total number of edges ``|E|``."""
        return int(self.outdegrees().sum())

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 matrix ``A[j, i]`` = edge (anonymized j -> item i).

        Only sensible for small spaces (used by the permanent-based direct
        method of Section 4.1).
        """
        matrix = np.zeros((self.n, self.n), dtype=np.float64)
        for i in range(self.n):
            for j in self.candidates(i):
                matrix[j, i] = 1.0
        return matrix

    def count_cracks(self, assignment: Sequence[int]) -> int:
        """Cracks in an item->anonymized assignment (index-based)."""
        return sum(
            1 for i, j in enumerate(assignment) if j == self.true_partner(i)
        )


class FrequencyMappingSpace(MappingSpace):
    """Mapping space induced by a belief function over item frequencies.

    Parameters
    ----------
    items:
        The original items, in a fixed order.
    anonymized:
        The anonymized items, in a fixed order.
    observed:
        Observed frequency of each anonymized item (aligned with
        *anonymized*).
    intervals:
        Per-item ``(low, high)`` belief intervals (aligned with *items*).
    true_partner_of:
        ``true_partner_of[i]`` is the anonymized index corresponding to
        item ``i`` under the owner's secret mapping.
    """

    def __init__(
        self,
        items: Sequence[Item],
        anonymized: Sequence[Item],
        observed: Sequence[float],
        intervals: Sequence[tuple[float, float]],
        true_partner_of: Sequence[int],
    ):
        self._set_up(
            items,
            anonymized,
            observed,
            np.array([iv[0] for iv in intervals], dtype=np.float64),
            np.array([iv[1] for iv in intervals], dtype=np.float64),
            true_partner_of,
        )

    @classmethod
    def from_bounds(
        cls,
        items: Sequence[Item],
        anonymized: Sequence[Item],
        observed: Sequence[float],
        low: np.ndarray,
        high: np.ndarray,
        true_partner_of: Sequence[int],
    ) -> "FrequencyMappingSpace":
        """The space whose belief intervals are ``[low[i], high[i]]``.

        Same as passing ``intervals=zip(low, high)``, without building
        one pair per item.
        """
        space = cls.__new__(cls)
        space._set_up(items, anonymized, observed, low, high, true_partner_of)
        return space

    def _set_up(
        self,
        items: Sequence[Item],
        anonymized: Sequence[Item],
        observed: Sequence[float],
        low: np.ndarray,
        high: np.ndarray,
        true_partner_of: Sequence[int],
    ) -> None:
        if not (len(items) == len(anonymized) == len(observed) == len(low) == len(high) == len(true_partner_of)):
            raise GraphError("items, anonymized, observed, intervals and pairing must align")
        if len(items) == 0:
            raise GraphError("a mapping space needs a non-empty domain")
        self.items = tuple(items)
        self.anonymized = tuple(anonymized)
        self.observed = np.asarray(observed, dtype=np.float64)
        self.low = np.asarray(low, dtype=np.float64)
        self.high = np.asarray(high, dtype=np.float64)
        self._true_partner = np.array(true_partner_of, dtype=np.int64)
        if not np.array_equal(np.sort(self._true_partner), np.arange(len(items))):
            raise GraphError("true pairing must be a permutation of the anonymized indices")
        self._true_partner.flags.writeable = False
        if np.isnan(self.low).any() or np.isnan(self.high).any():
            raise GraphError("belief intervals must not have NaN ends")
        self.groups = ObservedGroups(self.observed)
        # Admissible frequency-group run per item, by the comparisons of
        # ObservedGroups.group_range (bisect_left on the low end,
        # bisect_right on the high end) done as one search per end; the
        # outdegrees are prefix-sum differences over the runs.
        freqs = np.asarray(self.groups.freqs, dtype=np.float64)
        self._g_lo: np.ndarray = np.searchsorted(freqs, self.low, side="left")
        self._g_hi: np.ndarray = np.searchsorted(freqs, self.high, side="right")
        self._outdegrees: np.ndarray = self.groups.prefix[self._g_hi] - self.groups.prefix[self._g_lo]
        for array in (self._g_lo, self._g_hi, self._outdegrees):
            array.flags.writeable = False
        self._runs: list[tuple[int, int]] | None = None
        self._analysis: FrequencyAnalysis | None = None

    # -- MappingSpace interface ---------------------------------------------

    def is_edge(self, item_index: int, anon_index: int) -> bool:
        f = self.observed[anon_index]
        return bool(self.low[item_index] <= f <= self.high[item_index])

    def candidates(self, item_index: int) -> Iterator[int]:
        g_lo, g_hi = self.admissible_run(item_index)
        for g in range(g_lo, g_hi):
            yield from self.groups.members[g]

    def outdegree(self, item_index: int) -> int:
        return int(self._outdegrees[item_index])

    def true_partner(self, item_index: int) -> int:
        return int(self._true_partner[item_index])

    # -- fast paths -----------------------------------------------------------

    def outdegrees(self) -> np.ndarray:
        """All outdegrees, computed once at construction (read-only)."""
        return self._outdegrees

    def compliant_mask(self) -> np.ndarray:
        """Boolean mask of compliant items (vectorized)."""
        true_freq = self.observed[self._true_partner]
        return (self.low <= true_freq) & (true_freq <= self.high)

    def compliant_indices(self) -> np.ndarray:
        return np.flatnonzero(self.compliant_mask())

    def admissible_run(self, item_index: int) -> tuple[int, int]:
        """The item's admissible frequency-group run ``[g_lo, g_hi)``."""
        if self._runs is None:
            self._runs = list(zip(self._g_lo.tolist(), self._g_hi.tolist()))
        return self._runs[item_index]

    def admissible_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every item's run ends ``(g_lo, g_hi)`` as read-only int64 arrays."""
        return self._g_lo, self._g_hi

    def true_partners(self) -> np.ndarray:
        """``true_partner(i)`` for every item, as a read-only int64 array."""
        return self._true_partner

    def analysis(self) -> FrequencyAnalysis:
        """Belief groups, blocks and per-block DP problems, built once."""
        if self._analysis is None:
            self._analysis = FrequencyAnalysis(self._g_lo, self._g_hi, self.groups)
        return self._analysis

    def belief_groups(self) -> BeliefGroupPartition:
        """Partition of items into belief groups (Section 3.2), built once."""
        return self.analysis().belief_groups

    def true_group(self, item_index: int) -> int:
        """Frequency-group index of the item's true anonymized partner."""
        return int(self.groups.group_of[self.true_partner(item_index)])

    def __repr__(self) -> str:
        return (
            f"FrequencyMappingSpace(n={self.n}, "
            f"n_frequency_groups={len(self.groups)})"
        )


class ExplicitMappingSpace(MappingSpace):
    """Mapping space given by an arbitrary adjacency structure.

    Parameters
    ----------
    items, anonymized:
        The two node sets, in fixed order, of equal size.
    adjacency:
        ``adjacency[i]`` is the collection of anonymized indices that may
        map to item ``i``.
    true_partner_of:
        Permutation giving the ground-truth pairing.
    """

    def __init__(
        self,
        items: Sequence[Item],
        anonymized: Sequence[Item],
        adjacency: Sequence[Iterable[int]],
        true_partner_of: Sequence[int],
    ):
        if not (len(items) == len(anonymized) == len(adjacency) == len(true_partner_of)):
            raise GraphError("items, anonymized, adjacency and pairing must align")
        if len(items) == 0:
            raise GraphError("a mapping space needs a non-empty domain")
        self.items = tuple(items)
        self.anonymized = tuple(anonymized)
        n = len(items)
        self._adjacency: tuple[frozenset[int], ...] = tuple(
            frozenset(int(j) for j in row) for row in adjacency
        )
        for i, row in enumerate(self._adjacency):
            if any(not 0 <= j < n for j in row):
                raise GraphError(f"adjacency of item #{i} references an invalid index")
        self._true_partner = np.asarray(true_partner_of, dtype=np.int64)
        if sorted(self._true_partner.tolist()) != list(range(n)):
            raise GraphError("true pairing must be a permutation of the anonymized indices")

    def is_edge(self, item_index: int, anon_index: int) -> bool:
        return anon_index in self._adjacency[item_index]

    def candidates(self, item_index: int) -> Iterator[int]:
        return iter(sorted(self._adjacency[item_index]))

    def outdegree(self, item_index: int) -> int:
        return len(self._adjacency[item_index])

    def true_partner(self, item_index: int) -> int:
        return int(self._true_partner[item_index])

    def __repr__(self) -> str:
        return f"ExplicitMappingSpace(n={self.n}, n_edges={self.edge_count()})"


def space_from_frequencies(
    belief: BeliefFunction, true_frequencies: Mapping[Item, float]
) -> FrequencyMappingSpace:
    """Build the mapping space from a belief function and true frequencies.

    This is the owner-side construction: the owner knows the true
    frequency of every item, and the released anonymized database exposes
    exactly that multiset of frequencies.  Item ``x`` at index ``i`` is
    paired with the canonical anonymized item ``i'`` whose observed
    frequency is ``true_frequencies[x]``.
    """
    if belief.domain != frozenset(true_frequencies):
        raise DomainMismatchError("belief function and frequency table cover different domains")
    items = sorted(true_frequencies, key=repr)
    n = len(items)
    observed = np.fromiter(
        map(true_frequencies.__getitem__, items), dtype=np.float64, count=n
    )
    low, high = belief.bounds(items)
    return FrequencyMappingSpace.from_bounds(
        items=items,
        anonymized=tuple(map(AnonymizedItem, range(1, n + 1))),
        observed=observed,
        low=low,
        high=high,
        true_partner_of=np.arange(n, dtype=np.int64),
    )


def space_from_anonymized(
    belief: BeliefFunction, anonymized_db: AnonymizedDatabase
) -> FrequencyMappingSpace:
    """Build the mapping space from an actually anonymized database.

    The observed frequencies come from the released database; the secret
    mapping provides the ground-truth pairing used to score cracks.
    """
    mapping = anonymized_db.mapping
    if belief.domain != mapping.original_domain:
        raise DomainMismatchError("belief function does not cover the anonymized domain")
    items = sorted(mapping.original_domain, key=repr)
    anonymized = sorted(mapping.anonymized_domain)
    anon_index = {a: j for j, a in enumerate(anonymized)}
    observed_map = anonymized_db.observed_frequencies()
    observed = [float(observed_map[a]) for a in anonymized]
    low, high = belief.bounds(items)
    pairing = [anon_index[mapping.anonymize_item(x)] for x in items]
    return FrequencyMappingSpace.from_bounds(
        items=items,
        anonymized=tuple(anonymized),
        observed=observed,
        low=low,
        high=high,
        true_partner_of=pairing,
    )
