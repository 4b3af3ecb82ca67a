"""Frequency groups and gap statistics (paper, Sections 3.2, 6.1, Figure 9).

The paper groups items by their *observed frequency* in the (anonymized)
database: items with equal frequency are mutually indistinguishable to a
hacker who only knows frequencies, so each **frequency group** provides
camouflage to its members (Lemma 3).  The *gaps* between successive group
frequencies drive the recipe's choice of interval width ``delta_med`` (the
median gap, Section 6.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from repro.data.database import FrequencySource, Item
from repro.errors import DataError

__all__ = ["frequency_table", "FrequencyGroups", "GapStatistics"]


def frequency_table(source: FrequencySource) -> dict:
    """Return the item -> frequency mapping of *source*.

    Thin convenience wrapper so call sites read like the paper
    ("compute the frequency of every item with a single database pass").
    """
    return source.frequencies()


@dataclass(frozen=True)
class GapStatistics:
    """Summary of the gaps between successive frequency groups (Figure 9)."""

    mean: float
    median: float
    minimum: float
    maximum: float

    @classmethod
    def from_gaps(cls, gaps: Sequence[float]) -> "GapStatistics":
        if not gaps:
            raise DataError("gap statistics need at least two frequency groups")
        ordered = sorted(gaps)
        k = len(ordered)
        if k % 2:
            median = ordered[k // 2]
        else:
            median = (ordered[k // 2 - 1] + ordered[k // 2]) / 2
        return cls(
            mean=math.fsum(ordered) / k,
            median=median,
            minimum=ordered[0],
            maximum=ordered[-1],
        )


class FrequencyGroups:
    """Items partitioned by observed frequency, sorted by frequency.

    Parameters
    ----------
    frequencies:
        Mapping of item -> frequency in ``[0, 1]``.

    Attributes
    ----------
    frequencies_sorted:
        The distinct frequencies ``f_1 < f_2 < ... < f_k``.
    groups:
        ``groups[i]`` is the tuple of items whose frequency is
        ``frequencies_sorted[i]``.

    Notes
    -----
    The groups are found with one ``np.unique`` over the frequency
    array; the per-item structures (the ``repr``-sorted member tuples
    and the item -> group index) are built on first use, and the gap
    statistics once.
    """

    __slots__ = (
        "_items",
        "_freqs",
        "_sizes",
        "_group_ids",
        "_groups",
        "_group_of_item",
        "_gap_statistics",
    )

    def __init__(self, frequencies: dict):
        if not frequencies:
            raise DataError("cannot build frequency groups over an empty domain")
        values = np.fromiter(frequencies.values(), dtype=np.float64, count=len(frequencies))
        valid = (values >= 0.0) & (values <= 1.0)
        if not valid.all():
            item = next(islice(frequencies, int(np.argmin(valid)), None))
            raise DataError(f"frequency {frequencies[item]} of item {item!r} outside [0, 1]")
        unique, group_ids, sizes = np.unique(values, return_inverse=True, return_counts=True)
        self._items: list = list(frequencies)
        self._freqs: tuple[float, ...] = tuple(unique.tolist())
        self._sizes: tuple[int, ...] = tuple(sizes.tolist())
        self._group_ids: np.ndarray = group_ids.reshape(-1)
        self._groups: tuple[tuple, ...] | None = None
        self._group_of_item: dict[Item, int] | None = None
        self._gap_statistics: GapStatistics | None = None

    @classmethod
    def from_source(cls, source: FrequencySource) -> "FrequencyGroups":
        """Build groups straight from a database or profile."""
        return cls(source.frequencies())

    # -- basic structure ---------------------------------------------------

    @property
    def frequencies_sorted(self) -> tuple[float, ...]:
        """The distinct group frequencies in increasing order."""
        return self._freqs

    @property
    def groups(self) -> tuple[tuple, ...]:
        """The item groups, aligned with :attr:`frequencies_sorted`."""
        if self._groups is None:
            by_group = np.argsort(self._group_ids, kind="stable").tolist()
            stops = np.cumsum(self._sizes).tolist()
            items = self._items
            self._groups = tuple(
                tuple(sorted((items[i] for i in by_group[start:stop]), key=repr))
                for start, stop in zip([0, *stops], stops)
            )
        return self._groups

    @property
    def sizes(self) -> tuple[int, ...]:
        """Group sizes ``n_1, ..., n_k``."""
        return self._sizes

    def __len__(self) -> int:
        """The number of distinct frequency groups ``g`` (Lemma 3)."""
        return len(self._freqs)

    def group_index(self, item: Item) -> int:
        """Index of the group containing *item*."""
        if self._group_of_item is None:
            self._group_of_item = dict(zip(self._items, self._group_ids.tolist()))
        try:
            return self._group_of_item[item]
        except KeyError:
            raise DataError(f"item {item!r} is not in the grouped domain") from None

    def group_frequency(self, item: Item) -> float:
        """The observed frequency shared by *item*'s group."""
        return self._freqs[self.group_index(item)]

    # -- paper statistics ---------------------------------------------------

    @property
    def n_singletons(self) -> int:
        """Number of size-1 groups ('Size 1 Gps.' column of Figure 9)."""
        return self._sizes.count(1)

    def gaps(self) -> tuple[float, ...]:
        """Gaps ``f_{i+1} - f_i`` between successive group frequencies."""
        return tuple(b - a for a, b in zip(self._freqs, self._freqs[1:]))

    def gap_statistics(self) -> GapStatistics:
        """Mean/median/min/max gap (Figure 9, lower table), computed once."""
        if self._gap_statistics is None:
            self._gap_statistics = GapStatistics.from_gaps(self.gaps())
        return self._gap_statistics

    def median_gap(self) -> float:
        """The paper's ``delta_med`` — the median frequency gap (Section 6.1)."""
        return self.gap_statistics().median

    def mean_gap(self) -> float:
        """The mean frequency gap (the paper warns this under-estimates risk)."""
        return self.gap_statistics().mean

    def __repr__(self) -> str:
        return f"FrequencyGroups(n_groups={len(self._freqs)}, n_items={len(self._items)})"
