"""The :class:`BeliefFunction` — item -> frequency interval (Section 2.2)."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Hashable

import numpy as np

from repro.beliefs.interval import FULL_INTERVAL, Interval
from repro.errors import BeliefError, DomainMismatchError

__all__ = ["BeliefFunction"]

Item = Hashable


class BeliefFunction:
    """An immutable mapping from items of ``I`` to belief intervals.

    Parameters
    ----------
    intervals:
        Mapping of item -> :class:`~repro.beliefs.interval.Interval` (or a
        ``(low, high)`` pair, or a bare float for a point belief).  The
        keys define the domain the belief function is about.

    Notes
    -----
    Classification helpers mirror the paper's taxonomy:

    * :attr:`is_point_valued` — every interval is a point;
    * :attr:`is_ignorant` — every interval is ``[0, 1]``;
    * :meth:`is_compliant_for` / :meth:`compliancy` — containment of the
      true frequencies (full and fractional alpha-compliancy).

    :meth:`from_bounds` keeps the intervals as two arrays instead; its
    :class:`Interval` objects are created only when read.
    """

    __slots__ = ("_mapping", "_items", "_low", "_high", "_positions")

    def __init__(self, intervals: Mapping[Item, object]):
        if not intervals:
            raise BeliefError("a belief function needs a non-empty domain")
        normalized: dict[Item, Interval] = {}
        for item, value in intervals.items():
            normalized[item] = self._coerce(value)
        self._mapping: dict[Item, Interval] | None = normalized
        self._items: tuple[Item, ...] | None = None
        self._low: np.ndarray | None = None
        self._high: np.ndarray | None = None
        self._positions: dict[Item, int] | None = None

    @classmethod
    def from_bounds(
        cls, items: Sequence[Item], low: np.ndarray, high: np.ndarray
    ) -> "BeliefFunction":
        """The belief ``items[i] -> [low[i], high[i]]``, kept as arrays.

        *items* must be distinct and the ends valid intervals (callers
        check them as :class:`Interval` would).
        """
        if not len(items):
            raise BeliefError("a belief function needs a non-empty domain")
        belief = cls.__new__(cls)
        belief._mapping = None
        belief._items = tuple(items)
        belief._low = np.asarray(low, dtype=np.float64)
        belief._high = np.asarray(high, dtype=np.float64)
        belief._positions = None
        return belief

    @property
    def _intervals(self) -> dict[Item, Interval]:
        """The item -> interval mapping, materialized on first use."""
        if self._mapping is None:
            self._mapping = {
                item: Interval(low, high)
                for item, low, high in zip(self._items, self._low.tolist(), self._high.tolist())
            }
        return self._mapping

    def bounds(self, items: Sequence[Item]) -> tuple[np.ndarray, np.ndarray]:
        """The low and high ends of the intervals of *items*, as float64 arrays."""
        if self._low is None:
            intervals = [self[item] for item in items]
            return (
                np.array([iv.low for iv in intervals], dtype=np.float64),
                np.array([iv.high for iv in intervals], dtype=np.float64),
            )
        if self._positions is None:
            self._positions = dict(zip(self._items, range(len(self._items))))
        try:
            index = np.fromiter(
                map(self._positions.__getitem__, items), dtype=np.int64, count=len(items)
            )
        except KeyError as missing:
            raise BeliefError(
                f"belief function has no interval for item {missing.args[0]!r}"
            ) from None
        return self._low[index], self._high[index]

    @staticmethod
    def _coerce(value: object) -> Interval:
        if isinstance(value, Interval):
            return value
        if isinstance(value, (int, float)):
            return Interval.point(float(value))
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return Interval(float(value[0]), float(value[1]))
        raise BeliefError(f"cannot interpret {value!r} as a belief interval")

    # -- mapping behaviour ---------------------------------------------------

    @property
    def domain(self) -> frozenset:
        """The item universe the belief function covers."""
        if self._mapping is None:
            return frozenset(self._items)
        return frozenset(self._mapping)

    def __getitem__(self, item: Item) -> Interval:
        try:
            return self._intervals[item]
        except KeyError:
            raise BeliefError(f"belief function has no interval for item {item!r}") from None

    def __contains__(self, item: Item) -> bool:
        return item in self._intervals

    def __len__(self) -> int:
        if self._mapping is None:
            return len(self._items)
        return len(self._mapping)

    def __iter__(self):
        if self._mapping is None:
            return iter(self._items)
        return iter(self._mapping)

    def items(self):
        """Iterate over ``(item, interval)`` pairs."""
        return self._intervals.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BeliefFunction):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(frozenset(self._intervals.items()))

    def __repr__(self) -> str:
        return f"BeliefFunction(n_items={len(self)})"

    # -- paper taxonomy --------------------------------------------------------

    @property
    def is_point_valued(self) -> bool:
        """True when every belief interval is a point (Section 2.2)."""
        return all(interval.is_point for interval in self._intervals.values())

    @property
    def is_interval_valued(self) -> bool:
        """True when at least one belief interval is a true range."""
        return any(not interval.is_point for interval in self._intervals.values())

    @property
    def is_ignorant(self) -> bool:
        """True when every interval is the full ``[0, 1]``."""
        return all(interval == FULL_INTERVAL for interval in self._intervals.values())

    # -- compliancy --------------------------------------------------------------

    def _check_domain(self, frequencies: Mapping[Item, float]) -> None:
        missing = self.domain - frozenset(frequencies)
        if missing:
            sample = sorted(map(repr, list(missing)[:5]))
            raise DomainMismatchError(
                f"true frequencies missing for {len(missing)} item(s), e.g. {', '.join(sample)}"
            )

    def compliant_items(self, frequencies: Mapping[Item, float]) -> frozenset:
        """Items whose interval contains their true frequency."""
        self._check_domain(frequencies)
        return frozenset(
            item for item, interval in self._intervals.items() if frequencies[item] in interval
        )

    def is_compliant_for(self, frequencies: Mapping[Item, float]) -> bool:
        """Full compliancy: every interval contains the true frequency."""
        return len(self.compliant_items(frequencies)) == len(self._intervals)

    def compliancy(self, frequencies: Mapping[Item, float]) -> float:
        """The degree of compliancy ``alpha`` against *frequencies* (Section 5.3)."""
        return len(self.compliant_items(frequencies)) / len(self._intervals)

    # -- derivation ---------------------------------------------------------------

    def restrict(self, items: Iterable[Item]) -> "BeliefFunction":
        """The belief function restricted to *items* (must be a subset)."""
        keep = frozenset(items)
        missing = keep - self.domain
        if missing:
            raise DomainMismatchError(f"{len(missing)} item(s) outside the belief domain")
        return BeliefFunction({item: self._intervals[item] for item in keep})

    def widen(self, delta: float) -> "BeliefFunction":
        """Widen every interval by *delta* on both sides (clamped to [0, 1]).

        By monotonicity (Lemma 8) this can only lower the O-estimate.
        """
        return BeliefFunction(
            {
                item: Interval(max(0.0, iv.low - delta), min(1.0, iv.high + delta))
                for item, iv in self._intervals.items()
            }
        )

    def replace(self, overrides: Mapping[Item, object]) -> "BeliefFunction":
        """A copy with the intervals of *overrides* substituted in."""
        stray = frozenset(overrides) - self.domain
        if stray:
            raise DomainMismatchError(f"{len(stray)} override item(s) outside the belief domain")
        merged = dict(self._intervals)
        for item, value in overrides.items():
            merged[item] = self._coerce(value)
        return BeliefFunction(merged)
