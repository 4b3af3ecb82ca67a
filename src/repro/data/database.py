"""Transaction databases and frequency profiles.

The paper (Section 2.1) models a database ``D`` as a sequence of
transactions, each a non-empty subset of a universe of items ``I``.  The
frequency of an item is the fraction of transactions that contain it.

Two concrete representations are provided:

:class:`TransactionDatabase`
    A fully materialized database.  Exact, supports transaction-level
    operations (sampling, mining, anonymization), and is the default for
    tests, examples and small/medium experiments.

:class:`FrequencyProfile`
    A counts-only view (item -> number of containing transactions).  Every
    analysis in the paper — frequency groups, O-estimates, the recipe —
    consumes only per-item frequencies, so the profile is a sufficient and
    much cheaper substrate for large parameter sweeps.  Per-item sampling
    marginals are exactly hypergeometric, which
    :func:`repro.data.sampling.sample_profile` exploits.

Both satisfy the :class:`FrequencySource` protocol.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType
from typing import Hashable, Protocol, runtime_checkable

import numpy as np

from repro.errors import EmptyDatabaseError, InvalidTransactionError

__all__ = [
    "Item", "Transaction", "FrequencySource", "TransactionDatabase", "FrequencyProfile", "as_profile"
]

Item = Hashable
Transaction = frozenset


@runtime_checkable
class FrequencySource(Protocol):
    """Anything that can report an item domain and per-item frequencies."""

    @property
    def domain(self) -> frozenset:
        """The universe of items ``I``."""

    @property
    def n_transactions(self) -> int:
        """The number of transactions ``|D|``."""

    def item_count(self, item: Item) -> int:
        """Number of transactions containing *item* (0 if absent)."""

    def frequency(self, item: Item) -> float:
        """Fraction of transactions containing *item*."""

    def frequencies(self) -> dict:
        """Mapping of every domain item to its frequency."""


class TransactionDatabase:
    """A materialized sequence of transactions over an item domain.

    Parameters
    ----------
    transactions:
        An iterable of item collections.  Each transaction must be
        non-empty; duplicate items within a transaction are collapsed.
    domain:
        Optional explicit universe ``I``.  When given, every transaction
        must draw its items from it; items of the domain never seen in a
        transaction simply have frequency 0.  When omitted, the domain is
        the union of all transactions.

    Examples
    --------
    >>> db = TransactionDatabase([[1, 2], [2, 3], [1, 2, 3]])
    >>> sorted(db.domain)
    [1, 2, 3]
    >>> db.frequency(2)
    1.0
    """

    __slots__ = ("_transactions", "_domain", "_counts")

    def __init__(self, transactions: Iterable[Iterable[Item]], domain: Iterable[Item] | None = None):
        materialized: list[frozenset] = []
        for index, raw in enumerate(transactions):
            transaction = frozenset(raw)
            if not transaction:
                raise InvalidTransactionError(f"transaction #{index} is empty")
            materialized.append(transaction)
        self._transactions: tuple[frozenset, ...] = tuple(materialized)

        seen: set = set()
        for transaction in self._transactions:
            seen.update(transaction)
        if domain is None:
            self._domain = frozenset(seen)
        else:
            self._domain = frozenset(domain)
            stray = seen - self._domain
            if stray:
                sample = sorted(map(repr, list(stray)[:5]))
                raise InvalidTransactionError(
                    f"{len(stray)} item(s) outside the declared domain, e.g. {', '.join(sample)}"
                )

        counts: Counter = Counter()
        for transaction in self._transactions:
            counts.update(transaction)
        self._counts = counts

    # -- FrequencySource ------------------------------------------------

    @property
    def domain(self) -> frozenset:
        """The universe of items ``I``."""
        return self._domain

    @property
    def n_transactions(self) -> int:
        """The number of transactions ``|D|``."""
        return len(self._transactions)

    def item_count(self, item: Item) -> int:
        """Number of transactions containing *item*."""
        return self._counts.get(item, 0)

    def frequency(self, item: Item) -> float:
        """Fraction of transactions containing *item* (paper, Section 2.1)."""
        if not self._transactions:
            raise EmptyDatabaseError("frequency is undefined on an empty database")
        return self._counts.get(item, 0) / len(self._transactions)

    def frequencies(self) -> dict:
        """Mapping of every domain item to its frequency."""
        if not self._transactions:
            raise EmptyDatabaseError("frequencies are undefined on an empty database")
        m = len(self._transactions)
        return {item: self._counts.get(item, 0) / m for item in self._domain}

    # -- sequence behaviour ----------------------------------------------

    @property
    def transactions(self) -> tuple[frozenset, ...]:
        """The transactions, in original order."""
        return self._transactions

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self._transactions)

    def __getitem__(self, index: int) -> frozenset:
        return self._transactions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return self._transactions == other._transactions and self._domain == other._domain

    def __hash__(self) -> int:
        return hash((self._transactions, self._domain))

    def __repr__(self) -> str:
        return f"TransactionDatabase(n_transactions={len(self._transactions)}, n_items={len(self._domain)})"

    # -- conversions ------------------------------------------------------

    def to_profile(self) -> "FrequencyProfile":
        """Collapse to a counts-only :class:`FrequencyProfile`."""
        counts = {item: self._counts.get(item, 0) for item in self._domain}
        return FrequencyProfile(counts, self.n_transactions)

    def restrict(self, items: Iterable[Item]) -> "TransactionDatabase":
        """Project every transaction onto *items*, dropping emptied ones."""
        keep = frozenset(items)
        projected = [t & keep for t in self._transactions]
        return TransactionDatabase((t for t in projected if t), domain=keep & self._domain)


class FrequencyProfile:
    """A counts-only frequency view of a transaction database.

    Parameters
    ----------
    counts:
        Mapping of item -> number of transactions containing it.  The keys
        define the domain.
    n_transactions:
        Total number of transactions the counts were taken over.  Every
        count must be an integer in ``[0, n_transactions]``.

    Notes
    -----
    The profile holds its items in canonical order and their counts as
    an aligned int64 array.  The order is ascending when every item is a
    plain ``int`` that fits in int64 (the items are then an int64 array
    too) and the mapping's order otherwise.  The item -> count dict and
    the domain are built on first use, so a profile decoded from JSON
    can be fingerprinted without one per-item Python object.
    """

    __slots__ = ("_items", "_item_array", "_count_array", "_n_transactions", "_counts", "_domain")

    def __init__(self, counts: Mapping[Item, int], n_transactions: int):
        if n_transactions <= 0:
            raise EmptyDatabaseError("a frequency profile needs at least one transaction")
        items = list(counts)
        count_array = _validated_counts(items, list(counts.values()), n_transactions)
        item_array = _int64_array(items)
        if item_array is None:
            self._set(items, None, count_array, n_transactions)
        else:
            order = np.argsort(item_array)
            self._set(None, item_array[order], count_array[order], n_transactions)

    @classmethod
    def from_int64(
        cls,
        items: np.ndarray,
        counts: np.ndarray,
        n_transactions: int,
        order: np.ndarray | None = None,
    ) -> "FrequencyProfile":
        """The profile ``cls(dict(zip(items, counts)), n_transactions)``, from arrays.

        *items* and *counts* are aligned int64 arrays; the items must be
        distinct.  *order*, when the caller already has it, is
        ``np.argsort(items)``.  Errors are the mapping constructor's,
        naming the first offending position of the arrays as given.
        """
        if n_transactions <= 0:
            raise EmptyDatabaseError("a frequency profile needs at least one transaction")
        bad = _out_of_range(counts, n_transactions)
        if len(bad):
            i = int(bad[0])
            raise _outside(counts[i].item(), items[i].item(), n_transactions)
        if order is None:
            order = np.argsort(items)
        ranked = items[order]
        duplicates = int(np.count_nonzero(ranked[1:] == ranked[:-1]))
        if duplicates:
            raise InvalidTransactionError(f"{duplicates} duplicate item(s)")
        profile = cls.__new__(cls)
        profile._set(None, ranked, counts[order], n_transactions)
        return profile

    def _set(
        self,
        items: list | None,
        item_array: np.ndarray | None,
        count_array: np.ndarray,
        n_transactions: int,
    ) -> None:
        for array in (item_array, count_array):
            if array is not None:
                array.flags.writeable = False
        self._items = items
        self._item_array = item_array
        self._count_array = count_array
        self._n_transactions = int(n_transactions)
        self._counts: dict | None = None
        self._domain: frozenset | None = None

    @classmethod
    def from_frequencies(cls, frequencies: Mapping[Item, float], n_transactions: int) -> "FrequencyProfile":
        """Build a profile from fractional frequencies by rounding to counts."""
        counts = {item: round(freq * n_transactions) for item, freq in frequencies.items()}
        return cls(counts, n_transactions)

    # -- canonical representation -------------------------------------------

    def _item_list(self) -> list:
        if self._items is None:
            self._items = self._item_array.tolist()
        return self._items

    def _mapping(self) -> dict:
        if self._counts is None:
            self._counts = dict(zip(self._item_list(), self._count_array.tolist()))
        return self._counts

    def int64_arrays(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Items (ascending) and their counts as read-only int64 arrays.

        ``None`` unless every item is a plain ``int`` and every item and
        count fits in int64.
        """
        if self._item_array is None or self._count_array.dtype != np.int64:
            return None
        return self._item_array, self._count_array

    # -- FrequencySource ------------------------------------------------

    @property
    def domain(self) -> frozenset:
        """The universe of items ``I``."""
        if self._domain is None:
            self._domain = frozenset(self._item_list())
        return self._domain

    @property
    def n_transactions(self) -> int:
        """The number of transactions the counts were taken over."""
        return self._n_transactions

    def item_count(self, item: Item) -> int:
        """Number of transactions containing *item*."""
        return self._mapping().get(item, 0)

    def frequency(self, item: Item) -> float:
        """Fraction of transactions containing *item*."""
        return self._mapping().get(item, 0) / self._n_transactions

    def frequencies(self) -> dict:
        """Mapping of every domain item to its frequency, in canonical order.

        One array division while ``n_transactions <= 2**53``: every count
        and the total are then exact doubles, so IEEE division rounds the
        quotient exactly as Python's ``count / n`` does.  Larger totals
        take Python's division item by item.
        """
        n = self._n_transactions
        if n <= _EXACT_DOUBLE_INTS:
            return dict(zip(self._item_list(), (self._count_array / n).tolist()))
        return {
            item: count / n
            for item, count in zip(self._item_list(), self._count_array.tolist())
        }

    # -- misc --------------------------------------------------------------

    @property
    def counts(self) -> dict:
        """A copy of the item -> count mapping."""
        return dict(self._mapping())

    @property
    def counts_view(self) -> Mapping[Item, int]:
        """A read-only view of the item -> count mapping (no copy)."""
        return MappingProxyType(self._mapping())

    def __len__(self) -> int:
        return len(self._count_array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyProfile):
            return NotImplemented
        if self._n_transactions != other._n_transactions:
            return False
        if self._item_array is not None and other._item_array is not None:
            return bool(
                np.array_equal(self._item_array, other._item_array)
                and np.array_equal(self._count_array, other._count_array)
            )
        return self._mapping() == other._mapping()

    def __hash__(self) -> int:
        return hash((frozenset(self._mapping().items()), self._n_transactions))

    def __repr__(self) -> str:
        return f"FrequencyProfile(n_items={len(self)}, n_transactions={self._n_transactions})"


def as_profile(source: FrequencySource) -> FrequencyProfile:
    """*source* as a :class:`FrequencyProfile`: itself, its ``to_profile()``,
    or a tabulation of its per-item counts."""
    if isinstance(source, FrequencyProfile):
        return source
    to_profile = getattr(source, "to_profile", None)
    if to_profile is not None:
        return to_profile()
    counts = {item: source.item_count(item) for item in source.domain}
    return FrequencyProfile(counts, source.n_transactions)


#: Every integer of magnitude up to 2**53 is exactly a double.
_EXACT_DOUBLE_INTS = 2**53

_INT64_MAX = 2**63 - 1


def _int64_array(values: list) -> np.ndarray | None:
    """*values* as an int64 array; ``None`` unless all are plain ints that fit."""
    if not set(map(type, values)) <= {int}:
        return None
    try:
        return np.fromiter(values, np.int64, count=len(values))
    except OverflowError:
        return None


def _out_of_range(counts: np.ndarray, n_transactions: int) -> np.ndarray:
    """Positions of the int64 counts outside ``[0, n_transactions]``."""
    return np.flatnonzero((counts < 0) | (counts > min(n_transactions, _INT64_MAX)))


def _validated_counts(items: list, values: list, n_transactions: int) -> np.ndarray:
    """The counts as an array (int64 when they fit), checked like the items' loop.

    The first count, in mapping order, outside ``[0, n_transactions]``
    or not an integer raises :class:`InvalidTransactionError`.
    """
    array = _int64_array(values)
    if array is not None:
        bad = _out_of_range(array, n_transactions)
        if len(bad):
            i = int(bad[0])
            raise _outside(values[i], items[i], n_transactions)
        return array
    exact = []
    for item, count in zip(items, values):
        if not 0 <= count <= n_transactions:
            raise _outside(count, item, n_transactions)
        try:
            exact.append(operator.index(count))
        except TypeError:
            raise InvalidTransactionError(
                f"count {count!r} for item {item!r} is not an integer"
            ) from None
    try:
        return np.array(exact, dtype=np.int64)
    except OverflowError:  # counts beyond int64, over a total beyond it
        return np.array(exact, dtype=object)


def _outside(count: object, item: object, n_transactions: int) -> InvalidTransactionError:
    return InvalidTransactionError(f"count {count} for item {item!r} outside [0, {n_transactions}]")
