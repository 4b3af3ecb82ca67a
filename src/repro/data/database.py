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

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType
from typing import Hashable, Protocol, runtime_checkable

from repro.errors import EmptyDatabaseError, InvalidTransactionError

__all__ = ["Item", "Transaction", "FrequencySource", "TransactionDatabase", "FrequencyProfile"]

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
        count must lie in ``[0, n_transactions]``.
    """

    __slots__ = ("_counts", "_n_transactions", "_domain")

    def __init__(self, counts: Mapping[Item, int], n_transactions: int):
        if n_transactions <= 0:
            raise EmptyDatabaseError("a frequency profile needs at least one transaction")
        for item, count in counts.items():
            if not 0 <= count <= n_transactions:
                raise InvalidTransactionError(
                    f"count {count} for item {item!r} outside [0, {n_transactions}]"
                )
        self._counts = dict(counts)
        self._n_transactions = int(n_transactions)
        self._domain = frozenset(self._counts)

    @classmethod
    def from_frequencies(cls, frequencies: Mapping[Item, float], n_transactions: int) -> "FrequencyProfile":
        """Build a profile from fractional frequencies by rounding to counts."""
        counts = {item: round(freq * n_transactions) for item, freq in frequencies.items()}
        return cls(counts, n_transactions)

    # -- FrequencySource ------------------------------------------------

    @property
    def domain(self) -> frozenset:
        """The universe of items ``I``."""
        return self._domain

    @property
    def n_transactions(self) -> int:
        """The number of transactions the counts were taken over."""
        return self._n_transactions

    def item_count(self, item: Item) -> int:
        """Number of transactions containing *item*."""
        return self._counts.get(item, 0)

    def frequency(self, item: Item) -> float:
        """Fraction of transactions containing *item*."""
        return self._counts.get(item, 0) / self._n_transactions

    def frequencies(self) -> dict:
        """Mapping of every domain item to its frequency."""
        return {item: count / self._n_transactions for item, count in self._counts.items()}

    # -- misc --------------------------------------------------------------

    @property
    def counts(self) -> dict:
        """A copy of the item -> count mapping."""
        return dict(self._counts)

    @property
    def counts_view(self) -> Mapping[Item, int]:
        """A read-only view of the item -> count mapping (no copy)."""
        return MappingProxyType(self._counts)

    def __len__(self) -> int:
        return len(self._domain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyProfile):
            return NotImplemented
        return self._counts == other._counts and self._n_transactions == other._n_transactions

    def __hash__(self) -> int:
        return hash((frozenset(self._counts.items()), self._n_transactions))

    def __repr__(self) -> str:
        return f"FrequencyProfile(n_items={len(self._domain)}, n_transactions={self._n_transactions})"
