"""Anonymized databases — what the owner releases (Section 2.1)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anonymize.mapping import AnonymizationMapping
from repro.data.database import TransactionDatabase

__all__ = ["AnonymizedDatabase", "anonymize"]


@dataclass(frozen=True)
class AnonymizedDatabase:
    """The released artifact: an anonymized database plus the secret mapping.

    The ``database`` attribute (transactions over anonymized items) is what
    the public — and a hacker — sees.  The ``mapping`` is the owner's
    secret; it is carried along so experiments can score crack mappings
    against ground truth.
    """

    database: TransactionDatabase
    mapping: AnonymizationMapping

    def observed_frequencies(self) -> dict:
        """Frequencies of the anonymized items, ``F(x')`` in the paper."""
        return self.database.frequencies()


def anonymize(
    db: TransactionDatabase,
    mapping: AnonymizationMapping | None = None,
    rng: np.random.Generator | None = None,
) -> AnonymizedDatabase:
    """Anonymize *db* by renaming every item through a bijection.

    Parameters
    ----------
    db:
        The original database.
    mapping:
        Explicit bijection; defaults to a fresh uniformly random one over
        ``db.domain``.
    rng:
        Randomness source for the default random mapping.

    Notes
    -----
    Anonymization does not perturb data characteristics: every frequency
    (and every frequent itemset, up to renaming) is preserved — the
    property that motivates the paper's entire risk analysis.
    """
    if mapping is None:
        mapping = AnonymizationMapping.random(db.domain, rng=rng)
    anonymized_transactions = (
        frozenset(mapping.anonymize_item(item) for item in transaction) for transaction in db
    )
    anonymized_db = TransactionDatabase(
        anonymized_transactions, domain=mapping.anonymized_domain
    )
    return AnonymizedDatabase(database=anonymized_db, mapping=mapping)
