"""Forced itemset identifications (paper, Section 8.2, "ongoing work").

Even when no single item can be distinguished, a *set* of items can be
identified with certainty: in Figure 6(b), nothing separates 1' from 2',
yet every consistent mapping sends ``{1', 2'}`` onto ``{1, 2}``.

Those sets are the blocks of the Dulmage–Mendelsohn decomposition of the
consistency graph, which :mod:`repro.graph.refine` already computes
(:func:`~repro.graph.refine.classify_edges`, on the twin quotient for
frequency spaces).  This module only reads that classification: each
forced pair is a singleton block — an item cracked with certainty, as in
Figure 6(a)'s staircase — and each connected component of the undecided
edges (:func:`~repro.graph.refine.reduced_blocks`) is one minimal
itemset that every consistent mapping sends onto its anonymized set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InfeasibleMatchingError
from repro.graph.bipartite import MappingSpace
from repro.graph.blocks import Block
from repro.graph.propagation import DEFAULT_MAX_EDGES
from repro.graph.refine import EdgeClassification, classify_edges, reduced_blocks

__all__ = ["IdentifiedBlock", "itemset_identifications", "surely_cracked_items"]


@dataclass(frozen=True)
class IdentifiedBlock:
    """A minimal itemset whose anonymized counterpart is forced.

    Every consistent crack mapping maps :attr:`anonymized` onto
    :attr:`items` as sets (in some order).
    """

    items: tuple
    anonymized: tuple

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_sure_crack(self) -> bool:
        """True when the block pins down a single item exactly."""
        return len(self.items) == 1


def _feasible_classification(space: MappingSpace, max_edges: int) -> EdgeClassification:
    classification = classify_edges(space, max_edges=max_edges)
    if classification.infeasible:
        raise InfeasibleMatchingError(classification.reason)
    return classification


def itemset_identifications(
    space: MappingSpace, max_edges: int = DEFAULT_MAX_EDGES
) -> list[IdentifiedBlock]:
    """All minimal forced itemset identifications of a mapping space.

    Requires a consistent perfect matching to exist (otherwise
    :class:`~repro.errors.InfeasibleMatchingError` is raised with the
    classification's Hall-condition account).  Returns blocks sorted by
    size then by item representation; their item sets partition the
    domain.
    """
    classification = _feasible_classification(space, max_edges)
    forced = (Block((i,), (j,)) for i, j in classification.forced.items())
    blocks = [
        IdentifiedBlock(
            items=tuple(sorted((space.items[i] for i in block.item_indices), key=repr)),
            anonymized=tuple(sorted((space.anonymized[j] for j in block.anon_indices), key=repr)),
        )
        for block in (*forced, *reduced_blocks(classification))
    ]
    blocks.sort(key=lambda block: (len(block.items), tuple(map(repr, block.items))))
    return blocks


def surely_cracked_items(space: MappingSpace, max_edges: int = DEFAULT_MAX_EDGES) -> list:
    """Items identified with certainty by every consistent mapping.

    These are the forced pairs that are the true pairs — with a
    compliant belief every forced pair is a sure crack, since the forced
    anonymized partner must then be the true one.  Sorted by item
    representation.
    """
    classification = _feasible_classification(space, max_edges)
    cracked = [
        space.items[i] for i, j in classification.forced.items() if space.true_partner(i) == j
    ]
    return sorted(cracked, key=repr)
