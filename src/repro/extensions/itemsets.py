"""Forced itemset identifications (paper, Section 8.2, "ongoing work").

Even when no single item can be distinguished, a *set* of items can be
identified with certainty: in Figure 6(b), nothing separates 1' from 2',
yet every consistent mapping sends ``{1', 2'}`` onto ``{1, 2}``.

The complete structure of such forced identifications comes from
matching theory (the Dulmage–Mendelsohn decomposition of a perfectly
matchable bipartite graph): fix any consistent perfect matching ``M`` and
orient each non-matching edge ``(x', y)`` as ``y -> M^{-1}(x')``.  An
edge lies in *some* perfect matching iff it is a matching edge or its
endpoints lie in the same strongly connected component; consequently
every consistent mapping sends each SCC's item set exactly onto its
matched anonymized set.  The SCCs are therefore the minimal indisputable
itemset identifications — singleton SCCs are the items cracked with
certainty (Figure 6(a)'s staircase).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GraphError
from repro.graph.bipartite import MappingSpace
from repro.graph.matching import group_feasible_matching
from repro.graph.propagation import DEFAULT_MAX_EDGES

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


def _tarjan_scc(n: int, successors: list[list[int]]) -> list[int]:
    """Iterative Tarjan SCC; returns the component id of each node."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    component = [-1] * n
    counter = 0
    n_components = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, edge_position = work[-1]
            if edge_position == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            successors_of_node = successors[node]
            while edge_position < len(successors_of_node):
                successor = successors_of_node[edge_position]
                edge_position += 1
                if index_of[successor] == -1:
                    work[-1] = (node, edge_position)
                    work.append((successor, 0))
                    advanced = True
                    break
                if on_stack[successor]:
                    low[node] = min(low[node], index_of[successor])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component[member] = n_components
                    if member == node:
                        break
                n_components += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return component


def itemset_identifications(
    space: MappingSpace, max_edges: int = DEFAULT_MAX_EDGES
) -> list[IdentifiedBlock]:
    """All minimal forced itemset identifications of a mapping space.

    Requires a consistent perfect matching to exist (otherwise
    :class:`~repro.errors.InfeasibleMatchingError` propagates).  Returns
    blocks sorted by size then by item representation; their item sets
    partition the domain.
    """
    total_edges = space.edge_count()
    if total_edges > max_edges:
        raise GraphError(
            f"itemset identification materializes the adjacency; {total_edges} "
            f"edges exceed the {max_edges}-edge guard"
        )
    n = space.n
    match = group_feasible_matching(space)
    item_of_anon = [0] * n
    for i in range(n):
        item_of_anon[int(match[i])] = i

    successors: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        own = int(match[i])
        for j in space.candidates(i):
            if j != own:
                successors[i].append(item_of_anon[j])

    component = _tarjan_scc(n, successors)
    members: dict[int, list[int]] = {}
    for i in range(n):
        members.setdefault(component[i], []).append(i)

    blocks = [
        IdentifiedBlock(
            items=tuple(space.items[i] for i in sorted(item_indices, key=lambda i: repr(space.items[i]))),
            anonymized=tuple(
                sorted((space.anonymized[int(match[i])] for i in item_indices), key=repr)
            ),
        )
        for item_indices in members.values()
    ]
    blocks.sort(key=lambda block: (len(block.items), tuple(map(repr, block.items))))
    return blocks


def surely_cracked_items(space: MappingSpace, max_edges: int = DEFAULT_MAX_EDGES) -> list:
    """Items identified with certainty by every consistent mapping.

    These are the singleton blocks whose forced pair is the true pair —
    with a compliant belief every singleton block is a sure crack, since
    the forced anonymized partner must then be the true one.
    """
    cracked = []
    for block in itemset_identifications(space, max_edges=max_edges):
        if not block.is_sure_crack:
            continue
        item = block.items[0]
        item_index = space.item_index(item)
        anon = block.anonymized[0]
        if space.anonymized[space.true_partner(item_index)] == anon:
            cracked.append(item)
    return cracked
