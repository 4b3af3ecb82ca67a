"""Block decomposition of a mapping space into independent components.

Perfect matchings factorize over the connected components of the
bipartite graph ``G = (J + I, E)``: a consistent crack mapping restricted
to a component is a perfect matching of that component, and every
combination of per-component matchings is a consistent mapping.  So the
permanent is a *product* over components, per-item crack marginals are
local to their component, and the law of the crack count is the
*convolution* of the per-component laws.

For :class:`~repro.graph.bipartite.FrequencyMappingSpace` the components
have extra structure: every item's candidate set is a contiguous run of
frequency groups (interval beliefs), so components are maximal *segments*
of the sorted frequency groups, split at every boundary no belief
interval spans.  That makes decomposition ``O(n + k)`` — no union-find
pass over edges, which may number ``Theta(n^2)``.  A frequency space
keeps the result in its :class:`~repro.graph.groups.FrequencyAnalysis`,
built once from the run-end arrays together with the belief groups and
each block's interval-DP problem, so the exact engine's plan, its
marginals and the attack summary all read one structure.

Explicit spaces fall back to a union-find over the actual edges.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import FrequencyMappingSpace, MappingSpace
from repro.graph.groups import Block, BlockDecomposition

__all__ = ["Block", "BlockDecomposition", "decompose"]


def _decompose_frequency(space: FrequencyMappingSpace) -> BlockDecomposition:
    """The per-item decomposition, the reference the space's
    :class:`~repro.graph.groups.FrequencyAnalysis` is checked against."""
    k = len(space.groups)
    runs = [space.admissible_run(i) for i in range(space.n)]
    for i, (g_lo, g_hi) in enumerate(runs):
        if g_hi <= g_lo:
            return BlockDecomposition(
                blocks=(),
                matchable=False,
                reason=f"item #{i} admits no frequency group (outdegree 0)",
            )
    # A boundary b (between groups b and b+1) is *spanned* when some
    # belief interval admits both sides; unspanned boundaries cut the
    # graph into independent segments.
    spanned = np.zeros(max(k - 1, 0), dtype=bool)
    for g_lo, g_hi in runs:
        if g_hi - g_lo >= 2:
            spanned[g_lo : g_hi - 1] = True
    cuts = [0] + [b + 1 for b in range(k - 1) if not spanned[b]] + [k]

    members = space.groups.members
    prefix = space.groups.prefix
    items_by_start: list[list[int]] = [[] for _ in range(k)]
    for i, (g_lo, _) in enumerate(runs):
        items_by_start[g_lo].append(i)

    blocks: list[Block] = []
    for a, b in zip(cuts, cuts[1:]):
        item_indices: list[int] = []
        for g in range(a, b):
            item_indices.extend(items_by_start[g])
        anon_indices: list[int] = []
        for g in range(a, b):
            anon_indices.extend(members[g])
        block = Block(
            item_indices=tuple(sorted(item_indices)),
            anon_indices=tuple(sorted(anon_indices)),
            group_range=(a, b),
        )
        if len(block.item_indices) != int(prefix[b] - prefix[a]):
            return BlockDecomposition(
                blocks=(),
                matchable=False,
                reason=(
                    f"groups [{a}, {b}) hold {int(prefix[b] - prefix[a])} anonymized "
                    f"items but {len(block.item_indices)} originals can map there"
                ),
            )
        blocks.append(block)
    return BlockDecomposition(blocks=tuple(blocks), matchable=True)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _decompose_generic(space: MappingSpace) -> BlockDecomposition:
    n = space.n
    # Nodes 0..n-1 are items, n..2n-1 are anonymized items.
    uf = _UnionFind(2 * n)
    for i in range(n):
        degree = 0
        for j in space.candidates(i):
            uf.union(i, n + j)
            degree += 1
        if degree == 0:
            return BlockDecomposition(
                blocks=(),
                matchable=False,
                reason=f"item #{i} has no candidates (outdegree 0)",
            )
    components: dict[int, tuple[list[int], list[int]]] = {}
    for i in range(n):
        items, _ = components.setdefault(uf.find(i), ([], []))
        items.append(i)
    for j in range(n):
        _, anons = components.setdefault(uf.find(n + j), ([], []))
        anons.append(j)
    blocks = tuple(
        Block(item_indices=tuple(items), anon_indices=tuple(anons))
        for _, (items, anons) in sorted(components.items())
    )
    for block in blocks:
        if not block.balanced:
            return BlockDecomposition(
                blocks=blocks,
                matchable=False,
                reason=(
                    f"a component has {len(block.item_indices)} items but "
                    f"{len(block.anon_indices)} anonymized items"
                ),
            )
    return BlockDecomposition(blocks=blocks, matchable=True)


def decompose(space: MappingSpace) -> BlockDecomposition:
    """Split a mapping space into the connected components of its graph.

    A frequency space answers from its :meth:`~FrequencyMappingSpace.analysis`.
    """
    if isinstance(space, FrequencyMappingSpace):
        return space.analysis().decomposition
    return _decompose_generic(space)
