"""Forced/forbidden edge refinement of the consistency graph.

Degree-1 propagation (Figure 7) only sees locally-forced edges.  This
module classifies *every* edge of the bipartite consistency graph
``G = (J + I, E)`` into the taxonomy of Torra & Stokes' compatible
probabilities:

* **forced** — the edge belongs to every perfect matching (the hacker
  identifies the pair with certainty);
* **forbidden** — the edge belongs to no perfect matching (the pairing
  can be ruled out even though the belief admits it);
* **undecided** — the edge belongs to some but not all matchings.

The classification is the classic Dulmage–Mendelsohn / Régin
alldifferent filtering: fix one perfect matching ``M`` (Hopcroft–Karp),
build the residual digraph on items with an arc ``u -> v`` whenever
item ``u`` has an edge to ``M(v)``, and take strongly connected
components.  A matching edge is forced iff its item is a singleton SCC;
a non-matching edge survives in some matching iff its endpoints share
an SCC.  When no perfect matching exists at all, a Hall-condition
witness (a set ``S`` of items with ``|N(S)| < |S|``) certifies
infeasibility.

Frequency spaces take a **twin quotient** instead
(:func:`classify_edges`).  Items of one belief group admit the same
candidates and anonymized items of one frequency group are admitted by
the same items, so swapping two such twins maps perfect matchings onto
perfect matchings: every edge between belief group ``c`` and frequency
group ``m`` shares one status.  The same filtering therefore runs on
the transportation problem over the ``(c, m)`` pairs — one class-level
earliest-deadline-first flow, SCCs of its residual graph — and the
per-item sets are only built when read.  On a PUMSB-class space that is
about 1.2k pairs instead of 150k–290k item edges.

:func:`reduced_blocks` then splits the *undecided* subgraph into
connected components, which is what the exact engine actually has to
count over once forced pairs and forbidden edges are peeled off
(removing them changes neither the permanent nor the surviving
marginals).

This is the package's one Dulmage–Mendelsohn implementation: the
streaming solver (:mod:`repro.attack.solver`), the recipe's attack
stage and the forced itemset identifications of
:mod:`repro.extensions.itemsets` all read it.

Everything here is exact integer arithmetic and deterministic
(ascending-index iteration throughout); all loops poll an optional
:class:`~repro.budget.ComputeBudget`.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import overload

import numpy as np

from repro.budget import ComputeBudget
from repro.errors import GraphError
from repro.graph.bipartite import FrequencyMappingSpace, MappingSpace
from repro.graph.blocks import Block, _UnionFind
from repro.graph.groups import BeliefGroup
from repro.graph.matching import hopcroft_karp
from repro.graph.propagation import DEFAULT_MAX_EDGES

__all__ = [
    "EdgeClassification",
    "TwinQuotient",
    "classify_adjacency",
    "classify_edges",
    "reduced_blocks",
]

FORCED = "forced"
FORBIDDEN = "forbidden"
UNDECIDED = "undecided"
NON_EDGE = "non-edge"


@dataclass(frozen=True)
class TwinQuotient:
    """An edge classification kept on belief-group x frequency-group pairs.

    Attributes
    ----------
    n:
        Domain size.
    classes:
        The belief groups (items sharing one admissible run).
    members:
        Anonymized items per frequency group.
    status:
        ``status[c][t]`` is the status of every edge between belief
        group ``c`` and frequency group ``classes[c].group_range[0] + t``.
    n_forbidden:
        Forbidden item edges: ``a_c * b_m`` summed over forbidden pairs.
    """

    n: int
    classes: tuple[BeliefGroup, ...]
    members: tuple[tuple[int, ...], ...]
    status: tuple[tuple[str, ...], ...]
    n_forbidden: int

    def item_rows(self, status: str) -> tuple[frozenset[int], ...]:
        """Per item, the anon indices of its edges with *status*.

        Twins share one frozenset, so this costs one set per belief
        group plus one reference per item.
        """
        rows: list[frozenset[int]] = [frozenset()] * self.n
        for c, belief_group in enumerate(self.classes):
            first = belief_group.group_range[0]
            anons = frozenset(
                j
                for offset, pair_status in enumerate(self.status[c])
                if pair_status == status
                for j in self.members[first + offset]
            )
            for i in belief_group.items:
                rows[i] = anons
        return tuple(rows)

    def reduced_blocks(self) -> tuple[Block, ...]:
        """Connected components of the undecided pairs, as item blocks."""
        n_classes = len(self.classes)
        n_nodes = n_classes + len(self.members)
        uf = _UnionFind(n_nodes)
        active = [False] * n_nodes
        for c, belief_group in enumerate(self.classes):
            first = belief_group.group_range[0]
            for offset, pair_status in enumerate(self.status[c]):
                if pair_status == UNDECIDED:
                    uf.union(c, n_classes + first + offset)
                    active[c] = active[n_classes + first + offset] = True
        components: dict[int, tuple[list[int], list[int]]] = {}
        for node in range(n_nodes):
            if active[node]:
                items, anons = components.setdefault(uf.find(node), ([], []))
                if node < n_classes:
                    items.extend(self.classes[node].items)
                else:
                    anons.extend(self.members[node - n_classes])
        blocks = (
            Block(item_indices=tuple(sorted(items)), anon_indices=tuple(sorted(anons)))
            for items, anons in components.values()
        )
        return tuple(sorted(blocks, key=lambda block: block.item_indices[0]))


class _TwinRows(Sequence[frozenset[int]]):
    """Per-item anon sets of one status, materialized on first read."""

    def __init__(self, quotient: TwinQuotient, status: str) -> None:
        self._quotient = quotient
        self._status = status

    @cached_property
    def _rows(self) -> tuple[frozenset[int], ...]:
        return self._quotient.item_rows(self._status)

    def __len__(self) -> int:
        return self._quotient.n

    @overload
    def __getitem__(self, index: int) -> frozenset[int]: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[frozenset[int], ...]: ...

    def __getitem__(
        self, index: int | slice
    ) -> frozenset[int] | tuple[frozenset[int], ...]:
        return self._rows[index]


@dataclass(frozen=True)
class EdgeClassification:
    """Complete forced/forbidden/undecided partition of a graph's edges.

    Attributes
    ----------
    n:
        Domain size (items on each side).
    forced:
        Item -> anon pairs present in every perfect matching.  Empty
        when the graph is infeasible.
    undecided:
        Per item, the anon indices whose edges appear in some but not
        all perfect matchings.
    forbidden:
        Per item, the anon indices whose edges appear in *no* perfect
        matching.  When the whole graph is infeasible every edge is
        classified forbidden.
    infeasible:
        True when no perfect matching exists (Hall's condition fails).
    hall_witness:
        When infeasible, a set ``S`` of item indices with
        ``|N(S)| < |S|`` certifying it; ``None`` otherwise.
    reason:
        Human-readable account of the infeasibility, when any.
    quotient:
        For frequency spaces, the classification on belief-group x
        frequency-group pairs; ``undecided`` and ``forbidden`` are then
        built from it on first read.
    certified_cracks:
        Forced pairs that coincide with the ground truth (certain
        cracks), counted while classifying; set by :func:`classify_edges`
        for frequency spaces, ``None`` otherwise.
    """

    n: int
    forced: dict[int, int]
    undecided: Sequence[frozenset[int]]
    forbidden: Sequence[frozenset[int]]
    infeasible: bool
    hall_witness: tuple[int, ...] | None = None
    reason: str | None = None
    quotient: TwinQuotient | None = field(default=None, repr=False, compare=False)
    certified_cracks: int | None = field(default=None, compare=False)

    @property
    def n_forced(self) -> int:
        return len(self.forced)

    @property
    def n_forbidden(self) -> int:
        if self.quotient is not None:
            return self.quotient.n_forbidden
        return sum(len(anons) for anons in self.forbidden)

    @property
    def n_undecided(self) -> int:
        return sum(len(anons) for anons in self.undecided)

    def status(self, item_index: int, anon_index: int) -> str:
        """One of ``"forced"``, ``"forbidden"``, ``"undecided"``, ``"non-edge"``."""
        if self.forced.get(item_index) == anon_index:
            return FORCED
        if anon_index in self.forbidden[item_index]:
            return FORBIDDEN
        if anon_index in self.undecided[item_index]:
            return UNDECIDED
        return NON_EDGE


def _normalized_rows(adjacency: Sequence[Iterable[int]]) -> list[frozenset[int]]:
    n = len(adjacency)
    rows: list[frozenset[int]] = []
    for i, row in enumerate(adjacency):
        fs = frozenset(int(j) for j in row)
        if any(not 0 <= j < n for j in fs):
            raise GraphError(f"adjacency of item #{i} references an invalid index")
        rows.append(fs)
    return rows


def _hall_witness(
    rows: Sequence[frozenset[int]],
    match_left: Sequence[int],
    match_right: Sequence[int],
    budget: ComputeBudget | None,
) -> tuple[int, ...]:
    """König-style witness: items alternating-reachable from a free item.

    The returned set ``S`` satisfies ``|N(S)| = |S| - (free items in S)``,
    hence ``|N(S)| < |S|`` whenever the matching is not perfect.
    """
    n = len(rows)
    reachable = [False] * n
    queue: deque[int] = deque()
    for u in range(n):
        if match_left[u] == -1:
            reachable[u] = True
            queue.append(u)
    while queue:
        if budget is not None:
            budget.checkpoint()
        u = queue.popleft()
        for j in sorted(rows[u]):
            w = match_right[j]
            if w != -1 and not reachable[w]:
                reachable[w] = True
                queue.append(w)
    return tuple(u for u in range(n) if reachable[u])


def _strongly_connected_components(
    arcs: Sequence[Sequence[int]], budget: ComputeBudget | None
) -> list[int]:
    """Component id per node, via iterative Tarjan (deterministic ids)."""
    n = len(arcs)
    unvisited = -1
    index_of = [unvisited] * n
    low_link = [0] * n
    on_stack = [False] * n
    component = [unvisited] * n
    stack: list[int] = []
    counter = 0
    n_components = 0
    for root in range(n):
        if index_of[root] != unvisited:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            if budget is not None:
                budget.checkpoint()
            node, child_pos = work[-1]
            if child_pos == 0:
                index_of[node] = low_link[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = arcs[node]
            for pos in range(child_pos, len(children)):
                child = children[pos]
                if index_of[child] == unvisited:
                    work[-1] = (node, pos + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child] and index_of[child] < low_link[node]:
                    low_link[node] = index_of[child]
            if advanced:
                continue
            work.pop()
            if low_link[node] == index_of[node]:
                while True:
                    if budget is not None:
                        budget.checkpoint()
                    member = stack.pop()
                    on_stack[member] = False
                    component[member] = n_components
                    if member == node:
                        break
                n_components += 1
            if work:
                parent = work[-1][0]
                if low_link[node] < low_link[parent]:
                    low_link[parent] = low_link[node]
    return component


def classify_adjacency(
    adjacency: Sequence[Iterable[int]],
    budget: ComputeBudget | None = None,
) -> EdgeClassification:
    """Classify every edge of an explicit bipartite adjacency.

    ``adjacency[i]`` lists the anon indices item ``i`` may map to; the
    graph is square (``n_right = len(adjacency)``).
    """
    return _classify_rows(_normalized_rows(adjacency), budget)


def _classify_rows(
    rows: Sequence[frozenset[int]], budget: ComputeBudget | None
) -> EdgeClassification:
    """:func:`classify_adjacency` on rows already validated as anon-index sets."""
    n = len(rows)
    if budget is not None:
        budget.poll()
    match_left, match_right, size = hopcroft_karp([sorted(row) for row in rows], n)
    if size < n:
        witness = _hall_witness(rows, match_left, match_right, budget)
        neighbourhood: set[int] = set()
        for u in witness:
            neighbourhood |= rows[u]
        return EdgeClassification(
            n=n,
            forced={},
            undecided=tuple(frozenset() for _ in range(n)),
            forbidden=tuple(rows),
            infeasible=True,
            hall_witness=witness,
            reason=(
                f"Hall's condition fails: {len(witness)} items share only "
                f"{len(neighbourhood)} candidates"
            ),
        )

    # Residual digraph on items: u -> v iff u has an edge into v's
    # matched anon.  Edge classification reads off its SCCs.
    owner = match_right  # anon j is held by item owner[j]
    arcs: list[list[int]] = []
    for u in range(n):
        if budget is not None:
            budget.checkpoint(weight=len(rows[u]))
        targets = {owner[j] for j in rows[u]}
        targets.discard(u)
        arcs.append(sorted(targets))
    component = _strongly_connected_components(arcs, budget)
    component_size = [0] * n
    for u in range(n):
        component_size[component[u]] += 1

    forced: dict[int, int] = {}
    undecided: list[frozenset[int]] = []
    forbidden: list[frozenset[int]] = []
    for u in range(n):
        if budget is not None:
            budget.checkpoint(weight=len(rows[u]))
        free: set[int] = set()
        banned: set[int] = set()
        for j in rows[u]:
            v = owner[j]
            if v == u:
                if component_size[component[u]] == 1:
                    forced[u] = j
                else:
                    free.add(j)
            elif component[u] == component[v]:
                free.add(j)
            else:
                banned.add(j)
        undecided.append(frozenset(free))
        forbidden.append(frozenset(banned))
    return EdgeClassification(
        n=n,
        forced=forced,
        undecided=tuple(undecided),
        forbidden=tuple(forbidden),
        infeasible=False,
    )


def classify_edges(
    space: MappingSpace,
    budget: ComputeBudget | None = None,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> EdgeClassification:
    """Classify every edge of a mapping space (explicit or frequency).

    Frequency spaces are classified on their twin quotient
    (:func:`_classify_frequency`); explicit ones go through
    :func:`classify_adjacency`.  Either way the per-item sets can hold
    every edge, so the explicit-adjacency *max_edges* guard
    (:data:`repro.graph.propagation.DEFAULT_MAX_EDGES`) applies.
    """
    total_edges = space.edge_count()
    if total_edges > max_edges:
        raise GraphError(
            f"edge classification needs an explicit adjacency; {total_edges} "
            f"edges exceed the {max_edges}-edge guard (raise max_edges to override)"
        )
    if isinstance(space, FrequencyMappingSpace):
        return _classify_frequency(space, budget)
    return classify_adjacency(
        [tuple(space.candidates(i)) for i in range(space.n)], budget=budget
    )


def _twin_flow(
    classes: Sequence[BeliefGroup],
    counts: Sequence[int],
    budget: ComputeBudget | None,
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Class-level earliest-deadline-first transport (Glover's greedy).

    Frequency groups are filled in order, each from the belief groups
    whose run ends soonest.  Returns ``flow[c][t]`` (items of class
    ``c`` sent to group ``lo_c + t``), the classes sending flow into
    each group, and the items per class left unplaced.  The flow is
    maximum, so it is perfect exactly when a consistent perfect
    matching exists.
    """
    flow = [[0] * max(hi - lo, 0) for lo, hi in (bg.group_range for bg in classes)]
    users: list[list[int]] = [[] for _ in counts]
    remaining = [len(bg.items) for bg in classes]
    heap: list[tuple[int, int]] = []  # (last admissible group + 1, class)
    next_class = 0
    for m, capacity in enumerate(counts):
        if budget is not None:
            budget.checkpoint()
        while next_class < len(classes) and classes[next_class].group_range[0] == m:
            if budget is not None:
                budget.checkpoint()
            heapq.heappush(heap, (classes[next_class].group_range[1], next_class))
            next_class += 1
        while capacity and heap:
            if budget is not None:
                budget.checkpoint()
            deadline, c = heap[0]
            if deadline <= m:
                heapq.heappop(heap)  # run over: these items stay unplaced
                continue
            take = min(capacity, remaining[c])
            flow[c][m - classes[c].group_range[0]] = take
            users[m].append(c)
            remaining[c] -= take
            capacity -= take
            if not remaining[c]:
                heapq.heappop(heap)
    return flow, users, remaining


def _twin_hall_witness(
    classes: Sequence[BeliefGroup],
    members: Sequence[Sequence[int]],
    users: Sequence[Sequence[int]],
    remaining: Sequence[int],
    budget: ComputeBudget | None,
) -> tuple[tuple[int, ...], int]:
    """König witness on the quotient: classes alternating-reachable
    from an unplaced item, and the size of their neighbourhood.

    Every reached frequency group is full under a maximum flow, and all
    its items came from reached classes, so the neighbourhood is the
    placed part of the witness: smaller than the witness itself.
    """
    reached_class = [bool(left) for left in remaining]
    reached_group = [False] * len(members)
    queue = deque(c for c, left in enumerate(remaining) if left)
    while queue:
        if budget is not None:
            budget.checkpoint()
        lo, hi = classes[queue.popleft()].group_range
        for m in range(lo, hi):
            if reached_group[m]:
                continue
            reached_group[m] = True
            for c in users[m]:
                if not reached_class[c]:
                    reached_class[c] = True
                    queue.append(c)
    witness = sorted(
        i for c, reached in enumerate(reached_class) if reached for i in classes[c].items
    )
    neighbourhood = sum(
        len(group) for group, reached in zip(members, reached_group) if reached
    )
    return tuple(witness), neighbourhood


def _twin_statuses(
    classes: Sequence[BeliefGroup],
    members: Sequence[Sequence[int]],
    flow: Sequence[Sequence[int]],
    users: list[list[int]],
    budget: ComputeBudget | None,
) -> tuple[tuple[tuple[str, ...], ...], dict[int, int], int]:
    """Pair statuses of a perfect class flow, its forced item -> anon
    pairs and its forbidden item-edge count."""
    # Residual graph: classes are nodes 0..C-1, frequency groups C..C+k-1.
    n_classes = len(classes)
    arcs: list[list[int]] = []
    for c, belief_group in enumerate(classes):
        if budget is not None:
            budget.checkpoint(weight=len(flow[c]))
        size, first = len(belief_group.items), belief_group.group_range[0]
        arcs.append(
            [
                n_classes + first + offset
                for offset, x in enumerate(flow[c])
                if x < size * len(members[first + offset])
            ]
        )
    arcs.extend(users)
    component = _strongly_connected_components(arcs, budget)

    status: list[tuple[str, ...]] = []
    forced: dict[int, int] = {}
    n_forbidden = 0
    for c, belief_group in enumerate(classes):
        if budget is not None:
            budget.checkpoint(weight=len(flow[c]))
        size, first = len(belief_group.items), belief_group.group_range[0]
        row: list[str] = []
        for offset, x in enumerate(flow[c]):
            group = members[first + offset]
            if component[c] == component[n_classes + first + offset]:
                row.append(UNDECIDED)
            elif not x:
                row.append(FORBIDDEN)
                n_forbidden += size * len(group)
            elif size == len(group) == 1:
                row.append(FORCED)
                forced[belief_group.items[0]] = group[0]
            else:
                row.append(UNDECIDED)
        status.append(tuple(row))
    return tuple(status), dict(sorted(forced.items())), n_forbidden


def _classify_frequency(
    space: FrequencyMappingSpace, budget: ComputeBudget | None
) -> EdgeClassification:
    """Régin filtering on the belief-group x frequency-group quotient.

    With class sizes ``a_c`` and group sizes ``b_m``, a feasible class
    flow ``x`` has a residual arc ``c -> m`` when ``x < a_c * b_m`` and
    ``m -> c`` when ``x > 0``.  A pair whose endpoints share an SCC can
    change its flow, so its edges are undecided; across SCCs the flow
    is fixed: ``x = 0`` means forbidden, and ``x = 1`` between a lone
    item and a lone anonymized item means forced.  Every other fixed
    pair holds twins, which trade partners, so it is undecided too.
    """
    if budget is not None:
        budget.poll()
    classes = space.belief_groups().groups
    members = space.groups.members
    flow, users, remaining = _twin_flow(classes, [len(group) for group in members], budget)
    witness: tuple[int, ...] | None = None
    reason: str | None = None
    if any(remaining):
        witness, neighbourhood = _twin_hall_witness(
            classes, members, users, remaining, budget
        )
        reason = (
            f"Hall's condition fails: {len(witness)} items share only "
            f"{neighbourhood} candidates"
        )
        status = tuple((FORBIDDEN,) * len(row) for row in flow)
        forced: dict[int, int] = {}
        n_forbidden = sum(
            len(belief_group.items) * sum(map(len, members[slice(*belief_group.group_range)]))
            for belief_group in classes
        )
    else:
        status, forced, n_forbidden = _twin_statuses(classes, members, flow, users, budget)
    truth = space.true_partners()
    certified = int(np.count_nonzero(truth[list(forced)] == list(forced.values())))
    quotient = TwinQuotient(
        n=space.n,
        classes=classes,
        members=members,
        status=status,
        n_forbidden=n_forbidden,
    )
    return EdgeClassification(
        n=space.n,
        forced=forced,
        undecided=_TwinRows(quotient, UNDECIDED),
        forbidden=_TwinRows(quotient, FORBIDDEN),
        infeasible=witness is not None,
        hall_witness=witness,
        reason=reason,
        quotient=quotient,
        certified_cracks=certified,
    )


def reduced_blocks(classification: EdgeClassification) -> tuple[Block, ...]:
    """Connected components of the *undecided* subgraph.

    Forced pairs and forbidden edges are peeled off first — removing
    them changes neither the matching count nor the surviving items'
    marginals, so these blocks are exactly what an exact engine still
    has to count over.  Items whose edges are all decided do not appear
    in any block.  Blocks come in order of their smallest item; a twin
    quotient is split on its undecided pairs without touching items.
    """
    if classification.quotient is not None:
        return classification.quotient.reduced_blocks()
    n = classification.n
    uf = _UnionFind(2 * n)
    active = [False] * n
    for i, anons in enumerate(classification.undecided):
        for j in anons:
            uf.union(i, n + j)
            active[i] = True
    components: dict[int, tuple[list[int], list[int]]] = {}
    for i in range(n):
        if active[i]:
            items, _ = components.setdefault(uf.find(i), ([], []))
            items.append(i)
    for j in range(n):
        anons_holder = components.get(uf.find(n + j))
        if anons_holder is not None:
            anons_holder[1].append(j)
    return tuple(
        Block(item_indices=tuple(items), anon_indices=tuple(anons))
        for items, anons in components.values()
    )
