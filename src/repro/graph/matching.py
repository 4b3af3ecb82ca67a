"""Maximum matchings and consistent-matching feasibility.

The paper notes (Section 2.3) that a belief function need not admit any
consistent perfect matching at all.  The simulator (Section 7.1) needs
an initial perfect matching; this module provides one:

* :func:`hopcroft_karp` — textbook Hopcroft–Karp maximum bipartite
  matching for arbitrary (explicit) adjacency;
* an interval-scheduling greedy for :class:`FrequencyMappingSpace`, where
  every item admits a *contiguous run* of frequency groups, so the
  transportation problem is solved exactly by earliest-deadline-first
  assignment — ``O(n log n)`` instead of Hopcroft–Karp's ``O(E sqrt(V))``;
* :func:`group_feasible_matching` — a full consistent perfect matching,
  preferring the ground-truth pairing wherever it is consistent (the
  paper seeds its simulation from the all-cracked matching).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Sequence

import numpy as np

from repro.errors import InfeasibleMatchingError
from repro.graph.bipartite import FrequencyMappingSpace, MappingSpace

__all__ = [
    "hopcroft_karp",
    "maximum_matching",
    "has_perfect_matching",
    "group_feasible_matching",
]

_INF = float("inf")


def hopcroft_karp(adjacency: Sequence[Sequence[int]], n_right: int) -> tuple[list[int], list[int], int]:
    """Maximum bipartite matching via Hopcroft–Karp.

    Parameters
    ----------
    adjacency:
        ``adjacency[u]`` lists the right-side neighbours of left node ``u``.
    n_right:
        Number of right-side nodes.

    Returns
    -------
    ``(match_left, match_right, size)`` where ``match_left[u]`` is the
    right partner of ``u`` (or -1) and symmetrically for ``match_right``.
    """
    n_left = len(adjacency)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    distance = [0.0] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                distance[u] = 0.0
                queue.append(u)
            else:
                distance[u] = _INF
        found_free = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    found_free = True
                elif distance[w] == _INF:
                    distance[w] = distance[u] + 1
                    queue.append(w)
        return found_free

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_right[v]
            if w == -1 or (distance[w] == distance[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        distance[u] = _INF
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if match_left[u] == -1 and dfs(u):
                size += 1
    return match_left, match_right, size


def _group_assignment(space: FrequencyMappingSpace) -> list[int]:
    """Assign each item to an admissible frequency group, exactly filling
    every group's capacity, via earliest-deadline-first greedy.

    Raises :class:`InfeasibleMatchingError` when no consistent perfect
    matching exists.
    """
    n = space.n
    k = len(space.groups)
    assignment = [-1] * n
    items_by_start: list[list[int]] = [[] for _ in range(k)]
    for i in range(n):
        g_lo, g_hi = space.admissible_run(i)
        if g_lo >= g_hi:
            raise InfeasibleMatchingError(
                f"item {space.items[i]!r} admits no observed frequency (outdegree 0)"
            )
        items_by_start[g_lo].append(i)

    heap: list[tuple[int, int]] = []  # (deadline g_hi, item index)
    for g in range(k):
        for i in items_by_start[g]:
            heapq.heappush(heap, (space.admissible_run(i)[1], i))
        capacity = int(space.groups.counts[g])
        for _ in range(capacity):
            if not heap:
                raise InfeasibleMatchingError(
                    f"frequency group #{g} cannot be filled: no admissible items remain"
                )
            deadline, i = heapq.heappop(heap)
            if deadline <= g:
                raise InfeasibleMatchingError(
                    f"item {space.items[i]!r} could not be placed before its last "
                    f"admissible group"
                )
            assignment[i] = g
    if heap:
        # Cannot happen when sum of capacities == n, kept as a safety net.
        raise InfeasibleMatchingError("items left unassigned after all groups filled")
    return assignment


def _expand_group_assignment(
    space: FrequencyMappingSpace,
    assignment: Sequence[int],
    prefer_truth: bool = True,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Turn an item->group assignment into an item->anonymized matching.

    Within each group, items are paired with the group's anonymized
    members arbitrarily — except that an item assigned to its *true*
    group is paired with its true partner whenever possible
    (*prefer_truth*), reproducing the paper's all-cracked seed matching
    in the fully compliant case.  Passing *rng* shuffles the within-group
    pools instead; crucial when the space uses the canonical pairing
    (item i <-> anonymized i), where index-order pairing would silently
    reproduce the ground truth.
    """
    n = space.n
    match = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    leftovers_by_group: list[list[int]] = [list(members) for members in space.groups.members]

    if prefer_truth:
        for i in range(n):
            j = space.true_partner(i)
            if assignment[i] == space.groups.group_of[j]:
                match[i] = j
                used[j] = True
        leftovers_by_group = [
            [j for j in members if not used[j]] for members in space.groups.members
        ]
    if rng is not None:
        for pool in leftovers_by_group:
            rng.shuffle(pool)

    cursors = [0] * len(space.groups)
    for i in range(n):
        if match[i] != -1:
            continue
        g = assignment[i]
        pool = leftovers_by_group[g]
        match[i] = pool[cursors[g]]
        cursors[g] += 1
    return match


def group_feasible_matching(
    space: MappingSpace, prefer_truth: bool = True, rng: np.random.Generator | None = None
) -> np.ndarray:
    """A consistent perfect matching of *space* as an item->anon index array.

    Uses the interval greedy for frequency spaces and Hopcroft–Karp for
    explicit ones.  Raises :class:`InfeasibleMatchingError` when the graph
    has no perfect matching.  With ``prefer_truth=False``, pass *rng* to
    randomize within-group pairings (see :func:`_expand_group_assignment`).
    """
    if isinstance(space, FrequencyMappingSpace):
        assignment = _group_assignment(space)
        match = _expand_group_assignment(
            space, assignment, prefer_truth=prefer_truth, rng=rng
        )
        if prefer_truth:
            _restore_true_edges(space, match)
        return match

    adjacency = [list(space.candidates(i)) for i in range(space.n)]
    match_left, match_right, size = hopcroft_karp(adjacency, space.n)
    if size != space.n:
        raise InfeasibleMatchingError(
            f"no consistent perfect matching exists (maximum matching covers "
            f"{size} of {space.n} items)"
        )
    match = np.array(match_left, dtype=np.int64)
    if prefer_truth:
        _restore_true_edges(space, match)
    return match


def _restore_true_edges(space: MappingSpace, match: np.ndarray) -> None:
    """Greedy in-place 2-swaps towards the ground-truth pairing.

    For each item whose true edge exists, swap partners with the item
    currently holding its true partner when the swap keeps both edges
    consistent.  Purely a seeding nicety for the simulator.
    """
    holder = np.empty_like(match)
    holder[match] = np.arange(len(match))
    for i in range(len(match)):
        j = space.true_partner(i)
        if match[i] == j or not space.is_edge(i, j):
            continue
        other = int(holder[j])
        if space.is_edge(other, int(match[i])):
            match[other], match[i] = match[i], j
            holder[match[other]] = other
            holder[j] = i


def maximum_matching(space: MappingSpace) -> np.ndarray:
    """A maximum consistent matching (item->anon index, -1 for unmatched)."""
    if isinstance(space, FrequencyMappingSpace):
        try:
            return group_feasible_matching(space)
        except InfeasibleMatchingError:
            pass  # fall through to Hopcroft-Karp for the maximum (not perfect) case
    adjacency = [list(space.candidates(i)) for i in range(space.n)]
    match_left, _, _ = hopcroft_karp(adjacency, space.n)
    return np.array(match_left, dtype=np.int64)


def has_perfect_matching(space: MappingSpace) -> bool:
    """Whether any consistent crack mapping (perfect matching) exists."""
    if isinstance(space, FrequencyMappingSpace):
        try:
            _group_assignment(space)
        except InfeasibleMatchingError:
            return False
        return True
    adjacency = [list(space.candidates(i)) for i in range(space.n)]
    _, _, size = hopcroft_karp(adjacency, space.n)
    return size == space.n
