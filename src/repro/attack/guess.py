"""Constructing the hacker's best concrete crack mapping.

The paper's hacker picks a consistent mapping uniformly at random; a
*smart* hacker does better by exploiting structure:

1. **forced pairs** — degree-1 propagation (Figure 7) pins part of the
   mapping with certainty;
2. **group-assignment marginals** — for the remaining freedom, estimate
   ``P(item y belongs to frequency group g)`` under the uniform-mapping
   posterior by Gibbs sampling (on every frequency space, chains
   included) and commit the most confident placements first, respecting
   capacities;
3. within a group nothing distinguishes the anonymized items, so any
   bijection is as good as any other.

The resulting deterministic guess maximizes (greedily) the expected
number of cracks a single submitted mapping can achieve.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.bipartite import FrequencyMappingSpace, MappingSpace
from repro.graph.matching import hopcroft_karp
from repro.graph.propagation import propagate_degree_one
from repro.simulation.gibbs import GibbsAssignmentSampler

__all__ = ["CrackGuess", "best_guess_mapping", "candidate_ranking"]


@dataclass(frozen=True)
class CrackGuess:
    """A concrete crack mapping with its provenance.

    Attributes
    ----------
    mapping:
        ``anonymized label -> guessed original item``.
    assignment:
        Item index -> anonymized index, aligned with the space.
    n_forced:
        Pairs pinned by propagation (correct with certainty when the
        belief is compliant).
    expected_cracks:
        The guesser's own estimate of how many guesses are right.
    """

    mapping: dict
    assignment: tuple[int, ...]
    n_forced: int
    expected_cracks: float


def _assignment_marginals(
    space: FrequencyMappingSpace,
    n_samples: int,
    rng: np.random.Generator,
) -> dict[int, dict[int, float]]:
    """``P(item i is assigned group g)`` estimated by the Gibbs chain."""
    sampler = GibbsAssignmentSampler(space, rng=rng, seed_with_truth=False)
    tallies: dict[int, defaultdict] = {
        i: defaultdict(float) for i in range(space.n)
    }
    for assignment in sampler.draws(n_samples):
        for i in range(space.n):
            tallies[i][int(assignment[i])] += 1.0
    return {
        i: {g: count / n_samples for g, count in groups.items()}
        for i, groups in tallies.items()
    }


def _greedy_group_assignment(
    space: FrequencyMappingSpace,
    marginals: dict[int, dict[int, float]],
) -> list[int]:
    """A feasible group assignment maximizing total marginal, greedily.

    Starts from a guaranteed-feasible earliest-deadline-first assignment
    (deadline ties broken toward higher marginal), then runs exchange
    passes over adjacent group pairs: whenever two flexible items sit in
    each other's preferred groups, swapping them raises the total
    marginal while preserving every capacity.
    """
    import heapq

    k = len(space.groups)
    assignment = [-1] * space.n
    items_by_start: list[list[int]] = [[] for _ in range(k)]
    for i in range(space.n):
        g_lo, g_hi = space.admissible_run(i)
        items_by_start[g_lo].append(i)
    heap: list[tuple[int, float, int]] = []
    for g in range(k):
        for i in items_by_start[g]:
            deadline = space.admissible_run(i)[1]
            # Among equal deadlines, place the items that *want* this
            # group most; the deadline key preserves feasibility.
            heapq.heappush(heap, (deadline, -marginals[i].get(g, 0.0), i))
        for _ in range(int(space.groups.counts[g])):
            if not heap:
                raise GraphError("could not complete the greedy group assignment")
            deadline, _, i = heapq.heappop(heap)
            if deadline <= g:
                raise GraphError("could not complete the greedy group assignment")
            assignment[i] = g

    # Exchange passes: marginal-improving swaps across adjacent groups.
    members: list[list[int]] = [[] for _ in range(k)]
    for i, g in enumerate(assignment):
        members[g].append(i)

    def gain(i: int, from_group: int, to_group: int) -> float:
        by_group = marginals[i]
        return by_group.get(to_group, 0.0) - by_group.get(from_group, 0.0)

    for _ in range(3):
        improved = False
        for g in range(k - 1):
            h = g + 1
            movers_up = sorted(
                (i for i in members[g] if space.admissible_run(i)[1] > h),
                key=lambda i: -gain(i, g, h),
            )
            movers_down = sorted(
                (i for i in members[h] if space.admissible_run(i)[0] <= g),
                key=lambda i: -gain(i, h, g),
            )
            for up, down in zip(movers_up, movers_down):
                if gain(up, g, h) + gain(down, h, g) <= 1e-12:
                    break
                assignment[up], assignment[down] = h, g
                members[g].remove(up)
                members[h].remove(down)
                members[g].append(down)
                members[h].append(up)
                improved = True
        if not improved:
            break
    return assignment


def best_guess_mapping(
    space: MappingSpace,
    n_samples: int = 300,
    rng: np.random.Generator | None = None,
) -> CrackGuess:
    """The hacker's best deterministic crack mapping for *space*.

    For frequency spaces, combines propagation-forced pairs with a
    maximum-marginal group assignment; for explicit spaces, forced pairs
    plus an arbitrary consistent completion (no group symmetry to
    exploit).  The ``expected_cracks`` field is the guesser's own
    estimate — ground truth is never consulted.
    """
    rng = np.random.default_rng() if rng is None else rng
    from repro.graph.matching import has_perfect_matching

    if not has_perfect_matching(space):
        # Wrong beliefs can be mutually inconsistent (some item admits no
        # observed frequency, or capacities clash).  A real hacker submits
        # the best partial mapping: a maximum consistent matching,
        # completed arbitrarily.
        return _maximum_matching_guess(space, rng)

    propagation = propagate_degree_one(space)

    if isinstance(space, FrequencyMappingSpace):
        marginals = _assignment_marginals(space, n_samples, rng)
        group_assignment = _greedy_group_assignment(space, marginals)
        # Force propagation pairs over the greedy (they are certainties).
        group_of_anon = space.groups.group_of
        for i, j in propagation.forced.items():
            group_assignment[i] = int(group_of_anon[j])
        assignment = _pair_within_groups(
            space, group_assignment, propagation.forced, rng
        )
        expected = 0.0
        counts = space.groups.counts
        for i in range(space.n):
            if i in propagation.forced:
                expected += 1.0
            else:
                g = group_assignment[i]
                expected += marginals[i].get(g, 0.0) / int(counts[g])
    else:
        adjacency = [list(space.candidates(i)) for i in range(space.n)]
        match_left, _, size = hopcroft_karp(adjacency, space.n)
        if size != space.n:
            raise GraphError("no consistent crack mapping exists to guess with")
        assignment = list(match_left)
        for i, j in propagation.forced.items():
            if assignment[i] != j:
                # swap to honour the forced pair
                other = assignment.index(j)
                assignment[other], assignment[i] = assignment[i], j
        expected = float(propagation.n_forced)
        free = space.n - propagation.n_forced
        if free:
            expected += sum(
                1.0 / space.outdegree(i)
                for i in range(space.n)
                if i not in propagation.forced
            )

    mapping = {
        space.anonymized[j]: space.items[i] for i, j in enumerate(assignment)
    }
    return CrackGuess(
        mapping=mapping,
        assignment=tuple(int(j) for j in assignment),
        n_forced=propagation.n_forced,
        expected_cracks=float(expected),
    )


def _maximum_matching_guess(
    space: MappingSpace, rng: np.random.Generator
) -> CrackGuess:
    """Best partial guess when no consistent perfect matching exists."""
    from repro.graph.matching import maximum_matching

    match = maximum_matching(space)
    assignment = [int(j) for j in match]
    used = {j for j in assignment if j >= 0}
    spare = iter(j for j in range(space.n) if j not in used)
    for i in range(space.n):
        if assignment[i] < 0:
            assignment[i] = next(spare)
    expected = sum(
        1.0 / space.outdegree(i)
        for i in range(space.n)
        if match[i] >= 0 and space.outdegree(i) > 0
    )
    mapping = {space.anonymized[j]: space.items[i] for i, j in enumerate(assignment)}
    return CrackGuess(
        mapping=mapping,
        assignment=tuple(assignment),
        n_forced=0,
        expected_cracks=float(expected),
    )


def _pair_within_groups(
    space: FrequencyMappingSpace,
    group_assignment: list[int],
    forced: dict[int, int],
    rng: np.random.Generator,
) -> list[int]:
    """Expand a group assignment into a full matching, honouring *forced*.

    Within-group pairings are shuffled: the hacker has no information to
    prefer one bijection over another, and index-order pairing would
    leak the canonical ground-truth pairing on owner-built spaces.
    """
    assignment = [-1] * space.n
    used = set()
    for i, j in forced.items():
        assignment[i] = j
        used.add(j)
    pools = {
        g: [j for j in members if j not in used]
        for g, members in enumerate(space.groups.members)
    }
    for pool in pools.values():
        rng.shuffle(pool)
    cursors = {g: 0 for g in pools}
    for i in range(space.n):
        if assignment[i] != -1:
            continue
        g = group_assignment[i]
        pool = pools[g]
        if cursors[g] >= len(pool):
            # Capacity exhausted by forced pairs: place anywhere legal.
            for alt in range(len(space.groups)):
                g_lo, g_hi = space.admissible_run(i)
                if g_lo <= alt < g_hi and cursors[alt] < len(pools[alt]):
                    g = alt
                    break
            pool = pools[g]
        assignment[i] = pool[cursors[g]]
        cursors[g] += 1
    return assignment


def candidate_ranking(
    space: MappingSpace,
    anonymized_label,
    n_samples: int = 400,
    rng: np.random.Generator | None = None,
) -> list[tuple[object, float]]:
    """Posterior over original items for one anonymized item.

    ``P(C(x') = y)`` under the uniform-consistent-mapping model, highest
    first.  For frequency spaces this reduces to group-assignment
    marginals divided by the group size (within-group symmetry); for
    explicit spaces it is estimated by the swap sampler.
    """
    rng = np.random.default_rng() if rng is None else rng
    try:
        anon_index = space.anonymized.index(anonymized_label)
    except ValueError:
        raise GraphError(f"{anonymized_label!r} is not an anonymized item") from None

    if isinstance(space, FrequencyMappingSpace):
        g = int(space.groups.group_of[anon_index])
        group_size = int(space.groups.counts[g])
        marginals = _assignment_marginals(space, n_samples, rng)
        ranking = [
            (space.items[i], marginals[i].get(g, 0.0) / group_size)
            for i in range(space.n)
            if space.is_edge(i, anon_index)
        ]
    else:
        from repro.simulation.sampler import MatchingSampler

        sampler = MatchingSampler(space, rng=rng, seed_with_truth=False)
        hits = defaultdict(float)
        for matching in sampler.draws(n_samples):
            for i in range(space.n):
                if matching[i] == anon_index:
                    hits[i] += 1.0
                    break
        ranking = [
            (space.items[i], count / n_samples) for i, count in hits.items()
        ]
    ranking.sort(key=lambda pair: (-pair[1], repr(pair[0])))
    return ranking
