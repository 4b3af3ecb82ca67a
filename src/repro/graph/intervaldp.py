"""Consecutive-ones permanent DP over the frequency-group structure.

Interval beliefs give the bipartite adjacency matrix the *consecutive
ones* property: sort the anonymized items by observed frequency and each
original item's candidate set is a contiguous run of frequency groups
(:meth:`~repro.graph.bipartite.FrequencyMappingSpace.admissible_run`).
Two consequences, exploited here:

* anonymized items inside one frequency group are interchangeable, so a
  perfect matching factorizes into an item-to-*group* assignment
  (respecting group capacities) times uniform within-group bijections —
  every capacity-respecting assignment is realized by exactly
  ``prod_g c_g!`` matchings;
* the admissible runs are intervals, so assignments can be counted by a
  left-to-right sweep over the groups whose state is only the *pending*
  items classified by deadline (the group index at which their run ends).

That turns the #P-complete permanent into a polynomial DP whenever the
run widths stay modest — which interval belief functions guarantee in
practice (``delta_med`` beliefs span 2–3 groups).  All counting is done
in exact Python integers, so results are bit-identical to Ryser wherever
both apply.

The DP state space is bounded by an explicit budget
(:class:`DPBudget`); pathological instances (very wide runs over large
dense segments) raise :class:`~repro.errors.GraphError` instead of
silently consuming the machine, letting callers fall back to the
O-estimate or MCMC rungs of the strategy ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np

from repro.budget import ComputeBudget
from repro.errors import GraphError
from repro.memo import MISSING, BoundedLRU

__all__ = [
    "DPBudget",
    "assignment_count",
    "class_pin_counts",
    "class_placement_totals",
    "clear_dp_memo",
    "crack_law",
    "dp_memo_stats",
]

Run = tuple[int, int]

_ClassKey = tuple[tuple[Run, int], ...]
_ProblemKey = tuple[tuple[int, ...], _ClassKey, int, int]

#: Full-result memos: sweeping tolerances or re-running the strategy
#: ladder hands the DP byte-identical instances over and over.  The
#: results are pure functions of their keys, so process-wide memos are
#: sound.  Keys include the DPBudget work bounds so a budget that
#: *would* have raised GraphError still raises deterministically.
_COUNT_MEMO: BoundedLRU[_ProblemKey, int] = BoundedLRU(2048)
_TOTALS_MEMO: BoundedLRU[_ProblemKey, tuple[int, tuple[tuple[tuple[Run, int], int], ...]]] = (
    BoundedLRU(512)
)


def _problem_key(
    capacities: tuple[int, ...], classes: Mapping[Run, int], budget: DPBudget
) -> _ProblemKey:
    canonical = tuple(sorted((run, count) for run, count in classes.items() if count))
    return (capacities, canonical, budget.max_states, budget.max_ops)


def clear_dp_memo() -> None:
    """Drop every memoized DP result (tests, benchmarks)."""
    _COUNT_MEMO.clear()
    _TOTALS_MEMO.clear()


def dp_memo_stats() -> dict[str, int]:
    """Hit/miss/size counters for the two DP memos."""
    return {
        "count_hits": _COUNT_MEMO.hits,
        "count_misses": _COUNT_MEMO.misses,
        "count_size": len(_COUNT_MEMO),
        "totals_hits": _TOTALS_MEMO.hits,
        "totals_misses": _TOTALS_MEMO.misses,
        "totals_size": len(_TOTALS_MEMO),
    }


@dataclass(frozen=True)
class DPBudget:
    """Work bounds for one DP sweep.

    ``max_states`` caps the number of simultaneous pending-profile states
    per group; ``max_ops`` caps the total number of state transitions.
    Either being exceeded raises :class:`~repro.errors.GraphError`.

    ``compute`` optionally attaches a wall-clock
    :class:`~repro.budget.ComputeBudget`, polled every ~2048 transitions,
    so deadline-bearing callers can cancel a DP sweep cooperatively
    (raising :class:`~repro.errors.BudgetExceeded` rather than
    :class:`~repro.errors.GraphError`).
    """

    max_states: int = 50_000
    max_ops: int = 5_000_000
    compute: ComputeBudget | None = None

    def tick(self, ops: int) -> None:
        """Poll the attached compute budget (cheap; call per transition)."""
        if self.compute is not None and not (ops & 2047):
            self.compute.checkpoint(2048)


#: Default budget: generous enough for every realistic interval-belief
#: workload, small enough to fail fast on adversarial widths.
DEFAULT_BUDGET = DPBudget()


def _check_problem(capacities: tuple[int, ...], classes: Mapping[Run, int]) -> int:
    k = len(capacities)
    total = 0
    for (lo, hi), count in classes.items():
        if count < 0:
            raise GraphError(f"negative class count for run {(lo, hi)}")
        if not 0 <= lo < hi <= k:
            raise GraphError(f"run {(lo, hi)} outside the {k}-group segment")
        total += count
    return total


def _compositions(
    available: list[int], amount: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(ways, chosen)`` for every way to draw *amount* items.

    *available* lists per-class pending counts; *chosen* is the per-class
    draw and *ways* the product of binomials.  Classes are
    interchangeable inside, hence the binomial weights.
    """
    n_classes = len(available)
    suffix = [0] * (n_classes + 1)
    for index in range(n_classes - 1, -1, -1):
        suffix[index] = suffix[index + 1] + available[index]
    chosen = [0] * n_classes

    def rec(index: int, remaining: int, ways: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        if remaining > suffix[index]:
            return
        if index == n_classes:
            yield ways, tuple(chosen)
            return
        upper = min(available[index], remaining)
        lower = max(0, remaining - suffix[index + 1])
        for take in range(lower, upper + 1):
            chosen[index] = take
            yield from rec(
                index + 1, remaining - take, ways * math.comb(available[index], take)
            )
        chosen[index] = 0

    yield from rec(0, amount, 1)


def _prune_pending(
    pending: tuple[tuple[int, int], ...],
    capacity_prefix: list[int],
    g: int,
) -> bool:
    """Hall-style feasibility of a pending profile after filling group *g*.

    For every deadline ``d``, the pending items that must land in groups
    ``g+1 .. d-1`` may not exceed those groups' total capacity.  Pruning
    infeasible profiles early keeps the state space tight.
    """
    cumulative = 0
    for deadline, count in pending:  # sorted by deadline
        cumulative += count
        room = capacity_prefix[deadline] - capacity_prefix[g + 1]
        if cumulative > room:
            return False
    return True


def assignment_count(
    capacities: tuple[int, ...],
    classes: Mapping[Run, int],
    budget: DPBudget = DEFAULT_BUDGET,
) -> int:
    """Count capacity-respecting item-to-group assignments, exactly.

    Parameters
    ----------
    capacities:
        Number of anonymized items per group (the group sizes), in
        left-to-right frequency order.
    classes:
        Item counts per admissible run ``(lo, hi)`` — item classes with
        identical runs are interchangeable.
    budget:
        DP work bounds.

    Returns
    -------
    The number of ways to assign every item to one group of its run such
    that group ``g`` receives exactly ``capacities[g]`` items.  Multiply
    by ``prod_g capacities[g]!`` for the matching count (the permanent).
    """
    capacities = tuple(int(c) for c in capacities)
    k = len(capacities)
    total_items = _check_problem(capacities, classes)
    if total_items != sum(capacities):
        return 0

    problem_key = _problem_key(capacities, classes, budget)
    memoized = _COUNT_MEMO.get(problem_key)
    if memoized is not MISSING:
        return memoized

    arrivals: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for (lo, hi), count in classes.items():
        if count:
            arrivals[lo].append((hi, count))

    capacity_prefix = [0] * (k + 1)
    for g in range(k):
        capacity_prefix[g + 1] = capacity_prefix[g] + capacities[g]

    # State: tuple of (deadline, pending-count), sorted by deadline.
    states: dict[tuple[tuple[int, int], ...], int] = {(): 1}
    ops = 0
    for g in range(k):
        if arrivals[g]:
            merged: dict[tuple[tuple[int, int], ...], int] = {}
            for state, ways in states.items():
                pending = dict(state)
                for hi, count in arrivals[g]:
                    pending[hi] = pending.get(hi, 0) + count
                key = tuple(sorted(pending.items()))
                merged[key] = merged.get(key, 0) + ways
            states = merged

        next_states: dict[tuple[tuple[int, int], ...], int] = {}
        need = capacities[g]
        for state, ways in states.items():
            pending = dict(state)
            forced = pending.pop(g + 1, 0)
            if forced > need:
                continue
            rest = sorted(pending.items())
            available = [count for _, count in rest]
            for choice_ways, chosen in _compositions(available, need - forced):
                ops += 1
                budget.tick(ops)
                if ops > budget.max_ops:
                    raise GraphError(
                        "interval-DP op budget exceeded "
                        f"({budget.max_ops} transitions) — runs too wide for "
                        "exact counting; fall back to the O-estimate or MCMC"
                    )
                remainder = tuple(
                    (deadline, count - take)
                    for (deadline, count), take in zip(rest, chosen)
                    if count - take
                )
                if not _prune_pending(remainder, capacity_prefix, g):
                    continue
                next_states[remainder] = (
                    next_states.get(remainder, 0) + ways * choice_ways
                )
        states = next_states
        if len(states) > budget.max_states:
            raise GraphError(
                f"interval-DP state budget exceeded ({budget.max_states} "
                "profiles) — runs too wide for exact counting; fall back "
                "to the O-estimate or MCMC"
            )
        if not states:
            result = 0
            break
    else:
        result = states.get((), 0)
    _COUNT_MEMO.put(problem_key, result)
    return result


def class_pin_counts(
    capacities: tuple[int, ...],
    classes: Mapping[Run, int],
    pins: list[tuple[Run, int]],
    budget: DPBudget = DEFAULT_BUDGET,
) -> dict[tuple[Run, int], int]:
    """Assignment counts with one item of a class pinned to a group.

    For each ``(run, group)`` pair in *pins*, counts the assignments of
    the remaining items when one item of *run* is already placed in
    *group* (so the class loses one item and the group one capacity
    slot).  The marginal probability that a specific item of *run* lands
    in *group* is the pinned count over :func:`assignment_count`.
    """
    results: dict[tuple[Run, int], int] = {}
    for run, group in pins:
        key = (run, group)
        if key in results:
            continue
        lo, hi = run
        if not lo <= group < hi or classes.get(run, 0) <= 0:
            results[key] = 0
            continue
        if capacities[group] <= 0:
            results[key] = 0
            continue
        reduced_classes = dict(classes)
        reduced_classes[run] -= 1
        if not reduced_classes[run]:
            del reduced_classes[run]
        reduced_capacities = list(capacities)
        reduced_capacities[group] -= 1
        results[key] = assignment_count(
            tuple(reduced_capacities), reduced_classes, budget=budget
        )
    return results


def class_placement_totals(
    capacities: tuple[int, ...],
    classes: Mapping[Run, int],
    budget: DPBudget = DEFAULT_BUDGET,
) -> tuple[int, dict[tuple[Run, int], int]]:
    """All placement totals in one forward–backward sweep.

    Returns ``(total, S)`` where *total* is :func:`assignment_count` and
    ``S[(run, g)]`` sums, over every capacity-respecting assignment, the
    number of *run*-class items placed in group ``g``.  The probability
    that one specific item of the class lands in ``g`` is then
    ``S[(run, g)] / (total * classes[run])`` — so one sweep yields every
    marginal, where pinning (:func:`class_pin_counts`) would re-run the
    DP once per ``(run, group)`` pair.

    Unlike :func:`assignment_count`, pending items are keyed by their
    *class*, not just their deadline — merging same-deadline classes
    would erase exactly the identity the marginals need.  All arithmetic
    is exact Python integers.
    """
    capacities = tuple(int(c) for c in capacities)
    k = len(capacities)
    total_items = _check_problem(capacities, classes)
    if total_items != sum(capacities):
        return 0, {}

    problem_key = _problem_key(capacities, classes, budget)
    memoized = _TOTALS_MEMO.get(problem_key)
    if memoized is not MISSING:
        # Fresh dict per caller: the memo must survive caller mutation.
        return memoized[0], dict(memoized[1])

    arrivals: list[list[tuple[Run, int]]] = [[] for _ in range(k)]
    for run, count in classes.items():
        if count:
            arrivals[run[0]].append((run, count))

    capacity_prefix = [0] * (k + 1)
    for g in range(k):
        capacity_prefix[g + 1] = capacity_prefix[g] + capacities[g]

    _State = tuple[tuple[Run, int], ...]

    def merge_arrivals(state: "_State", g: int) -> "_State":
        if g >= k or not arrivals[g]:
            return state
        pending = dict(state)
        for run, count in arrivals[g]:
            pending[run] = pending.get(run, 0) + count
        return tuple(sorted(pending.items()))

    # Forward pass, materializing the trellis.  Layer g holds the states
    # entering group g's placement step (arrivals already merged).
    forward: list[dict[tuple, int]] = [dict() for _ in range(k + 1)]
    forward[0] = {merge_arrivals((), 0): 1}
    # transitions[g]: (pre_state, ways, placed per class, next pre_state)
    transitions: list[list[tuple[tuple, int, tuple, tuple]]] = [[] for _ in range(k)]
    ops = 0
    for g in range(k):
        need = capacities[g]
        layer = forward[g]
        nxt = forward[g + 1]
        for state, ways in layer.items():
            pending = dict(state)
            placed_forced: list[tuple[Run, int]] = []
            forced_total = 0
            for run in [r for r in pending if r[1] == g + 1]:
                count = pending.pop(run)
                placed_forced.append((run, count))
                forced_total += count
            if forced_total > need:
                continue
            rest = sorted(pending.items())
            available = [count for _, count in rest]
            for choice_ways, chosen in _compositions(available, need - forced_total):
                ops += 1
                budget.tick(ops)
                if ops > budget.max_ops:
                    raise GraphError(
                        "interval-DP op budget exceeded "
                        f"({budget.max_ops} transitions) — runs too wide for "
                        "exact marginals; fall back to the O-estimate or MCMC"
                    )
                remainder = tuple(
                    (run, count - take)
                    for (run, count), take in zip(rest, chosen)
                    if count - take
                )
                by_deadline: dict[int, int] = {}
                for (_, hi), count in remainder:
                    by_deadline[hi] = by_deadline.get(hi, 0) + count
                cumulative = 0
                feasible = True
                for deadline in sorted(by_deadline):
                    cumulative += by_deadline[deadline]
                    if cumulative > capacity_prefix[deadline] - capacity_prefix[g + 1]:
                        feasible = False
                        break
                if not feasible:
                    continue
                placed = tuple(
                    placed_forced
                    + [(run, take) for (run, _), take in zip(rest, chosen) if take]
                )
                next_state = merge_arrivals(remainder, g + 1)
                transitions[g].append((state, choice_ways, placed, next_state))
                nxt[next_state] = nxt.get(next_state, 0) + ways * choice_ways
        if len(nxt) > budget.max_states:
            raise GraphError(
                f"interval-DP state budget exceeded ({budget.max_states} "
                "profiles) — runs too wide for exact marginals; fall back "
                "to the O-estimate or MCMC"
            )
        if not nxt:
            _TOTALS_MEMO.put(problem_key, (0, ()))
            return 0, {}

    total = forward[k].get((), 0)
    if total == 0:
        _TOTALS_MEMO.put(problem_key, (0, ()))
        return 0, {}

    # Backward pass: completions from each layer state to the end.
    backward: list[dict[tuple, int]] = [dict() for _ in range(k + 1)]
    backward[k] = {(): 1}
    for g in range(k - 1, -1, -1):
        layer = backward[g]
        nxt = backward[g + 1]
        for state, ways, _, next_state in transitions[g]:
            completions = nxt.get(next_state)
            if completions:
                layer[state] = layer.get(state, 0) + ways * completions

    totals: dict[tuple[Run, int], int] = {}
    for g in range(k):
        fwd = forward[g]
        bwd = backward[g + 1]
        for state, ways, placed, next_state in transitions[g]:
            weight = fwd.get(state, 0) * ways * bwd.get(next_state, 0)
            if not weight:
                continue
            for run, take in placed:
                key = (run, g)
                totals[key] = totals.get(key, 0) + weight * take
    _TOTALS_MEMO.put(problem_key, (total, tuple(totals.items())))
    return total, totals


@lru_cache(maxsize=4096)
def _match_count_law(capacity: int, n_special: int) -> tuple[float, ...]:  # repro-lint: disable-function=EX004 -- probability boundary: exact rencontres Fractions rounded once on output
    """Law of the number of fixed special pairs in a uniform bijection.

    *capacity* items are paired uniformly with *capacity* slots;
    *n_special* of the items each have one designated slot (all
    distinct).  Returns ``P(exactly f special items hit their slot)`` for
    ``f = 0..n_special`` — the generalized rencontres distribution.
    """
    total = math.factorial(capacity)
    law = []
    for fixed in range(n_special + 1):
        free = n_special - fixed
        count = 0
        for misses in range(free + 1):
            count += (
                (-1) ** misses
                * math.comb(free, misses)
                * math.factorial(capacity - fixed - misses)
            )
        law.append(float(Fraction(math.comb(n_special, fixed) * count, total)))
    return tuple(law)


def crack_law(  # repro-lint: disable-function=EX001,EX002,EX004 -- probability layer: per-layer renormalized float polynomials (only ratios matter; see docstring)
    capacities: tuple[int, ...],
    refined_classes: Mapping[tuple[int, int, int | None], int],
    budget: DPBudget = DEFAULT_BUDGET,
) -> np.ndarray:
    """Exact law of the crack count within one block.

    *refined_classes* maps ``(lo, hi, true_group)`` to item counts, where
    ``true_group`` is the block-local group holding the item's true
    partner — or ``None`` when that group is outside the item's run (a
    non-compliant item, never cracked).

    The sweep mirrors :func:`assignment_count` but each state carries a
    probability-weighted polynomial in the crack count: filling group
    ``g`` with ``m`` items whose true group is ``g`` convolves in the
    generalized rencontres law of the uniform within-group bijection.
    Normalization happens per layer (only ratios matter), so the floats
    never overflow even though the underlying counts are astronomical.
    """
    capacities = tuple(int(c) for c in capacities)
    k = len(capacities)
    n_items = 0
    for (lo, hi, true_group), count in refined_classes.items():
        if not 0 <= lo < hi <= k:
            raise GraphError(f"run {(lo, hi)} outside the {k}-group segment")
        if true_group is not None and not lo <= true_group < hi:
            raise GraphError("true group must lie inside the run (or be None)")
        n_items += count
    if n_items != sum(capacities):
        raise GraphError("unbalanced block: item and capacity totals differ")

    arrivals: list[list[tuple[tuple[int, int | None], int]]] = [[] for _ in range(k)]
    for (lo, hi, true_group), count in refined_classes.items():
        if count:
            arrivals[lo].append(((hi, true_group), count))

    capacity_prefix = [0] * (k + 1)
    for g in range(k):
        capacity_prefix[g + 1] = capacity_prefix[g] + capacities[g]

    # State key: tuple of ((deadline, true_group), count); value: a
    # polynomial over crack counts (index = cracks), scaled arbitrarily.
    states: dict[tuple, np.ndarray] = {(): np.array([1.0])}
    ops = 0
    for g in range(k):
        if arrivals[g]:
            merged: dict[tuple, np.ndarray] = {}
            for state, poly in states.items():
                pending = dict(state)
                for cls, count in arrivals[g]:
                    pending[cls] = pending.get(cls, 0) + count
                key = _canonical(pending)
                _accumulate(merged, key, poly)
            states = merged

        next_states: dict[tuple, np.ndarray] = {}
        need = capacities[g]
        for state, poly in states.items():
            pending = dict(state)
            forced_hits = 0
            forced_total = 0
            for cls in [c for c in pending if c[0] == g + 1]:
                count = pending.pop(cls)
                forced_total += count
                if cls[1] == g:
                    forced_hits += count
            if forced_total > need:
                continue
            rest = sorted(pending.items(), key=lambda kv: (kv[0][0], kv[0][1] is None, kv[0][1] or 0))
            available = [count for _, count in rest]
            for choice_ways, chosen in _compositions(available, need - forced_total):
                ops += 1
                budget.tick(ops)
                if ops > budget.max_ops:
                    raise GraphError(
                        "interval-DP op budget exceeded while building the "
                        "crack law — fall back to simulation"
                    )
                hits = forced_hits + sum(
                    take for (cls, _), take in zip(rest, chosen) if cls[1] == g
                )
                remainder = {
                    cls: count - take
                    for (cls, count), take in zip(rest, chosen)
                    if count - take
                }
                if not _prune_deadlines(remainder, capacity_prefix, g):
                    continue
                # Retire true groups that are now in the past.
                retired: dict[tuple[int, int | None], int] = {}
                for (deadline, true_group), count in remainder.items():
                    cls = (deadline, true_group if (true_group is not None and true_group > g) else None)
                    retired[cls] = retired.get(cls, 0) + count
                key = _canonical(retired)
                contribution = float(choice_ways) * _convolve_hits(
                    poly, capacities[g], hits
                )
                _accumulate(next_states, key, contribution)
        states = next_states
        if len(states) > budget.max_states:
            raise GraphError(
                "interval-DP state budget exceeded while building the "
                "crack law — fall back to simulation"
            )
        if not states:
            raise GraphError("no consistent assignment exists for the block")
        # Per-layer renormalization: keeps magnitudes in float range.
        scale = max(float(poly.max()) for poly in states.values())
        if scale > 0 and (scale > 1e100 or scale < 1e-100):
            for key in states:
                states[key] = states[key] / scale

    final = states.get(())
    if final is None:
        raise GraphError("no consistent assignment exists for the block")
    law = np.zeros(n_items + 1, dtype=np.float64)
    law[: len(final)] = final
    total = law.sum()
    if total <= 0:
        raise GraphError("no consistent assignment exists for the block")
    return law / total


def _canonical(pending: Mapping[tuple[int, int | None], int]) -> tuple:
    return tuple(
        sorted(
            ((cls, count) for cls, count in pending.items() if count),
            key=lambda kv: (kv[0][0], kv[0][1] is None, kv[0][1] or 0),
        )
    )


def _prune_deadlines(
    pending: Mapping[tuple[int, int | None], int],
    capacity_prefix: list[int],
    g: int,
) -> bool:
    by_deadline: dict[int, int] = {}
    for (deadline, _), count in pending.items():
        by_deadline[deadline] = by_deadline.get(deadline, 0) + count
    cumulative = 0
    for deadline in sorted(by_deadline):
        cumulative += by_deadline[deadline]
        if cumulative > capacity_prefix[deadline] - capacity_prefix[g + 1]:
            return False
    return True


def _convolve_hits(poly: np.ndarray, capacity: int, n_special: int) -> np.ndarray:
    if n_special == 0:
        return poly
    law = np.asarray(_match_count_law(capacity, n_special))
    return np.convolve(poly, law)


def _accumulate(states: dict[tuple, np.ndarray], key: tuple, poly: np.ndarray) -> None:  # repro-lint: disable-function=EX004 -- probability layer: float crack-count polynomials
    existing = states.get(key)
    if existing is None:
        states[key] = np.array(poly, dtype=np.float64)
        return
    length = max(len(existing), len(poly))
    merged = np.zeros(length, dtype=np.float64)
    merged[: len(existing)] += existing
    merged[: len(poly)] += poly
    states[key] = merged
