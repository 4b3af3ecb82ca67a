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
* the admissible runs are intervals, so assignments can be enumerated by
  a left-to-right sweep over the groups whose state is only the *pending*
  items, classified by a label that carries their deadline (the group
  index at which their run ends).

That turns the #P-complete permanent into a polynomial DP whenever the
run widths stay modest — which interval belief functions guarantee in
practice (``delta_med`` beliefs span 2–3 groups).

One group step, :func:`_fill_group`, enumerates the ways group ``g``
fills from one pending profile.  Three sweeps drive it; they differ only
in the label they keep per pending class and in what they accumulate:

* :func:`assignment_count` labels by deadline and sums integer ways;
* :func:`class_placement_totals` labels by run and records its trellis
  for a backward pass, which yields every item-to-group marginal;
* :func:`crack_law` labels by ``(deadline, true group)`` and carries a
  float polynomial in the crack count.

Counting uses exact Python integers, so results are bit-identical to
Ryser wherever both apply.  The step's work counter (:class:`_Work`) is
where DP transitions are counted and bounded by a :class:`DPBudget`;
pathological instances (very wide runs over large dense segments) raise
:class:`~repro.errors.GraphError` instead of silently consuming the
machine, letting callers fall back to the O-estimate or MCMC rungs of
the strategy ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.budget import ComputeBudget
from repro.errors import GraphError, InfeasibleMatchingError
from repro.memo import MISSING, BoundedLRU

__all__ = [
    "DPBudget",
    "assignment_count",
    "class_placement_totals",
    "clear_dp_memo",
    "crack_law",
    "dp_memo_stats",
]

Run = tuple[int, int]

_ClassKey = tuple[tuple[Run, int], ...]
_ProblemKey = tuple[tuple[int, ...], _ClassKey, int, int]

#: A pending class: its label, which each sweep maps to the class's
#: deadline, and its item count.  A profile is a tuple of them.
_Pending = tuple[Any, int]

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
    :class:`~repro.budget.ComputeBudget`, polled every 2048 transitions,
    so deadline-bearing callers can cancel a DP sweep cooperatively
    (raising :class:`~repro.errors.BudgetExceeded` rather than
    :class:`~repro.errors.GraphError`).
    """

    max_states: int = 50_000
    max_ops: int = 5_000_000
    compute: ComputeBudget | None = None


#: Default budget: generous enough for every realistic interval-belief
#: workload, small enough to fail fast on adversarial widths.
DEFAULT_BUDGET = DPBudget()


class _Work:
    """The transition and state counter of one sweep, bounded by its budget.

    *purpose* names what the sweep computes and where its caller falls
    back, for the budget errors.
    """

    __slots__ = ("compute", "max_ops", "max_states", "ops", "purpose")

    def __init__(self, budget: DPBudget, purpose: str) -> None:
        self.compute = budget.compute
        self.max_ops = budget.max_ops
        self.max_states = budget.max_states
        self.ops = 0
        self.purpose = purpose

    def transition(self) -> None:
        """Count one transition; poll the compute budget every 2048."""
        self.ops += 1
        if self.compute is not None and not (self.ops & 2047):
            self.compute.checkpoint(2048)
        if self.ops > self.max_ops:
            raise GraphError(
                f"interval-DP op budget exceeded ({self.max_ops} transitions) "
                f"— runs too wide for {self.purpose}"
            )

    def layer(self, n_states: int) -> None:
        """Bound the number of pending profiles after one group."""
        if n_states > self.max_states:
            raise GraphError(
                f"interval-DP state budget exceeded ({self.max_states} "
                f"profiles) — runs too wide for {self.purpose}"
            )


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


def _frame(
    capacities: tuple[int, ...], entries: Iterable[tuple[int, Any, int]]
) -> tuple[list[list[_Pending]], list[int]]:
    """Arrivals and capacity prefix sums of one sweep.

    *entries* are ``(lo, label, count)`` classes.  ``arrivals[g]`` lists
    the ``(label, count)`` whose run starts at group ``g`` and
    ``prefix[g]`` is the total capacity of groups ``0 .. g-1``.
    """
    arrivals: list[list[_Pending]] = [[] for _ in capacities]
    for lo, label, count in entries:
        if count:
            arrivals[lo].append((label, count))
    return arrivals, [0, *accumulate(capacities)]


def _merge(
    state: tuple[_Pending, ...],
    arriving: list[_Pending],
    order: Callable[[_Pending], Any] = itemgetter(0),
) -> tuple[_Pending, ...]:
    """*state* plus the *arriving* counts, sorted by label (or *order*)."""
    if not arriving:
        return state
    pending = dict(state)
    for label, count in arriving:
        pending[label] = pending.get(label, 0) + count
    return tuple(sorted(pending.items(), key=order))


def _compositions(
    available: list[int], amount: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(ways, chosen)`` for every way to draw *amount* items.

    *available* lists per-class pending counts; *chosen* is the per-class
    draw and *ways* the product of binomials.  Classes are
    interchangeable inside, hence the binomial weights.  Draws come in
    lexicographic order of *chosen*: an odometer over every class but
    the last, which takes what is left.
    """
    n_classes = len(available)
    suffix = [0] * (n_classes + 1)
    for index in range(n_classes - 1, -1, -1):
        suffix[index] = suffix[index + 1] + available[index]
    if amount > suffix[0]:
        return
    if not n_classes:
        yield 1, ()
        return
    last = n_classes - 1
    chosen = [0] * n_classes
    ways = [1] * n_classes  # ways[i]: binomials of the draws before class i
    left = [amount] * n_classes  # left[i]: items still to draw from classes i..
    index = 0
    while True:
        # Every class from *index* on starts at its smallest draw.
        while index < last:
            take = max(0, left[index] - suffix[index + 1])
            chosen[index] = take
            ways[index + 1] = ways[index] * math.comb(available[index], take)
            left[index + 1] = left[index] - take
            index += 1
        chosen[last] = left[last]
        yield ways[last] * math.comb(available[last], left[last]), tuple(chosen)
        index = last - 1
        while index >= 0 and chosen[index] >= min(available[index], left[index]):
            index -= 1
        if index < 0:
            return
        chosen[index] += 1
        ways[index + 1] = ways[index] * math.comb(available[index], chosen[index])
        left[index + 1] = left[index] - chosen[index]
        index += 1


def _fill_group(
    state: tuple[_Pending, ...],
    g: int,
    capacity: int,
    deadline: Callable[[Any], int],
    capacity_prefix: list[int],
    work: _Work,
) -> Iterator[tuple[int, list[_Pending], tuple[_Pending, ...]]]:
    """Every way to fill group *g* from the pending profile *state*.

    Classes whose run ends at ``g + 1`` are forced into *g*; the rest of
    its *capacity* is drawn from the other pending classes.  Yields
    ``(ways, placed, remainder)``: *ways* counts the item choices,
    *placed* the ``(label, count)`` put into *g* (forced classes first)
    and *remainder* the profile left pending, in *state*'s order.  Each
    draw is one transition of *work*; draws that fail the Hall check are
    dropped.
    """
    forced: list[_Pending] = []
    rest: list[_Pending] = []
    due_by: list[tuple[int, int]] = []
    filled = capacity_prefix[g + 1]
    for label, count in state:
        due = deadline(label)
        if due == g + 1:
            forced.append((label, count))
        else:
            due_by.append((due, len(rest)))
            rest.append((label, count))
    free = capacity - sum(count for _, count in forced)
    if free < 0:
        return
    # Hall check, in deadline order: the items left pending that are due
    # by each deadline must fit into the groups between this one and it.
    # Testing after every class is the same as after every deadline, as
    # the sum only grows up to the last class due by that deadline.
    hall = [(index, capacity_prefix[due] - filled) for due, index in sorted(due_by)]
    available = [count for _, count in rest]
    for ways, chosen in _compositions(available, free):
        work.transition()
        cumulative = 0
        for index, room in hall:
            cumulative += available[index] - chosen[index]
            if cumulative > room:
                break
        else:
            placed = forced + [(label, take) for (label, _), take in zip(rest, chosen) if take]
            remainder = tuple(
                [(label, count - take) for (label, count), take in zip(rest, chosen) if count - take]
            )
            yield ways, placed, remainder


# The sweeps' label-to-deadline maps: assignment_count labels pending
# classes by deadline, class_placement_totals by run (lo, hi) and
# crack_law by (deadline, true_group).
def _itself(deadline: int) -> int:
    return deadline


_run_end = itemgetter(1)
_crack_deadline = itemgetter(0)


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
    total_items = _check_problem(capacities, classes)
    if total_items != sum(capacities):
        return 0

    problem_key = _problem_key(capacities, classes, budget)
    memoized = _COUNT_MEMO.get(problem_key)
    if memoized is not MISSING:
        return memoized

    arrivals, capacity_prefix = _frame(
        capacities, ((lo, hi, count) for (lo, hi), count in classes.items())
    )
    work = _Work(budget, "exact counting; fall back to the O-estimate or MCMC")
    # State: tuple of (deadline, pending-count), sorted by deadline.
    states: dict[tuple[tuple[int, int], ...], int] = {(): 1}
    for g, capacity in enumerate(capacities):
        next_states: dict[tuple[tuple[int, int], ...], int] = {}
        for state, ways in states.items():
            for choice_ways, _, remainder in _fill_group(
                _merge(state, arrivals[g]), g, capacity, _itself, capacity_prefix, work
            ):
                next_states[remainder] = next_states.get(remainder, 0) + ways * choice_ways
        work.layer(len(next_states))
        states = next_states
        if not states:
            break
    result = states.get((), 0)
    _COUNT_MEMO.put(problem_key, result)
    return result


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
    marginal, where pinning one item per ``(run, group)`` pair would
    re-run :func:`assignment_count` once per pair.

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

    arrivals, capacity_prefix = _frame(
        capacities, ((run[0], run, count) for run, count in classes.items())
    )
    work = _Work(budget, "exact marginals; fall back to the O-estimate or MCMC")
    # Forward pass, materializing the trellis.  Layer g holds the states
    # left pending before group g, keyed without group g's arrivals.
    forward: list[dict[tuple, int]] = [{(): 1}]
    # transitions[g]: (state, ways, placed per class, next state)
    transitions: list[list[tuple[tuple, int, list, tuple]]] = []
    for g, capacity in enumerate(capacities):
        nxt: dict[tuple, int] = {}
        steps: list[tuple[tuple, int, list, tuple]] = []
        for state, ways in forward[g].items():
            for choice_ways, placed, remainder in _fill_group(
                _merge(state, arrivals[g]), g, capacity, _run_end, capacity_prefix, work
            ):
                steps.append((state, choice_ways, placed, remainder))
                nxt[remainder] = nxt.get(remainder, 0) + ways * choice_ways
        work.layer(len(nxt))
        if not nxt:
            _TOTALS_MEMO.put(problem_key, (0, ()))
            return 0, {}
        forward.append(nxt)
        transitions.append(steps)

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
def _match_count_law(capacity: int, n_special: int) -> tuple[float, ...]:  # repro-lint: disable-function=EX002,EX004 -- probability boundary: int true division of exact counts, correctly rounded once
    """Law of the number of fixed special pairs in a uniform bijection.

    *capacity* items are paired uniformly with *capacity* slots;
    *n_special* of the items each have one designated slot (all
    distinct).  Returns ``P(exactly f special items hit their slot)`` for
    ``f = 0..n_special`` — the generalized rencontres distribution.

    With ``K = capacity - n_special``, ``D(K + t, t)`` counts the
    bijections of ``K + t`` items in which none of ``t`` special items
    hits its slot.  It follows the diagonal recurrence
    ``D(K+t, t) = (K+t-1) D(K+t-1, t-1) + (t-1) D(K+t-2, t-2)`` from
    ``D(K, 0) = K!``, and ``P(f) = C(n_special, f) D(capacity - f,
    n_special - f) / capacity!``: an integer true division, so each
    probability is the exact ratio rounded once.
    """
    free_slots = capacity - n_special
    misses = [math.factorial(free_slots)]
    for t in range(1, n_special + 1):
        count = (free_slots + t - 1) * misses[t - 1]
        if t >= 2:
            count += (t - 1) * misses[t - 2]
        misses.append(count)
    total = math.factorial(capacity)
    return tuple(
        math.comb(n_special, fixed) * misses[n_special - fixed] / total
        for fixed in range(n_special + 1)
    )


def _crack_order(entry: tuple[tuple[int, int | None], int]) -> tuple[int, bool, int]:
    """Sort key of crack-law labels: by deadline, then true group, ``None`` last."""
    (due, true_group), _ = entry
    return (due, true_group is None, true_group or 0)


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

    The sweep labels pending classes ``(deadline, true_group)``; each
    state carries a probability-weighted polynomial in the crack count.
    Filling group ``g`` with ``m`` items whose true group is ``g``
    convolves in the generalized rencontres law of the uniform
    within-group bijection, and the true groups of the items left
    pending retire to ``None`` once ``g`` is past.  Normalization happens
    per layer (only ratios matter), so the floats never overflow even
    though the underlying counts are astronomical.

    Raises :class:`~repro.errors.InfeasibleMatchingError` when no
    capacity-respecting assignment exists.
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

    arrivals, capacity_prefix = _frame(
        capacities,
        ((lo, (hi, true_group), count) for (lo, hi, true_group), count in refined_classes.items()),
    )
    work = _Work(budget, "the crack law; fall back to simulation")
    # State key: tuple of ((deadline, true_group), count); value: a
    # polynomial over crack counts (index = cracks), scaled arbitrarily.
    states: dict[tuple, np.ndarray] = {(): np.array([1.0])}
    for g, capacity in enumerate(capacities):
        next_states: dict[tuple, np.ndarray] = {}
        for state, poly in states.items():
            for choice_ways, placed, remainder in _fill_group(
                _merge(state, arrivals[g], _crack_order),
                g,
                capacity,
                _crack_deadline,
                capacity_prefix,
                work,
            ):
                hits = sum(count for (_, true), count in placed if true == g)
                # Retire true groups that are now in the past.
                pending = [
                    ((due, true if true is not None and true > g else None), count)
                    for (due, true), count in remainder
                ]
                key = _merge((), pending, _crack_order)
                contribution = float(choice_ways) * _convolve_hits(poly, capacity, hits)
                _accumulate(next_states, key, contribution)
        work.layer(len(next_states))
        if not next_states:
            raise InfeasibleMatchingError("no consistent assignment exists for the block")
        states = next_states
        # Per-layer renormalization: keeps magnitudes in float range.
        scale = max(float(poly.max()) for poly in states.values())
        if scale > 0 and (scale > 1e100 or scale < 1e-100):
            for key in states:
                states[key] = states[key] / scale

    final = states.get(())
    law = np.zeros(n_items + 1, dtype=np.float64)
    if final is not None:
        law[: len(final)] = final
    total = law.sum()
    if total <= 0:
        raise InfeasibleMatchingError("no consistent assignment exists for the block")
    return law / total


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
