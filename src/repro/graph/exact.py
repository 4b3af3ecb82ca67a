"""Structure-exploiting exact crack engine: the strategy dispatcher.

The paper's direct method (Section 4.1) computes expected cracks via
permanents and is capped at tiny domains by #P-hardness.  This module
lifts the cap wherever the graph has structure:

1. **Block decomposition** (:mod:`repro.graph.blocks`): permanents
   multiply, marginals localize and crack laws convolve over connected
   components — for *any* belief class.
2. **Consecutive-ones DP** (:mod:`repro.graph.intervaldp`): inside a
   frequency-space block, interval beliefs admit a polynomial
   group-sweep DP instead of Ryser's ``O(2^n n)``.
3. **Ryser** stays the engine for small explicit blocks (arbitrary
   adjacency, Section 8.1 graphs).

:func:`exact_strategy` inspects a space and prices the plan;
:func:`gated_marginals` is the one cost gate in front of the engine
(the recipe's interval rung, ``best_expected_cracks`` and the ``auto``
marginal method all ask it whether exact runs); the ``*_exact``
functions execute the plan.  Counting uses exact Python integers, so
wherever Ryser is also feasible the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.budget import ComputeBudget
from repro.errors import BudgetExceeded, GraphError, InfeasibleMatchingError
from repro.graph.bipartite import FrequencyMappingSpace, MappingSpace
from repro.graph.blocks import Block, BlockDecomposition, decompose
from repro.graph.groups import BlockProblem
from repro.graph.intervaldp import (
    DEFAULT_BUDGET,
    DPBudget,
    assignment_count,
    class_placement_totals,
    crack_law,
)
from repro.graph.kernels import permanent_batch

__all__ = [
    "EXACT_COST_BUDGET",
    "ExactPlan",
    "exact_strategy",
    "gated_marginals",
    "count_matchings_exact",
    "expected_cracks_exact",
    "crack_marginals_exact",
    "crack_distribution_exact",
]

#: Ryser blocks beyond this size are infeasible (also the guard of
#: :func:`repro.graph.permanent.permanent`).
RYSER_BLOCK_LIMIT = 22

#: Per-block enumeration cap for explicit-space crack laws.
ENUMERATION_BLOCK_LIMIT = 12

STRATEGY_RYSER = "ryser"
STRATEGY_BLOCK_RYSER = "block-ryser"
STRATEGY_INTERVAL_DP = "interval-dp"
STRATEGY_BLOCK_INTERVAL_DP = "block-interval-dp"
STRATEGY_INFEASIBLE = "infeasible"

#: Plans whose :attr:`ExactPlan.cost_hint` exceeds this do not run
#: (:func:`gated_marginals`): the recipe's interval rung keeps the
#: O-estimate alone and the other callers drop to sampling.
EXACT_COST_BUDGET = 50_000_000


@dataclass(frozen=True)
class ExactPlan:
    """What the exact engine would do with a space.

    Attributes
    ----------
    strategy:
        Overall label: ``"ryser"`` (one small explicit block),
        ``"block-ryser"`` (several small explicit blocks),
        ``"interval-dp"`` / ``"block-interval-dp"`` (frequency-space
        DP over one / many blocks), or ``"infeasible"``.
    feasible:
        Whether every block has an exact engine.
    matchable:
        Cheap necessary condition for a perfect matching; when ``False``
        the permanent is 0 and exact answers are trivial.
    n, n_blocks, largest_block, block_sizes:
        Shape of the decomposition.
    cost_hint:
        Rough operation count for an exact expected-cracks computation —
        compare against a budget before running on a serving path.
        Computed in exact integers (counts of DP transitions / Ryser
        subsets), so plans for the same space always compare equal.
    reason:
        Why the plan is infeasible / unmatchable, when it is.
    """

    strategy: str
    feasible: bool
    matchable: bool
    n: int
    n_blocks: int
    largest_block: int
    block_sizes: tuple[int, ...]
    cost_hint: int
    reason: str | None = None


def _frequency_block_problem(
    space: FrequencyMappingSpace, block: Block
) -> tuple[tuple[int, ...], dict[tuple[int, int], int], int]:
    """Capacities, interchangeability classes and run width of one block,
    item by item: the reference the analysis's :class:`BlockProblem` is
    checked against."""
    a, b = block.group_range
    capacities = tuple(int(c) for c in space.groups.counts[a:b])
    classes: dict[tuple[int, int], int] = {}
    for i in block.item_indices:
        g_lo, g_hi = space.admissible_run(i)
        run = (g_lo - a, g_hi - a)
        classes[run] = classes.get(run, 0) + 1
    width = max((hi - lo for lo, hi in classes), default=1)
    return capacities, classes, width


def _dp_cost_hint(
    capacities: tuple[int, ...], classes: dict[tuple[int, int], int], width: int
) -> int:
    """Crude transition-count estimate for one block's DP sweep.

    The state space is the set of feasible pending-by-deadline profiles;
    with window width ``w`` and at most ``p`` pending items that is at
    most ``C(p + w - 2, w - 2)`` per group.  The hint deliberately
    over-counts — it gates serving-path usage, where a false "too
    expensive" only costs accuracy, never latency.
    """
    if width <= 1:
        return len(capacities)
    window = width - 1
    sums = [sum(capacities[g : g + window]) for g in range(len(capacities))]
    max_pending = max(sums, default=0)
    states = math.comb(max_pending + max(width - 2, 0), max(width - 2, 0))
    transitions = math.comb(max_pending + width - 1, width - 1)
    return len(capacities) * min(states, 10**9) * min(transitions, 10**9)


def exact_strategy(space: MappingSpace) -> ExactPlan:
    """Inspect a space and price the exact engine's plan for it.

    Frequency blocks run the interval DP; explicit blocks run batched
    Ryser up to ``RYSER_BLOCK_LIMIT`` items, beyond which the plan is
    infeasible.
    """
    decomposition = decompose(space)
    if not decomposition.matchable:
        return ExactPlan(
            strategy=STRATEGY_INFEASIBLE if not decomposition.blocks else _overall_name(
                space, decomposition
            ),
            feasible=True,
            matchable=False,
            n=space.n,
            n_blocks=len(decomposition.blocks),
            largest_block=decomposition.largest_block,
            block_sizes=decomposition.block_sizes,
            cost_hint=0,
            reason=decomposition.reason,
        )

    problems = (
        space.analysis().problems if isinstance(space, FrequencyMappingSpace) else None
    )
    cost = 0
    feasible = True
    reason = None
    for index, block in enumerate(decomposition.blocks):
        # The per-block price below is uncalibrated; a cost model fitted
        # to measured DP transitions and Ryser subsets is to replace it.
        # A frequency block always runs the DP, whichever price it gets.
        if problems is not None:
            capacities, classes, width = problems[index]
            hint = _dp_cost_hint(capacities, classes, width)
            if block.n > RYSER_BLOCK_LIMIT or hint <= block.n * 2**block.n:
                cost += hint * max(len(classes), 1)
            else:
                cost += block.n**2 * 2**block.n
        elif block.n <= RYSER_BLOCK_LIMIT:
            cost += block.n**2 * 2**block.n
        else:
            feasible = False
            reason = (
                f"a {block.n}-item block has no structure the exact engine "
                f"can exploit (Ryser limit {RYSER_BLOCK_LIMIT})"
            )
    strategy = (
        STRATEGY_INFEASIBLE
        if not feasible
        else _overall_name(space, decomposition)
    )
    return ExactPlan(
        strategy=strategy,
        feasible=feasible,
        matchable=True,
        n=space.n,
        n_blocks=len(decomposition.blocks),
        largest_block=decomposition.largest_block,
        block_sizes=decomposition.block_sizes,
        cost_hint=cost,
        reason=reason,
    )


def gated_marginals(
    space: MappingSpace, budget: ComputeBudget | None = None
) -> tuple[ExactPlan, np.ndarray | None]:
    """The plan for *space* and, when exact runs, its crack marginals.

    The one cost gate of the exact engine.  The marginals are ``None``
    when the plan is unmatchable or infeasible, when its cost hint
    exceeds :data:`EXACT_COST_BUDGET`, or when the run stops on the DP's
    work bounds (:class:`~repro.errors.GraphError`) or on *budget*
    (:class:`~repro.errors.BudgetExceeded`): exact is an enrichment, so
    callers fall back instead of failing.
    """
    plan = exact_strategy(space)
    if not (plan.matchable and plan.feasible) or plan.cost_hint > EXACT_COST_BUDGET:
        return plan, None
    try:
        return plan, crack_marginals_exact(space, budget=DPBudget(compute=budget))
    except (BudgetExceeded, GraphError):
        return plan, None


def _overall_name(space: MappingSpace, decomposition: BlockDecomposition) -> str:
    many = len(decomposition.blocks) > 1
    if isinstance(space, FrequencyMappingSpace):
        return STRATEGY_BLOCK_INTERVAL_DP if many else STRATEGY_INTERVAL_DP
    return STRATEGY_BLOCK_RYSER if many else STRATEGY_RYSER


# -- per-block engines -------------------------------------------------------


def _block_adjacency(space: MappingSpace, block: Block) -> np.ndarray:
    anon_local = {j: r for r, j in enumerate(block.anon_indices)}
    # Integer dtype keeps `permanent_batch` on its exact int64 walk.
    matrix = np.zeros((len(block.anon_indices), len(block.item_indices)), dtype=np.int64)
    for c, i in enumerate(block.item_indices):
        for j in space.candidates(i):
            matrix[anon_local[j], c] = 1
    return matrix


def _frequency_block_count(problem: BlockProblem, budget: DPBudget) -> tuple[int, int]:
    """(assignment count, matching count) of one frequency block."""
    capacities, classes, _ = problem
    assignments = assignment_count(capacities, classes, budget=budget)
    matchings = assignments
    for c in capacities:
        matchings *= math.factorial(c)
    return assignments, matchings


def count_matchings_exact(space: MappingSpace, budget: DPBudget = DEFAULT_BUDGET) -> int:
    """The number of consistent crack mappings, as an exact integer.

    Equals the permanent of the adjacency matrix, computed as a product
    over blocks — interval DP on frequency blocks, batched Ryser on
    small explicit ones.  Raises :class:`~repro.errors.GraphError` when
    some block is beyond every engine.
    """
    decomposition = decompose(space)
    if not decomposition.matchable:
        return 0
    total = 1
    if isinstance(space, FrequencyMappingSpace):
        for problem in space.analysis().problems:
            _, matchings = _frequency_block_count(problem, budget)
            if matchings == 0:
                return 0
            total *= matchings
        return total
    explicit_matrices = []
    for block in decomposition.blocks:
        _require_ryser_block(block)
        explicit_matrices.append(_block_adjacency(space, block))
    for matchings in permanent_batch(explicit_matrices, budget=budget.compute):
        if matchings == 0:
            return 0
        total *= matchings
    return total


def _require_ryser_block(block: Block) -> None:
    if block.n > RYSER_BLOCK_LIMIT:
        raise GraphError(
            f"a {block.n}-item explicit block exceeds the Ryser limit "
            f"({RYSER_BLOCK_LIMIT}); no exact strategy applies — use the O-estimate "
            "or the simulator"
        )


def _frequency_marginals(
    space: FrequencyMappingSpace, marginals: np.ndarray, budget: DPBudget
) -> None:
    """Marginals of a matchable frequency space, one DP sweep per block.

    Items sharing (belief group, true group) share a marginal:
    P(item -> g) = S[(run, g)] / (total * class size), and landing in
    the true group cracks with probability 1 / capacity.  Non-compliant
    items are never cracked.
    """
    analysis = space.analysis()
    g_lo, g_hi = space.admissible_runs()
    true_group = space.groups.group_of[space.true_partners()]
    compliant = np.flatnonzero((g_lo <= true_group) & (true_group < g_hi))
    classes = analysis.belief_groups.groups
    n_classes = len(classes)
    pairs, pair_of_item = np.unique(
        true_group[compliant] * n_classes + analysis.class_of_item[compliant],
        return_inverse=True,
    )
    # Pairs ascend by true group, so each block's pairs are one slice.
    starts = [block.group_range[0] for block in analysis.decomposition.blocks]
    cuts = [*np.searchsorted(pairs, np.asarray(starts) * n_classes).tolist(), len(pairs)]
    pair_groups = (pairs // n_classes).tolist()
    pair_classes = (pairs % n_classes).tolist()
    values: list[float] = []
    for b, (a, problem) in enumerate(zip(starts, analysis.problems)):
        capacities = problem.capacities
        total, placement = class_placement_totals(capacities, problem.classes, budget=budget)
        if total == 0:
            raise InfeasibleMatchingError("no consistent perfect matching exists")
        block_pairs = slice(cuts[b], cuts[b + 1])
        for group, c in zip(pair_groups[block_pairs], pair_classes[block_pairs]):
            lo, hi = classes[c].group_range
            placed = placement.get(((lo - a, hi - a), group - a), 0)
            denominator = total * len(classes[c].items) * capacities[group - a]
            values.append(placed / denominator)  # repro-lint: disable=EX002 -- probability boundary: exact-count ratio, correctly rounded once into the output array
    marginals[compliant] = np.asarray(values)[pair_of_item.reshape(-1)]


def _explicit_marginals_batched(
    space: MappingSpace,
    block_matrices: list[tuple[Block, np.ndarray]],
    marginals: np.ndarray,
    budget: DPBudget,
) -> None:
    """Fill marginals for explicit blocks, batching equal-size permanents.

    Each block needs its total permanent plus one minor permanent per
    item whose true edge survives; totals and minors across *all* blocks
    go to :func:`~repro.graph.kernels.permanent_batch`, which evaluates
    each size in one tensor pass — for a decomposed space with many
    same-size blocks this replaces hundreds of scalar Ryser walks with a
    handful of batched ones.
    """
    totals = permanent_batch([m for _, m in block_matrices], budget=budget.compute)
    minor_items: list[tuple[int, int]] = []  # (block index, item index)
    minors: list[np.ndarray] = []
    for b, (block, matrix) in enumerate(block_matrices):
        if totals[b] == 0:
            raise InfeasibleMatchingError("no consistent perfect matching exists")
        anon_local = {j: r for r, j in enumerate(block.anon_indices)}
        for c, i in enumerate(block.item_indices):
            j = space.true_partner(i)
            row = anon_local.get(j)
            if row is None or matrix[row, c] == 0:
                continue
            minor_items.append((b, i))
            minors.append(np.delete(np.delete(matrix, row, axis=0), c, axis=1))
    for (b, i), value in zip(minor_items, permanent_batch(minors, budget=budget.compute)):
        marginals[i] = value / totals[b]  # repro-lint: disable=EX002 -- probability boundary: exact-count ratio becomes P(crack)


def crack_marginals_exact(
    space: MappingSpace, budget: DPBudget = DEFAULT_BUDGET
) -> np.ndarray:
    """Exact per-item crack probabilities, block by block.

    Raises :class:`~repro.errors.InfeasibleMatchingError` when no
    consistent matching exists and :class:`~repro.errors.GraphError`
    when some block defeats every exact engine.
    """
    marginals = np.zeros(space.n, dtype=np.float64)  # repro-lint: disable=EX004 -- probability boundary: output array of P(crack)
    decomposition = decompose(space)
    if not decomposition.matchable:
        raise InfeasibleMatchingError("no consistent perfect matching exists")
    if isinstance(space, FrequencyMappingSpace):
        _frequency_marginals(space, marginals, budget)
        return marginals
    explicit: list[tuple[Block, np.ndarray]] = []
    for block in decomposition.blocks:
        _require_ryser_block(block)
        explicit.append((block, _block_adjacency(space, block)))
    if explicit:
        _explicit_marginals_batched(space, explicit, marginals, budget)
    return marginals


def expected_cracks_exact(space: MappingSpace, budget: DPBudget = DEFAULT_BUDGET) -> float:
    """Exact ``E[X]`` by the direct method (Section 4.1), structure-exploiting.

    ``P(item x is cracked)`` is the fraction of perfect matchings that
    contain the true edge ``(x', x)``, and ``E[X]`` their sum
    (linearity, Section 5.1).  Beyond the Ryser cap, the sum is taken
    block by block, each block's marginals from its engine.
    """
    return float(crack_marginals_exact(space, budget=budget).sum())  # repro-lint: disable=EX004 -- public float API edge


def _enumerate_block_law(
    space: MappingSpace, block: Block, budget: DPBudget = DEFAULT_BUDGET
) -> np.ndarray:
    """Crack law of a small explicit block, by backtracking enumeration."""
    compute = budget.compute
    anon_local = {j: r for r, j in enumerate(block.anon_indices)}
    n_local = block.n
    candidates = []
    for i in block.item_indices:
        candidates.append(
            tuple(anon_local[j] for j in space.candidates(i) if j in anon_local)
        )
    truth = []
    for i in block.item_indices:
        truth.append(anon_local.get(space.true_partner(i), -1))
    order = sorted(range(n_local), key=lambda c: len(candidates[c]))

    counts = [0] * (n_local + 1)
    used = [False] * n_local

    def extend(depth: int, cracks: int) -> None:
        if depth == n_local:
            counts[cracks] += 1
            return
        if compute is not None:
            compute.checkpoint()
        c = order[depth]
        for r in candidates[c]:
            if not used[r]:
                used[r] = True
                extend(depth + 1, cracks + (1 if truth[c] == r else 0))
                used[r] = False

    extend(0, 0)
    total = sum(counts)
    if total == 0:
        raise InfeasibleMatchingError("no consistent perfect matching exists")
    return np.asarray(counts, dtype=np.float64) / total  # repro-lint: disable=EX002,EX004 -- probability boundary: exact counts become the block law


def _frequency_block_law(
    space: FrequencyMappingSpace, block: Block, budget: DPBudget
) -> np.ndarray:
    a, b = block.group_range
    capacities = tuple(int(c) for c in space.groups.counts[a:b])
    group_of = space.groups.group_of
    refined: dict[tuple[int, int, int | None], int] = {}
    for i in block.item_indices:
        g_lo, g_hi = space.admissible_run(i)
        true_group = int(group_of[space.true_partner(i)])
        local_true = true_group - a if g_lo <= true_group < g_hi else None
        key = (g_lo - a, g_hi - a, local_true)
        refined[key] = refined.get(key, 0) + 1
    return crack_law(capacities, refined, budget=budget)


def crack_distribution_exact(
    space: MappingSpace, budget: DPBudget = DEFAULT_BUDGET
) -> np.ndarray:
    """Exact law ``P(X = k)`` of the crack count, block-convolved.

    Frequency blocks use the interval DP with rencontres within-group
    laws; explicit blocks are enumerated (per-block limit
    ``ENUMERATION_BLOCK_LIMIT`` instead of the historical whole-space
    one).  The block laws are convolved — matchings are independent and
    uniform across components.
    """
    decomposition = decompose(space)
    if not decomposition.matchable:
        raise InfeasibleMatchingError("no consistent perfect matching exists")
    law = np.array([1.0])  # repro-lint: disable=EX001 -- probability boundary: identity law for the convolution
    for block in decomposition.blocks:
        if isinstance(space, FrequencyMappingSpace):
            try:
                block_law = _frequency_block_law(space, block, budget)
            except GraphError:
                if block.n <= ENUMERATION_BLOCK_LIMIT:
                    block_law = _enumerate_block_law(space, block, budget=budget)
                else:
                    raise
        else:
            if block.n > ENUMERATION_BLOCK_LIMIT:
                raise GraphError(
                    f"enumerating a {block.n}-item explicit block is infeasible "
                    f"(limit {ENUMERATION_BLOCK_LIMIT}); only frequency blocks "
                    "support the interval-DP crack law"
                )
            block_law = _enumerate_block_law(space, block, budget=budget)
        law = np.convolve(law, block_law)
    result = np.zeros(space.n + 1, dtype=np.float64)  # repro-lint: disable=EX004 -- probability boundary: output law P(X=k)
    result[: len(law)] = law
    return result
