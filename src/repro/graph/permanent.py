"""Exact crack analysis via permanents and matching enumeration.

Section 4.1 of the paper gives the *direct method*: the number of
consistent crack mappings is the permanent of the bipartite adjacency
matrix, and the exact expected number of cracks follows from ratios of
permanents.  Computing the permanent is #P-complete (Valiant 1979), so
this machinery is only feasible for small domains — which is exactly how
the library uses it: as ground truth to validate the O-estimate and the
simulator in tests and ablations.

* :func:`permanent` — Ryser's inclusion–exclusion formula with Gray-code
  updates, ``O(2^n n)``; matrices beyond a few rows are first split
  into connected blocks (permanents multiply over blocks), and integral
  blocks go through :func:`repro.graph.kernels.permanent_batch`.
* :func:`crack_distribution_permanent` — the law ``P(X = k)`` by the
  paper's literal subset formula, for tiny domains;
* :func:`enumerate_consistent_matchings` — every consistent matching.

Exact counts, ``E[X]`` and crack laws beyond the Ryser cap live in
:mod:`repro.graph.exact` (``count_matchings_exact``,
``expected_cracks_exact``, ``crack_distribution_exact``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.budget import ComputeBudget
from repro.errors import GraphError, InfeasibleMatchingError
from repro.graph.bipartite import MappingSpace
from repro.graph.blocks import _UnionFind
from repro.graph.exact import ENUMERATION_BLOCK_LIMIT, RYSER_BLOCK_LIMIT
from repro.graph.kernels import permanent_batch

__all__ = [
    "permanent",
    "crack_distribution_permanent",
    "enumerate_consistent_matchings",
]

#: Above this size the O(2^n) walk dominates the O(n^2) union-find, so
#: ``permanent`` always tries the block split first (a block-diagonal
#: matrix then pays per-block walks instead of one full-width walk).
_SPLIT_MIN = 6


def _matrix_blocks(matrix: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """Connected components of a matrix's nonzero structure.

    Returns ``(rows, cols)`` per component.  A component with unequal row
    and column counts forces the permanent to 0.
    """
    n = matrix.shape[0]
    uf = _UnionFind(2 * n)  # rows 0..n-1, columns n..2n-1
    rows, cols = np.nonzero(matrix)
    for r, c in zip(rows.tolist(), cols.tolist()):
        uf.union(r, n + c)
    components: dict[int, tuple[list[int], list[int]]] = {}
    for r in range(n):
        components.setdefault(uf.find(r), ([], []))[0].append(r)
    for c in range(n):
        components.setdefault(uf.find(n + c), ([], []))[1].append(c)
    return [components[key] for key in sorted(components)]


def _is_integral(matrix: np.ndarray) -> bool:
    """Whether every entry is an exact integer (int/bool dtype or whole floats)."""
    if matrix.dtype.kind in "iub":
        return True
    if matrix.dtype.kind != "f":
        return False
    return bool(np.all(np.isfinite(matrix)) and np.all(matrix == np.rint(matrix)))


def permanent(
    matrix: np.ndarray,
    budget: ComputeBudget | None = None,
) -> int | float:
    """The permanent of a square matrix, by Ryser's formula over blocks.

    Uses Gray-code subset iteration so each of the ``2^n - 1`` subsets
    costs ``O(n)``.  Integral matrices (any int/bool dtype, or floats
    whose entries are whole numbers — every adjacency matrix) are summed
    in arbitrary-precision Python ints and return an exact ``int``; only
    genuinely weighted real matrices take the float path, whose Ryser
    sum can cancel catastrophically near the cap.  Matrices larger than
    a few rows are split into connected blocks first — the permanent is
    the product of block permanents — and only a *block* beyond
    :data:`~repro.graph.exact.RYSER_BLOCK_LIMIT` (22) is infeasible.
    A *budget* (see :class:`repro.budget.ComputeBudget`)
    is polled every 256 Ryser subsets, so deadline-bearing callers can
    cancel a runaway permanent cooperatively.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise GraphError(f"permanent needs a square matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    integral = _is_integral(matrix)

    def ryser(block: np.ndarray) -> int | float:
        if integral:
            return permanent_batch([block], budget=budget)[0]
        return _ryser_float(block, budget=budget)

    if n == 0:
        return 1 if integral else 1.0  # repro-lint: disable=EX001 -- weighted-path identity
    if n <= _SPLIT_MIN:
        return ryser(matrix)
    blocks = _matrix_blocks(matrix)
    if any(len(rows) != len(cols) for rows, cols in blocks):
        # Some rows can only use fewer columns: no permutation survives.
        return 0 if integral else 0.0  # repro-lint: disable=EX001 -- weighted-path zero
    largest = max(len(rows) for rows, _ in blocks)
    if largest > RYSER_BLOCK_LIMIT:
        raise GraphError(
            f"permanent of a {n}x{n} matrix is infeasible: its largest "
            f"connected block has {largest} rows (Ryser limit {RYSER_BLOCK_LIMIT}). "
            "Use exact_strategy / count_matchings_exact (block-ryser, "
            "interval-dp) — or the O-estimate or the simulator"
        )
    if len(blocks) == 1:
        return ryser(matrix)
    result = ryser(matrix[np.ix_(*blocks[0])])
    for rows, cols in blocks[1:]:
        if result == 0:
            return result
        result = result * ryser(matrix[np.ix_(rows, cols)])
    return result


def _ryser_float(matrix: np.ndarray, budget: ComputeBudget | None = None) -> float:  # repro-lint: disable-function=EX001,EX004 -- weighted boundary: real-valued matrices have no exact-int representation
    """Ryser's formula for genuinely weighted (non-integral) matrices.

    Vectorized float arithmetic; subject to cancellation in the
    alternating sum, which is why integral matrices never come here.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if n == 0:
        return 1.0
    row_sums = np.zeros(n, dtype=np.float64)
    total = 0.0
    subset = 0
    subset_size = 0
    for counter in range(1, 1 << n):
        if budget is not None and not (counter & 255):
            budget.checkpoint(256)
        flip = (counter & -counter).bit_length() - 1  # lowest set bit of counter
        bit = 1 << flip
        if subset & bit:
            row_sums -= matrix[:, flip]
            subset_size -= 1
        else:
            row_sums += matrix[:, flip]
            subset_size += 1
        subset ^= bit
        subset_sign = -1.0 if subset_size % 2 else 1.0
        total += subset_sign * float(np.prod(row_sums))
    overall_sign = 1.0 if n % 2 == 0 else -1.0
    return overall_sign * total


def crack_distribution_permanent(space: MappingSpace) -> np.ndarray:  # repro-lint: disable-function=EX001,EX002,EX004 -- probability-law boundary: counts become P(X=k) here
    """``P(X = k)`` by the paper's literal Section 4.1 formula.

    For each candidate crack set ``S`` of size ``k``, remove the nodes of
    ``S`` (those cracks are forced) and the true edges of every other
    item (no further cracks allowed); the permanent of what remains
    counts the matchings whose crack set is exactly ``S``.  Exponential
    in both the subset lattice and the permanents — tiny domains only;
    exists to cross-validate
    :func:`~repro.graph.exact.crack_distribution_exact` and to document
    why the paper abandons the direct method.
    """
    from itertools import combinations

    n = space.n
    if n > 8:
        raise GraphError(
            f"the subset-permanent formula over a {n}-item space is infeasible (limit 8)"
        )
    matrix = space.adjacency_matrix()
    total = permanent(matrix)
    if total == 0:
        raise InfeasibleMatchingError("no consistent perfect matching exists")

    true_edges = [(space.true_partner(i), i) for i in range(n)]
    law = np.zeros(n + 1, dtype=np.float64)
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            chosen = set(subset)
            # Forced cracks must actually be edges.
            if any(matrix[true_edges[i][0], i] == 0.0 for i in chosen):
                continue
            reduced = matrix.copy()
            for i in range(n):
                if i not in chosen:
                    reduced[true_edges[i][0], i] = 0.0  # forbid further cracks
            keep_rows = [j for j in range(n) if j not in {true_edges[i][0] for i in chosen}]
            keep_cols = [i for i in range(n) if i not in chosen]
            minor = reduced[np.ix_(keep_rows, keep_cols)]
            law[k] += permanent(minor)
    return law / total


def enumerate_consistent_matchings(space: MappingSpace) -> Iterator[tuple[int, ...]]:
    """Yield every consistent perfect matching as an item->anon index tuple.

    Items are processed in increasing-outdegree order for pruning; the
    yielded tuples are indexed by item index regardless.  Guarded at
    ``n <= 12``.
    """
    n = space.n
    if n > ENUMERATION_BLOCK_LIMIT:
        raise GraphError(
            f"enumerating matchings of a {n}-item space is infeasible "
            f"(limit {ENUMERATION_BLOCK_LIMIT})"
        )
    order = sorted(range(n), key=space.outdegree)
    candidate_lists = [tuple(space.candidates(i)) for i in range(n)]
    assignment = [-1] * n
    used = [False] * n

    def extend(depth: int) -> Iterator[tuple[int, ...]]:
        if depth == n:
            yield tuple(assignment)
            return
        i = order[depth]
        for j in candidate_lists[i]:
            if not used[j]:
                used[j] = True
                assignment[i] = j
                yield from extend(depth + 1)
                used[j] = False
        assignment[i] = -1

    yield from extend(0)
