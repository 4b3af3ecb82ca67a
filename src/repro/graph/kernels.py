"""Vectorized exact Ryser kernels: chunked Gray-code walks in numpy.

:func:`ryser_int_python` is the historical reference — Ryser's formula
with Gray-code subset iteration, every add and multiply executed as
Python bytecode on arbitrary-precision ints.  Exact, but the interpreter
overhead (``~2n`` bytecode ops per subset) dominates the arithmetic.

:func:`permanent_batch` is the one integer Ryser entry.  It groups its
square matrices by size and evaluates each group's ``2^n - 1`` subsets
in fixed-size chunks with a leading block axis: a chunk of Gray-code
steps becomes one ``(C, blocks, n)`` signed column-update tensor, the
running row sums become a single ``np.cumsum``, and the per-subset
products collapse to ``np.prod`` calls over row *segments*.  The chunk
work amortizes over every block of a group at once, so the small
explicit blocks a decomposed space produces share one tensor pass.
The exact-int invariant survives vectorization through two guards:

* **int64 fast path** — per-row bounds ``R_i = Σ_j |a_ij|`` (the
  maximum over the group) cap every possible row sum; rows are greedily
  packed into segments whose bound product stays below ``2^62``, so
  each segment's ``np.prod`` can never overflow a signed 64-bit lane.
* **exact combination** — segment products are multiplied and the chunk
  is summed in Python ints (object dtype) unless the whole chunk
  provably fits int64; the grand total across chunks is always a Python
  int.

Groups too small to amortize numpy setup (fewer than ``2^10`` subsets
times blocks), matrices whose entries have no exact int64 form, and
groups where a single row's bound already exceeds 62 bits take the
pure-Python reference instead — the fast path is an optimization, never
a semantics change, and the tests pin bit-identity between the two.
"""

from __future__ import annotations

import numpy as np

from repro.budget import ComputeBudget
from repro.errors import GraphError

__all__ = [
    "CHUNK_SUBSETS",
    "ryser_int_python",
    "permanent_batch",
]

#: Gray-code steps evaluated per vectorized chunk.  Measured on the CI
#: container: throughput climbs until ~1024 steps (numpy dispatch
#: amortized) and flattens after, while the working set
#: (chunk x blocks x n int64) stays inside L2.
CHUNK_SUBSETS = 1024

#: A single matrix's 2^n walk is too short to amortize numpy setup below
#: n = 10 (measured crossover n≈9–10), and a batched walk amortizes over
#: the block axis too, so the chunked walk runs once blocks x subsets
#: reaches 2^10, provided the per-step tensors aren't degenerate.
BATCH_MIN_SUBSETS = 1 << 10
BATCH_MIN_N = 6

#: Signed products must stay clear of int64 overflow; one bit of
#: headroom below the 63 value bits keeps every lane provably safe.
_INT64_SAFE_BITS = 62


def ryser_int_python(matrix: np.ndarray, budget: ComputeBudget | None = None) -> int:
    """Ryser's formula in pure-Python exact-int arithmetic (reference).

    perm(A) = (-1)^n * sum over non-empty column subsets S of
    (-1)^|S| * prod_i sum_{j in S} a[i, j].  Gray-code iteration keeps a
    running row-sum vector so each subset costs O(n); arbitrary-precision
    ints make the alternating sum exact where a float version loses
    digits to cancellation.
    """
    n = matrix.shape[0]
    if n == 0:
        return 1
    columns = [[int(value) for value in matrix[:, j]] for j in range(n)]
    row_sums = [0] * n
    total = 0
    subset = 0
    subset_size = 0
    for counter in range(1, 1 << n):
        if budget is not None and not (counter & 255):
            budget.checkpoint(256)
        flip = (counter & -counter).bit_length() - 1  # lowest set bit of counter
        bit = 1 << flip
        column = columns[flip]
        if subset & bit:
            for i in range(n):
                row_sums[i] -= column[i]
            subset_size -= 1
        else:
            for i in range(n):
                row_sums[i] += column[i]
            subset_size += 1
        subset ^= bit
        product = 1
        for value in row_sums:
            if value == 0:
                product = 0
                break
            product *= value
        total += -product if subset_size % 2 else product
    return total if n % 2 == 0 else -total


def _as_exact_int64(matrix: np.ndarray) -> np.ndarray | None:
    """The matrix as a bit-exact int64 array, or ``None`` when it isn't.

    Integral float matrices (every adjacency matrix) convert exactly as
    long as the entries fit 53 bits; object arrays of big Python ints
    and out-of-range values return ``None`` so callers take the
    pure-Python path instead of silently truncating.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype == np.int64:
        return matrix
    try:
        as_int = matrix.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        return None
    if matrix.dtype.kind == "f" and np.any(np.abs(matrix) >= 2**53):
        return None  # beyond float53, == comparison can't certify exactness
    if np.array_equal(as_int, matrix):
        return as_int
    return None


def _row_segments(row_bounds: list[int]) -> list[list[int]] | None:
    """Pack rows into segments whose bound product stays int64-safe.

    *row_bounds* holds ``R_i = Σ_j |a_ij|`` — no subset row sum can
    exceed it, so a segment with ``Σ bit_length(R_i) <= 62`` has
    ``|Π row_sums| < 2^62`` for every subset.  Returns ``None`` when one
    row alone blows the bound (the caller falls back to pure Python).
    """
    segments: list[list[int]] = []
    current: list[int] = []
    bits = 0
    for i, bound in enumerate(row_bounds):
        b = max(1, int(bound)).bit_length()
        if b > _INT64_SAFE_BITS:
            return None
        if bits + b > _INT64_SAFE_BITS and current:
            segments.append(current)
            current, bits = [], 0
        current.append(i)
        bits += b
    if current:
        segments.append(current)
    return segments


def _trailing_zeros(counters: np.ndarray) -> np.ndarray:
    """Vectorized count of trailing zero bits (the Gray flip index)."""
    flips = np.zeros(counters.shape, dtype=np.int64)
    rem = counters.copy()
    pending = (rem & 1) == 0
    while pending.any():
        flips[pending] += 1
        rem[pending] >>= 1
        pending &= (rem & 1) == 0
    return flips


def _segment_bits(row_bounds: list[int], rows: list[int]) -> int:
    return sum(max(1, int(row_bounds[i])).bit_length() for i in rows)


def _gray_walk_chunked(
    stack: np.ndarray,
    row_bounds: list[int],
    segments: list[list[int]],
    budget: ComputeBudget | None,
    chunk: int,
) -> list[int]:
    """The chunked Gray-code walk over a ``(blocks, n, n)`` int64 stack.

    Returns one exact permanent per block.  All chunk arithmetic is
    int64 inside the overflow-guarded segments; cross-segment products
    and the chunk sum run on Python ints (object dtype) unless the whole
    chunk provably fits a signed 64-bit accumulator.
    """
    n_blocks, n, _ = stack.shape
    totals = [0] * n_blocks
    # One int64 accumulator for the whole chunk is safe only when the
    # largest |signed product| times the chunk length cannot reach 2^63.
    chunk_bits = max(1, chunk - 1).bit_length()
    int64_sum_safe = (
        len(segments) == 1
        and _segment_bits(row_bounds, segments[0]) + chunk_bits <= _INT64_SAFE_BITS
    )
    row_sums = np.zeros((n_blocks, n), dtype=np.int64)
    counter = 1
    end = 1 << n
    while counter < end:
        hi = min(counter + chunk, end)
        if budget is not None:
            budget.checkpoint(hi - counter)
        steps = np.arange(counter, hi, dtype=np.int64)
        flips = _trailing_zeros(steps)
        gray = steps ^ (steps >> 1)
        directions = np.where((gray >> flips) & 1 == 1, 1, -1).astype(np.int64)
        # delta[t, b, :] = directions[t] * column flips[t] of block b
        delta = np.transpose(stack[:, :, flips], (2, 0, 1)) * directions[:, None, None]
        cumulative = row_sums[None, :, :] + np.cumsum(delta, axis=0)
        row_sums = cumulative[-1]
        # Subset-size parity alternates with the counter (each Gray step
        # toggles exactly one bit), so the Ryser sign is just counter&1.
        signs = np.where((steps & 1) == 1, -1, 1).astype(np.int64)
        first = np.prod(cumulative[:, :, segments[0]], axis=2)  # (C, B) int64
        first *= signs[:, None]  # |values| < 2^62, sign flip cannot overflow
        if int64_sum_safe:
            chunk_totals = first.sum(axis=0)  # provably < 2^63
            for b in range(n_blocks):
                totals[b] += int(chunk_totals[b])
        else:
            combined = first.astype(object)
            for rows in segments[1:]:
                combined = combined * np.prod(cumulative[:, :, rows], axis=2)
            chunk_totals = combined.sum(axis=0)
            for b in range(n_blocks):
                totals[b] += int(chunk_totals[b])
        counter = hi
    if n % 2:
        totals = [-t for t in totals]
    return totals


def permanent_batch(
    matrices: list[np.ndarray],
    budget: ComputeBudget | None = None,
    chunk: int = CHUNK_SUBSETS,
) -> list[int]:
    """Exact permanents of square integral matrices, one tensor pass per size.

    Matrices of any sizes may be mixed: they are grouped by size, in
    order of first appearance, and each group's Gray-code walk runs once
    with a leading block axis.  Results come back in input order and are
    bit-identical to per-matrix :func:`ryser_int_python`.  A batch of one
    takes the pure-Python walk below n = 10 and the chunked walk from
    there on.
    """
    arrays = [np.asarray(m) for m in matrices]
    by_size: dict[int, list[int]] = {}
    for index, array in enumerate(arrays):
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise GraphError(
                f"permanent_batch needs square matrices, got shape {array.shape}"
            )
        by_size.setdefault(array.shape[0], []).append(index)
    results = [1] * len(arrays)
    for n, indices in by_size.items():
        values = _same_size_permanents(n, [arrays[i] for i in indices], budget, chunk)
        for index, value in zip(indices, values):
            results[index] = value
    return results


def _same_size_permanents(
    n: int, arrays: list[np.ndarray], budget: ComputeBudget | None, chunk: int
) -> list[int]:
    """Permanents of ``n x n`` matrices: one chunked walk over those with
    an exact int64 form, the reference for the rest."""
    if n == 0:
        return [1] * len(arrays)
    results = [0] * len(arrays)
    batched: list[tuple[int, np.ndarray]] = []
    for index, array in enumerate(arrays):
        ints = _as_exact_int64(array)
        if ints is None:
            results[index] = ryser_int_python(array, budget=budget)
        else:
            batched.append((index, ints))
    if n >= BATCH_MIN_N and (1 << n) * len(batched) >= BATCH_MIN_SUBSETS:
        stack = np.stack([ints for _, ints in batched])
        # A shared segmentation must be safe for every block: bound each
        # row by its maximum across the batch.
        bound_matrix = np.abs(stack.astype(object)).sum(axis=2)
        row_bounds = [int(v) for v in bound_matrix.max(axis=0)]
        segments = _row_segments(row_bounds)
        if segments is not None:
            walked = _gray_walk_chunked(stack, row_bounds, segments, budget, chunk)
            for (index, _), value in zip(batched, walked):
                results[index] = value
            return results
    for index, ints in batched:
        results[index] = ryser_int_python(ints, budget=budget)
    return results
