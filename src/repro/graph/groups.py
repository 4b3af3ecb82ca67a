"""Group structures over the two sides of the mapping space.

The paper analyzes crack mappings through two partitions (Section 3.2,
Figure 3(b)):

* **frequency groups** — anonymized items grouped by observed frequency
  (:class:`ObservedGroups`); and
* **belief groups** — original items grouped by *which set of frequency
  groups* their belief interval admits (:class:`BeliefGroupPartition`).

Because a belief interval is an interval, the admissible frequency groups
of an item always form a *contiguous run* ``[g_lo, g_hi)`` of the sorted
group frequencies — the key fact behind the ``O(n log n)`` O-estimate
(Figure 5) and the chain analysis (Section 4.2).

The runs also cut the graph into independent *blocks* (maximal segments
of frequency groups no run crosses; see :mod:`repro.graph.blocks`).
:class:`FrequencyAnalysis` builds the belief groups, the blocks and each
block's interval-DP problem together, from run-end arrays.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ObservedGroups",
    "BeliefGroupPartition",
    "BeliefGroup",
    "Block",
    "BlockDecomposition",
    "BlockProblem",
    "FrequencyAnalysis",
]


def _members(group_of: np.ndarray, sizes: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The indices in each group, ascending, for groups ``0..len(sizes)-1``."""
    order = np.argsort(group_of, kind="stable").tolist()
    stops = np.cumsum(sizes).tolist()
    return tuple(tuple(order[start:stop]) for start, stop in zip([0, *stops], stops))


class ObservedGroups:
    """Anonymized items grouped by observed frequency.

    Parameters
    ----------
    observed:
        Sequence of observed frequencies, indexed by anonymized-item index.
    """

    __slots__ = ("freqs", "counts", "prefix", "members", "group_of")

    def __init__(self, observed: Sequence[float]) -> None:
        values = np.asarray(observed, dtype=np.float64).reshape(-1)
        unique, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        self.freqs: tuple[float, ...] = tuple(unique.tolist())
        self.counts: np.ndarray = counts.astype(np.int64)
        # prefix[g] = number of anonymized items in groups 0..g-1
        self.prefix: np.ndarray = np.concatenate(([0], np.cumsum(self.counts)))
        self.group_of: np.ndarray = inverse.reshape(-1).astype(np.int64)
        self.members: tuple[tuple[int, ...], ...] = _members(self.group_of, self.counts)

    def __len__(self) -> int:
        """Number of distinct frequency groups ``k``."""
        return len(self.freqs)

    def group_range(self, low: float, high: float) -> tuple[int, int]:
        """Indices ``[g_lo, g_hi)`` of the groups with frequency in ``[low, high]``."""
        g_lo = bisect_left(self.freqs, low)
        g_hi = bisect_right(self.freqs, high)
        return g_lo, g_hi

    def count_in_range(self, low: float, high: float) -> int:
        """Number of anonymized items with observed frequency in ``[low, high]``.

        This is the outdegree ``O_x`` of an item whose belief interval is
        ``[low, high]`` — computed with two binary searches and a prefix
        sum, as the efficient implementation of Figure 5 requires.
        """
        g_lo, g_hi = self.group_range(low, high)
        return int(self.prefix[g_hi] - self.prefix[g_lo])

    def group_index_of_frequency(self, frequency: float) -> int | None:
        """Group index whose frequency equals *frequency* exactly, else ``None``."""
        g = bisect_left(self.freqs, frequency)
        if g < len(self.freqs) and self.freqs[g] == frequency:
            return g
        return None


@dataclass(frozen=True, slots=True)
class BeliefGroup:
    """A maximal set of items admitting the same run of frequency groups."""

    group_range: tuple[int, int]
    items: tuple[int, ...]


class BeliefGroupPartition:
    """Original items partitioned by admissible frequency-group run.

    Two items belong to the same belief group exactly when the same set of
    anonymized items can map to them (paper, Section 3.2).  With interval
    beliefs that set is determined by the run ``[g_lo, g_hi)``.

    Parameters
    ----------
    runs:
        Per-item ``(g_lo, g_hi)`` admissible runs, indexed by item index.
        :meth:`from_arrays` builds the same partition from run-end arrays.
    """

    __slots__ = ("groups",)

    def __init__(self, runs: Sequence[tuple[int, int]]) -> None:
        by_run: dict[tuple[int, int], list[int]] = defaultdict(list)
        for i, run in enumerate(runs):
            by_run[run].append(i)
        ordered = sorted(by_run.items())
        self.groups: tuple[BeliefGroup, ...] = tuple(
            BeliefGroup(group_range=run, items=tuple(items)) for run, items in ordered
        )

    @classmethod
    def from_arrays(
        cls, g_lo: np.ndarray, g_hi: np.ndarray
    ) -> tuple["BeliefGroupPartition", np.ndarray]:
        """The partition of the runs ``[g_lo[i], g_hi[i])``, and each item's group.

        Runs are ordered as ``(g_lo, g_hi)`` pairs and each group's items
        ascend, so the result equals ``BeliefGroupPartition(runs)``.
        """
        span = int(max(g_lo.max(initial=0), g_hi.max(initial=0))) + 1
        keys = g_lo * span + g_hi
        unique, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        group_of = inverse.reshape(-1).astype(np.int64)
        runs = zip((unique // span).tolist(), (unique % span).tolist())
        partition = cls.__new__(cls)
        partition.groups = tuple(
            BeliefGroup(group_range=run, items=items)
            for run, items in zip(runs, _members(group_of, counts))
        )
        return partition, group_of

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[BeliefGroup]:
        return iter(self.groups)

    def is_chain(self, n_frequency_groups: int) -> bool:
        """True when the partition forms a *chain* (paper, Section 4.2).

        A chain requires every belief group to admit either exactly one
        frequency group or two *successive* frequency groups, with every
        frequency group reachable.
        """
        covered = set()
        for group in self.groups:
            g_lo, g_hi = group.group_range
            width = g_hi - g_lo
            if width not in (1, 2):
                return False
            covered.update(range(g_lo, g_hi))
        return covered == set(range(n_frequency_groups))


@dataclass(frozen=True, slots=True)
class Block:
    """One connected component of the bipartite mapping graph.

    Attributes
    ----------
    item_indices:
        Original-item indices (global, ascending).
    anon_indices:
        Anonymized-item indices (global, ascending).
    group_range:
        For frequency spaces, the global frequency-group segment
        ``[a, b)`` the block covers; ``None`` for explicit spaces.
    """

    item_indices: tuple[int, ...]
    anon_indices: tuple[int, ...]
    group_range: tuple[int, int] | None = None

    @property
    def n(self) -> int:
        return len(self.item_indices)

    @property
    def balanced(self) -> bool:
        return len(self.item_indices) == len(self.anon_indices)


@dataclass(frozen=True)
class BlockDecomposition:
    """All components of a space, plus whether a perfect matching can exist.

    ``matchable`` is a cheap *necessary* condition (every component is
    balanced and every item has at least one candidate); when it is
    ``False`` the permanent is exactly 0 and every exact quantity is
    trivial.  When ``True``, a matching may still fail to exist (Hall's
    condition inside a block) — the per-block engines detect that.
    """

    blocks: tuple[Block, ...]
    matchable: bool
    reason: str | None = None

    @cached_property
    def largest_block(self) -> int:
        return max((block.n for block in self.blocks), default=0)

    @cached_property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(block.n for block in self.blocks)


class BlockProblem(NamedTuple):
    """One frequency block's interval-DP problem, in block-local group indices.

    ``capacities[g]`` is the size of the block's ``g``-th frequency group,
    ``classes`` counts the items per admissible run ``(lo, hi)`` (shared,
    do not mutate) and ``width`` is the widest run.
    """

    capacities: tuple[int, ...]
    classes: Mapping[tuple[int, int], int]
    width: int


class FrequencyAnalysis:
    """The block structure of one frequency space, built once from its runs.

    Everything comes from the read-only run-end arrays of
    :meth:`~repro.graph.bipartite.FrequencyMappingSpace.admissible_runs`
    and the space's frequency groups, with whole-array passes
    (``np.unique``, a difference array, stable argsorts); Python objects
    are made once per group or block, never once per edge.

    Attributes
    ----------
    belief_groups:
        The items partitioned by admissible run (Section 3.2).
    class_of_item:
        Each item's index in ``belief_groups`` (read-only int64).
    decomposition:
        The connected components; equal to the per-item construction
        :func:`repro.graph.blocks._decompose_frequency`, reasons included.
    problems:
        Per block of ``decomposition``, its :class:`BlockProblem`; empty
        when the space is not matchable.
    """

    __slots__ = ("belief_groups", "class_of_item", "decomposition", "problems")

    def __init__(self, g_lo: np.ndarray, g_hi: np.ndarray, groups: ObservedGroups) -> None:
        self.belief_groups, self.class_of_item = BeliefGroupPartition.from_arrays(g_lo, g_hi)
        self.class_of_item.flags.writeable = False
        self.decomposition, self.problems = _frequency_blocks(
            g_lo, g_hi, groups, len(self.belief_groups), self.class_of_item
        )


def _frequency_blocks(
    g_lo: np.ndarray,
    g_hi: np.ndarray,
    groups: ObservedGroups,
    n_classes: int,
    class_of_item: np.ndarray,
) -> tuple[BlockDecomposition, tuple[BlockProblem, ...]]:
    empty = np.flatnonzero(g_hi <= g_lo)
    if len(empty):
        return BlockDecomposition(
            blocks=(),
            matchable=False,
            reason=f"item #{int(empty[0])} admits no frequency group (outdegree 0)",
        ), ()
    k = len(groups)
    # Boundary b (between groups b and b+1) is spanned when some run
    # [g_lo, g_hi) has g_lo <= b < g_hi - 1: +1 at g_lo, -1 at g_hi - 1.
    wide = g_hi - g_lo >= 2
    depth = np.cumsum(
        np.bincount(g_lo[wide], minlength=k) - np.bincount(g_hi[wide] - 1, minlength=k)
    )
    starts = np.concatenate(([0], np.flatnonzero(depth[: k - 1] == 0) + 1))
    stops = np.append(starts[1:], k)
    block_of_group = np.repeat(np.arange(len(starts)), stops - starts)

    item_block = block_of_group[g_lo]
    held = np.bincount(item_block, minlength=len(starts))
    capacity = groups.prefix[stops] - groups.prefix[starts]
    unbalanced = np.flatnonzero(held != capacity)
    if len(unbalanced):
        b = int(unbalanced[0])
        return BlockDecomposition(
            blocks=(),
            matchable=False,
            reason=(
                f"groups [{int(starts[b])}, {int(stops[b])}) hold {int(capacity[b])} "
                f"anonymized items but {int(held[b])} originals can map there"
            ),
        ), ()

    # Balanced: a block holds as many items as anonymized items.
    segments = list(zip(starts.tolist(), stops.tolist()))
    blocks = tuple(
        Block(item_indices=items, anon_indices=anons, group_range=segment)
        for segment, items, anons in zip(
            segments,
            _members(item_block, held),
            _members(block_of_group[groups.group_of], held),
        )
    )

    # Belief groups ascend by run, so each block's classes are one slice.
    class_lo = np.empty(n_classes, dtype=np.int64)
    class_lo[class_of_item] = g_lo
    class_hi = np.empty(n_classes, dtype=np.int64)
    class_hi[class_of_item] = g_hi
    class_block = block_of_group[class_lo]
    widths = np.maximum.reduceat(
        class_hi - class_lo, np.searchsorted(class_block, np.arange(len(segments)))
    )
    classes: list[dict[tuple[int, int], int]] = [{} for _ in segments]
    for b, lo, hi, size in zip(
        class_block.tolist(),
        (class_lo - starts[class_block]).tolist(),
        (class_hi - starts[class_block]).tolist(),
        np.bincount(class_of_item, minlength=n_classes).tolist(),
    ):
        classes[b][(lo, hi)] = size
    counts = groups.counts.tolist()
    problems = tuple(
        BlockProblem(capacities=tuple(counts[a:b]), classes=runs, width=width)
        for (a, b), runs, width in zip(segments, classes, widths.tolist())
    )
    return BlockDecomposition(blocks=blocks, matchable=True), problems
