"""Block-Gibbs sampling of consistent matchings at the group level.

A uniform random consistent perfect matching factorizes over the
frequency-group structure: every capacity-respecting assignment of items
to admissible frequency groups is realized by exactly ``prod_g n_g!``
matchings (the within-group bijections), so the uniform distribution over
matchings induces the *uniform* distribution over valid assignments, with
independent uniform within-group bijections given the assignment.

:class:`GibbsAssignmentSampler` exploits this: its state is the
item-to-group assignment, and one move resamples, for a random adjacent
group pair ``(g, g+1)``, the placement of all items currently in the pair
that admit both groups — a heat-bath step whose conditional is uniform
over subsets, because all completions carry equal weight.  Reshuffling a
whole boundary per step mixes dramatically faster than the paper's
single-transposition swap chain (see ``bench_ablations``), while
targeting exactly the same distribution.

Interval beliefs make every admissible set a contiguous run of groups, so
adjacent-pair moves connect the state space: any unit of "flow" between
two groups of an item's run can be routed through the intermediate
boundaries step by step.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

import numpy as np

from repro.budget import ComputeBudget
from repro.errors import FormatError, SimulationError
from repro.graph.bipartite import FrequencyMappingSpace
from repro.graph.matching import group_feasible_matching

__all__ = ["GibbsAssignmentSampler"]


class GibbsAssignmentSampler:
    """Heat-bath sampler over item-to-frequency-group assignments.

    Parameters
    ----------
    space:
        A frequency mapping space (the group factorization requires it).
    rng:
        Randomness source.
    seed_with_truth:
        Start from the ground-truth assignment where consistent (mirrors
        the paper's all-cracked seed); otherwise from an arbitrary
        feasible assignment.
    """

    #: Sweeps :meth:`draws` discards before its first draw.
    BURN_IN_SWEEPS = 30
    #: Sweeps :meth:`draws` runs before each draw.
    THINNING_SWEEPS = 2

    def __init__(
        self,
        space: FrequencyMappingSpace,
        rng: np.random.Generator | None = None,
        seed_with_truth: bool = True,
    ):
        if not isinstance(space, FrequencyMappingSpace):
            raise SimulationError("the Gibbs sampler needs a frequency mapping space")
        self.space = space
        self.rng = np.random.default_rng() if rng is None else rng
        self.n = space.n
        self.k = len(space.groups)

        matching = group_feasible_matching(
            space, prefer_truth=seed_with_truth, rng=None if seed_with_truth else self.rng
        )
        group_of_anon = space.groups.group_of
        self._assign: np.ndarray = group_of_anon[matching].astype(np.int64)

        self._g_lo = np.array([space.admissible_run(i)[0] for i in range(self.n)])
        self._g_hi = np.array([space.admissible_run(i)[1] for i in range(self.n)])
        self._true_group = np.array(
            [space.true_group(i) for i in range(self.n)], dtype=np.int64
        )
        self._true_partner = np.array(
            [space.true_partner(i) for i in range(self.n)], dtype=np.int64
        )
        counts = space.groups.counts
        self._inv_group_size = 1.0 / counts[self._true_group]
        self._counts = counts.astype(np.int64)
        self._anon_members = [
            np.asarray(space.groups.members[g], dtype=np.int64) for g in range(self.k)
        ]
        # Per-boundary candidate arrays: the items whose admissible run
        # spans boundary g (may sit in group g or g+1 and admits both).
        # Precomputing these turns the inner sweep into pure array ops.
        self._spans: list[np.ndarray] = [
            np.flatnonzero((self._g_lo <= g) & (self._g_hi > g + 1))
            for g in range(max(self.k - 1, 0))
        ]

    # -- chain ----------------------------------------------------------------

    def _resample_boundary(self, g: int) -> None:
        """Heat-bath reshuffle of the flexible items across groups g, g+1."""
        span = self._spans[g]
        assign_span = self._assign[span]
        at_g = assign_span == g
        flexible = span[at_g | (assign_span == g + 1)]
        if flexible.size < 2:
            return
        quota_g = int(at_g.sum())
        order = self.rng.permutation(flexible.size)
        self._assign[flexible] = g + 1
        self._assign[flexible[order[:quota_g]]] = g

    def sweep(self, n_sweeps: int = 1, budget: ComputeBudget | None = None) -> int:
        """Run passes over all adjacent boundaries in random order.

        Returns the number of boundary moves attempted (for symmetry with
        the swap sampler's diagnostics).

        When *budget* is given, every boundary move makes a cheap
        :meth:`~repro.budget.ComputeBudget.checkpoint` call and every
        completed sweep a :meth:`~repro.budget.ComputeBudget.sweep_tick`;
        a sweep-quota interruption therefore always lands exactly on a
        sweep boundary, which is what makes :meth:`snapshot` /
        :meth:`restore` bit-identical under interruption.
        """
        moves = 0
        for _ in range(n_sweeps):
            if self.k < 2:
                break
            for g in self.rng.permutation(self.k - 1):
                if budget is not None:
                    budget.checkpoint()
                self._resample_boundary(int(g))
                moves += 1
            if budget is not None:
                budget.sweep_tick()
        return moves

    def draws(self, n_draws: int) -> Iterator[np.ndarray]:
        """Yield *n_draws* thinned assignments after the burn-in.

        The draw loop of every marginal estimate built on this sampler:
        :attr:`BURN_IN_SWEEPS` sweeps, then :attr:`THINNING_SWEEPS`
        sweeps before each draw.  Each draw is a copy of the assignment.
        """
        self.sweep(self.BURN_IN_SWEEPS)
        for _ in range(n_draws):
            self.sweep(self.THINNING_SWEEPS)
            yield self.assignment

    # -- checkpoint/resume ----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable snapshot of the chain state.

        Captures the item-to-group assignment and the exact bit-generator
        state, so a restored sampler continues the *identical* random
        stream: interrupt-at-any-sweep + resume reproduces an
        uninterrupted run bit for bit.
        """
        return {
            "type": "gibbs_snapshot",
            "n": int(self.n),
            "k": int(self.k),
            "assignment": [int(g) for g in self._assign],
            "rng_state": self.rng.bit_generator.state,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Restore chain state from a :meth:`snapshot` payload (in place)."""
        if not isinstance(snapshot, Mapping) or snapshot.get("type") != "gibbs_snapshot":
            raise FormatError(f"not a gibbs_snapshot payload: {type(snapshot)!r}")
        if int(snapshot["n"]) != self.n or int(snapshot["k"]) != self.k:
            raise SimulationError(
                "snapshot shape mismatch: snapshot is for "
                f"n={snapshot['n']}, k={snapshot['k']}; space has n={self.n}, k={self.k}"
            )
        assignment = np.asarray(snapshot["assignment"], dtype=np.int64)
        if assignment.shape != self._assign.shape:
            raise SimulationError("snapshot assignment length mismatch")
        self._assign = assignment.copy()
        state = snapshot["rng_state"]
        self.rng.bit_generator.state = dict(state) if isinstance(state, Mapping) else state
        if not self.check_consistency():
            raise SimulationError("snapshot restores an inconsistent assignment")

    @classmethod
    def from_snapshot(
        cls, space: FrequencyMappingSpace, snapshot: Mapping[str, Any]
    ) -> "GibbsAssignmentSampler":
        """Build a sampler over *space* and restore *snapshot* into it."""
        sampler = cls(space, rng=np.random.default_rng(0), seed_with_truth=True)
        sampler.restore(snapshot)
        return sampler

    # -- observables ---------------------------------------------------------

    @property
    def assignment(self) -> np.ndarray:
        """The current item-to-group assignment (copy)."""
        return self._assign.copy()

    def rao_blackwell_cracks(self) -> float:
        """Expected cracks given the current group assignment."""
        in_true_group = self._assign == self._true_group
        return float(self._inv_group_size[in_true_group].sum())

    def crack_count(self) -> int:
        """A raw crack count: sample the within-group bijections uniformly."""
        cracks = 0
        order = np.argsort(self._assign, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(np.bincount(self._assign, minlength=self.k))))
        for g in range(self.k):
            members = order[offsets[g] : offsets[g + 1]]
            size = members.size
            if size == 0:
                continue
            # Uniform bijection between assigned items and the group's
            # anonymized slots: an item is cracked when it lands on its
            # true partner, which requires its true group to be g.
            slots = self.rng.permutation(size)
            anons = self._anon_members[g][slots]
            cracks += int(np.count_nonzero(anons == self._true_partner[members]))
        return cracks

    def check_consistency(self) -> bool:
        """Verify capacities and admissibility — a test/debug aid."""
        occupancy = np.bincount(self._assign, minlength=self.k)
        if occupancy.size > self.k or not np.array_equal(occupancy, self._counts):
            return False
        admissible = (self._g_lo <= self._assign) & (self._assign < self._g_hi)
        return bool(admissible.all())
