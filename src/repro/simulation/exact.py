"""Exact i.i.d. sampling of consistent matchings for chain structures.

For chains, the number of shared items crossing each boundary is forced
(``d_i`` of :meth:`repro.core.chain.ChainSpec.correct_to_upper`), so a
*uniform* consistent matching factorizes into independent uniform
choices:

1. for each boundary ``i``, a uniform ``d_i``-subset of the shared group
   decides which items map upward;
2. within each frequency group, a uniform bijection pairs the assigned
   items with the group's anonymized items.

No Markov chain, no burn-in, no autocorrelation — exact independent
samples.  :func:`sample_chain_cracks` is the statistical reference route
that validates the MCMC samplers and the Lemma 5/6 closed form; the
estimate ladder itself (:func:`best_expected_cracks`) takes the closed
form on chains, so it never samples one.
"""

from __future__ import annotations

import math

import numpy as np

from repro.budget import ComputeBudget, PartialEstimate
from repro.core.chain import chain_from_space
from repro.errors import BudgetExceeded, SimulationError
from repro.graph.bipartite import FrequencyMappingSpace, MappingSpace
from repro.graph.marginals import _choose_rung

__all__ = ["sample_chain_cracks", "best_expected_cracks"]


def sample_chain_cracks(
    space: FrequencyMappingSpace,
    n_samples: int,
    rng: np.random.Generator | None = None,
    rao_blackwell: bool = True,
    budget: ComputeBudget | None = None,
) -> np.ndarray:
    """Draw exact i.i.d. crack counts from a chain-structured space.

    Parameters
    ----------
    space:
        A mapping space whose belief groups form a chain
        (:func:`repro.core.chain.chain_from_space` must succeed).
    n_samples:
        Number of independent samples.
    rao_blackwell:
        Return the group-conditional expectation per sample (exact given
        the sampled boundary subsets) instead of a raw crack count.

    Returns
    -------
    Array of ``n_samples`` values whose mean estimates ``E[X]`` without
    any MCMC error.
    """
    if n_samples <= 0:
        raise SimulationError("n_samples must be positive")
    rng = np.random.default_rng() if rng is None else rng
    spec = chain_from_space(space)  # validates the chain structure
    flows = spec.correct_to_upper()
    k = len(space.groups)
    by_run = {group.group_range: group.items for group in space.belief_groups()}
    shared = [by_run.get((g, g + 2), ()) for g in range(k - 1)]
    exclusive = [by_run.get((g, g + 1), ()) for g in range(k)]
    true_group = np.array([space.true_group(i) for i in range(space.n)], dtype=np.int64)
    # An exclusive item always sits in its one admissible group: a hit
    # when that group is its true one.
    exclusive_hits = np.array(
        [sum(int(true_group[i]) == g for i in exclusive[g]) for g in range(k)],
        dtype=np.int64,
    )
    inv_size = 1.0 / space.groups.counts

    samples = np.empty(n_samples, dtype=np.float64)
    for sample_index in range(n_samples):
        if budget is not None:
            try:
                budget.checkpoint(max(space.n, 1))
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    str(exc),
                    partial=_chain_partial(samples[:sample_index], exc.reason),
                    reason=exc.reason,
                ) from exc
        # Assigned-to-true-group tallies, seeded with the exclusives.
        hits = exclusive_hits.copy()
        assigned_items: list[list[int]] | None = None
        if not rao_blackwell:
            assigned_items = [list(exclusive[g]) for g in range(k)]
        for boundary, members in enumerate(shared):
            t_i = flows[boundary]
            up = set()
            if t_i:
                picks = rng.choice(len(members), size=t_i, replace=False)
                up = {members[int(p)] for p in picks}
            for item in members:
                assigned = boundary + 1 if item in up else boundary
                if true_group[item] == assigned:
                    hits[assigned] += 1
                if assigned_items is not None:
                    assigned_items[assigned].append(item)
        if rao_blackwell:
            samples[sample_index] = float((hits * inv_size).sum())
        else:
            cracks = 0
            for g in range(k):
                members = assigned_items[g]
                permutation = rng.permutation(len(members))
                anon_members = space.groups.members[g]
                for position, item in enumerate(members):
                    if space.true_partner(item) == anon_members[int(permutation[position])]:
                        cracks += 1
            samples[sample_index] = float(cracks)
    return samples


def _chain_partial(collected: np.ndarray, reason: str) -> PartialEstimate | None:
    """Partial estimate over the i.i.d. chain samples drawn so far."""
    n = int(collected.size)
    if n == 0:
        return None
    mean = float(collected.mean())
    std_error = float(collected.std(ddof=1) / math.sqrt(n)) if n >= 2 else 0.0
    return PartialEstimate(
        value=mean,
        std_error=std_error,
        sweeps_completed=n,
        rung="chain-sampler",
        reason=reason,
    )


def best_expected_cracks(
    space: MappingSpace,
    rng: np.random.Generator | None = None,
    budget: ComputeBudget | None = None,
) -> tuple[float, float, str]:
    """Estimate ``E[X]`` by the first rung of the estimate ladder that runs.

    The ladder is the one :func:`crack_marginals` ``"auto"`` uses: the
    structure-exploiting exact engine (when its cost gate,
    :func:`repro.graph.exact.gated_marginals`, runs it), then the chain
    closed form (Lemmas 5–6), then MCMC (Gibbs on frequency spaces,
    swap otherwise).  The exact rungs return the sum of their
    marginals, so on an engine-priced space the value is bit-identical
    to :func:`~repro.graph.exact.expected_cracks_exact`.

    Returns ``(estimate, standard_error, strategy)`` where *strategy* is
    the plan name on the engine's rung (``"interval-dp"``,
    ``"block-ryser"``, ...), ``"chain"``, or ``"mcmc-gibbs"`` /
    ``"mcmc-swap"``; exact rungs report a standard error of 0.

    When *budget* (a :class:`~repro.budget.ComputeBudget`) runs out
    inside the engine, the ladder degrades one rung instead of failing.
    Exhaustion inside the sampling rung propagates
    :class:`~repro.errors.BudgetExceeded` carrying the partial estimate
    accumulated so far.
    """
    rung, marginals = _choose_rung(space, budget)
    if marginals is not None:
        return float(marginals.sum()), 0.0, rung
    from repro.simulation.estimate import simulate_expected_cracks

    method = rung.removeprefix("mcmc-")
    result = simulate_expected_cracks(
        space, rng=rng, rao_blackwell=method == "gibbs", method=method, budget=budget
    )
    return result.mean, result.std, rung
