"""Exact i.i.d. sampling of consistent matchings for chain structures.

For chains, the number of shared items crossing each boundary is forced
(see :func:`repro.core.chain._upward_flows`), so a *uniform* consistent
matching factorizes into independent uniform choices:

1. for each boundary ``i``, a uniform ``t_i``-subset of the shared group
   decides which items map upward;
2. within each frequency group, a uniform bijection pairs the assigned
   items with the group's anonymized items.

No Markov chain, no burn-in, no autocorrelation — exact independent
samples.  Used to validate the MCMC samplers and the Lemma 5/6 formulas,
and as the fastest simulator whenever the belief function happens to
form a chain (which includes every uniform-width belief whose intervals
never span more than two groups).
"""

from __future__ import annotations

import math

import numpy as np

from repro.budget import ComputeBudget, PartialEstimate
from repro.core.chain import chain_from_space
from repro.errors import BudgetExceeded, NotAChainError, SimulationError
from repro.graph.bipartite import FrequencyMappingSpace, MappingSpace
from repro.graph.exact import gated_marginals

__all__ = [
    "sample_chain_cracks",
    "simulate_chain_expected_cracks",
    "best_expected_cracks",
]


def _boundary_membership(space: FrequencyMappingSpace):
    """Per-boundary shared-item index lists and per-group exclusive lists."""
    k = len(space.groups)
    shared: list[list[int]] = [[] for _ in range(max(0, k - 1))]
    exclusive: list[list[int]] = [[] for _ in range(k)]
    for i in range(space.n):
        g_lo, g_hi = space.admissible_run(i)
        width = g_hi - g_lo
        if width == 1:
            exclusive[g_lo].append(i)
        elif width == 2:
            shared[g_lo].append(i)
        else:
            raise NotAChainError("an item admits more than two frequency groups")
    return shared, exclusive


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
        A compliant mapping space whose belief groups form a chain
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
    flows = []
    t_prev = 0
    for i in range(spec.k - 1):
        t_i = spec.shared_sizes[i] + spec.exclusive_sizes[i] + t_prev - spec.group_sizes[i]
        flows.append(t_i)
        t_prev = t_i

    shared, exclusive = _boundary_membership(space)
    true_group = np.array([space.true_group(i) for i in range(space.n)], dtype=np.int64)
    counts = space.groups.counts
    inv_size = 1.0 / counts

    samples = np.empty(n_samples, dtype=np.float64)
    k = len(space.groups)
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
        # Assigned-to-true-group tallies, seeded with the exclusives
        # (an exclusive item is always assigned its only — true — group).
        hits = np.zeros(k, dtype=np.int64)
        assigned_items: list[list[int]] | None = None
        if not rao_blackwell:
            assigned_items = [list(exclusive[g]) for g in range(k)]
        for g in range(k):
            hits[g] += len(exclusive[g])
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


def simulate_chain_expected_cracks(
    space: FrequencyMappingSpace,
    n_samples: int = 1000,
    rng: np.random.Generator | None = None,
    rao_blackwell: bool = True,
    budget: ComputeBudget | None = None,
) -> tuple[float, float]:
    """Mean and standard error of the exact chain sampler's estimate."""
    samples = sample_chain_cracks(
        space, n_samples, rng=rng, rao_blackwell=rao_blackwell, budget=budget
    )
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(len(samples)))


def best_expected_cracks(
    space: MappingSpace,
    n_samples: int = 1000,
    rng: np.random.Generator | None = None,
    budget: ComputeBudget | None = None,
) -> tuple[float, float, str]:
    """Estimate ``E[X]`` by the best rung of the strategy ladder.

    Tries, in order: the structure-exploiting exact engine (when its
    cost gate, :func:`repro.graph.exact.gated_marginals`, runs it), the
    exact i.i.d. chain sampler, then MCMC (Gibbs on frequency spaces,
    swap otherwise).

    Returns ``(estimate, standard_error, strategy)`` where *strategy* is
    the plan name for exact rungs (``"interval-dp"``, ``"block-ryser"``,
    ...), ``"chain-sampler"``, or ``"mcmc-gibbs"`` / ``"mcmc-swap"``;
    exact rungs report a standard error of 0.

    When *budget* (a :class:`~repro.budget.ComputeBudget`) runs out
    inside an exact rung, the ladder degrades one rung instead of
    failing: the sampling rungs can still deliver a bounded estimate in
    whatever time remains.  Exhaustion inside a sampling rung propagates
    :class:`~repro.errors.BudgetExceeded` carrying the partial estimate
    accumulated so far.
    """
    plan, marginals = gated_marginals(space, budget)
    if marginals is not None:
        return float(marginals.sum()), 0.0, plan.strategy
    if isinstance(space, FrequencyMappingSpace):
        try:
            mean, stderr = simulate_chain_expected_cracks(
                space, n_samples, rng=rng, budget=budget
            )
            return mean, stderr, "chain-sampler"
        except NotAChainError:
            pass
    from repro.simulation.estimate import simulate_expected_cracks

    method = "gibbs" if isinstance(space, FrequencyMappingSpace) else "swap"
    result = simulate_expected_cracks(
        space, rng=rng, rao_blackwell=True, method=method, budget=budget
    )
    return result.mean, result.std, f"mcmc-{method}"
