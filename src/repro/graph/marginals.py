"""Crack marginals: ``P(x is cracked)`` under a uniform consistent mapping.

The expected number of cracks is the sum of per-item crack
probabilities; this module computes the per-item values themselves, as
the public :func:`crack_marginals` (the attack workbench's guesses run
their own Gibbs tallies and the risk profile uses ``1/O_x``, so nothing
else in the package calls it).  Three methods, dispatched by structure:

* **chain** — closed form: the boundary flows of a chain are forced, so
  a shared item maps to its true group with probability ``c_i/s_i`` or
  ``d_i/s_i`` and within the group uniformly (exact, ``O(n)``);
* **exact** — the structure-exploiting engine of
  :mod:`repro.graph.exact`: block decomposition plus interval DP on
  frequency blocks, Ryser minors on small explicit blocks.  ``auto``
  runs it when the engine's one cost gate,
  :func:`~repro.graph.exact.gated_marginals`, does;
* **mcmc** — indicator averages from the Gibbs sampler (general
  frequency spaces) or the swap sampler (explicit spaces).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError, NotAChainError
from repro.graph.bipartite import FrequencyMappingSpace, MappingSpace
from repro.graph.exact import crack_marginals_exact, gated_marginals

__all__ = ["crack_marginals"]


def _chain_marginals(space: FrequencyMappingSpace) -> np.ndarray:
    from repro.core.chain import chain_from_space  # repro-lint: disable=LY002 -- strategy-ladder upcall: lazy, so graph stays importable without core

    spec = chain_from_space(space)  # raises NotAChainError when not a chain
    lower = spec.correct_to_lower()
    counts = space.groups.counts
    marginals = np.zeros(space.n, dtype=np.float64)
    for i in range(space.n):
        g_lo, g_hi = space.admissible_run(i)
        true_group = space.true_group(i)
        group_size = int(counts[true_group])
        if g_hi - g_lo == 1:
            marginals[i] = 1.0 / group_size
            continue
        boundary = g_lo
        s_i = spec.shared_sizes[boundary]
        c_i = lower[boundary]
        in_lower = true_group == boundary
        stay_probability = (c_i / s_i) if in_lower else ((s_i - c_i) / s_i)
        marginals[i] = stay_probability / group_size
    return marginals


def _mcmc_marginals(
    space: MappingSpace,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    from repro.simulation.gibbs import GibbsAssignmentSampler  # repro-lint: disable=LY002 -- strategy-ladder upcall: the mcmc method delegates to the simulator
    from repro.simulation.sampler import MatchingSampler  # repro-lint: disable=LY002 -- strategy-ladder upcall: the mcmc method delegates to the simulator

    hits = np.zeros(space.n, dtype=np.float64)
    if isinstance(space, FrequencyMappingSpace):
        sampler = GibbsAssignmentSampler(space, rng=rng)
        sampler.sweep(30)
        true_group = np.array([space.true_group(i) for i in range(space.n)])
        inv_size = 1.0 / space.groups.counts
        for _ in range(n_samples):
            sampler.sweep(2)
            assignment = sampler.assignment
            in_true = assignment == true_group
            # Rao-Blackwellized indicator: P(crack | group assignment).
            hits[in_true] += inv_size[true_group[in_true]]
    else:
        sampler = MatchingSampler(space, rng=rng)
        sampler.sweep(50)
        truth = [space.true_partner(i) for i in range(space.n)]
        for _ in range(n_samples):
            sampler.sweep(3)
            matching = sampler.matching
            for i in range(space.n):
                if matching[i] == truth[i]:
                    hits[i] += 1.0
    return hits / n_samples


def crack_marginals(
    space: MappingSpace,
    method: str = "auto",
    n_samples: int = 500,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-item crack probabilities under the uniform-mapping model.

    Parameters
    ----------
    space:
        The consistent-mapping space.
    method:
        ``"auto"`` (chain closed form if possible, exact if the cost
        gate runs it, else MCMC), or one of ``"chain"``, ``"exact"``, ``"mcmc"``.
    n_samples, rng:
        MCMC budget and randomness.

    Returns
    -------
    Array aligned with ``space.items``; its sum is (an estimate of)
    ``E[X]``, and it agrees with :func:`expected_cracks_direct` exactly
    for the chain/exact methods.
    """
    rng = np.random.default_rng() if rng is None else rng
    if method not in ("auto", "chain", "exact", "mcmc"):
        raise GraphError(f"unknown marginal method {method!r}")
    if method == "chain" or method == "auto":
        if isinstance(space, FrequencyMappingSpace):
            try:
                return _chain_marginals(space)
            except NotAChainError:
                if method == "chain":
                    raise
        elif method == "chain":
            raise NotAChainError("chain marginals need a frequency mapping space")
    if method == "exact":
        return crack_marginals_exact(space)
    if method == "auto":
        plan, marginals = gated_marginals(space)
        if not plan.matchable:
            raise GraphError("no consistent perfect matching exists")
        if marginals is not None:
            return marginals
    return _mcmc_marginals(space, n_samples, rng)
