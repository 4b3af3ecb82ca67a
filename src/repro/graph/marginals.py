"""Crack marginals and the estimate ladder.

``P(x is cracked)`` under a uniform consistent mapping, per item; the
expected number of cracks is their sum.  Three methods compute them:

* **exact** — the structure-exploiting engine of
  :mod:`repro.graph.exact`: block decomposition plus interval DP on
  frequency blocks, Ryser minors on small explicit blocks;
* **chain** — closed form (Lemmas 5–6): the boundary flows of a chain
  are forced, so a shared item maps to its true group with probability
  ``c_i/s_i`` or ``d_i/s_i`` and within the group uniformly (``O(n)``);
* **mcmc** — indicator averages from the Gibbs sampler (general
  frequency spaces) or the swap sampler (explicit spaces).

Outside the served recipe, one ladder picks among them (:func:`_choose_rung`):
the exact engine when its one cost gate,
:func:`~repro.graph.exact.gated_marginals`, runs it, else the chain
closed form when the space is a chain, else MCMC.
``crack_marginals(method="auto")`` returns the chosen rung's per-item
values and :func:`repro.simulation.best_expected_cracks` sums them.
"""

from __future__ import annotations

import numpy as np

from repro.budget import ComputeBudget
from repro.errors import GraphError, InfeasibleMatchingError, NotAChainError
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
        if not g_lo <= true_group < g_hi:
            continue  # the belief misses the item's true group: never cracked
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
        true_group = np.array([space.true_group(i) for i in range(space.n)])
        inv_size = 1.0 / space.groups.counts
        for assignment in GibbsAssignmentSampler(space, rng=rng).draws(n_samples):
            in_true = assignment == true_group
            # Rao-Blackwellized indicator: P(crack | group assignment).
            hits[in_true] += inv_size[true_group[in_true]]
    else:
        truth = [space.true_partner(i) for i in range(space.n)]
        for matching in MatchingSampler(space, rng=rng).draws(n_samples):
            for i in range(space.n):
                if matching[i] == truth[i]:
                    hits[i] += 1.0
    return hits / n_samples


def _choose_rung(
    space: MappingSpace, budget: ComputeBudget | None = None
) -> tuple[str, np.ndarray | None]:
    """The first rung of the estimate ladder that runs on *space*.

    Returns ``(rung, marginals)``: the exact plan's strategy name and
    the engine's marginals when :func:`gated_marginals` runs it, else
    ``("chain", closed-form marginals)`` on a chain, else
    ``("mcmc-gibbs", None)`` on a frequency space and
    ``("mcmc-swap", None)`` otherwise — the sampling rung, whose caller
    picks the estimator.  Exact comes first so that an engine-priced
    space gets the engine's marginals, rounded once.

    Raises :class:`~repro.errors.InfeasibleMatchingError` when no
    consistent perfect matching exists.
    """
    plan, marginals = gated_marginals(space, budget)
    if not plan.matchable:
        raise InfeasibleMatchingError("no consistent perfect matching exists")
    if marginals is not None:
        return plan.strategy, marginals
    if not isinstance(space, FrequencyMappingSpace):
        return "mcmc-swap", None
    try:
        return "chain", _chain_marginals(space)
    except NotAChainError:
        return "mcmc-gibbs", None


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
        ``"auto"`` (the estimate ladder: exact if the cost gate runs it,
        else the chain closed form on a chain, else MCMC), or one of
        ``"chain"``, ``"exact"``, ``"mcmc"``.
    n_samples, rng:
        MCMC budget and randomness.

    Returns
    -------
    Array aligned with ``space.items``; its sum is (an estimate of)
    ``E[X]``, and it agrees with :func:`expected_cracks_exact` for the
    chain/exact methods.
    """
    rng = np.random.default_rng() if rng is None else rng
    if method not in ("auto", "chain", "exact", "mcmc"):
        raise GraphError(f"unknown marginal method {method!r}")
    if method == "chain":
        if not isinstance(space, FrequencyMappingSpace):
            raise NotAChainError("chain marginals need a frequency mapping space")
        return _chain_marginals(space)
    if method == "exact":
        return crack_marginals_exact(space)
    if method == "auto":
        _, marginals = _choose_rung(space)
        if marginals is not None:
            return marginals
    return _mcmc_marginals(space, n_samples, rng)
