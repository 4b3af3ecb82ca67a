"""Simulation of the expected number of cracks (paper, Section 7.1).

The paper validates its O-estimates against a sampler of (approximately
uniform) random consistent perfect matchings: start from a seed matching,
propose partner swaps driven by random permutations of the items, accept
a swap when both new edges remain consistent, and record the number of
cracks at fixed intervals.

:class:`~repro.simulation.sampler.MatchingSampler` implements the chain;
:func:`~repro.simulation.estimate.simulate_expected_cracks` wraps it into
the paper's protocol (several independent runs, mean and standard
deviation across runs).  A Rao-Blackwellized estimator — exact
expectation conditional on the item-to-frequency-group assignment — is
available as a lower-variance alternative.
"""

from repro.simulation.diagnostics import (
    ConvergenceReport,
    autocorrelation_time,
    diagnose_chains,
    effective_sample_size,
    potential_scale_reduction,
)
from repro.simulation.estimate import SimulationResult, simulate_expected_cracks
from repro.simulation.exact import best_expected_cracks, sample_chain_cracks
from repro.simulation.gibbs import GibbsAssignmentSampler
from repro.simulation.sampler import MatchingSampler

__all__ = [
    "MatchingSampler",
    "GibbsAssignmentSampler",
    "SimulationResult",
    "simulate_expected_cracks",
    "ConvergenceReport",
    "diagnose_chains",
    "potential_scale_reduction",
    "autocorrelation_time",
    "effective_sample_size",
    "sample_chain_cracks",
    "best_expected_cracks",
]
