"""Consistent-mapping bipartite graphs (paper, Sections 2.3, 4.1, 5.2).

Given a belief function and the observed frequencies of the anonymized
items, the space of all consistent crack mappings is a bipartite graph
``G = (J + I, E)`` whose perfect matchings are exactly the crack mappings
the hacker may use.  This subpackage provides:

* :class:`~repro.graph.bipartite.FrequencyMappingSpace` — the compact
  frequency-group representation (scales to the largest benchmarks);
* :class:`~repro.graph.bipartite.ExplicitMappingSpace` — an explicit
  adjacency representation for arbitrary graphs (Section 8.1's
  generalization beyond frequent sets);
* exact machinery: matrix permanents (Ryser), matching enumeration, and
  maximum matching / feasibility checks;
* the structure-exploiting exact engine (:mod:`repro.graph.exact`):
  block decomposition plus a consecutive-ones permanent DP, planned by
  :func:`~repro.graph.exact.exact_strategy` and cost-gated by
  :func:`~repro.graph.exact.gated_marginals`;
* the degree-1 propagation procedure of Figure 7.
"""

from repro.graph.bipartite import (
    ExplicitMappingSpace,
    FrequencyMappingSpace,
    MappingSpace,
    space_from_anonymized,
    space_from_frequencies,
)
from repro.graph.blocks import Block, BlockDecomposition, decompose
from repro.graph.exact import (
    ExactPlan,
    count_matchings_exact,
    crack_distribution_exact,
    crack_marginals_exact,
    exact_strategy,
    expected_cracks_exact,
)
from repro.graph.groups import BeliefGroupPartition, ObservedGroups
from repro.graph.marginals import crack_marginals
from repro.graph.matching import (
    group_feasible_matching,
    has_perfect_matching,
    hopcroft_karp,
    maximum_matching,
)
from repro.graph.permanent import (
    crack_distribution_permanent,
    enumerate_consistent_matchings,
    permanent,
)
from repro.graph.propagation import PropagationResult, propagate_degree_one
from repro.graph.refine import (
    EdgeClassification,
    classify_adjacency,
    classify_edges,
    reduced_blocks,
)

__all__ = [
    "MappingSpace",
    "FrequencyMappingSpace",
    "ExplicitMappingSpace",
    "space_from_frequencies",
    "space_from_anonymized",
    "ObservedGroups",
    "BeliefGroupPartition",
    "hopcroft_karp",
    "crack_marginals",
    "maximum_matching",
    "has_perfect_matching",
    "group_feasible_matching",
    "permanent",
    "crack_distribution_permanent",
    "enumerate_consistent_matchings",
    "Block",
    "BlockDecomposition",
    "decompose",
    "ExactPlan",
    "exact_strategy",
    "count_matchings_exact",
    "expected_cracks_exact",
    "crack_marginals_exact",
    "crack_distribution_exact",
    "PropagationResult",
    "propagate_degree_one",
    "EdgeClassification",
    "classify_adjacency",
    "classify_edges",
    "reduced_blocks",
]
