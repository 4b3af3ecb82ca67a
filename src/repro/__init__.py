"""repro — disclosure-risk analysis for anonymized transaction data.

A faithful, from-scratch reproduction of Lakshmanan, Ng and Ramesh,
*"To Do or Not To Do: The Dilemma of Disclosing Anonymized Data"*
(SIGMOD 2005): belief functions modelling a hacker's partial knowledge,
the bipartite space of consistent crack mappings, exact expected-crack
formulas for ignorant / point-valued / chain belief functions, the
O-estimate heuristic, the swap-chain simulator, and the owner-facing
Assess-Risk recipe with Similarity-by-Sampling.

Quickstart::

    from repro import TransactionDatabase, assess_risk

    db = TransactionDatabase([[1, 2], [2, 3], [1, 2, 3], [2, 4]])
    report = assess_risk(db, tolerance=0.5)
    print(report.summary())
"""

from repro.analysis import RiskProfile, delta_sensitivity, tolerance_curve
from repro.attack import best_guess_mapping, candidate_ranking, evaluate_attack
from repro.anonymize import AnonymizationMapping, AnonymizedDatabase, anonymize
from repro.beliefs import (
    BeliefFunction,
    Interval,
    alpha_compliant_belief,
    from_sample_belief,
    ignorant_belief,
    interval_belief,
    point_belief,
    uniform_width_belief,
)
from repro.core import (
    ChainSpec,
    OEstimateResult,
    alpha_curve,
    alpha_max,
    chain_expected_cracks,
    chain_o_estimate,
    expected_cracks_ignorant,
    expected_cracks_point_valued,
    o_estimate,
    o_estimate_from_frequencies,
)
from repro.data import (
    FrequencyGroups,
    FrequencyProfile,
    TransactionDatabase,
    read_fimi,
    sample_transactions,
    write_fimi,
)
from repro.datasets import BENCHMARK_NAMES, load_benchmark, load_benchmark_database
from repro.errors import ReproError
from repro.graph import (
    ExplicitMappingSpace,
    FrequencyMappingSpace,
    space_from_anonymized,
    space_from_frequencies,
)
from repro.mining import apriori, eclat, fp_growth, generate_rules
from repro.protect import protect_to_tolerance
from repro.recipe import RiskAssessment, assess_risk, similarity_by_sampling
from repro.simulation import simulate_expected_cracks

__version__ = "1.0.0"

__all__ = [
    # data
    "TransactionDatabase",
    "FrequencyProfile",
    "FrequencyGroups",
    "read_fimi",
    "write_fimi",
    "sample_transactions",
    # anonymization
    "AnonymizationMapping",
    "AnonymizedDatabase",
    "anonymize",
    # beliefs
    "Interval",
    "BeliefFunction",
    "ignorant_belief",
    "point_belief",
    "interval_belief",
    "uniform_width_belief",
    "alpha_compliant_belief",
    "from_sample_belief",
    # graph
    "FrequencyMappingSpace",
    "ExplicitMappingSpace",
    "space_from_frequencies",
    "space_from_anonymized",
    # core
    "expected_cracks_ignorant",
    "expected_cracks_point_valued",
    "ChainSpec",
    "chain_expected_cracks",
    "chain_o_estimate",
    "OEstimateResult",
    "o_estimate",
    "o_estimate_from_frequencies",
    "alpha_curve",
    "alpha_max",
    # simulation
    "simulate_expected_cracks",
    # recipe
    "assess_risk",
    "RiskAssessment",
    "similarity_by_sampling",
    # datasets
    "BENCHMARK_NAMES",
    "load_benchmark",
    "load_benchmark_database",
    # mining
    "apriori",
    "fp_growth",
    "eclat",
    "generate_rules",
    # analysis and protection
    "RiskProfile",
    "tolerance_curve",
    "delta_sensitivity",
    "protect_to_tolerance",
    # attack workbench
    "best_guess_mapping",
    "candidate_ranking",
    "evaluate_attack",
    # errors
    "ReproError",
    "__version__",
]
