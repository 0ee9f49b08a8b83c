"""The paper's contribution: network- and load-aware resource allocation."""

from repro.core.arrays import (
    LoadState,
    addition_cost_matrix,
    best_candidate_fast,
    generate_all_candidates_fast,
    load_state,
    score_candidates_fast,
)
from repro.core.attributes import ATTRIBUTE_NAMES, ATTRIBUTES, Attribute, Criterion
from repro.core.broker import BrokerResult, ResourceBroker, WaitRecommended
from repro.core.candidate import (
    CandidateSubgraph,
    addition_costs,
    generate_all_candidates,
    generate_candidate,
)
from repro.core.compute_load import attribute_costs, compute_loads
from repro.core.effective_procs import effective_proc_count, effective_proc_counts
from repro.core.network_load import (
    group_network_load,
    network_loads,
    total_group_network_load,
)
from repro.core.policies import (
    PAPER_POLICIES,
    Allocation,
    AllocationError,
    AllocationPolicy,
    AllocationRequest,
    BruteForcePolicy,
    HierarchicalNetworkLoadAwarePolicy,
    LoadAwarePolicy,
    NetworkLoadAwarePolicy,
    RandomPolicy,
    SequentialPolicy,
)
from repro.core.selection import ScoredCandidate, score_candidates, select_best
from repro.core.weights import (
    MINIFE_TRADEOFF,
    MINIMD_TRADEOFF,
    PAPER_COMPUTE_WEIGHTS,
    ComputeWeights,
    NetworkWeights,
    TradeOff,
)

__all__ = [
    "LoadState",
    "addition_cost_matrix",
    "best_candidate_fast",
    "generate_all_candidates_fast",
    "load_state",
    "score_candidates_fast",
    "ATTRIBUTE_NAMES",
    "ATTRIBUTES",
    "Attribute",
    "Criterion",
    "BrokerResult",
    "ResourceBroker",
    "WaitRecommended",
    "CandidateSubgraph",
    "addition_costs",
    "generate_all_candidates",
    "generate_candidate",
    "attribute_costs",
    "compute_loads",
    "effective_proc_count",
    "effective_proc_counts",
    "group_network_load",
    "network_loads",
    "total_group_network_load",
    "PAPER_POLICIES",
    "Allocation",
    "AllocationError",
    "AllocationPolicy",
    "AllocationRequest",
    "BruteForcePolicy",
    "HierarchicalNetworkLoadAwarePolicy",
    "LoadAwarePolicy",
    "NetworkLoadAwarePolicy",
    "RandomPolicy",
    "SequentialPolicy",
    "ScoredCandidate",
    "score_candidates",
    "select_best",
    "MINIFE_TRADEOFF",
    "MINIMD_TRADEOFF",
    "PAPER_COMPUTE_WEIGHTS",
    "ComputeWeights",
    "NetworkWeights",
    "TradeOff",
]
