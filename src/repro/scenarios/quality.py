"""Eq-4 quality scoring across policies, shared by tests and benches.

The scenario matrix's acceptance claim is *relative*: on every
registered scenario, the network-load-aware allocator's placements must
score no worse under Equation 4 than the random and sequential
baselines picking from the very same snapshot.  :func:`policy_quality`
measures exactly that — every policy allocates from one shared
snapshot, and all groups are scored with the pairwise-shared
normalisation the chaos bounded-quality invariant uses (compute and
network totals over *all* groups sum to 1), so scores are comparable
across policies within a round.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.candidate import CandidateSubgraph
from repro.core.compute_load import compute_loads
from repro.core.network_load import network_loads
from repro.core.policies import PAPER_POLICIES
from repro.core.policies.base import AllocationRequest
from repro.core.selection import score_candidates
from repro.monitor.snapshot import ClusterSnapshot

#: §5 policy order (kept here to avoid an import cycle with runner)
POLICY_ORDER = ("random", "sequential", "load_aware", "network_load_aware")


def eq4_group_scores(
    snapshot: ClusterSnapshot,
    groups: Mapping[str, Sequence[str]],
    request: AllocationRequest,
) -> dict[str, float]:
    """Eq-4 score of each named node group, normalised over all groups.

    The groups are Algorithm 2's candidate set:
    :func:`~repro.core.selection.score_candidates` divides compute and
    network terms each by their total across the given groups (the
    chaos checker's shared normalisation), so the returned scores sum to
    ``alpha + beta = 1`` and a lower score means a better placement
    *relative to the other groups*.
    """
    # Equation 4 reads only a group's nodes; ``start`` carries its name.
    scored = score_candidates(
        [
            CandidateSubgraph(start=name, nodes=tuple(nodes), procs={})
            for name, nodes in groups.items()
        ],
        compute_loads(snapshot, request.compute_weights),
        network_loads(snapshot, request.network_weights),
        request.tradeoff,
    )
    return {s.candidate.start: s.total for s in scored}


def policy_quality(
    scenario: str,
    *,
    seed: int = 0,
    n_processes: int = 8,
    ppn: int = 4,
    rounds: int = 3,
    gap_s: float = 300.0,
    warmup_s: float | None = None,
    policies: Sequence[str] = POLICY_ORDER,
) -> dict[str, float]:
    """Mean Eq-4 score per policy over ``rounds`` shared snapshots.

    Builds the named scenario, and for each round lets every policy
    allocate from the *same* snapshot (the §5 fairness protocol), then
    scores the chosen groups with :func:`eq4_group_scores`.  The cluster
    advances ``gap_s`` seconds between rounds so repeats see different
    load states.  Returns ``{policy: mean score}`` — on a healthy
    scenario ``network_load_aware`` comes out lowest.
    """
    from repro.scenarios import get_scenario

    spec = get_scenario(scenario)
    sc = spec.build(seed, warmup_s=warmup_s)
    rng = sc.streams.child("quality")
    request = spec.request(n_processes, ppn=ppn)
    scores: dict[str, list[float]] = {p: [] for p in policies}
    for _ in range(rounds):
        snapshot = sc.snapshot()
        groups = {
            name: PAPER_POLICIES[name]().allocate(
                snapshot, request, rng=rng
            ).nodes
            for name in policies
        }
        for name, score in eq4_group_scores(
            snapshot, groups, request
        ).items():
            scores[name].append(score)
        sc.advance(gap_s)
    return {p: float(np.mean(v)) for p, v in scores.items()}
