"""Rebalance planning — re-running Algorithm 1/2 for a *running* job.

A reconfiguration plan answers: if this job could be re-placed right
now, where would the paper's allocator put it — and is that placement
enough better than the current one to be worth acting on?

The planner reuses the PR-1 vectorized core end to end:

* the candidate universe is the job's own nodes plus every node no other
  lease holds (``exclude=`` masks the rest, exactly like the scheduler's
  busy-node masking);
* Algorithm 1 + 2 run once per *shape* (``best_candidate_fast``) — the
  original ``ppn``, a wider one (shrink: fewer nodes, more ranks each)
  and a narrower one (expand: more nodes, fewer ranks each) — so the
  plan space genuinely contains expand / shrink / migrate, not just
  same-shape moves;
* the incumbent placement and every proposal are scored with Equation 4
  in **one** shared normalization (one ``score_candidates_fast`` call),
  so their totals are directly comparable — comparing totals from two
  different normalizations would be meaningless.

The planner only *proposes*; accepting is the gate's job
(:mod:`repro.elastic.gate`), applying is the executor's
(:mod:`repro.elastic.executor`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Collection, Mapping, Sequence

from repro.core.arrays import (
    best_candidate_fast,
    load_state,
    score_candidates_fast,
)
from repro.core.candidate import CandidateSubgraph
from repro.core.policies import Allocation, AllocationRequest
from repro.monitor.snapshot import ClusterSnapshot


@dataclass(frozen=True)
class ReconfigPlan:
    """One proposed reconfiguration of one running job/lease."""

    lease_id: str
    #: expand / shrink / migrate / rebalance (same nodes, new counts)
    kind: str
    old_nodes: tuple[str, ...]
    new_nodes: tuple[str, ...]
    old_procs: Mapping[str, int]
    procs: Mapping[str, int]
    #: Equation-4 totals under one shared normalization
    current_total: float
    proposed_total: float
    #: relative score improvement, ``(current - proposed) / current``
    predicted_gain: float
    request: AllocationRequest
    snapshot_time: float

    @property
    def add_nodes(self) -> tuple[str, ...]:
        """Nodes the job gains."""
        old = set(self.old_nodes)
        return tuple(n for n in self.new_nodes if n not in old)

    @property
    def drop_nodes(self) -> tuple[str, ...]:
        """Nodes the job loses."""
        new = set(self.new_nodes)
        return tuple(n for n in self.old_nodes if n not in new)

    @property
    def moved_ranks(self) -> int:
        """Ranks that change host (the migration traffic driver)."""
        moved = 0
        for node, count in self.procs.items():
            before = int(self.old_procs.get(node, 0))
            if count > before:
                moved += count - before
        return moved

    def allocation(self) -> Allocation:
        """The plan's target placement as a standard :class:`Allocation`."""
        return Allocation(
            policy="elastic",
            nodes=self.new_nodes,
            procs=dict(self.procs),
            request=self.request,
            snapshot_time=self.snapshot_time,
            metadata={
                "total_cost": self.proposed_total,
                "predicted_gain": self.predicted_gain,
            },
        )


def plan_kind(
    old_nodes: Sequence[str], new_nodes: Sequence[str]
) -> str:
    """Classify a node-set change: expand / shrink / migrate / rebalance."""
    old, new = set(old_nodes), set(new_nodes)
    if old == new:
        return "rebalance"
    if len(new) > len(old):
        return "expand"
    if len(new) < len(old):
        return "shrink"
    return "migrate"


class ReconfigPlanner:
    """Proposes the best reconfiguration for one running job."""

    def __init__(
        self,
        *,
        load_key: str = "m1",
        shape_factors: tuple[float, ...] = (1.0, 0.5, 2.0),
    ) -> None:
        if not shape_factors or any(f <= 0 for f in shape_factors):
            raise ValueError(
                f"shape_factors must be positive, got {shape_factors}"
            )
        #: which running mean feeds Equation 3 (matches the §5 policy)
        self.load_key = load_key
        #: ppn multipliers explored per plan (1.0 = same shape;
        #: 0.5 = expand over twice the nodes; 2.0 = shrink onto half)
        self.shape_factors = shape_factors

    # ------------------------------------------------------------------
    def propose(
        self,
        snapshot: ClusterSnapshot,
        *,
        lease_id: str,
        nodes: Sequence[str],
        procs: Mapping[str, int],
        request: AllocationRequest,
        exclude: Collection[str] | None = None,
    ) -> ReconfigPlan | None:
        """The best plan for this job, or ``None`` when staying put wins.

        ``exclude`` masks nodes held by *other* jobs; the job's own nodes
        are always usable (it is already on them).  Returns ``None`` when
        the incumbent placement scores best, when no alternative shape
        yields candidates, or when the winning proposal is the incumbent
        node set with identical process counts.
        """
        own = set(nodes)
        masked = set(exclude or ()) - own
        live = frozenset(snapshot.livehosts)
        usable = [
            n
            for n in snapshot.nodes
            if (n in live or not live) and n not in masked
        ]
        if not usable:
            return None

        proposals: list[CandidateSubgraph] = []
        for ppn in self._shapes(request):
            shaped = replace(request, ppn=ppn)
            state = load_state(
                snapshot,
                nodes=tuple(usable),
                compute_weights=shaped.compute_weights,
                network_weights=shaped.network_weights,
                ppn=shaped.ppn,
                load_key=self.load_key,
            )
            # One winner per shape (Algorithm 2 within the shape).
            try:
                best = best_candidate_fast(
                    state, shaped.n_processes, shaped.tradeoff
                )
            except ValueError:
                continue
            proposals.append(best.candidate)
        if not proposals:
            return None

        # Score incumbent + all shape winners under ONE normalization.
        # The scoring state uses the original request's shape parameters;
        # candidate membership (which nodes, how many each) is what varies.
        score_state = load_state(
            snapshot,
            nodes=tuple(usable),
            compute_weights=request.compute_weights,
            network_weights=request.network_weights,
            ppn=request.ppn,
            load_key=self.load_key,
        )
        current_known = all(n in score_state.index for n in nodes)
        entries: list[CandidateSubgraph] = []
        if current_known:
            entries.append(
                CandidateSubgraph(
                    start=nodes[0], nodes=tuple(nodes), procs=dict(procs)
                )
            )
        entries.extend(proposals)
        scored = score_candidates_fast(state=score_state, candidates=entries,
                                       tradeoff=request.tradeoff)
        if current_known:
            current_total = scored[0].total
            proposal_scores = scored[1:]
        else:
            # A current node vanished from monitoring (died / unmonitored):
            # any valid placement beats an unknown one.
            current_total = math.inf
            proposal_scores = scored

        winner = min(
            proposal_scores, key=lambda s: (s.total, s.candidate.start)
        )
        new_nodes = winner.candidate.nodes
        new_procs = dict(winner.candidate.procs)
        if tuple(new_nodes) == tuple(nodes) and new_procs == dict(procs):
            return None
        if math.isinf(current_total):
            gain = 1.0
        elif current_total <= 0:
            gain = 0.0
        else:
            gain = (current_total - winner.total) / current_total
        if gain <= 0:
            return None
        return ReconfigPlan(
            lease_id=lease_id,
            kind=plan_kind(nodes, new_nodes),
            old_nodes=tuple(nodes),
            new_nodes=new_nodes,
            old_procs=dict(procs),
            procs=new_procs,
            current_total=float(current_total),
            proposed_total=float(winner.total),
            predicted_gain=float(gain),
            request=request,
            snapshot_time=snapshot.time,
        )

    # ------------------------------------------------------------------
    def _shapes(self, request: AllocationRequest) -> list[int | None]:
        """Distinct ppn values to explore (original shape first)."""
        if request.ppn is None:
            return [None]
        shapes: list[int | None] = []
        for factor in self.shape_factors:
            ppn = max(1, round(request.ppn * factor))
            if ppn not in shapes and ppn <= request.n_processes:
                shapes.append(ppn)
        return shapes
