"""Network-and-load-aware allocation — the paper's contribution (§3.3).

Pipeline: compute loads (Eq. 1) → network loads (Eq. 2) → effective
processor counts (Eq. 3) → |V| greedy candidates (Algorithm 1) → best
candidate by Equation 4 (Algorithm 2).

Two implementations share this class: the vectorized array path
(:mod:`repro.core.arrays`, the default — one snapshot-keyed
:class:`~repro.core.arrays.LoadState` plus NumPy replays of both
algorithms) and the original dict-arithmetic path, kept as the reference
oracle (``use_arrays=False``).  Both return identical allocations; the
equivalence sweep in ``tests/core/test_array_equivalence.py`` enforces
it.
"""

from __future__ import annotations

from typing import Collection

import numpy as np

from repro.core.arrays import (
    PRUNE_KEEP_DEFAULT,
    PRUNE_THRESHOLD_DEFAULT,
    best_candidate_fast,
    load_state,
)
from repro.core.candidate import generate_all_candidates
from repro.core.compute_load import compute_loads
from repro.core.effective_procs import effective_proc_counts
from repro.core.network_load import network_loads
from repro.core.policies.base import (
    Allocation,
    AllocationError,
    AllocationPolicy,
    AllocationRequest,
)
from repro.core.selection import ScoredCandidate, select_best
from repro.monitor.snapshot import ClusterSnapshot


class NetworkLoadAwarePolicy(AllocationPolicy):
    """The full Algorithm 1 + Algorithm 2 heuristic."""

    name = "network_load_aware"

    def __init__(
        self,
        *,
        load_key: str = "m1",
        use_arrays: bool = True,
        prune_threshold: int | None = PRUNE_THRESHOLD_DEFAULT,
        prune_keep: int = PRUNE_KEEP_DEFAULT,
    ) -> None:
        #: which running mean feeds Equation 3 (m1/m5/m15/now)
        self.load_key = load_key
        #: vectorized fast path (default) vs. dict reference oracle
        self.use_arrays = use_arrays
        #: above this many usable nodes the array path prunes Algorithm-1
        #: seeds by a lower bound on their Equation-4 addition cost before
        #: the greedy grow (``None`` disables pruning entirely); the
        #: result is bit-identical to the dict oracle over the same seeds
        #: (every seed at or below the threshold)
        self.prune_threshold = prune_threshold
        #: how many seeds survive pruning
        self.prune_keep = prune_keep

    def allocate(
        self,
        snapshot: ClusterSnapshot,
        request: AllocationRequest,
        *,
        rng: np.random.Generator | None = None,
        exclude: Collection[str] | None = None,
    ) -> Allocation:
        usable = self._usable_nodes(snapshot, exclude)
        if self.use_arrays:
            best = self._allocate_arrays(snapshot, request, usable)
        else:
            best = self._allocate_reference(snapshot, request, usable)
        cand = best.candidate
        return Allocation(
            policy=self.name,
            nodes=cand.nodes,
            procs=dict(cand.procs),
            request=request,
            snapshot_time=snapshot.time,
            metadata={
                "total_cost": best.total,
                "compute_cost": best.compute_cost,
                "network_cost": best.network_cost,
                "compute_cost_normalized": best.compute_cost_normalized,
                "network_cost_normalized": best.network_cost_normalized,
            },
        )

    # ------------------------------------------------------------------
    def _allocate_arrays(
        self,
        snapshot: ClusterSnapshot,
        request: AllocationRequest,
        usable: list[str],
    ) -> ScoredCandidate:
        state = load_state(
            snapshot,
            nodes=usable,
            compute_weights=request.compute_weights,
            network_weights=request.network_weights,
            ppn=request.ppn,
            load_key=self.load_key,
        )
        try:
            return best_candidate_fast(
                state,
                request.n_processes,
                request.tradeoff,
                prune_threshold=self.prune_threshold,
                prune_keep=self.prune_keep,
            )
        except ValueError as exc:
            raise AllocationError(str(exc)) from exc

    def _allocate_reference(
        self,
        snapshot: ClusterSnapshot,
        request: AllocationRequest,
        usable: list[str],
    ) -> ScoredCandidate:
        cl = compute_loads(snapshot, request.compute_weights, nodes=usable)
        nl = network_loads(snapshot, request.network_weights, nodes=usable)
        pc_all = effective_proc_counts(
            snapshot, ppn=request.ppn, load_key=self.load_key
        )
        pc = {n: pc_all[n] for n in usable}
        candidates = generate_all_candidates(
            usable, cl, nl, pc, request.n_processes, request.tradeoff
        )
        candidates = [c for c in candidates if c.nodes]
        if not candidates:
            raise AllocationError("candidate generation produced no groups")
        return select_best(candidates, cl, nl, request.tradeoff)
