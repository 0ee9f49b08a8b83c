"""Equation 4 on growth arrays: the reference's numbers, bit for bit.

``best_candidate_fast`` scores candidates without building them: compute
costs are builtin ``sum`` in visit order, network costs a sequential
``np.cumsum`` fold over each group's pairs in ``itertools.combinations``
order, and pair values are gathered in blocks.  These tests pin the two
places where a plausible vectorization would drift from the reference:
summation order over values of mixed magnitude, and the block loop at
a scale where one block cannot hold every pair.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import arrays
from repro.core.arrays import load_state
from repro.core.network_load import total_group_network_load
from repro.core.policies import AllocationRequest, NetworkLoadAwarePolicy
from repro.core.weights import NetworkWeights, TradeOff
from repro.monitor.snapshot import ClusterSnapshot, NodeView
from tests.core.test_array_equivalence import (
    assert_allocations_equal,
    random_snapshot,
)


def _flat(v: float) -> dict[str, float]:
    return {"now": v, "m1": v, "m5": v, "m15": v}


def _wide_latency_snapshot(rng: np.random.Generator, v: int) -> ClusterSnapshot:
    """Latencies log-uniform over 1e-3…1e6 µs: NL spans nine decades."""
    names = [f"w{i:02d}" for i in range(v)]
    views = {
        n: NodeView(
            name=n,
            cores=4,
            frequency_ghz=3.0,
            memory_gb=32.0,
            users=0,
            cpu_load=_flat(float(rng.uniform(0.0, 3.0))),
            cpu_util=_flat(float(rng.uniform(0.0, 100.0))),
            flow_rate_mbs=_flat(float(rng.uniform(0.0, 50.0))),
            available_memory_gb=_flat(float(rng.uniform(1.0, 16.0))),
        )
        for n in names
    }
    pairs = list(itertools.combinations(names, 2))
    return ClusterSnapshot(
        time=0.0,
        nodes=views,
        bandwidth_mbs={k: 100.0 for k in pairs},
        latency_us={k: float(10.0 ** rng.uniform(-3.0, 6.0)) for k in pairs},
        peak_bandwidth_mbs={k: 125.0 for k in pairs},
        livehosts=tuple(names),
    )


class TestFoldOrder:
    # On these seeds a NumPy pairwise or BLAS sum misses both reference
    # sums in the last bits, with no near-tie between the top candidates.
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_costs_are_the_reference_sums(self, seed):
        """A 10-node grant whose pair loads mix nine decades: the
        network cost is the reference's left-to-right fold and the
        compute cost its builtin ``sum`` — equal, not merely close."""
        snap = _wide_latency_snapshot(np.random.default_rng(seed), 20)
        request = AllocationRequest(
            n_processes=10,
            ppn=1,
            tradeoff=TradeOff.from_alpha(0.3),
            network_weights=NetworkWeights(w_lt=1.0, w_bw=0.0),
        )
        grant = NetworkLoadAwarePolicy().allocate(snap, request)
        state = load_state(
            snap, nodes=list(snap.nodes), ppn=1,
            network_weights=request.network_weights,
        )
        loads = list(state.nl.values())
        assert min(loads) < 1e-6 * max(loads)
        assert len(grant.nodes) == 10
        assert grant.metadata["network_cost"] == total_group_network_load(
            state.nl, grant.nodes, missing_penalty=state.missing_penalty
        )
        assert grant.metadata["compute_cost"] == sum(
            state.cl[u] for u in grant.nodes
        )
        reference = NetworkLoadAwarePolicy(use_arrays=False).allocate(
            snap, request
        )
        assert_allocations_equal(grant, reference)


class TestScale:
    """~150 nodes: the reference's O(V²) dict loops bound the size."""

    @pytest.fixture(scope="class")
    def snap(self):
        return random_snapshot(
            np.random.default_rng(2024), 150, missing_fraction=0.3
        )

    def test_ordinary_request(self, snap):
        request = AllocationRequest(
            n_processes=48, ppn=None, tradeoff=TradeOff.from_alpha(0.4)
        )
        assert_allocations_equal(
            NetworkLoadAwarePolicy().allocate(snap, request),
            NetworkLoadAwarePolicy(use_arrays=False).allocate(snap, request),
        )

    def test_oversubscribed_request_spans_pair_blocks(self, snap):
        """Every candidate visits all 150 nodes (11,175 pairs each), so
        the pair values of the 150 candidates fill many blocks."""
        live = len(snap.livehosts)
        assert live * live * (live - 1) // 2 > 4 * arrays._PAIR_BLOCK
        request = AllocationRequest(
            n_processes=4 * live + 7, ppn=4, tradeoff=TradeOff.from_alpha(0.5)
        )
        grant = NetworkLoadAwarePolicy().allocate(snap, request)
        assert len(grant.nodes) == live
        assert_allocations_equal(
            grant,
            NetworkLoadAwarePolicy(use_arrays=False).allocate(snap, request),
        )
