"""The array fast path must match the dict reference allocation-for-allocation.

Seeded sweep over random snapshots (varying node counts, missing pairs,
zero-load and fully-loaded nodes, dead hosts) asserting that
``NetworkLoadAwarePolicy(use_arrays=True)`` returns the identical
``Allocation`` — nodes, process counts, and bit-identical Equation-4
metadata — as the dict reference oracle, plus determinism checks for
the remaining paper policies under the same refactor (exclude masks,
hoisted penalties).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.arrays import load_state
from repro.core.policies import (
    PAPER_POLICIES,
    AllocationRequest,
    HierarchicalNetworkLoadAwarePolicy,
    NetworkLoadAwarePolicy,
)
from repro.core.weights import TradeOff
from repro.monitor.snapshot import ClusterSnapshot, NodeView


def _stats(rng: np.random.Generator, scale: float) -> dict[str, float]:
    vals = rng.uniform(0.0, scale, size=4)
    return {"now": float(vals[0]), "m1": float(vals[1]),
            "m5": float(vals[2]), "m15": float(vals[3])}


def random_snapshot(
    rng: np.random.Generator,
    n_nodes: int,
    *,
    missing_fraction: float = 0.0,
    zero_load_fraction: float = 0.0,
    full_load_fraction: float = 0.0,
    dead_fraction: float = 0.0,
) -> ClusterSnapshot:
    """A synthetic monitor snapshot with controllable degeneracies."""
    order = rng.permutation(n_nodes)  # insertion order ≠ lexicographic
    names = [f"n{int(i):02d}" for i in order]
    views: dict[str, NodeView] = {}
    for name in names:
        cores = int(rng.choice([4, 8, 12]))
        roll = rng.uniform()
        if roll < zero_load_fraction:
            load = {"now": 0.0, "m1": 0.0, "m5": 0.0, "m15": 0.0}
        elif roll < zero_load_fraction + full_load_fraction:
            # Rounded-up load one short of a core-count multiple → pc = 1.
            full = float(cores - 1)
            load = {"now": full, "m1": full, "m5": full, "m15": full}
        else:
            load = _stats(rng, float(cores))
        views[name] = NodeView(
            name=name,
            cores=cores,
            frequency_ghz=float(rng.uniform(2.0, 5.0)),
            memory_gb=float(rng.choice([16.0, 32.0, 64.0])),
            users=int(rng.integers(0, 5)),
            cpu_load=load,
            cpu_util=_stats(rng, 100.0),
            flow_rate_mbs=_stats(rng, 50.0),
            available_memory_gb=_stats(rng, 16.0),
        )
    bandwidth: dict[tuple[str, str], float] = {}
    latency: dict[tuple[str, str], float] = {}
    peak: dict[tuple[str, str], float] = {}
    for a, b in itertools.combinations(sorted(names), 2):
        peak[(a, b)] = 125.0
        if rng.uniform() >= missing_fraction:
            bandwidth[(a, b)] = float(rng.uniform(10.0, 125.0))
            latency[(a, b)] = float(rng.uniform(50.0, 500.0))
    live = [n for n in names if rng.uniform() >= dead_fraction]
    if not live:
        live = names[:1]
    return ClusterSnapshot(
        time=0.0,
        nodes=views,
        bandwidth_mbs=bandwidth,
        latency_us=latency,
        peak_bandwidth_mbs=peak,
        livehosts=tuple(live),
    )


def assert_allocations_equal(a, b):
    """Same nodes, same process counts and bit-identical metadata."""
    assert a.nodes == b.nodes
    assert dict(a.procs) == dict(b.procs)
    assert set(a.metadata) == set(b.metadata)
    for key in a.metadata:
        assert a.metadata[key] == b.metadata[key], key


def _requests(rng: np.random.Generator, capacity: int):
    """A spread of request shapes, including oversubscription."""
    alphas = [0.3, 0.5, 1.0]
    yield AllocationRequest(
        n_processes=1, ppn=None, tradeoff=TradeOff.from_alpha(0.3)
    )
    for alpha in alphas:
        n = int(rng.integers(2, max(3, capacity)))
        ppn = [None, 2, 4][int(rng.integers(0, 3))]
        yield AllocationRequest(
            n_processes=n, ppn=ppn, tradeoff=TradeOff.from_alpha(alpha)
        )
    # Oversubscribed: forces the Algorithm-1 round-robin remainder and
    # same-node-set candidates (exact or last-bit Equation-4 ties).
    yield AllocationRequest(
        n_processes=2 * capacity + 3, ppn=4, tradeoff=TradeOff.from_alpha(0.5)
    )


SWEEP_CONFIGS = [
    dict(missing_fraction=0.0),
    dict(missing_fraction=0.3),
    dict(missing_fraction=0.8),
    dict(missing_fraction=0.3, zero_load_fraction=0.5),
    dict(missing_fraction=0.2, full_load_fraction=0.5),
    dict(zero_load_fraction=1.0),
    dict(missing_fraction=0.4, dead_fraction=0.3),
]


class TestNetworkLoadAwareEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "config", SWEEP_CONFIGS,
        ids=["-".join(f"{k[:4]}{v}" for k, v in c.items()) or "plain"
             for c in SWEEP_CONFIGS],
    )
    def test_sweep(self, seed, config):
        rng = np.random.default_rng(1000 * seed + 17)
        n_nodes = int(rng.integers(2, 21))
        snap = random_snapshot(rng, n_nodes, **config)
        fast = NetworkLoadAwarePolicy(use_arrays=True)
        ref = NetworkLoadAwarePolicy(use_arrays=False)
        live_cores = sum(
            snap.nodes[n].cores for n in snap.livehosts if n in snap.nodes
        )
        for request in _requests(rng, max(live_cores, 4)):
            a = fast.allocate(snap, request)
            b = ref.allocate(snap, request)
            assert_allocations_equal(a, b)

    def test_single_node_cluster(self):
        rng = np.random.default_rng(7)
        snap = random_snapshot(rng, 1)
        request = AllocationRequest(n_processes=6, ppn=4)
        a = NetworkLoadAwarePolicy(use_arrays=True).allocate(snap, request)
        b = NetworkLoadAwarePolicy(use_arrays=False).allocate(snap, request)
        assert_allocations_equal(a, b)

    def test_exclude_mask_matches_reference_on_mask(self):
        """The exclude parameter reaches both implementations identically."""
        rng = np.random.default_rng(21)
        snap = random_snapshot(rng, 10, missing_fraction=0.2)
        excluded = frozenset(list(snap.nodes)[:4])
        request = AllocationRequest(n_processes=8, ppn=2)
        a = NetworkLoadAwarePolicy(use_arrays=True).allocate(
            snap, request, exclude=excluded
        )
        b = NetworkLoadAwarePolicy(use_arrays=False).allocate(
            snap, request, exclude=excluded
        )
        assert_allocations_equal(a, b)
        assert not set(a.nodes) & excluded

    def test_cached_state_matches_fresh_state(self):
        """Memoized LoadState answers exactly like a cold build."""
        rng = np.random.default_rng(33)
        snap = random_snapshot(rng, 12, missing_fraction=0.3)
        request = AllocationRequest(n_processes=16, ppn=4)
        policy = NetworkLoadAwarePolicy(use_arrays=True)
        warm1 = policy.allocate(snap, request)
        warm2 = policy.allocate(snap, request)  # cache hit
        cold = policy.allocate(dataclasses.replace(snap), request)
        assert_allocations_equal(warm1, warm2)
        assert_allocations_equal(warm1, cold)

    def test_load_state_is_memoized_per_snapshot(self):
        rng = np.random.default_rng(41)
        snap = random_snapshot(rng, 8)
        nodes = list(snap.nodes)
        s1 = load_state(snap, nodes=nodes, ppn=4)
        s2 = load_state(snap, nodes=nodes, ppn=4)
        assert s1 is s2
        s3 = load_state(snap, nodes=nodes, ppn=2)  # different key
        assert s3 is not s1
        s4 = load_state(dataclasses.replace(snap), nodes=nodes, ppn=4)
        assert s4 is not s1  # fresh snapshot → fresh cache


class TestOtherPaperPoliciesDeterministic:
    """Baselines have no array path; the sweep pins their behavior under
    the shared refactors (exclude masks, hoisted penalties)."""

    @pytest.mark.parametrize("name", sorted(PAPER_POLICIES))
    @pytest.mark.parametrize("seed", range(3))
    def test_repeatable(self, name, seed):
        rng = np.random.default_rng(50 + seed)
        snap = random_snapshot(rng, 8, missing_fraction=0.2)
        request = AllocationRequest(n_processes=12, ppn=4)
        a = PAPER_POLICIES[name]().allocate(
            snap, request, rng=np.random.default_rng(seed)
        )
        b = PAPER_POLICIES[name]().allocate(
            snap, request, rng=np.random.default_rng(seed)
        )
        assert_allocations_equal(a, b)

    def test_hierarchical_uses_shared_cache(self):
        rng = np.random.default_rng(61)
        snap = random_snapshot(rng, 10, missing_fraction=0.1)
        request = AllocationRequest(n_processes=12, ppn=4)
        policy = HierarchicalNetworkLoadAwarePolicy()
        warm = policy.allocate(snap, request)
        cold = policy.allocate(dataclasses.replace(snap), request)
        assert_allocations_equal(warm, cold)
