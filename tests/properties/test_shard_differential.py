"""Differential: a shard deciding on the fleet snapshot ≡ one cut to its nodes.

A federation shard places jobs on the fleet snapshot with every other
node excluded.  Equations 1–2 normalize over exactly the usable nodes
and the measured pairs among them, so each grant must equal, bit for
bit, what the network-load-aware policy decides on the snapshot
*projected* onto the shard — only its nodes, only its live hosts, only
the links with both ends inside — under the same held nodes.  The
projection below is that oracle.

A 4-shard federation runs over a drifting ring-linked fleet (each
refresh drifts node loads and link measurements, and the fleet's array
store is patched, not rebuilt) with allocates with and without ``ppn``,
releases and cross-shard grants, on shards below and above the
federation's Algorithm-1 prune threshold (512 / 4 = 128 nodes).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pytest

from repro.broker.protocol import (
    AllocateParams,
    ErrorCode,
    ProtocolError,
    ReleaseParams,
)
from repro.core.arrays import PRUNE_KEEP_DEFAULT, PRUNE_THRESHOLD_DEFAULT
from repro.core.policies import (
    AllocationError,
    AllocationRequest,
    NetworkLoadAwarePolicy,
)
from repro.core.weights import TradeOff
from repro.federation import (
    build_federation,
    snapshot_switches,
    subtree_partition,
)
from repro.monitor.snapshot import CachedSnapshotSource, ClusterSnapshot, NodeView
from tests.properties.test_delta_differential import perturb

SHARDS = 4
NODES_PER_SWITCH = 16
TTL = 3600.0


def _stats(v: float) -> dict[str, float]:
    return {"now": v, "m1": v, "m5": v, "m15": v}


def ring_fleet(rng: np.random.Generator, n: int) -> ClusterSnapshot:
    """``n`` nodes, 16 per leaf switch, measuring their two ring
    neighbours on each side; a few nodes down and links unmeasured."""
    names = [f"n{i:04d}" for i in range(n)]
    nodes = {}
    for i, name in enumerate(names):
        cores = int(rng.choice([8, 12]))
        load = float(rng.uniform(0.0, 1.2 * cores))
        nodes[name] = NodeView(
            name=name,
            cores=cores,
            frequency_ghz=float(rng.uniform(2.0, 3.0)),
            memory_gb=64.0,
            users=int(rng.integers(0, 3)),
            cpu_load=_stats(load),
            cpu_util=_stats(min(100.0, 100.0 * load / cores)),
            flow_rate_mbs=_stats(float(rng.uniform(0.0, 60.0))),
            available_memory_gb=_stats(float(rng.uniform(8.0, 60.0))),
            switch=f"s{i // NODES_PER_SWITCH}",
        )
    bandwidth, latency, peak = {}, {}, {}
    for i in range(n):
        for step in (1, 2):
            pair = tuple(sorted((names[i], names[(i + step) % n])))
            if pair[0] == pair[1] or pair in peak:
                continue
            peak[pair] = 125.0
            if rng.uniform() < 0.9:
                bandwidth[pair] = float(rng.uniform(60.0, 125.0))
                latency[pair] = float(rng.uniform(40.0, 120.0))
    return ClusterSnapshot(
        time=0.0,
        nodes=nodes,
        bandwidth_mbs=bandwidth,
        latency_us=latency,
        peak_bandwidth_mbs=peak,
        livehosts=tuple(n for n in names if rng.uniform() >= 0.03),
    )


def project(snapshot: ClusterSnapshot, nodes: Iterable[str]) -> ClusterSnapshot:
    """The snapshot cut down to ``nodes``: the oracle's view of a shard."""
    keep = frozenset(nodes)

    def both(pair: tuple[str, str]) -> bool:
        return pair[0] in keep and pair[1] in keep

    return ClusterSnapshot(
        time=snapshot.time,
        nodes={n: v for n, v in snapshot.nodes.items() if n in keep},
        bandwidth_mbs={
            k: v for k, v in snapshot.bandwidth_mbs.items() if both(k)
        },
        latency_us={k: v for k, v in snapshot.latency_us.items() if both(k)},
        peak_bandwidth_mbs={
            k: v for k, v in snapshot.peak_bandwidth_mbs.items() if both(k)
        },
        livehosts=tuple(h for h in snapshot.livehosts if h in keep),
    )


def oracle(
    snapshot: ClusterSnapshot,
    shard_nodes: tuple[str, ...],
    params: AllocateParams,
    held: frozenset[str],
) -> tuple[dict, int] | str:
    """What the shard must answer: the grant's fields and the usable
    node count, or the denial's message."""
    view = project(snapshot, shard_nodes)
    usable = len((frozenset(view.nodes) & frozenset(view.livehosts)) - held)
    if params.ppn is not None and params.n_processes > params.ppn * usable:
        return (
            f"{params.n_processes} processes do not fit at ppn={params.ppn} "
            f"on {usable} usable node(s)"
        )
    policy = NetworkLoadAwarePolicy(
        prune_threshold=PRUNE_THRESHOLD_DEFAULT // SHARDS,
        prune_keep=PRUNE_KEEP_DEFAULT,
    )
    request = AllocationRequest(
        n_processes=params.n_processes,
        ppn=params.ppn,
        tradeoff=TradeOff.from_alpha(params.alpha),
    )
    try:
        allocation = policy.allocate(view, request, exclude=held or None)
    except AllocationError as exc:
        return str(exc)
    meta = allocation.metadata
    return (
        {
            "nodes": list(allocation.nodes),
            "procs": dict(allocation.procs),
            "snapshot_time": allocation.snapshot_time,
            "total_cost": meta["total_cost"],
            "compute_cost": meta["compute_cost"],
            "network_cost": meta["network_cost"],
        },
        usable,
    )


def checked(service, source, shard_nodes, log: list) -> None:
    """Make ``service`` log (oracle, answer) for every request it decides."""
    decide = service.allocate_batch

    def allocate_batch(batch):
        snapshot = source()  # the one the service decides on: same clock
        held = service.leases.held_nodes()
        assert len(batch) == 1  # the router forwards one request at a time
        want = oracle(snapshot, shard_nodes, batch[0], held)
        got = decide(batch)
        log.append((want, got[0]))
        return got

    service.allocate_batch = allocate_batch


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n_nodes", [64, 576], ids=["exact", "pruned"])
def test_shard_grants_match_projection_oracle(n_nodes, seed):
    rng = np.random.default_rng([29, n_nodes, seed])
    now = [0.0]
    fleet = [ring_fleet(rng, n_nodes)]

    def monitor() -> ClusterSnapshot:
        fleet[0] = perturb(rng, fleet[0], node_fraction=0.05, link_fraction=0.05)
        return fleet[0]

    source = CachedSnapshotSource(monitor, max_age_s=1.0, clock=lambda: now[0])
    partition = subtree_partition(snapshot_switches(source()), SHARDS)
    router = build_federation(
        source, partition, clock=lambda: now[0], default_ttl_s=TTL
    )
    log: list = []
    for sid, nodes in partition.items():
        checked(router.shard(sid).service, source, nodes, log)

    leases: list[str] = []
    shard_size = n_nodes // SHARDS
    for _ in range(30):
        now[0] += 2.0  # past max_age_s: the next read refreshes
        for _ in range(3):
            roll = rng.uniform()
            if roll < 0.25 and leases:
                lease_id = leases.pop(int(rng.integers(len(leases))))
                router.release(ReleaseParams(lease_id=lease_id))
                continue
            if roll < 0.35:  # bigger than one shard can hold
                n = int(rng.integers(shard_size * 6, shard_size * 9))
                ppn = None
            else:
                n = int(rng.integers(1, 40))
                ppn = None if rng.uniform() < 0.5 else int(rng.integers(1, 5))
            out = router.allocate_batch(
                [
                    AllocateParams(
                        n_processes=n,
                        ppn=ppn,
                        alpha=float(rng.choice([0.1, 0.5, 0.9])),
                        ttl_s=TTL,
                    )
                ]
            )[0]
            if not isinstance(out, ProtocolError):
                leases.append(out["lease_id"])

    assert source.deltas_applied >= 25  # the fleet store is patched
    assert router.cross_shard_grants > 0
    grants = pruned = 0
    for want, got in log:
        if isinstance(want, str):
            assert isinstance(got, ProtocolError), (want, got)
            assert got.code is ErrorCode.NO_CAPACITY
            assert got.message == want
            continue
        fields, usable = want
        assert not isinstance(got, ProtocolError), (fields, got)
        assert {k: got[k] for k in fields} == fields
        grants += 1
        pruned += usable > PRUNE_THRESHOLD_DEFAULT // SHARDS
    assert grants >= 40
    # the larger fleet's shards decide on the seed-pruned path
    assert (pruned > 0) == (n_nodes > 512)
