"""The systems under test, built only from the repository's public API.

Both the daemon process (``daemon.py``) and the in-process placement
replay (``placement.py``) call :func:`build_system`, so the replay scores
exactly the allocator configuration the daemon serves.

The 60-node cells come from the ``paper-tree`` scenario registry entry.
The 1024-node fleet is this benchmark's own synthetic cluster: ring
links (each node measures its two nearest neighbours on each side) and
16 nodes per leaf switch, with ~2% of nodes and links drifting at every
monitor read.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.broker import BrokerServer, BrokerService
from repro.federation.daemon import FederationDaemon
from repro.federation.router import build_federation
from repro.federation.sharding import snapshot_switches, subtree_partition
from repro.monitor.snapshot import CachedSnapshotSource, ClusterSnapshot, NodeView
from repro.scenarios import get_scenario

#: simulated seconds the paper cluster advances per snapshot refresh
#: (the ``serve`` default of ``--advance-on-refresh-s``)
PAPER_ADVANCE_S = 5.0
#: drifting share of fleet nodes and measured links per monitor read
FLEET_DRIFT = 0.02
FLEET_NODES = 1024
FLEET_NODES_PER_SWITCH = 16
FLEET_SHARDS = 4
#: snapshot max age of every live cache: sub-second, so refreshes land
#: inside a run.  Every 12th paper-cluster refresh (60 simulated s) rolls
#: the monitor's one-minute load windows, which changes every node and
#: makes each cached LoadState rebuild: a stall of ~300 ms on a 5 s
#: segment's daemon.  At 0.8 s it falls after a segment, never inside one
MAX_AGE_S = 0.8
#: a frozen snapshot never ages out within one run
FROZEN_MAX_AGE_S = 1e9
#: lease TTL floor of the services; workload TTLs are sub-second
MIN_TTL_S = 0.02
#: the seed of every benchmarked cluster and its monitor.  A run's seed
#: varies only the traffic: on a cluster drawn per seed, allocation cost
#: moved with the draw and a fed run's metrics spread ~18% over seeds
SYSTEM_SEED = 0


@dataclass
class System:
    """One wired system: its snapshot cache, service and daemon."""

    source: CachedSnapshotSource
    #: a BrokerService, or a FederationRouter in front of shard services
    service: Any
    server: BrokerServer


def _stats(v: float) -> dict[str, float]:
    return {"now": v, "m1": v, "m5": v, "m15": v}


def synth_fleet(n: int, seed: int) -> ClusterSnapshot:
    """An ``n``-node cluster whose monitor measures only ring links."""
    rng = np.random.default_rng(seed)
    names = [f"n{i:05d}" for i in range(n)]
    nodes: dict[str, NodeView] = {}
    for i, name in enumerate(names):
        load = float(rng.uniform(0.0, 10.0))
        nodes[name] = NodeView(
            name=name,
            cores=12,
            frequency_ghz=2.6,
            memory_gb=64.0,
            users=int(rng.integers(0, 3)),
            cpu_load=_stats(load),
            cpu_util=_stats(min(100.0, load * 8.0)),
            flow_rate_mbs=_stats(float(rng.uniform(0.0, 60.0))),
            available_memory_gb=_stats(float(rng.uniform(8.0, 60.0))),
            switch=f"s{i // FLEET_NODES_PER_SWITCH}",
        )
    bandwidth: dict[tuple[str, str], float] = {}
    latency: dict[tuple[str, str], float] = {}
    peak: dict[tuple[str, str], float] = {}
    for i in range(n):
        for step in (1, 2):
            a, b = sorted((names[i], names[(i + step) % n]))
            if a == b or (a, b) in peak:
                continue
            peak[(a, b)] = 125.0
            bandwidth[(a, b)] = float(125.0 * rng.uniform(0.5, 1.0))
            latency[(a, b)] = float(rng.uniform(40.0, 120.0))
    return ClusterSnapshot(
        time=0.0,
        nodes=nodes,
        bandwidth_mbs=bandwidth,
        latency_us=latency,
        peak_bandwidth_mbs=peak,
        livehosts=tuple(names),
    )


class DriftingFleet:
    """A fleet monitor: every read returns a freshly drifted snapshot.

    Drift rescales the dynamic load of ~``FLEET_DRIFT`` of the nodes and
    re-measures as many links; nodes and topology never change, so an
    incremental cache always finds a delta, never a rebuild.
    """

    def __init__(self, seed: int) -> None:
        self.snapshot = synth_fleet(FLEET_NODES, seed)
        self._rng = np.random.default_rng([seed, 1])

    def __call__(self) -> ClusterSnapshot:
        snap, rng = self.snapshot, self._rng
        views = dict(snap.nodes)
        for name in rng.choice(
            list(views), size=max(1, int(FLEET_DRIFT * len(views))), replace=False
        ):
            view = views[name]
            factor = float(rng.uniform(0.7, 1.3))
            views[name] = dataclasses.replace(
                view,
                cpu_load={k: v * factor for k, v in view.cpu_load.items()},
                flow_rate_mbs={k: v * factor for k, v in view.flow_rate_mbs.items()},
            )
        bandwidth = dict(snap.bandwidth_mbs)
        pairs = list(bandwidth)
        for idx in rng.choice(
            len(pairs), size=max(1, int(FLEET_DRIFT * len(pairs))), replace=False
        ):
            key = pairs[idx]
            bandwidth[key] = float(snap.peak_bandwidth_mbs[key] * rng.uniform(0.3, 1.0))
        self.snapshot = dataclasses.replace(
            snap, time=snap.time + 1.0, nodes=views, bandwidth_mbs=bandwidth
        )
        return self.snapshot


def build_system(kind: str, *, frozen: bool) -> System:
    """Wire the system a workload runs against, from :data:`SYSTEM_SEED`.

    ``kind`` is ``paper60`` (the monitored paper cluster, advancing at
    every refresh) or ``fleet1k-fed`` (the drifting fleet behind a
    ``FLEET_SHARDS``-shard federation).  A ``frozen`` system keeps its
    first snapshot for good.  Every snapshot cache is incremental, as
    ``serve --incremental`` builds it.
    """
    max_age_s = FROZEN_MAX_AGE_S if frozen else MAX_AGE_S
    seed = SYSTEM_SEED
    if kind == "paper60":
        sc = get_scenario("paper-tree").build(seed=seed)
        source = CachedSnapshotSource(
            sc.snapshot,
            max_age_s=max_age_s,
            refresh_hook=None if frozen else (lambda: sc.advance(PAPER_ADVANCE_S)),
            incremental=True,
        )
        service = BrokerService(
            source, rng=sc.streams.child("broker"), min_ttl_s=MIN_TTL_S
        )
        return System(source, service, BrokerServer(service, port=0))
    if kind == "fleet1k-fed":
        source = CachedSnapshotSource(
            DriftingFleet(seed), max_age_s=max_age_s, incremental=True
        )
        partition = subtree_partition(snapshot_switches(source()), FLEET_SHARDS)
        router = build_federation(source, partition, min_ttl_s=MIN_TTL_S)
        return System(source, router, FederationDaemon(router, port=0))
    raise ValueError(f"unknown system kind {kind!r}")
