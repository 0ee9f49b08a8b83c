"""A shard's snapshot source: the fleet snapshot itself, scoped to a shard.

Every shard decides on the snapshot the router scores, so one monitor
refresh leaves one snapshot and one array store, patched once, which
the router's fleet pass and every shard's decisions all read.
"""

from __future__ import annotations

import pytest

from repro.broker.protocol import AllocateParams, ReleaseParams
from repro.core.arrays import STORE_KEY, LoadState
from repro.experiments.scenario import small_scenario
from repro.federation import (
    build_federation,
    snapshot_switches,
    subtree_partition,
)
from repro.monitor.slicing import ShardSnapshotSource
from repro.monitor.snapshot import CachedSnapshotSource, derived_cache
from tests.federation.conftest import TTL


@pytest.fixture
def sc():
    """A private scenario — these tests advance simulated time."""
    return small_scenario(16, seed=3, warmup_s=600.0)


def _drifting(sc, now: list[float]) -> CachedSnapshotSource:
    """A fleet source that advances the scenario 30 s per refresh."""
    return CachedSnapshotSource(
        sc.snapshot,
        max_age_s=1.0,
        clock=lambda: now[0],
        refresh_hook=lambda: sc.advance(30.0),
    )


class TestShardSnapshotSource:
    def test_serves_the_parent_snapshot(self, sc):
        snap = sc.snapshot()
        nodes = list(snap.nodes)[:4]
        source = ShardSnapshotSource(lambda: snap, nodes)
        assert source() is snap
        assert source.nodes == frozenset(nodes)

    def test_follows_the_parent(self, sc):
        now = [0.0]
        parent = _drifting(sc, now)
        nodes = subtree_partition(snapshot_switches(parent()), 2)["shard1"]
        source = ShardSnapshotSource(parent, nodes)
        first = source()
        now[0] += 2.0
        second = source()
        assert second is parent() and second is not first
        assert second.time > first.time

    def test_rejects_empty_node_set(self, sc):
        with pytest.raises(ValueError):
            ShardSnapshotSource(sc.snapshot, [])


def test_shards_and_router_read_one_store_per_refresh(sc):
    """After drifting refreshes, every shard's LoadState slices the
    array store the router's fleet pass reads: the patched one."""
    now = [0.0]
    source = _drifting(sc, now)
    partition = subtree_partition(snapshot_switches(source()), 4)
    router = build_federation(
        source, partition, clock=lambda: now[0], default_ttl_s=TTL
    )
    for _ in range(4):
        now[0] += 2.0
        for sid in router.shard_ids:
            service = router.shard(sid).service
            out = service.allocate_batch(
                [AllocateParams(n_processes=4, ttl_s=TTL)]
            )[0]
            service.release(ReleaseParams(lease_id=out["lease_id"]))
        router.shards()
        snap = source()
        store = derived_cache(snap)[STORE_KEY]
        assert router._partitioned()._fleet_pass()[0] is store
        states = [
            v for v in derived_cache(snap).values() if isinstance(v, LoadState)
        ]
        assert {
            sid
            for sid, nodes in partition.items()
            for state in states
            if set(state.nodes) <= set(nodes)
        } == set(partition)
        assert all(state.store is store for state in states)
    assert source.deltas_applied >= 3
