"""Snapshot slicing: projection correctness and the incremental path."""

from __future__ import annotations

import pytest

import repro.monitor.slicing as slicing
from repro.core.arrays import load_state
from repro.experiments.scenario import small_scenario
from repro.federation import snapshot_switches, subtree_partition
from repro.monitor.slicing import ShardSnapshotSource, slice_snapshot
from repro.monitor.snapshot import CachedSnapshotSource

from tests.properties.test_delta_differential import assert_states_identical


@pytest.fixture
def sc():
    """A private scenario — these tests advance simulated time."""
    return small_scenario(8, seed=1, warmup_s=300.0)


class TestSliceSnapshot:
    def test_projection_keeps_only_shard_state(self, sc):
        snap = sc.snapshot()
        part = subtree_partition(snapshot_switches(snap), 2)
        keep = set(part["shard1"])
        sliced = slice_snapshot(snap, keep)
        assert set(sliced.nodes) == keep & set(snap.nodes)
        assert sliced.time == snap.time
        for pair in sliced.bandwidth_mbs:
            assert pair[0] in keep and pair[1] in keep
        for pair in sliced.latency_us:
            assert pair[0] in keep and pair[1] in keep
        assert all(h in keep for h in sliced.livehosts)
        # livehosts order is the parent's, filtered
        assert list(sliced.livehosts) == [
            h for h in snap.livehosts if h in keep
        ]

    def test_cross_subtree_links_are_dropped(self, sc):
        snap = sc.snapshot()
        part = subtree_partition(snapshot_switches(snap), 2)
        sliced = slice_snapshot(snap, part["shard1"])
        crossing = [
            pair
            for pair in snap.latency_us
            if (pair[0] in part["shard1"]) != (pair[1] in part["shard1"])
        ]
        assert all(pair not in sliced.latency_us for pair in crossing)

    def test_unknown_nodes_are_ignored(self, sc):
        snap = sc.snapshot()
        sliced = slice_snapshot(snap, ["ghost1", *list(snap.nodes)[:2]])
        assert len(sliced.nodes) == 2


class TestShardSnapshotSource:
    def test_same_parent_object_reuses_the_slice(self, sc):
        snap = sc.snapshot()
        source = ShardSnapshotSource(lambda: snap, list(snap.nodes)[:4])
        first = source()
        second = source()
        assert second is first
        assert source.reuses == 1
        assert source.rebuilds == 1  # the initial slice

    def test_parent_advance_is_served_incrementally(self, sc):
        part = subtree_partition(
            snapshot_switches(sc.snapshot()), 2
        )
        source = ShardSnapshotSource(sc.snapshot, part["shard1"])
        first = source()
        sc.advance(30.0)
        second = source()
        assert second is not first
        assert second.time > first.time
        assert set(second.nodes) == set(first.nodes)
        assert (source.rebuilds, source.deltas, source.reuses) == (1, 1, 0)

    def test_rejects_empty_node_set(self, sc):
        with pytest.raises(ValueError):
            ShardSnapshotSource(sc.snapshot, [])


class TestCatchUpDifferential:
    """A lagging slice caught up from a delta-chained parent ≡ a fresh slice."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_catch_up_after_k_parent_steps(self, sc, monkeypatch, k):
        now = [0.0]
        parent = CachedSnapshotSource(
            sc.snapshot,
            max_age_s=0.0,
            clock=lambda: now[0],
            refresh_hook=lambda: sc.advance(30.0),
        )
        nodes = subtree_partition(snapshot_switches(parent()), 2)["shard1"]
        shard = ShardSnapshotSource(parent, nodes)
        first = shard()
        load_state(first, nodes=list(first.nodes), ppn=4)  # a store to patch
        for _ in range(k):
            now[0] += 1.0
            parent()
        assert parent.deltas_applied == k
        reslices = []
        real_slice = slicing.slice_snapshot
        monkeypatch.setattr(
            slicing,
            "slice_snapshot",
            lambda *args: reslices.append(k) or real_slice(*args),
        )
        caught = shard()
        # one stashed step is patched in; a longer gap is resliced
        assert len(reslices) == (0 if k == 1 else 1)
        assert (shard.rebuilds, shard.deltas) == (1, 1)
        fresh = real_slice(parent(), nodes)
        for attr in (
            "time",
            "nodes",
            "bandwidth_mbs",
            "latency_us",
            "peak_bandwidth_mbs",
            "livehosts",
        ):
            assert getattr(caught, attr) == getattr(fresh, attr), attr
        kwargs = {"nodes": list(fresh.nodes), "ppn": 4}
        assert_states_identical(
            load_state(caught, **kwargs), load_state(fresh, **kwargs)
        )
