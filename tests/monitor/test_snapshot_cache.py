"""CachedSnapshotSource staleness edges (satellite: broker freshness).

Edge behaviour the broker daemon depends on:

* the TTL boundary is *inclusive* — a snapshot exactly ``max_age_s``
  old is still served from cache; one tick past it rebuilds;
* concurrent readers racing a slow refresh all receive a valid
  snapshot (never ``None``, never a torn state);
* the ``refreshes``/``hits`` health counters account for every call
  exactly once, including around ``invalidate()``;
* a refresh that only moves values is served as a patch of the cached
  snapshot, carrying its array store over.

The clock is injected everywhere — no real-time sleeps except the
barrier-controlled stall inside the concurrency test's fake source.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.arrays import STORE_KEY, array_store
from repro.monitor.snapshot import (
    CachedSnapshotSource,
    ClusterSnapshot,
    NodeView,
    derived_cache,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def tiny_snapshot(build: int) -> ClusterSnapshot:
    """A two-node snapshot whose loads and link move with ``build``."""
    stats = {k: float(build) for k in ("now", "m1", "m5", "m15")}
    views = {
        name: NodeView(
            name=name,
            cores=4,
            frequency_ghz=2.0,
            memory_gb=8.0,
            users=0,
            cpu_load=stats,
            cpu_util=stats,
            flow_rate_mbs=stats,
            available_memory_gb=stats,
            switch="s0",
        )
        for name in ("n0", "n1")
    }
    pair = ("n0", "n1")
    return ClusterSnapshot(
        time=float(build),
        nodes=views,
        bandwidth_mbs={pair: 100.0 + build},
        latency_us={pair: 5.0 + build},
        peak_bandwidth_mbs={pair: 1000.0},
        livehosts=("n0", "n1"),
    )


class CountingSource:
    """A snapshot source whose every build moves the cluster's values."""

    def __init__(self) -> None:
        self.builds = 0

    def __call__(self) -> ClusterSnapshot:
        self.builds += 1
        return tiny_snapshot(self.builds)


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def source() -> CountingSource:
    return CountingSource()


class TestTTLBoundary:
    def test_age_exactly_max_age_is_still_fresh(self, clock, source):
        """The freshness window is inclusive: age == max_age_s serves cache."""
        cached = CachedSnapshotSource(source, max_age_s=5.0, clock=clock)
        s1 = cached()
        clock.advance(5.0)  # exactly at the boundary
        assert cached() is s1
        assert source.builds == 1
        assert cached.age_s() == 5.0

    def test_one_tick_past_boundary_rebuilds(self, clock, source):
        cached = CachedSnapshotSource(source, max_age_s=5.0, clock=clock)
        s1 = cached()
        clock.advance(5.0 + 1e-9)
        s2 = cached()
        assert s2 is not s1
        assert source.builds == 2
        # the rebuild resets the age from the *call* time
        assert cached.age_s() == 0.0

    def test_zero_max_age_rebuilds_only_when_time_moves(self, clock, source):
        """max_age_s=0 still shares a snapshot among same-instant callers.

        The inclusive boundary matters most here: a burst of requests
        decided at one clock reading must share one snapshot object (and
        its derived cache) even with freshness set to zero.
        """
        cached = CachedSnapshotSource(source, max_age_s=0.0, clock=clock)
        s1 = cached()
        assert cached() is s1  # same instant: cache hit
        clock.advance(1e-9)
        assert cached() is not s1
        assert source.builds == 2

    def test_negative_max_age_rejected(self, clock):
        with pytest.raises(ValueError):
            CachedSnapshotSource(CountingSource(), max_age_s=-1.0, clock=clock)

    def test_refresh_hook_fires_per_rebuild_only(self, clock, source):
        hooks = []
        cached = CachedSnapshotSource(
            source, max_age_s=10.0, clock=clock,
            refresh_hook=lambda: hooks.append(clock()),
        )
        cached()
        cached()  # hit — no hook
        clock.advance(11.0)
        cached()
        assert hooks == [0.0, 11.0]


class TestConcurrentReaders:
    def test_readers_racing_a_slow_refresh_get_valid_snapshots(self, clock):
        """Readers arriving while a rebuild is in flight never see None.

        The first caller stalls inside the source; the rest pile in
        behind it.  Every thread must come back with a real snapshot
        (worst case the source is called more than once — correctness
        over economy), and the counters must account for every call.
        """
        n_readers = 8
        release = threading.Event()
        arrived = threading.Barrier(n_readers, timeout=10.0)
        build_lock = threading.Lock()
        builds = []

        def slow_source() -> ClusterSnapshot:
            release.wait(timeout=10.0)
            with build_lock:
                builds.append(len(builds))
                return tiny_snapshot(builds[-1])

        cached = CachedSnapshotSource(slow_source, max_age_s=100.0, clock=clock)
        results: list[object] = [None] * n_readers

        def reader(i: int) -> None:
            arrived.wait()
            if i == 0:
                release.set()
            results[i] = cached()

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(n_readers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert all(r is not None for r in results)
        assert all(
            isinstance(r, ClusterSnapshot) and set(r.nodes) == {"n0", "n1"}
            for r in results
        )
        # every call is either a refresh or a hit — none vanish
        assert cached.refreshes + cached.hits == n_readers
        assert cached.refreshes == len(builds)

    def test_steady_state_readers_share_one_object(self, clock):
        """After warm-up, a thundering herd shares the cached snapshot."""
        source = CountingSource()
        cached = CachedSnapshotSource(source, max_age_s=100.0, clock=clock)
        first = cached()  # warm the cache single-threaded
        results: list[object] = []
        results_lock = threading.Lock()

        def reader() -> None:
            got = cached()
            with results_lock:
                results.append(got)

        threads = [threading.Thread(target=reader) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert len(results) == 16
        assert all(r is first for r in results)
        assert source.builds == 1
        assert cached.hits == 16


class TestHealthCounters:
    def test_every_call_is_exactly_one_hit_or_refresh(self, clock, source):
        cached = CachedSnapshotSource(source, max_age_s=5.0, clock=clock)
        calls = 0
        for dt in (0.0, 1.0, 1.0, 4.0, 0.0, 6.0, 2.0):
            clock.advance(dt)
            cached()
            calls += 1
            assert cached.refreshes + cached.hits == calls
        # trajectory: build, hit, hit, rebuild (age 6), hit, rebuild, hit
        assert cached.refreshes == 3
        assert cached.hits == 4
        assert source.builds == cached.refreshes

    def test_invalidate_forces_refresh_and_counts_it(self, clock, source):
        cached = CachedSnapshotSource(source, max_age_s=100.0, clock=clock)
        s1 = cached()
        assert cached.age_s() == 0.0
        cached.invalidate()
        assert cached.age_s() == float("inf")
        s2 = cached()
        assert s2 is not s1
        assert cached.refreshes == 2 and cached.hits == 0

    def test_age_is_inf_before_first_build(self, clock, source):
        cached = CachedSnapshotSource(source, max_age_s=5.0, clock=clock)
        assert cached.age_s() == float("inf")


class TestDeltaRefresh:
    def test_default_cache_patches_a_value_only_refresh(self, clock, source):
        """A refresh that moves only values is a patch, not a rebuild."""
        cached = CachedSnapshotSource(source, max_age_s=5.0, clock=clock)
        s1 = cached()
        store = array_store(s1)
        clock.advance(6.0)
        s2 = cached()
        assert s2 is not s1 and s2.time == 2.0
        assert cached.deltas_applied == 1
        assert cached.deltas_empty == cached.delta_full_rebuilds == 0
        # the served snapshot carries the old store, patched: a rebuild
        # would have built its own index tables
        carried = derived_cache(s2)[STORE_KEY]
        assert carried is not store
        assert carried.index is store.index
        assert carried.pair_index is store.pair_index
        assert s2.nodes == tiny_snapshot(2).nodes
        assert s2.bandwidth_mbs == tiny_snapshot(2).bandwidth_mbs
