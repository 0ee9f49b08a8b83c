"""BrokerService decisions: batching, exclusion, memoization, expiry.

Timing is injected (FakeClock) — deterministic, no real-time sleeps.
"""

import pytest

from repro.broker.protocol import (
    AllocateParams,
    ErrorCode,
    ProtocolError,
    ReleaseParams,
    RenewParams,
)
from repro.broker.service import BrokerService
from repro.monitor.snapshot import CachedSnapshotSource


def make_service(scenario, clock, **kwargs) -> BrokerService:
    """Service over a cached source so one 'freshness window' covers the
    whole test — decisions share one snapshot object, as in the daemon."""
    kwargs.setdefault("default_ttl_s", 30.0)
    source = CachedSnapshotSource(
        scenario.snapshot, max_age_s=1e9, clock=clock
    )
    return BrokerService(source, clock=clock, **kwargs)


def grant_of(result):
    assert not isinstance(result, ProtocolError), result
    return result


class TestAllocateBatch:
    def test_batch_grants_disjoint_nodes(self, scenario, clock):
        service = make_service(scenario, clock)
        p = AllocateParams(n_processes=8, ppn=4)
        r1, r2 = service.allocate_batch([p, p])
        g1, g2 = grant_of(r1), grant_of(r2)
        assert g1["lease_id"] != g2["lease_id"]
        assert not set(g1["nodes"]) & set(g2["nodes"])
        assert len(service.leases) == 2
        assert service.metrics.batch_size_hist[2] == 1
        assert service.metrics.granted == 2

    def test_no_capacity_is_structured(self, scenario, clock):
        service = make_service(scenario, clock)
        p = AllocateParams(n_processes=16, ppn=4)  # 4 of the 8 nodes each
        results = service.allocate_batch([p, p, p])
        assert not isinstance(results[0], ProtocolError)
        assert not isinstance(results[1], ProtocolError)
        assert isinstance(results[2], ProtocolError)
        assert results[2].code == ErrorCode.NO_CAPACITY
        assert service.metrics.denied == 1

    def test_unknown_policy_rejected(self, scenario, clock):
        service = make_service(scenario, clock)
        [result] = service.allocate_batch(
            [AllocateParams(n_processes=4, policy="first_fit")]
        )
        assert isinstance(result, ProtocolError)
        assert result.code == ErrorCode.BAD_REQUEST

    def test_empty_batch(self, scenario, clock):
        service = make_service(scenario, clock)
        assert service.allocate_batch([]) == []
        assert service.metrics.batches == 0

    def test_hostfile_in_grant(self, scenario, clock):
        service = make_service(scenario, clock)
        [result] = service.allocate_batch([AllocateParams(n_processes=8, ppn=4)])
        grant = grant_of(result)
        lines = grant["hostfile"].strip().splitlines()
        assert len(lines) == len(grant["nodes"])
        assert sum(int(l.split(":")[1]) for l in lines) == 8


class TestDecisionMemo:
    def test_identical_request_memoized_after_release(self, scenario, clock):
        service = make_service(scenario, clock)
        p = AllocateParams(n_processes=8, ppn=4)
        [r1] = service.allocate_batch([p])
        g1 = grant_of(r1)
        service.release(ReleaseParams(lease_id=g1["lease_id"]))
        [r2] = service.allocate_batch([p])
        g2 = grant_of(r2)
        assert g2["nodes"] == g1["nodes"]
        assert service.metrics.decisions_memoized == 1

    def test_random_policy_not_memoized(self, scenario, clock):
        service = make_service(scenario, clock, rng=scenario.streams.child("t"))
        p = AllocateParams(n_processes=8, ppn=4, policy="random")
        [r1] = service.allocate_batch([p])
        service.release(ReleaseParams(lease_id=grant_of(r1)["lease_id"]))
        service.allocate_batch([p])
        assert service.metrics.decisions_memoized == 0

    def test_memo_disabled(self, scenario, clock):
        service = make_service(scenario, clock, memoize_decisions=False)
        p = AllocateParams(n_processes=8, ppn=4)
        [r1] = service.allocate_batch([p])
        service.release(ReleaseParams(lease_id=grant_of(r1)["lease_id"]))
        service.allocate_batch([p])
        assert service.metrics.decisions_memoized == 0

    def test_denial_memoized_too(self, scenario, clock):
        service = make_service(scenario, clock)
        fill = AllocateParams(n_processes=32, ppn=4)  # hold all 8 nodes
        assert not isinstance(service.allocate_batch([fill])[0], ProtocolError)
        p = AllocateParams(n_processes=4)
        [r1] = service.allocate_batch([p])
        [r2] = service.allocate_batch([p])
        assert isinstance(r1, ProtocolError) and isinstance(r2, ProtocolError)
        assert r1.code == r2.code == ErrorCode.NO_CAPACITY
        assert service.metrics.decisions_memoized == 1


class TestLeaseLifecycleViaService:
    def test_renew_then_expire_then_sweep(self, scenario, clock):
        service = make_service(scenario, clock)
        [r] = service.allocate_batch([AllocateParams(n_processes=4, ttl_s=10.0)])
        lease_id = grant_of(r)["lease_id"]
        clock.advance(8.0)
        renewed = service.renew(RenewParams(lease_id=lease_id))
        assert renewed["expires_at"] == pytest.approx(18.0)
        clock.advance(30.0)
        reclaimed = service.sweep_expired()
        assert [l.lease_id for l in reclaimed] == [lease_id]
        assert service.metrics.expired == 1
        # once reclaimed, release is a structured UNKNOWN_LEASE
        with pytest.raises(ProtocolError) as err:
            service.release(ReleaseParams(lease_id=lease_id))
        assert err.value.code == ErrorCode.UNKNOWN_LEASE

    def test_expired_nodes_allocatable_again(self, scenario, clock):
        service = make_service(scenario, clock)
        p = AllocateParams(n_processes=16, ppn=4, ttl_s=10.0)
        g1 = grant_of(service.allocate_batch([p])[0])
        g2 = grant_of(service.allocate_batch([p])[0])
        assert isinstance(service.allocate_batch([p])[0], ProtocolError)
        clock.advance(20.0)
        assert len(service.sweep_expired()) == 2
        g3 = grant_of(service.allocate_batch([p])[0])
        assert set(g3["nodes"]) <= set(g1["nodes"]) | set(g2["nodes"])

    def test_renew_after_expire_via_service(self, scenario, clock):
        service = make_service(scenario, clock)
        [r] = service.allocate_batch([AllocateParams(n_processes=4, ttl_s=5.0)])
        clock.advance(10.0)
        with pytest.raises(ProtocolError) as err:
            service.renew(RenewParams(lease_id=grant_of(r)["lease_id"]))
        assert err.value.code == ErrorCode.EXPIRED_LEASE
        assert service.metrics.expired == 1


class TestStatus:
    def test_status_shape(self, scenario, clock):
        service = make_service(scenario, clock)
        service.allocate_batch([AllocateParams(n_processes=4)])
        clock.advance(3.0)
        status = service.status()
        assert status["protocol_version"] == 1
        assert status["uptime_s"] == pytest.approx(3.0)
        assert status["leases"]["active"] == 1
        assert status["leases"]["nodes_held"] >= 1
        m = status["metrics"]
        assert m["granted"] == 1 and m["batches"] == 1
        assert set(m["decision_latency_ms"]) == {"p50", "p99", "max"}

    def test_status_reports_snapshot_health(self, scenario, clock):
        source = CachedSnapshotSource(
            scenario.snapshot, max_age_s=100.0, clock=clock
        )
        service = BrokerService(source, clock=clock)
        service.allocate_batch([AllocateParams(n_processes=4)])
        status = service.status()
        assert status["snapshot"]["refreshes"] == 1
        assert status["snapshot"]["max_age_s"] == 100.0


class TestCachedSnapshotSource:
    def test_reuses_within_max_age(self, scenario, clock):
        calls = []

        def source():
            calls.append(clock())
            return scenario.snapshot()

        cached = CachedSnapshotSource(source, max_age_s=10.0, clock=clock)
        s1 = cached()
        clock.advance(5.0)
        s2 = cached()
        assert s1 is s2 and len(calls) == 1
        assert cached.hits == 1

    def test_refreshes_when_stale(self, scenario, clock):
        hooks = []
        cached = CachedSnapshotSource(
            scenario.snapshot,
            max_age_s=10.0,
            clock=clock,
            refresh_hook=lambda: hooks.append(clock()),
        )
        cached()
        clock.advance(11.0)
        cached()
        assert cached.refreshes == 2 and len(hooks) == 2

    def test_invalidate_forces_rebuild(self, scenario, clock):
        cached = CachedSnapshotSource(
            scenario.snapshot, max_age_s=1e9, clock=clock
        )
        cached()
        cached.invalidate()
        cached()
        assert cached.refreshes == 2

    def test_age_reporting(self, scenario, clock):
        cached = CachedSnapshotSource(
            scenario.snapshot, max_age_s=100.0, clock=clock
        )
        assert cached.age_s() == float("inf")
        cached()
        clock.advance(7.0)
        assert cached.age_s() == pytest.approx(7.0)

    def test_shared_snapshot_shares_derived_cache(self, scenario, clock):
        """The whole point: one refresh window == one LoadState memo."""
        from repro.core.arrays import load_state
        from repro.monitor.snapshot import derived_cache

        cached = CachedSnapshotSource(
            scenario.snapshot, max_age_s=100.0, clock=clock
        )
        s1, s2 = cached(), cached()
        state1 = load_state(s1, nodes=list(s1.nodes), ppn=4)
        state2 = load_state(s2, nodes=list(s2.nodes), ppn=4)
        assert state1 is state2
        assert any(
            k[0] == "load_state" for k in derived_cache(s1)
        )


@pytest.fixture(scope="module")
def paper_tree_snapshot():
    from repro.scenarios import get_scenario

    return get_scenario("paper-tree").build(seed=0).snapshot()


class TestExplicitPpnIsACap:
    @pytest.mark.parametrize("memoize", [True, False])
    def test_over_ppn_request_is_denied(self, paper_tree_snapshot, memoize):
        """Regression: 56 processes at ppn=1 leave 4 of the 60 nodes; 16
        processes at ppn=2 used to be granted as 4 nodes × 4 processes
        (Algorithm 1's round-robin remainder) instead of being denied."""
        service = BrokerService(
            lambda: paper_tree_snapshot, memoize_decisions=memoize
        )
        first = grant_of(
            service.allocate_batch([AllocateParams(n_processes=56, ppn=1)])[0]
        )
        assert len(first["nodes"]) == 56
        out = service.allocate_batch(
            [AllocateParams(n_processes=16, ppn=2)]
        )[0]
        assert isinstance(out, ProtocolError)
        assert out.code == ErrorCode.NO_CAPACITY
        fits = grant_of(
            service.allocate_batch([AllocateParams(n_processes=8, ppn=2)])[0]
        )
        assert sorted(fits["procs"].values()) == [2, 2, 2, 2]
