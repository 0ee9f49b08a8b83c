"""Lease lifecycle through the router: tokens, two-phase, shard death."""

from __future__ import annotations

import pytest

from repro.broker.protocol import (
    AllocateParams,
    ErrorCode,
    ProtocolError,
    ReconfigureParams,
    ReleaseParams,
    RenewParams,
    ResolveParams,
)
from repro.experiments.scenario import small_scenario
from repro.federation import (
    CROSS_SHARD_PREFIX,
    build_federation,
    snapshot_switches,
    subtree_partition,
)
from tests.federation.conftest import TTL, cross_shard_n, make_federation


def allocate(router, **kwargs):
    kwargs.setdefault("ttl_s", TTL)
    out = router.allocate_batch([AllocateParams(**kwargs)])[0]
    if isinstance(out, ProtocolError):
        raise out
    return out


def clocked_federation(now: list[float]):
    """A 2-shard federation whose clock reads ``now[0]``."""
    snap = small_scenario(8, seed=1).snapshot()
    return build_federation(
        lambda: snap,
        subtree_partition(snapshot_switches(snap), 2),
        clock=lambda: now[0],
        default_ttl_s=TTL,
    )


def shard_expired(router) -> int:
    """The ``expired`` counts of every shard, summed."""
    return sum(
        router.shard(sid).service.metrics.snapshot()["expired"]
        for sid in router.shard_ids
    )


def active_leases(router) -> int:
    return sum(
        len(router.shard(sid).service.leases.active())
        for sid in router.shard_ids
    )


class TestTokenPreservation:
    def test_single_shard_retry_replays_the_grant(self, small_sc):
        router = make_federation(small_sc, 2)
        first = allocate(router, n_processes=2, token="tok-1")
        again = allocate(router, n_processes=2, token="tok-1")
        assert again["lease_id"] == first["lease_id"]
        assert active_leases(router) == 1

    def test_retry_sticks_to_the_granting_shard(self, small_sc):
        # Even when the first grant made its shard look worse than the
        # other, the retry must go back to it — the shard's own memo is
        # the only place the duplicate can be detected.
        router = make_federation(small_sc, 2)
        first = allocate(router, n_processes=4, token="tok-sticky")
        sid = first["lease_id"].split(":")[0]
        assert router._token_shard["tok-sticky"] == sid
        again = allocate(router, n_processes=4, token="tok-sticky")
        assert again["lease_id"] == first["lease_id"]

    def test_cross_shard_retry_replays_verbatim(self, small_sc):
        router = make_federation(small_sc, 2)
        n = cross_shard_n(router)
        first = allocate(router, n_processes=n, token="tok-x")
        assert len(first["shards"]) >= 2
        before = active_leases(router)
        again = allocate(router, n_processes=n, token="tok-x")
        assert again == first
        assert active_leases(router) == before
        assert router.metrics.allocates_deduped == 1
        assert router.cross_shard_grants == 1


class TestCrossShardLifecycle:
    def test_grant_spans_shards_and_composes(self, small_sc):
        router = make_federation(small_sc, 2)
        n = cross_shard_n(router)
        grant = allocate(router, n_processes=n)
        assert grant["lease_id"].startswith("x:")
        assert grant["policy"] == "federated"
        assert len(grant["shards"]) == 2
        assert sum(grant["procs"].values()) == n
        assert len(grant["nodes"]) == len(set(grant["nodes"]))
        assert grant["hostfile"].endswith("\n")
        # every member shard holds exactly its slice
        for sid, member_id in grant["shards"].items():
            lease = router.shard(sid).service.leases.get(member_id)
            assert lease is not None
            assert set(lease.nodes) <= set(router.partition[sid])

    def test_renew_fans_out(self, small_sc):
        router = make_federation(small_sc, 2)
        grant = allocate(router, n_processes=cross_shard_n(router))
        renewed = router.renew(
            RenewParams(lease_id=grant["lease_id"], ttl_s=2 * TTL)
        )
        assert renewed["lease_id"] == grant["lease_id"]
        # every member clamps to its table's max_ttl_s; the composed
        # answer is the *minimum* over members — the honest expiry
        assert renewed["ttl_s"] == TTL
        assert renewed["renewals"] >= 1

    def test_resolve_names_the_members(self, small_sc):
        router = make_federation(small_sc, 2)
        grant = allocate(router, n_processes=cross_shard_n(router))
        resolved = router.resolve(ResolveParams(lease_id=grant["lease_id"]))
        assert resolved["cross_shard"] is True
        assert {
            (m["shard"], m["lease_id"]) for m in resolved["members"]
        } == set(grant["shards"].items())

    def test_release_frees_every_member(self, small_sc):
        router = make_federation(small_sc, 2)
        grant = allocate(router, n_processes=cross_shard_n(router))
        released = router.release(ReleaseParams(lease_id=grant["lease_id"]))
        assert released["released"] is True
        assert set(released["nodes"]) == set(grant["nodes"])
        assert active_leases(router) == 0
        with pytest.raises(ProtocolError) as err:
            router.resolve(ResolveParams(lease_id=grant["lease_id"]))
        assert err.value.code == ErrorCode.UNKNOWN_LEASE

    def test_reconfigure_is_a_typed_denial(self, small_sc):
        router = make_federation(small_sc, 2)
        grant = allocate(router, n_processes=cross_shard_n(router))
        with pytest.raises(ProtocolError) as err:
            router.reconfigure(
                ReconfigureParams(lease_id=grant["lease_id"], alpha=0.5)
            )
        assert err.value.code == ErrorCode.BAD_REQUEST


class TestShardDeath:
    def test_commit_phase_death_rolls_back_everything(self, small_sc):
        router = make_federation(small_sc, 2)
        killed: list[str] = []

        def die_at_commit(sid: str) -> None:
            if not killed:
                victim = next(s for s in router.shard_ids if s != sid)
                router.kill(victim)
                killed.append(victim)

        router.commit_hook = die_at_commit
        out = router.allocate_batch(
            [AllocateParams(n_processes=cross_shard_n(router), ttl_s=TTL)]
        )[0]
        assert isinstance(out, ProtocolError)
        assert out.code == ErrorCode.SHARD_DOWN
        assert "rolled back" in out.message
        assert router.cross_shard_rollbacks == 1
        assert active_leases(router) == 0

    def test_revived_shard_serves_the_retry(self, small_sc):
        router = make_federation(small_sc, 2)
        killed: list[str] = []

        def die_at_commit(sid: str) -> None:
            if not killed:
                victim = next(s for s in router.shard_ids if s != sid)
                router.kill(victim)
                killed.append(victim)

        router.commit_hook = die_at_commit
        n = cross_shard_n(router)
        with pytest.raises(ProtocolError):
            allocate(router, n_processes=n, token="t1")
        router.commit_hook = None
        router.revive(killed[0])
        grant = allocate(router, n_processes=n, token="t2")
        assert len(grant["shards"]) == 2

    def test_dead_shard_lease_ops_are_typed(self, small_sc):
        router = make_federation(small_sc, 2)
        grant = allocate(router, n_processes=2)
        sid = grant["lease_id"].split(":")[0]
        router.kill(sid)
        with pytest.raises(ProtocolError) as err:
            router.renew(RenewParams(lease_id=grant["lease_id"]))
        assert err.value.code == ErrorCode.SHARD_DOWN
        assert router.shard_down_errors >= 1

    def test_sweep_reaps_a_fed_lease_missing_a_member(self, small_sc):
        router = make_federation(small_sc, 2)
        grant = allocate(router, n_processes=cross_shard_n(router))
        victim = next(iter(grant["shards"]))
        router.kill(victim)
        router.sweep_expired()
        assert router.cross_shard_reclaimed == 1
        assert active_leases(router) == 0
        with pytest.raises(ProtocolError) as err:
            router.resolve(ResolveParams(lease_id=grant["lease_id"]))
        assert err.value.code == ErrorCode.UNKNOWN_LEASE

    def test_all_shards_down_is_no_capacity(self, small_sc):
        router = make_federation(small_sc, 2)
        for sid in router.shard_ids:
            router.kill(sid)
        out = router.allocate_batch(
            [AllocateParams(n_processes=2, ttl_s=TTL)]
        )[0]
        assert isinstance(out, ProtocolError)
        assert out.code == ErrorCode.NO_CAPACITY


class TestStatusShape:
    def test_status_is_single_broker_shaped_plus_federation(self, small_sc):
        router = make_federation(small_sc, 2)
        grant = allocate(router, n_processes=cross_shard_n(router))
        status = router.status()
        assert status["policy"] == "federated"
        assert status["leases"]["cross_shard"] == 1
        assert status["leases"]["nodes_held"] == len(grant["nodes"])
        fed = status["federation"]
        assert set(fed["shards"]) == set(router.shard_ids)
        assert fed["counters"]["cross_shard_grants"] == 1
        assert status["metrics"]["granted"] >= 1


class TestStatusCounters:
    def test_shard_rows_carry_malleability_counters(self, small_sc):
        router = make_federation(small_sc, 2)
        grant = allocate(router, n_processes=8, ppn=4)
        owner = grant["lease_id"].split(":")[0]
        out = router.reconfigure(
            ReconfigureParams(lease_id=grant["lease_id"], remaining_s=TTL)
        )
        rows = router.status()["federation"]["shards"]
        for sid in router.shard_ids:
            row = rows[sid]
            # only the owning shard saw the reconfigure, and it counted
            # the outcome exactly once
            decided = row["reconfigured"] + row["reconfig_rejected"]
            assert decided == (1 if sid == owner else 0)
        assert rows[owner]["reconfigured"] == int(out["reconfigured"])

    def test_router_metrics_count_single_shard_lease_ops(self):
        """Single-shard renew, release and swept expiry reach the router's
        ``metrics`` exactly as the owning shard counts them."""
        now = [0.0]
        router = clocked_federation(now)
        grant = allocate(router, n_processes=2)
        router.renew(RenewParams(lease_id=grant["lease_id"]))
        router.release(ReleaseParams(lease_id=grant["lease_id"]))
        allocate(router, n_processes=2)
        now[0] += 2 * TTL
        assert len(router.sweep_expired()) == 1
        routed = router.status()["metrics"]
        for key in ("renewed", "released", "expired"):
            shards = sum(
                router.shard(sid).service.metrics.snapshot()[key]
                for sid in router.shard_ids
            )
            assert routed[key] == shards == 1, key

    @pytest.mark.parametrize(
        "op",
        [
            lambda router, lease: router.renew(RenewParams(lease_id=lease)),
            lambda router, lease: router.release(ReleaseParams(lease_id=lease)),
            lambda router, lease: router.reconfigure(
                ReconfigureParams(lease_id=lease, remaining_s=TTL)
            ),
        ],
        ids=["renew", "release", "reconfigure"],
    )
    def test_router_counts_expiries_found_by_routed_ops(self, op):
        """A routed op that finds its lease expired before any sweep
        counts the expiry in the router's ``metrics`` as the shard does."""
        now = [0.0]
        router = clocked_federation(now)
        grant = allocate(router, n_processes=2, ttl_s=60.0)
        now[0] = 120.0
        with pytest.raises(ProtocolError) as err:
            op(router, grant["lease_id"])
        assert err.value.code == ErrorCode.EXPIRED_LEASE
        shards = sum(
            router.shard(sid).service.metrics.snapshot()["expired"]
            for sid in router.shard_ids
        )
        assert router.status()["metrics"]["expired"] == shards == 1
        assert router.sweep_expired() == []
        assert router.status()["metrics"]["expired"] == 1

    def test_router_counts_member_expiry_found_by_cross_shard_renew(self):
        """A cross-shard renew whose first member finds its lease expired
        counts that expiry in the router as the member's shard does, and
        the sweep that reaps the rest keeps the two counts equal."""
        now = [0.0]
        router = clocked_federation(now)
        grant = allocate(router, n_processes=cross_shard_n(router), ttl_s=60.0)
        assert grant["lease_id"].startswith(f"{CROSS_SHARD_PREFIX}:")
        now[0] = 120.0
        with pytest.raises(ProtocolError) as err:
            router.renew(RenewParams(lease_id=grant["lease_id"]))
        assert err.value.code == ErrorCode.EXPIRED_LEASE
        assert router.status()["metrics"]["expired"] == shard_expired(router) == 1
        router.sweep_expired()
        assert router.status()["metrics"]["expired"] == shard_expired(router) == 2

    def test_router_counts_member_expiries_found_by_cross_shard_release(self):
        """A cross-shard release counts each member its shard finds
        expired in the router too; the evicted members leave the sweep
        nothing to make up."""
        now = [0.0]
        router = clocked_federation(now)
        grant = allocate(router, n_processes=cross_shard_n(router), ttl_s=60.0)
        members = len(grant["shards"])
        assert members >= 2
        now[0] = 120.0
        out = router.release(ReleaseParams(lease_id=grant["lease_id"]))
        assert out["released"] is True
        assert router.status()["metrics"]["expired"] == shard_expired(router)
        assert shard_expired(router) == members
        assert router.sweep_expired() == []
        assert router.status()["metrics"]["expired"] == shard_expired(router)

    def test_expired_reconfigure_leaves_its_shard_mates_to_the_sweep(self):
        """Reconfiguring one of two expired leases on a shard reclaims
        only that lease, so the router's count (one per expired reply)
        equals the shards' sum before and after the sweep reaps the
        other."""
        now = [0.0]
        router = clocked_federation(now)
        by_shard: dict[str, list[str]] = {}
        while not any(len(ids) == 2 for ids in by_shard.values()):
            lease_id = allocate(router, n_processes=2, ttl_s=60.0)["lease_id"]
            by_shard.setdefault(lease_id.partition(":")[0], []).append(lease_id)
        first, second = next(ids for ids in by_shard.values() if len(ids) == 2)
        now[0] = 120.0
        with pytest.raises(ProtocolError) as err:
            router.reconfigure(
                ReconfigureParams(lease_id=first, remaining_s=TTL)
            )
        assert err.value.code == ErrorCode.EXPIRED_LEASE
        assert router.status()["metrics"]["expired"] == shard_expired(router) == 1
        reclaimed = {lease.lease_id for lease in router.sweep_expired()}
        assert second in reclaimed and first not in reclaimed
        assert router.status()["metrics"]["expired"] == shard_expired(router)
        assert shard_expired(router) == 1 + len(reclaimed)
