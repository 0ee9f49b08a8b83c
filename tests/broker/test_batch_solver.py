"""Batch solver and lineage-memo behaviour under delta-patched snapshots.

Two guarantees live here:

* ``allocate_batch`` is a *solver*, not a loop — higher-priority jobs
  are decided first under contention, the swap-improvement pass can only
  lower the summed raw Equation-4 cost, and with all-default priorities
  the grants are identical to the historical sequential arrival-order
  behaviour.
* the decision memo is keyed on snapshot *lineage*: any new snapshot —
  an applied delta or a full rebuild — clears it, so a memo hit can
  never replay a decision made against data a refresh rewrote (the
  stale-grant regression).
"""

import dataclasses

import pytest

from repro.broker.protocol import (
    AllocateParams,
    ErrorCode,
    ProtocolError,
    ReleaseParams,
)
from repro.broker.service import BrokerService
from repro.monitor.snapshot import CachedSnapshotSource


def fresh_snapshot(scenario):
    """A freshly built scenario snapshot with its own (empty) derived cache."""
    return scenario.snapshot()


def drift_loads(snap, names, factor=8.0):
    """``snap`` with the CPU load of ``names`` scaled — a pure delta."""
    views = dict(snap.nodes)
    for name in names:
        view = views[name]
        views[name] = dataclasses.replace(
            view,
            cpu_load={k: float(v) * factor for k, v in view.cpu_load.items()},
        )
    return dataclasses.replace(snap, time=snap.time + 1.0, nodes=views)


def incremental_service(scenario, clock, **kwargs):
    """Service over a delta-patching cached source fed by a mutable cell."""
    cell = [fresh_snapshot(scenario)]
    source = CachedSnapshotSource(lambda: cell[-1], max_age_s=5.0, clock=clock)
    kwargs.setdefault("default_ttl_s", 30.0)
    return BrokerService(source, clock=clock, **kwargs), cell, source


def sealed_service(scenario, clock, **kwargs):
    """Service over one pinned snapshot (the historical fixture shape)."""
    kwargs.setdefault("default_ttl_s", 30.0)
    source = CachedSnapshotSource(
        scenario.snapshot, max_age_s=1e9, clock=clock
    )
    return BrokerService(source, clock=clock, **kwargs)


def grant_of(result):
    assert not isinstance(result, ProtocolError), result
    return result


def raw_cost(grant, alpha):
    """Raw Equation-4 objective of one grant (cross-decision comparable)."""
    return alpha * grant["compute_cost"] + (1.0 - alpha) * grant["network_cost"]


class TestBatchNoWorseThanSequential:
    BATCHES = [
        [(12, 0.0), (8, 0.0), (4, 0.0)],
        [(4, 1.0), (12, 3.0), (8, 2.0)],
        [(8, 0.0), (8, 5.0), (8, 1.0), (4, 0.0)],
    ]

    @pytest.mark.parametrize("shape", BATCHES, ids=["flat", "inverted", "mixed"])
    def test_batch_total_cost_le_sequential(self, scenario, clock, shape):
        alpha = 0.3
        batch = [
            AllocateParams(n_processes=n, ppn=4, alpha=alpha, priority=pr)
            for n, pr in shape
        ]
        sequential = sealed_service(scenario, clock)
        seq_grants = [
            grant_of(sequential.allocate_batch([p])[0]) for p in batch
        ]
        batched = sealed_service(scenario, clock)
        results = batched.allocate_batch(batch)
        bat_grants = [grant_of(r) for r in results]
        seq_total = sum(raw_cost(g, alpha) for g in seq_grants)
        bat_total = sum(raw_cost(g, alpha) for g in bat_grants)
        assert bat_total <= seq_total + 1e-9

    def test_default_priorities_reproduce_sequential_grants(
        self, scenario, clock
    ):
        batch = [
            AllocateParams(n_processes=n, ppn=4, alpha=0.3)
            for n in (12, 8, 4)
        ]
        sequential = sealed_service(scenario, clock, batch_improve=False)
        seq_nodes = [
            grant_of(sequential.allocate_batch([p])[0])["nodes"] for p in batch
        ]
        batched = sealed_service(scenario, clock, batch_improve=False)
        bat_nodes = [
            grant_of(r)["nodes"] for r in batched.allocate_batch(batch)
        ]
        assert bat_nodes == seq_nodes

    def test_improvement_pass_never_hurts(self, scenario, clock):
        alpha = 0.3
        batch = [
            AllocateParams(n_processes=n, ppn=4, alpha=alpha, priority=pr)
            for n, pr in [(4, 0.0), (12, 0.0), (8, 0.0)]
        ]
        plain = sealed_service(scenario, clock, batch_improve=False)
        improved = sealed_service(scenario, clock, batch_improve=True)
        plain_total = sum(
            raw_cost(grant_of(r), alpha) for r in plain.allocate_batch(batch)
        )
        improved_total = sum(
            raw_cost(grant_of(r), alpha)
            for r in improved.allocate_batch(batch)
        )
        # the pass is live on this batch: greedy arrival order leaves
        # swaps that strictly lower the summed raw cost (2.017 → 1.441)
        assert improved_total < plain_total
        assert plain.metrics.batch_swaps_adopted == 0
        assert improved.metrics.batch_swaps_adopted >= 1
        assert "batch_swaps_adopted" in improved.metrics.snapshot()


class TestPriorityOrdering:
    def test_high_priority_gets_the_good_nodes(self, scenario, clock):
        """Decided first → the lightly loaded nodes, despite arriving last."""
        alpha = 0.3
        # 16 processes at ppn=4 fill 4 nodes: two such jobs fit the
        # 8-node cluster without either exceeding its ppn
        probe = sealed_service(scenario, clock)
        best = grant_of(
            probe.allocate_batch(
                [AllocateParams(n_processes=16, ppn=4, alpha=alpha)]
            )[0]
        )
        service = sealed_service(scenario, clock)
        low = AllocateParams(n_processes=16, ppn=4, alpha=alpha, priority=0.0)
        high = AllocateParams(n_processes=16, ppn=4, alpha=alpha, priority=5.0)
        first, second = service.allocate_batch([low, high])
        g_low, g_high = grant_of(first), grant_of(second)
        # results stay in arrival order, but the high-priority job got
        # the unconstrained (best) decision even though it arrived second
        assert g_high["nodes"] == best["nodes"]
        assert set(g_low["nodes"]).isdisjoint(g_high["nodes"])

    def test_high_priority_survives_capacity_exhaustion(self, scenario, clock):
        # three 16-proc jobs at ppn=4 need 4 nodes each; the cluster has
        # 8, so whichever job is decided last finds no usable node left
        service = sealed_service(scenario, clock)
        p = lambda pr: AllocateParams(n_processes=16, ppn=4, priority=pr)
        results = service.allocate_batch([p(0.0), p(5.0), p(1.0)])
        assert isinstance(results[0], ProtocolError)
        assert results[0].code == ErrorCode.NO_CAPACITY
        assert not isinstance(results[1], ProtocolError)
        assert not isinstance(results[2], ProtocolError)

    def test_equal_priority_keeps_arrival_order(self, scenario, clock):
        service = sealed_service(scenario, clock)
        p = AllocateParams(n_processes=16, ppn=4, priority=1.0)
        results = service.allocate_batch([p, p, p])
        assert not isinstance(results[0], ProtocolError)
        assert not isinstance(results[1], ProtocolError)
        assert isinstance(results[2], ProtocolError)


class TestLineageMemo:
    def test_stale_grant_after_delta_regression(self, scenario, clock):
        """A delta touching a decision's nodes must evict its memo entry."""
        service, cell, source = incremental_service(scenario, clock)
        p = AllocateParams(n_processes=8, ppn=4)
        [r1] = service.allocate_batch([p])
        g1 = grant_of(r1)
        service.release(ReleaseParams(lease_id=g1["lease_id"]))
        [r2] = service.allocate_batch([p])
        g2 = grant_of(r2)
        assert g2["nodes"] == g1["nodes"]
        assert service.metrics.decisions_memoized == 1
        service.release(ReleaseParams(lease_id=g2["lease_id"]))
        # crush the granted nodes with load and refresh incrementally
        cell.append(drift_loads(cell[-1], g1["nodes"], factor=50.0))
        clock.advance(10.0)
        [r3] = service.allocate_batch([p])
        g3 = grant_of(r3)
        assert source.deltas_applied == 1
        assert service.metrics.decisions_invalidated >= 1
        # no stale replay: the decision was recomputed, not memo-served
        assert service.metrics.decisions_memoized == 1
        assert set(g3["nodes"]) != set(g1["nodes"])

    def test_fresh_serial_clears_memo_wholesale(self, scenario, clock):
        """A structural refresh (new serial) drops every entry."""
        service, cell, source = incremental_service(scenario, clock)
        p = AllocateParams(n_processes=8, ppn=4)
        [r1] = service.allocate_batch([p])
        service.release(ReleaseParams(lease_id=grant_of(r1)["lease_id"]))
        # structural change: a node vanishes → full rebuild, new serial
        gone = sorted(cell[-1].nodes)[-1]
        shrunk = dataclasses.replace(
            cell[-1],
            time=cell[-1].time + 1.0,
            nodes={
                k: v for k, v in cell[-1].nodes.items() if k != gone
            },
            livehosts=tuple(h for h in cell[-1].livehosts if h != gone),
        )
        cell.append(shrunk)
        clock.advance(10.0)
        [r2] = service.allocate_batch([p])
        grant_of(r2)
        assert source.delta_full_rebuilds == 1
        assert service.metrics.decisions_memoized == 0
        assert service.metrics.decisions_invalidated == 1
