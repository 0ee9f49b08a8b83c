"""Differential fuzz: incremental delta application ≡ full rebuild.

The incremental hot path (``compute_delta`` → ``apply_snapshot_delta``,
which patches the snapshot's array store, → a ``load_state`` slice of
the patched store) must be *bit-identical* to throwing the old snapshot
away and rebuilding every derived array from the new one.  The sweep
drives randomized delta sequences — node-load drift, link drift, both,
neither — over random clusters and compares the patched state against a
from-scratch rebuild after every step: CL/NL/PC arrays with exact
equality, and the resulting allocation decision for a spread of request
shapes.

Edges covered explicitly: the empty delta (the served snapshot, and so
its state object, is kept), the everything-changed delta (every node and
every measured link moves), and structural changes (which must refuse to
produce a delta at all).

``compute_delta`` skips a map, node view or pair value that is the same
object on both sides.  Its full comparisons are the oracle for that
short-cut: a diff of snapshots that share objects must equal the diff of
:func:`unshared_copy` copies of them, which share nothing.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.arrays import load_state
from repro.core.policies import AllocationRequest, NetworkLoadAwarePolicy
from repro.core.weights import TradeOff
from repro.monitor.delta import (
    SnapshotDelta,
    apply_snapshot_delta,
    compute_delta,
    snapshot_lineage,
)
from repro.monitor.snapshot import CachedSnapshotSource, ClusterSnapshot, NodeView

from tests.core.test_array_equivalence import random_snapshot


def _drift_stats(rng: np.random.Generator, stats: dict) -> dict:
    factor = float(rng.uniform(0.5, 1.5))
    return {k: float(v) * factor for k, v in stats.items()}


def perturb(
    rng: np.random.Generator,
    snap: ClusterSnapshot,
    *,
    node_fraction: float,
    link_fraction: float,
) -> ClusterSnapshot:
    """A topologically identical snapshot with drifted dynamic values."""
    views: dict[str, NodeView] = {}
    for name, view in snap.nodes.items():
        if rng.uniform() < node_fraction:
            views[name] = dataclasses.replace(
                view,
                cpu_load=_drift_stats(rng, view.cpu_load),
                flow_rate_mbs=_drift_stats(rng, view.flow_rate_mbs),
                users=int(rng.integers(0, 5)),
            )
        else:
            views[name] = view
    bandwidth = dict(snap.bandwidth_mbs)
    latency = dict(snap.latency_us)
    for key in snap.bandwidth_mbs:
        if rng.uniform() < link_fraction:
            bandwidth[key] = float(
                min(snap.peak_bandwidth_mbs[key], bandwidth[key] * rng.uniform(0.5, 1.2))
            )
            latency[key] = float(latency[key] * rng.uniform(0.5, 1.5))
    return ClusterSnapshot(
        time=snap.time + 1.0,
        nodes=views,
        bandwidth_mbs=bandwidth,
        latency_us=latency,
        peak_bandwidth_mbs=snap.peak_bandwidth_mbs,
        livehosts=snap.livehosts,
    )


def _fresh_copy(snap: ClusterSnapshot) -> ClusterSnapshot:
    """The same cluster facts in a brand-new object (no derived cache)."""
    return ClusterSnapshot(
        time=snap.time,
        nodes=dict(snap.nodes),
        bandwidth_mbs=dict(snap.bandwidth_mbs),
        latency_us=dict(snap.latency_us),
        peak_bandwidth_mbs=dict(snap.peak_bandwidth_mbs),
        livehosts=snap.livehosts,
    )


def unshared_copy(snap: ClusterSnapshot) -> ClusterSnapshot:
    """An equal snapshot that shares no map, view or value with ``snap``.

    A pickle round trip rebuilds every object, floats included (pickle
    does not memoize floats), so no identity short-cut can apply.
    """
    return ClusterSnapshot(
        time=snap.time,
        livehosts=snap.livehosts,
        **{
            attr: pickle.loads(pickle.dumps(getattr(snap, attr)))
            for attr in ("nodes", "bandwidth_mbs", "latency_us", "peak_bandwidth_mbs")
        },
    )


def _state_kwargs(snap: ClusterSnapshot) -> dict:
    return {"nodes": list(snap.nodes), "ppn": 4}


def assert_states_identical(incremental, rebuilt) -> None:
    assert incremental.nodes == rebuilt.nodes
    assert incremental.cl == rebuilt.cl
    assert incremental.nl == rebuilt.nl
    assert incremental.pc == rebuilt.pc
    assert np.array_equal(incremental.cl_vec, rebuilt.cl_vec)
    assert np.array_equal(incremental.nl_mat, rebuilt.nl_mat)
    assert np.array_equal(incremental.pc_vec, rebuilt.pc_vec)
    assert incremental.missing_penalty == rebuilt.missing_penalty


DRIFT_MIXES = [
    (0.3, 0.0),  # node loads only
    (0.0, 0.3),  # links only
    (0.4, 0.4),  # both
    (1.0, 1.0),  # everything moves at once
]


class TestDeltaEqualsRebuild:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mix", DRIFT_MIXES, ids=lambda m: f"n{m[0]}l{m[1]}")
    def test_randomized_delta_sequences(self, seed, mix):
        node_fraction, link_fraction = mix
        rng = np.random.default_rng(41_000 + seed)
        snap = random_snapshot(rng, int(rng.integers(6, 14)), missing_fraction=0.2)
        state = load_state(snap, **_state_kwargs(snap))
        policy = NetworkLoadAwarePolicy()
        for _ in range(4):
            target = perturb(
                rng, snap,
                node_fraction=node_fraction,
                link_fraction=link_fraction,
            )
            delta = compute_delta(snap, target)
            assert delta is not None, "non-structural drift must delta"
            patched = apply_snapshot_delta(snap, delta)
            migrated = load_state(patched, **_state_kwargs(patched))
            rebuilt = load_state(_fresh_copy(patched), **_state_kwargs(patched))
            assert_states_identical(migrated, rebuilt)
            request = AllocationRequest(
                n_processes=int(rng.integers(2, 9)),
                ppn=4,
                tradeoff=TradeOff.from_alpha(0.3),
            )
            a = policy.allocate(patched, request)
            b = policy.allocate(_fresh_copy(patched), request)
            assert a.nodes == b.nodes and dict(a.procs) == dict(b.procs)
            snap, state = patched, migrated

    def test_empty_delta_reuses_state_object(self):
        rng = np.random.default_rng(7)
        snap = random_snapshot(rng, 8)
        state = load_state(snap, **_state_kwargs(snap))
        twin = _fresh_copy(snap)
        delta = compute_delta(snap, twin)
        assert delta is not None and delta.is_empty
        frames = iter([snap, twin])
        source = CachedSnapshotSource(
            lambda: next(frames),
            max_age_s=0.5,
            clock=iter([0.0, 1.0]).__next__,
        )
        assert source() is snap
        assert source() is snap  # the empty delta keeps the served snapshot
        assert source.deltas_empty == 1
        assert load_state(snap, **_state_kwargs(snap)) is state
        assert snapshot_lineage(snap)[1] == 0

    def test_every_node_changed_delta(self):
        rng = np.random.default_rng(8)
        snap = random_snapshot(rng, 10, missing_fraction=0.1)
        load_state(snap, **_state_kwargs(snap))
        target = perturb(rng, snap, node_fraction=1.0, link_fraction=1.0)
        delta = compute_delta(snap, target)
        assert delta is not None
        patched = apply_snapshot_delta(snap, delta)
        migrated = load_state(patched, **_state_kwargs(patched))
        assert snapshot_lineage(patched)[1] == snapshot_lineage(snap)[1] + 1
        rebuilt = load_state(_fresh_copy(patched), **_state_kwargs(patched))
        assert_states_identical(migrated, rebuilt)

    def test_generation_counts_applied_deltas(self):
        rng = np.random.default_rng(9)
        snap = random_snapshot(rng, 8)
        load_state(snap, **_state_kwargs(snap))
        for expected_gen in (1, 2, 3):
            target = perturb(rng, snap, node_fraction=0.5, link_fraction=0.5)
            delta = compute_delta(snap, target)
            snap = apply_snapshot_delta(snap, delta)
            serial, gen = snapshot_lineage(snap)
            assert gen == expected_gen


def _rebox(rng: np.random.Generator, snap: ClusterSnapshot) -> ClusterSnapshot:
    """``snap`` with some views and pair values replaced by equal copies.

    An equal value in a new object must be compared, not skipped, and
    must not count as moved.
    """
    nodes = {
        name: dataclasses.replace(view) if rng.uniform() < 0.3 else view
        for name, view in snap.nodes.items()
    }
    bandwidth = {
        k: float(np.float64(v)) if rng.uniform() < 0.3 else v
        for k, v in snap.bandwidth_mbs.items()
    }
    return dataclasses.replace(snap, nodes=nodes, bandwidth_mbs=bandwidth)


def _assert_same_delta(got: SnapshotDelta | None, want: SnapshotDelta | None) -> None:
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.time == want.time
    for attr in ("nodes", "bandwidth_mbs", "latency_us"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert list(a) == list(b), attr
        assert a == b, attr


class TestSharedObjectsShortCut:
    """A diff of snapshots that share objects equals the diff of copies."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mix", DRIFT_MIXES, ids=lambda m: f"n{m[0]}l{m[1]}")
    def test_shared_diff_equals_unshared_diff(self, seed, mix):
        node_fraction, link_fraction = mix
        rng = np.random.default_rng(43_000 + seed)
        snap = random_snapshot(rng, int(rng.integers(6, 14)), missing_fraction=0.2)
        for _ in range(4):
            # ``perturb`` shares every unchanged view, float and the
            # peak map with ``snap``; ``_rebox`` un-shares some equal ones
            target = _rebox(rng, perturb(
                rng, snap, node_fraction=node_fraction, link_fraction=link_fraction
            ))
            delta = compute_delta(snap, target)
            _assert_same_delta(
                delta, compute_delta(unshared_copy(snap), unshared_copy(target))
            )
            patched = apply_snapshot_delta(snap, delta)
            # the patch equals the target, and shares with ``snap``
            # exactly the maps the delta left alone
            for attr in ("nodes", "bandwidth_mbs", "latency_us"):
                assert getattr(patched, attr) == getattr(target, attr)
                kept = getattr(patched, attr) is getattr(snap, attr)
                assert kept == (not getattr(delta, attr)), attr
            assert patched.peak_bandwidth_mbs is snap.peak_bandwidth_mbs
            snap = patched

    def test_identical_snapshot_diffs_empty(self):
        rng = np.random.default_rng(14)
        snap = random_snapshot(rng, 8)
        delta = compute_delta(snap, snap)
        assert delta is not None and delta.is_empty

    @pytest.mark.parametrize("shared", ["nodes", "bandwidth_mbs", "latency_us"])
    def test_structural_change_beside_a_shared_map(self, shared):
        rng = np.random.default_rng(15)
        snap = random_snapshot(rng, 6)
        latency = dict(snap.latency_us)
        latency.pop(next(iter(latency)))
        nodes = dict(snap.nodes)
        nodes.pop(next(iter(nodes)))
        changes = {"nodes": nodes, "latency_us": latency}
        changes.pop(shared, None)
        for attr, value in changes.items():
            lost = dataclasses.replace(snap, **{attr: value})
            assert getattr(lost, shared) is getattr(snap, shared)
            assert compute_delta(snap, lost) is None
            assert compute_delta(unshared_copy(snap), unshared_copy(lost)) is None

    def test_unshared_copy_shares_nothing(self):
        rng = np.random.default_rng(16)
        snap = random_snapshot(rng, 6)
        twin = unshared_copy(snap)
        assert twin == snap
        for attr in ("nodes", "bandwidth_mbs", "latency_us", "peak_bandwidth_mbs"):
            a, b = getattr(snap, attr), getattr(twin, attr)
            assert a is not b
            assert all(a[k] is not b[k] for k in a)


class TestStructuralChangesRefuse:
    def test_node_set_change_is_structural(self):
        rng = np.random.default_rng(10)
        snap = random_snapshot(rng, 6)
        nodes = dict(snap.nodes)
        nodes.pop(next(iter(nodes)))
        shrunk = dataclasses.replace(snap, nodes=nodes)
        assert compute_delta(snap, shrunk) is None

    def test_livehosts_change_is_structural(self):
        rng = np.random.default_rng(11)
        snap = random_snapshot(rng, 6)
        drained = dataclasses.replace(snap, livehosts=snap.livehosts[:-1])
        assert compute_delta(snap, drained) is None

    def test_pair_set_change_is_structural(self):
        rng = np.random.default_rng(12)
        snap = random_snapshot(rng, 6)
        bandwidth = dict(snap.bandwidth_mbs)
        bandwidth.pop(next(iter(bandwidth)))
        lost = dataclasses.replace(snap, bandwidth_mbs=bandwidth)
        assert compute_delta(snap, lost) is None

    def test_static_spec_change_is_structural(self):
        rng = np.random.default_rng(13)
        snap = random_snapshot(rng, 6)
        name, view = next(iter(snap.nodes.items()))
        nodes = dict(snap.nodes)
        nodes[name] = dataclasses.replace(view, cores=view.cores + 2)
        upgraded = dataclasses.replace(snap, nodes=nodes)
        assert compute_delta(snap, upgraded) is None


class TestThresholds:
    def test_canonical_pair_order_enforced(self):
        with pytest.raises(ValueError, match="canonically ordered"):
            SnapshotDelta(time=0.0, latency_us={("b", "a"): 1.0})
