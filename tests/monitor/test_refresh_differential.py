"""A monitored refresh equals the same refresh through reference code.

The refresh path caches what a topology fixes (routes, and one peak
map per node set), folds the 1/5/15-minute means in one pass
and skips objects two snapshots share.  None of that may change a
value: a warmed cluster refreshed through a :class:`CachedSnapshotSource`
must serve, field by field, the snapshots it serves with reference code
patched in — uncached routes, a fresh peak map per build,
one newest-first walk per window, and a diff of copies that share
nothing.  A node vanishes from the monitor mid-run and comes back, so
the node set (and with it the peak map) changes twice.
"""

from __future__ import annotations

import itertools

import pytest

import repro.monitor.daemons as daemons
import repro.monitor.delta as delta
import repro.monitor.netdaemons as netdaemons
from repro.cluster.topology import SwitchTopology
from repro.monitor.delta import snapshot_lineage
from repro.monitor.snapshot import CachedSnapshotSource
from repro.net.model import NetworkModel
from repro.scenarios import get_scenario
from tests.monitor.test_rolling_fold import ReferenceWindows
from tests.properties.test_delta_differential import unshared_copy

REFRESHES = 12
ADVANCE_S = 5.0


def _links_on_path(self, u, v):
    p = self.path(u, v)
    return tuple((a, b) if a <= b else (b, a) for a, b in zip(p[:-1], p[1:]))


def _peak_bandwidth_map(self, nodes):
    nodes = list(nodes)
    return {
        (a, b) if a <= b else (b, a): self.peak_bandwidth(a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
    }


def _patch_reference(monkeypatch) -> None:
    compute = delta.compute_delta
    monkeypatch.setattr(SwitchTopology, "links_on_path", _links_on_path)
    monkeypatch.setattr(NetworkModel, "peak_bandwidth_map", _peak_bandwidth_map)
    monkeypatch.setattr(daemons, "RollingWindows", ReferenceWindows)
    monkeypatch.setattr(netdaemons, "RollingWindows", ReferenceWindows)
    monkeypatch.setattr(
        delta,
        "compute_delta",
        lambda old, new: compute(unshared_copy(old), unshared_copy(new)),
    )


def _refresh_run(name: str, seed: int):
    """The warmed cluster's first snapshot and ``REFRESHES`` refreshes."""
    sc = get_scenario(name).build(seed=seed)
    ticks = itertools.count()
    source = CachedSnapshotSource(
        sc.snapshot,
        max_age_s=0.5,
        clock=lambda: float(next(ticks)),
        refresh_hook=lambda: sc.advance(ADVANCE_S),
    )
    victim = sc.cluster.names[-1]
    served = [source()]
    for step in range(REFRESHES):
        if step == 4:
            sc.cluster.mark_down(victim)
            sc.monitoring.store.delete(f"nodestate/{victim}")
        if step == 8:
            sc.cluster.mark_up(victim)
        served.append(source())
    counters = (source.deltas_applied, source.deltas_empty, source.delta_full_rebuilds)
    return served, counters


def _lines(served) -> list[tuple[int, int]]:
    """Lineages renumbered from 0, so two runs' serials compare."""
    serials: dict[int, int] = {}
    out = []
    for snap in served:
        serial, generation = snapshot_lineage(snap)
        out.append((serials.setdefault(serial, len(serials)), generation))
    return out


@pytest.mark.parametrize("name", ["paper-tree", "fat-tree"])
def test_refreshes_equal_reference_refreshes(name, monkeypatch):
    fast, fast_counters = _refresh_run(name, seed=0)
    with monkeypatch.context() as m:
        _patch_reference(m)
        ref, ref_counters = _refresh_run(name, seed=0)

    assert fast_counters == ref_counters
    # the run moved: deltas, and rebuilds for the node leaving and
    # returning (node set, then livehosts)
    assert fast_counters[0] > 0 and fast_counters[2] >= 2
    assert _lines(fast) == _lines(ref)
    for got, want in zip(fast, ref):
        assert got.time == want.time
        assert got.livehosts == want.livehosts
        for attr in ("nodes", "bandwidth_mbs", "latency_us", "peak_bandwidth_mbs"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert list(a.items()) == list(b.items()), attr
