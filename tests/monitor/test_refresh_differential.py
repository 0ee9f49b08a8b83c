"""A monitored refresh equals the same refresh through reference code.

The refresh path caches what a topology fixes (routes, and one peak
map per node set), samples in batches (one fold per ``NodeStateD``
tick over all four attributes, one latency sweep and one fold per
``LatencyD`` round) and skips objects two snapshots share.  None of
that may change a value: a warmed cluster refreshed through a
:class:`CachedSnapshotSource` must serve, field by field, the snapshots
it serves with reference code patched in, and leave the same records in
the store.  The reference is the code before each change: uncached
routes, a fresh peak map per build, a window per attribute or pair with
one newest-first walk per window, one latency walk per pair, and a diff
of copies that share nothing.  A node vanishes from the monitor for
several latency sweeps and comes back inside the 5-minute window, so
the node set (and with it the peak map) changes twice and its pairs'
means fold over the sweeps they missed.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

import repro.monitor.delta as delta
from repro.cluster.topology import SwitchTopology
from repro.monitor.central import MASTER_KEY, SLAVE_KEY
from repro.monitor.daemons import NodeStateD
from repro.monitor.delta import snapshot_lineage
from repro.monitor.netdaemons import LatencyD, _live_nodes
from repro.monitor.rolling import DEFAULT_WINDOWS
from repro.monitor.snapshot import CachedSnapshotSource
from repro.net.latency import LatencyModel
from repro.net.model import NetworkModel
from repro.net.probes import round_robin_rounds
from repro.scenarios import get_scenario
from repro.util.units import MINUTES
from tests.monitor.test_rolling_fold import ReferenceWindows
from tests.net.test_latency_batch import reference_latency_us
from tests.properties.test_delta_differential import unshared_copy

REFRESHES = 16
ADVANCE_S = 30.0
#: refreshes at which the victim leaves and returns: 180 s apart, so it
#: misses latency sweeps and is back before its samples age out
DOWN_AT, UP_AT = 4, 10


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


def _windows(daemon, make):
    """The reference windows a daemon keeps, made on its first sample."""
    if "_reference_windows" not in daemon.__dict__:
        daemon._reference_windows = make()
    return daemon._reference_windows


def _reference_nodestate_sample(self) -> None:
    """``NodeStateD.sample`` with one window per attribute."""
    windows = _windows(
        self, lambda: {attr: ReferenceWindows(DEFAULT_WINDOWS) for attr in self.DYNAMIC}
    )
    cluster = self._cluster
    spec = cluster.spec(self.node)
    state = cluster.state(self.node)
    now = self.engine.now
    values = {
        "cpu_load": state.cpu_load,
        "cpu_util": state.cpu_util,
        "flow_rate_mbs": state.flow_rate_mbs,
        "available_memory_gb": max(spec.memory_gb - state.memory_used_gb, 0.0),
    }
    record: dict = {
        "static": {
            "cores": spec.cores,
            "frequency_ghz": spec.frequency_ghz,
            "memory_gb": spec.memory_gb,
            "switch": spec.switch,
        },
        "users": state.users,
    }
    for attr, v in values.items():
        win = windows[attr]
        win.add(now, v)
        m1, m5, m15 = win.means(now).values()
        record[attr] = {"now": v, "m1": m1, "m5": m5, "m15": m15}
    self.store.put(f"nodestate/{self.node}", record, now)


def _reference_latency_sample(self) -> None:
    """``LatencyD.sample`` with one latency walk and one window per pair;
    logs each sweep's time and nodes."""
    windows = _windows(self, dict)
    nodes = _live_nodes(self.store, self._cluster)
    now = self.engine.now
    self.__dict__.setdefault("reference_sweeps", []).append((now, nodes))
    records: dict[str, dict[str, dict]] = {n: {} for n in nodes}
    for rnd in round_robin_rounds(nodes):
        for a, b in rnd:
            lat = self._network.latency_us(a, b, rng=self._rng)
            win = windows.get((a, b))
            if win is None:
                win = windows[(a, b)] = ReferenceWindows((1 * MINUTES, 5 * MINUTES))
            win.add(now, lat)
            m1, m5 = win.means(now).values()
            stats = {"now": lat, "m1": m1, "m5": m5}
            records[a][b] = stats
            records[b][a] = stats
    for n in nodes:
        self.store.put(f"latency/{n}", records[n], now)


def _reference_latencies_us(
    self, pairs, link_utilization, *, node_load=None, rng=None
) -> np.ndarray:
    """``LatencyModel.latencies_us`` as one walk per pair (job pricing
    batches its pairs too)."""
    return np.array(
        [
            reference_latency_us(
                self,
                u,
                v,
                link_utilization,
                endpoint_load_per_core=(
                    None if node_load is None else (node_load(u), node_load(v))
                ),
                rng=rng,
            )
            for u, v in pairs
        ],
        dtype=float,
    )


def _patch_reference(monkeypatch) -> None:
    compute = delta.compute_delta
    monkeypatch.setattr(SwitchTopology, "links_on_path", _links_on_path)
    monkeypatch.setattr(NetworkModel, "peak_bandwidth_map", _peak_bandwidth_map)
    monkeypatch.setattr(NodeStateD, "sample", _reference_nodestate_sample)
    monkeypatch.setattr(LatencyD, "sample", _reference_latency_sample)
    monkeypatch.setattr(LatencyModel, "latency_us", reference_latency_us)
    monkeypatch.setattr(LatencyModel, "latencies_us", _reference_latencies_us)
    monkeypatch.setattr(
        delta,
        "compute_delta",
        lambda old, new: compute(unshared_copy(old), unshared_copy(new)),
    )


def _records(store) -> dict[str, str]:
    """Every record, floats written exactly (``-0.0`` included), but the
    central monitors' ids, which count the monitors this process made."""
    return {
        k: json.dumps(store.get(k))
        for k in sorted(store.keys())
        if k not in (MASTER_KEY, SLAVE_KEY)
    }


def _refresh_run(name: str, seed: int):
    """The warmed cluster's first snapshot and ``REFRESHES`` refreshes,
    with the store's records after each."""
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
    records = [_records(sc.monitoring.store)]
    for step in range(REFRESHES):
        if step == DOWN_AT:
            sc.cluster.mark_down(victim)
            sc.monitoring.store.delete(f"nodestate/{victim}")
        if step == UP_AT:
            sc.cluster.mark_up(victim)
        served.append(source())
        records.append(_records(sc.monitoring.store))
    counters = (source.deltas_applied, source.deltas_empty, source.delta_full_rebuilds)
    return served, records, counters, sc


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
    fast, fast_records, fast_counters, _ = _refresh_run(name, seed=0)
    with monkeypatch.context() as m:
        _patch_reference(m)
        ref, ref_records, ref_counters, sc = _refresh_run(name, seed=0)

    # the reference daemons ran
    assert all(d._reference_windows for d in sc.monitoring.nodestate.values())
    times, live = zip(*sc.monitoring.latencyd.reference_sweeps)
    # the victim missed at least two sweeps, and a sweep after its
    # return folded its pairs over that gap: it had probed them less
    # than 5 minutes before
    victim = sc.cluster.names[-1]
    probed = [i for i, nodes in enumerate(live) if victim in nodes]
    assert len(live) - len(probed) >= 2
    assert any(
        b - a > 2 and times[b] - times[a] <= 5 * MINUTES
        for a, b in zip(probed, probed[1:])
    )

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
    assert fast_records == ref_records
