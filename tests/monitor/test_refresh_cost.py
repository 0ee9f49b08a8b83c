"""A refresh pays for what moved, not for what it already knows.

Routes and peak bandwidths are fixed by the topology, so a second
snapshot of the same node set asks the network for none of them: it
shares the first snapshot's peak map.  And a diff compares only what
the two snapshots do not share, so a drifting-fleet step that swaps a
few views and values calls the value comparison once per swapped entry,
never once per pair.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.monitor.delta as delta
from repro.cluster.topology import SwitchTopology, paper_cluster
from repro.experiments.scenario import small_scenario
from repro.monitor.delta import compute_delta
from repro.monitor.snapshot import ClusterSnapshot, NodeView
from repro.net.model import NetworkModel


def _counting(monkeypatch, owner, attr: str) -> list[tuple]:
    """Patch ``owner.attr`` to record the arguments of every call."""
    calls: list[tuple] = []
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.fixture(scope="module")
def scenario():
    return small_scenario(12, seed=2, warmup_s=300.0)


def test_second_build_asks_for_no_route_or_peak(scenario, monkeypatch):
    first = scenario.snapshot()
    assert len(first.peak_bandwidth_mbs) == len(first.nodes) * (len(first.nodes) - 1) // 2
    peaks = _counting(monkeypatch, NetworkModel, "peak_bandwidth")
    routes = _counting(monkeypatch, SwitchTopology, "links_on_path")
    second = scenario.snapshot()
    assert peaks == [] and routes == []
    assert second.peak_bandwidth_mbs is first.peak_bandwidth_mbs


def test_one_peak_map_is_kept_per_network(scenario):
    network = scenario.network
    names = scenario.cluster.names
    full = network.peak_bandwidth_map(names)
    fewer = network.peak_bandwidth_map(names[:-1])
    assert fewer == {k: v for k, v in full.items() if names[-1] not in k}
    # only the latest node set's map is kept: one seen before is rebuilt
    again = network.peak_bandwidth_map(names)
    assert again == full and again is not full
    assert network.peak_bandwidth_map(names) is again


def test_route_links_are_shared_by_both_directions():
    specs, topo = paper_cluster()
    a, b = specs[0].name, specs[-1].name
    forward = topo.links_on_path(a, b)
    assert topo.links_on_path(b, a) == forward[::-1]
    assert topo.links_on_path(a, b) is forward
    assert len(topo._links_cache) == 1


def _fleet(n: int, rng: np.random.Generator) -> ClusterSnapshot:
    names = [f"n{i:03d}" for i in range(n)]

    def stats(v: float) -> dict[str, float]:
        return {"now": v, "m1": v, "m5": v, "m15": v}

    nodes = {
        name: NodeView(
            name=name, cores=8, frequency_ghz=2.6, memory_gb=64.0, users=1,
            cpu_load=stats(float(rng.uniform(0, 8))), cpu_util=stats(50.0),
            flow_rate_mbs=stats(float(rng.uniform(0, 60))),
            available_memory_gb=stats(32.0), switch=f"s{i // 8}",
        )
        for i, name in enumerate(names)
    }
    pairs = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1 : i + 3]
    ]
    return ClusterSnapshot(
        time=0.0,
        nodes=nodes,
        bandwidth_mbs={p: float(rng.uniform(50, 125)) for p in pairs},
        latency_us={p: float(rng.uniform(40, 120)) for p in pairs},
        peak_bandwidth_mbs={p: 125.0 for p in pairs},
        livehosts=tuple(names),
    )


def test_diff_compares_only_what_is_not_shared(monkeypatch):
    """A drifting-fleet step (fresh maps, unchanged entries shared)
    calls ``_moved`` once per swapped view and value, and no more."""
    rng = np.random.default_rng(3)
    old = _fleet(200, rng)
    views = dict(old.nodes)
    drifted = ["n007", "n050", "n123"]
    for name in drifted:
        view = views[name]
        views[name] = dataclasses.replace(
            view, cpu_load={k: v * 1.25 for k, v in view.cpu_load.items()}
        )
    bandwidth = dict(old.bandwidth_mbs)
    pairs = list(bandwidth)
    moved = [pairs[i] for i in (0, 17, 301)]
    for key in moved:
        bandwidth[key] = bandwidth[key] * 0.5
    reboxed = pairs[40]  # a new object with the old value: compared, unmoved
    bandwidth[reboxed] = float(np.float64(bandwidth[reboxed]))
    new = dataclasses.replace(old, time=1.0, nodes=views, bandwidth_mbs=bandwidth)

    calls = _counting(monkeypatch, delta, "_moved")
    got = compute_delta(old, new)
    assert got is not None
    assert sorted(got.nodes) == drifted
    assert sorted(got.bandwidth_mbs) == sorted(moved)
    assert got.latency_us == {}
    # one call per drifted view (its first load value moved) and per
    # swapped bandwidth value; the shared latency and peak maps, and
    # every shared view and value, cost none
    assert len(calls) == len(drifted) + len(moved) + 1
