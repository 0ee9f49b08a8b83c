"""Tests for LatencyD and BandwidthD."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.topology import uniform_cluster
from repro.des.engine import Engine
from repro.monitor.netdaemons import BandwidthD, LatencyD
from repro.monitor.store import InMemoryStore
from repro.net.flows import Flow
from repro.net.model import NetworkModel


@pytest.fixture
def env():
    specs, topo = uniform_cluster(6, nodes_per_switch=3)
    cluster = Cluster(specs, topo)
    network = NetworkModel(topo)
    return Engine(), InMemoryStore(), cluster, network


class TestLatencyD:
    def test_full_pair_coverage(self, env):
        engine, store, cluster, network = env
        d = LatencyD(engine, store, cluster, network, period_s=60.0)
        d.start()
        engine.run(60.0)
        for n in cluster.names:
            rec = store.value(f"latency/{n}")
            assert set(rec) == set(cluster.names) - {n}

    def test_symmetry(self, env):
        engine, store, cluster, network = env
        d = LatencyD(engine, store, cluster, network, period_s=60.0)
        d.start()
        engine.run(60.0)
        a = store.value("latency/node1")["node2"]["now"]
        b = store.value("latency/node2")["node1"]["now"]
        assert a == b

    def test_rolling_means_present_after_two_sweeps(self, env):
        engine, store, cluster, network = env
        d = LatencyD(engine, store, cluster, network, period_s=60.0)
        d.start()
        engine.run(120.0)
        stats = store.value("latency/node1")["node2"]
        assert stats["m1"] is not None
        assert stats["m5"] is not None

    def test_respects_livehosts(self, env):
        engine, store, cluster, network = env
        store.put("livehosts", ["node1", "node2", "node3"], 0.0)
        d = LatencyD(engine, store, cluster, network, period_s=60.0)
        d.start()
        engine.run(60.0)
        assert store.get("latency/node4") is None
        assert set(store.value("latency/node1")) == {"node2", "node3"}

    def test_cross_switch_slower_than_same_switch(self, env):
        engine, store, cluster, network = env
        d = LatencyD(engine, store, cluster, network, period_s=60.0)
        d.start()
        engine.run(60.0)
        same = store.value("latency/node1")["node2"]["now"]
        cross = store.value("latency/node1")["node4"]["now"]
        assert cross > same


class TestBandwidthD:
    def test_full_pair_coverage(self, env):
        engine, store, cluster, network = env
        d = BandwidthD(engine, store, cluster, network, period_s=300.0)
        d.start()
        engine.run(300.0)
        for n in cluster.names:
            rec = store.value(f"bandwidth/{n}")
            assert set(rec) == set(cluster.names) - {n}

    def test_idle_network_shows_peak(self, env):
        engine, store, cluster, network = env
        d = BandwidthD(engine, store, cluster, network, period_s=300.0)
        d.start()
        engine.run(300.0)
        assert store.value("bandwidth/node1")["node2"] == pytest.approx(125.0)

    def test_background_flow_reduces_measurement(self, env):
        engine, store, cluster, network = env
        network.add_flow(Flow("node1", "node3", 100.0))
        d = BandwidthD(engine, store, cluster, network, period_s=300.0)
        d.start()
        engine.run(300.0)
        assert store.value("bandwidth/node1")["node2"] < 125.0

    def test_respects_livehosts(self, env):
        engine, store, cluster, network = env
        store.put("livehosts", ["node1", "node2"], 0.0)
        d = BandwidthD(engine, store, cluster, network, period_s=300.0)
        d.start()
        engine.run(300.0)
        assert store.get("bandwidth/node5") is None


def test_repeated_livehosts_names_are_probed_once():
    """A livehosts record naming a node twice must not kill either probe
    daemon: each probes the node once, as if it were named once."""
    from repro.experiments.scenario import small_scenario

    sc = small_scenario(8, seed=1, warmup_s=100)
    names = sc.cluster.names
    sc.monitoring.store.put("livehosts", names + [names[0]], sc.engine.now)
    sc.monitoring.latencyd.sample()
    sc.monitoring.bandwidthd.sample()
    for n in names:
        others = set(names) - {n}
        assert set(sc.monitoring.store.value(f"latency/{n}")) == others
        assert set(sc.monitoring.store.value(f"bandwidth/{n}")) == others
