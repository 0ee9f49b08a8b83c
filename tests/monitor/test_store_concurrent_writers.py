"""Last-writer-wins semantics when several daemons share one key."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.topology import uniform_cluster
from repro.des.engine import Engine
from repro.monitor.daemons import LivehostsD
from repro.monitor.store import FileStore, InMemoryStore


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryStore()
    return FileStore(tmp_path / "nfs")


class TestSharedKeyWriters:
    def test_freshest_livehosts_wins(self, store):
        specs, topo = uniform_cluster(4, nodes_per_switch=2)
        cluster = Cluster(specs, topo)
        engine = Engine()
        fast = LivehostsD(engine, store, cluster, instance="fast", period_s=7.0)
        slow = LivehostsD(engine, store, cluster, instance="slow", period_s=31.0)
        fast.start()
        slow.start()
        engine.run(300.0)
        t, _ = store.get("livehosts")
        # the fast instance wrote last (period 7 divides in more often)
        assert 300.0 - t < 7.0 + 1e-9

    def test_redundancy_covers_one_crash(self, store):
        specs, topo = uniform_cluster(4, nodes_per_switch=2)
        cluster = Cluster(specs, topo)
        engine = Engine()
        a = LivehostsD(engine, store, cluster, instance="a", period_s=10.0)
        b = LivehostsD(engine, store, cluster, instance="b", period_s=25.0)
        a.start()
        b.start()
        engine.run(100.0)
        a.crash()
        engine.run(300.0)
        # data keeps flowing via the surviving instance
        assert store.age("livehosts", engine.now) <= 25.0
