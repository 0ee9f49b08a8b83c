"""The monitor samples in batches, not one signal or one pair at a time.

A ``NodeStateD`` tick folds its four attributes' 1/5/15-minute windows
in one pass over one window, and a ``LatencyD`` sweep computes every
pair's latency in one batch: no per-pair ``LatencyModel.latency_us``
call, and each live node's load read once.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import small_scenario
from repro.monitor.rolling import RollingWindows
from repro.net.latency import LatencyModel
from tests.monitor.test_refresh_cost import _counting


@pytest.fixture(scope="module")
def scenario():
    return small_scenario(12, seed=2, warmup_s=300.0)


def test_a_nodestate_tick_folds_once(scenario, monkeypatch):
    daemon = next(iter(scenario.monitoring.nodestate.values()))
    adds = _counting(monkeypatch, RollingWindows, "add")
    folds = _counting(monkeypatch, RollingWindows, "fold")
    daemon.sample()
    assert len(adds) == len(folds) == 1
    record = scenario.monitoring.store.value(f"nodestate/{daemon.node}")
    assert all(set(record[attr]) == {"now", "m1", "m5", "m15"} for attr in daemon.DYNAMIC)


def test_a_latency_sweep_is_one_batch(scenario, monkeypatch):
    network = scenario.network
    live = scenario.cluster.names[:-1]
    scenario.monitoring.store.put("livehosts", live, scenario.engine.now)
    reads: list[str] = []
    load = network._node_load_provider

    def counted(node):
        reads.append(node)
        return load(node)

    monkeypatch.setattr(network, "_node_load_provider", counted)
    walks = _counting(monkeypatch, LatencyModel, "latency_us")
    folds = _counting(monkeypatch, RollingWindows, "fold")
    scenario.monitoring.latencyd.sample()
    assert walks == []
    assert sorted(reads) == sorted(live)
    assert len(folds) == 1
    assert set(scenario.monitoring.store.value(f"latency/{live[0]}")) == set(live[1:])
