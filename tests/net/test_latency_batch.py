"""The batched latency sweep equals one walk per pair, bit for bit.

:meth:`LatencyModel.latencies_us` computes every pair of a sweep at once:
each link's queueing term once, each endpoint's load once, all jitter in
one draw, and each pair's hops summed in path order.  Every value must
equal — with ``==`` and the sign of zero — the per-pair walk it replaced,
kept here as :func:`reference_latency_us`, and leave a generator in the
state one draw per pair leaves it.  The refresh differential suite
patches the same walk into the monitor.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import SwitchTopology
from repro.net.flows import Flow
from repro.net.latency import _RHO_MAX, LatencyConfig, LatencyModel
from repro.net.model import NetworkModel
from tests.monitor.test_rolling_fold import same


def reference_latency_us(
    self,
    u,
    v,
    link_utilization,
    *,
    endpoint_load_per_core=None,
    rng=None,
):
    """``LatencyModel.latency_us`` as one walk over one pair's path."""
    if u == v:
        return 0.0
    cfg = self.config
    total = 0.0
    for link in self._topo.links_on_path(u, v):
        rho = min(max(link_utilization.get(link, 0.0), 0.0), _RHO_MAX)
        total += cfg.base_per_hop_us * (1.0 + cfg.queue_factor * rho / (1.0 - rho))
    if endpoint_load_per_core is not None:
        lu, lv = endpoint_load_per_core
        total += cfg.endpoint_load_us * (max(lu, 0.0) + max(lv, 0.0))
    if cfg.jitter_us > 0 and rng is not None:
        total += float(rng.uniform(-cfg.jitter_us, cfg.jitter_us))
    return max(total, 0.0)


def _deep_topology() -> SwitchTopology:
    """Three switch levels, so paths have 2, 4 and 6 hops."""
    parents = {
        "core": None,
        "agg1": "core",
        "agg2": "core",
        "leaf1": "agg1",
        "leaf2": "agg1",
        "leaf3": "agg2",
    }
    nodes = {
        "a1": "leaf1", "a2": "leaf1",
        "b1": "leaf2", "b2": "leaf2",
        "c1": "leaf3", "c2": "leaf3",
    }
    return SwitchTopology(parents, nodes, uplink_capacity_mbs=200.0)


TOPOLOGY = _deep_topology()
NODES = sorted(TOPOLOGY.nodes)
LINKS = sorted(
    {link for a in NODES for b in NODES if a != b for link in TOPOLOGY.links_on_path(a, b)}
)

#: utilizations below 0, at and above ``_RHO_MAX``, signed zeros and NaN
rhos = st.sampled_from([0.0, -0.0, -0.5, 0.3, 0.9, _RHO_MAX, 0.995, 1.0, 7.0]) | st.floats(
    min_value=-1.0, max_value=2.0
) | st.just(float("nan"))
#: per-core loads, signed zeros and negatives included
loads = st.sampled_from([0.0, -0.0, -1.0, 0.25, 1.5]) | st.floats(
    min_value=-2.0, max_value=4.0
)
#: ordered pairs, both directions and ``u == v`` included
pairs = st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)), max_size=40)
configs = st.builds(
    LatencyConfig,
    base_per_hop_us=st.sampled_from([25.0, 0.1, 3.7]),
    queue_factor=st.sampled_from([3.0, 0.0, 1.5]),
    endpoint_load_us=st.sampled_from([150.0, 0.0, 40.5]),
    jitter_us=st.sampled_from([0.0, 5.0, 400.0]),
)


@settings(max_examples=200, deadline=None)
@given(
    config=configs,
    pairs=pairs,
    util=st.dictionaries(st.sampled_from(LINKS), rhos),
    node_loads=st.one_of(st.none(), st.fixed_dictionaries({n: loads for n in NODES})),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_equals_the_per_pair_walk(config, pairs, util, node_loads, seed):
    model = LatencyModel(TOPOLOGY, config)
    batch_rng, walk_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = model.latencies_us(
        pairs,
        util,
        node_load=None if node_loads is None else node_loads.__getitem__,
        rng=batch_rng,
    )
    want = [
        reference_latency_us(
            model,
            u,
            v,
            util,
            endpoint_load_per_core=(
                None if node_loads is None else (node_loads[u], node_loads[v])
            ),
            rng=walk_rng,
        )
        for u, v in pairs
    ]
    assert got.shape == (len(pairs),)
    for g, w in zip(got.tolist(), want):
        assert same(g, w)
    assert batch_rng.bit_generator.state == walk_rng.bit_generator.state
    # the one-pair case is the same formula
    one_rng = np.random.default_rng(seed)
    for (u, v), w in zip(pairs, want):
        one = model.latency_us(
            u,
            v,
            util,
            endpoint_load_per_core=(
                None if node_loads is None else (node_loads[u], node_loads[v])
            ),
            rng=one_rng,
        )
        assert same(one, w)
    assert one_rng.bit_generator.state == walk_rng.bit_generator.state


def test_network_sweep_equals_its_per_pair_calls():
    """Live utilization and endpoint loads, with jitter: one
    ``latencies_us`` equals a ``latency_us`` call per pair."""
    network = NetworkModel(TOPOLOGY, latency_config=LatencyConfig(jitter_us=30.0))
    network.add_flow(Flow("a1", "c1", 150.0))
    network.add_flow(Flow("b2", "c2", 400.0))
    load = {n: 0.5 * i - 1.0 for i, n in enumerate(NODES)}
    network.set_node_load_provider(load.__getitem__)
    sweep = [(a, b) for a in NODES for b in NODES]
    batch_rng, pair_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = network.latencies_us(sweep, rng=batch_rng).tolist()
    want = [network.latency_us(a, b, rng=pair_rng) for a, b in sweep]
    assert all(same(g, w) for g, w in zip(got, want))
    assert batch_rng.bit_generator.state == pair_rng.bit_generator.state
    mat = network.latency_matrix(NODES)
    for i, a in enumerate(NODES):
        for j, b in enumerate(NODES[i + 1 :], i + 1):
            assert mat[i, j] == mat[j, i] == network.latency_us(a, b)
