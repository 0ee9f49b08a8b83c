"""NetworkModel: façade over topology + flows + solvers.

This is the single object the rest of the system talks to for "what is the
network doing right now": the workload generator installs/removes
background flows, the monitoring daemons probe it, and the MPI execution
model charges message time against it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.cluster.topology import SwitchTopology
from repro.net.bandwidth import FairShareSolver, available_bandwidth
from repro.net.flows import Flow, FlowSet
from repro.net.latency import LatencyConfig, LatencyModel


class NetworkModel:
    """Current network state of the cluster.

    Caches the fair-share solution; any flow mutation invalidates it.
    """

    def __init__(
        self,
        topology: SwitchTopology,
        *,
        latency_config: LatencyConfig | None = None,
        endpoint_bw_load_factor: float = 0.8,
        hop_bw_efficiency: float = 0.92,
    ) -> None:
        if endpoint_bw_load_factor < 0:
            raise ValueError(
                f"endpoint_bw_load_factor must be non-negative: "
                f"{endpoint_bw_load_factor}"
            )
        if not 0.0 < hop_bw_efficiency <= 1.0:
            raise ValueError(
                f"hop_bw_efficiency must be in (0, 1], got {hop_bw_efficiency}"
            )
        #: achievable-throughput multiplier per hop beyond the minimal two
        #: (same-switch) hops.  Store-and-forward and backplane overheads
        #: give every pair a topology-determined *base value* — the paper's
        #: Fig 2(a) observation that "nodes with closer proximity have
        #: somewhat higher bandwidth".
        self.hop_bw_efficiency = hop_bw_efficiency
        #: how strongly endpoint CPU load (per core) throttles achievable
        #: bandwidth: factor = 1 / (1 + k * max(load_u, load_v)).  A busy
        #: host cannot drive its NIC at line rate (TCP/MPI progress
        #: threads compete for CPU), which is why the paper's Fig 7
        #: bandwidth heatmap darkens around loaded nodes.
        self.endpoint_bw_load_factor = endpoint_bw_load_factor
        self._topo = topology
        self._flows = FlowSet()
        self._solver = FairShareSolver(topology)
        self._latency = LatencyModel(topology, latency_config)
        self._rates: dict[int, float] | None = None
        self._util: dict[tuple[str, str], float] | None = None
        #: the latest node set's canonical peak map, with that node set
        self._peak_map: tuple[tuple[str, ...], dict[tuple[str, str], float]] = (
            (), {}
        )
        #: optional callable node -> CPU load per core, used by the
        #: latency model's endpoint term (wired by the workload layer)
        self._node_load_provider: Callable[[str], float] | None = None

    def set_node_load_provider(
        self, provider: Callable[[str], float] | None
    ) -> None:
        """Install the endpoint-load source for latency computations."""
        self._node_load_provider = provider

    def _endpoint_loads(self, u: str, v: str) -> tuple[float, float] | None:
        if self._node_load_provider is None:
            return None
        return (self._node_load_provider(u), self._node_load_provider(v))

    def endpoint_bw_factor(self, u: str, v: str) -> float:
        """Bandwidth multiplier in (0, 1] from endpoint CPU load."""
        loads = self._endpoint_loads(u, v)
        if loads is None:
            return 1.0
        worst = max(max(loads[0], 0.0), max(loads[1], 0.0))
        return 1.0 / (1.0 + self.endpoint_bw_load_factor * worst)

    def hop_bw_factor(self, u: str, v: str) -> float:
        """Per-hop throughput efficiency beyond the 2-hop same-switch case."""
        extra = max(self._topo.hops(u, v) - 2, 0)
        return self.hop_bw_efficiency**extra

    def _bw_factor(self, u: str, v: str) -> float:
        """Combined endpoint-load and hop-count throughput multiplier."""
        return self.endpoint_bw_factor(u, v) * self.hop_bw_factor(u, v)

    # -- flow management ------------------------------------------------
    @property
    def topology(self) -> SwitchTopology:
        return self._topo

    @property
    def flows(self) -> FlowSet:
        return self._flows

    def add_flow(self, flow: Flow) -> Flow:
        self._flows.add(flow)
        self._invalidate()
        return flow

    def add_flows(self, flows: Iterable[Flow]) -> list[Flow]:
        added = [self._flows.add(f) for f in flows]
        self._invalidate()
        return added

    def remove_flow(self, flow: Flow) -> None:
        self._flows.remove(flow)
        self._invalidate()

    def remove_tag(self, tag: str) -> int:
        n = self._flows.remove_tag(tag)
        if n:
            self._invalidate()
        return n

    def replace_tag(self, tag: str, flows: Iterable[Flow]) -> None:
        """Atomically swap all flows of ``tag`` for a new set."""
        self._flows.remove_tag(tag)
        for f in flows:
            if f.tag != tag:
                raise ValueError(f"flow tag {f.tag!r} does not match {tag!r}")
            self._flows.add(f)
        self._invalidate()

    def _invalidate(self) -> None:
        self._rates = None
        self._util = None

    # -- solved state -----------------------------------------------------
    def rates(self) -> Mapping[int, float]:
        """Achieved rate per flow id under max–min fairness (cached)."""
        if self._rates is None:
            self._rates = self._solver.solve(list(self._flows))
        return self._rates

    def link_utilization(self) -> Mapping[tuple[str, str], float]:
        """Utilization per link in [0, 1] (cached)."""
        if self._util is None:
            self._util = self._solver.link_utilization(
                list(self._flows), self.rates()
            )
        return self._util

    def node_flow_rates(self) -> dict[str, float]:
        """NIC in+out rate (MB/s) per node — the paper's *data flow rate*."""
        return self._flows.node_flow_rate(dict(self.rates()))

    # -- measurements ------------------------------------------------------
    def available_bandwidth(self, u: str, v: str) -> float:
        """Effective bandwidth (MB/s) a probe would achieve between u, v.

        Includes the endpoint-load throttle: this is what an MPI
        bandwidth benchmark (the paper's ``BandwidthD``) actually
        measures on busy hosts.
        """
        raw = available_bandwidth(
            self._topo, list(self._flows), u, v, solver=self._solver
        )
        return raw * self._bw_factor(u, v)

    def bulk_available_bandwidth(
        self, pairs: Sequence[tuple[str, str]]
    ) -> dict[tuple[str, str], float]:
        """Fast approximate available bandwidth for many pairs at once.

        Solves the background fair share once, then for each pair takes the
        bottleneck of per-link *probe shares*: an idle link offers its
        residual capacity; a saturated link offers an equal share
        ``capacity / (n_flows + 1)`` to the newcomer.  This is exact on an
        idle network and within a few percent of the exact
        :meth:`available_bandwidth` under load (see the validation test in
        ``tests/net/test_bandwidth.py``), at O(path) instead of a full
        solve per pair.
        """
        rates = self.rates()
        used: dict[tuple[str, str], float] = {}
        count: dict[tuple[str, str], int] = {}
        for f in self._flows:
            r = rates.get(f.flow_id, 0.0)
            for link in self._topo.links_on_path(f.src, f.dst):
                used[link] = used.get(link, 0.0) + r
                count[link] = count.get(link, 0) + 1
        out: dict[tuple[str, str], float] = {}
        for u, v in pairs:
            if u == v:
                raise ValueError("bandwidth pairs must have distinct endpoints")
            best = math.inf
            for link in self._topo.links_on_path(u, v):
                cap = self._topo.link_capacity(*link)
                residual = cap - used.get(link, 0.0)
                equal_share = cap / (count.get(link, 0) + 1)
                best = min(best, max(residual, equal_share))
            out[(u, v)] = best * self._bw_factor(u, v)
        return out

    def peak_bandwidth(self, u: str, v: str) -> float:
        """Bandwidth on an idle network — min capacity along the path."""
        if u == v:
            raise ValueError("peak_bandwidth needs two distinct nodes")
        return min(
            self._topo.link_capacity(*link)
            for link in self._topo.links_on_path(u, v)
        )

    def peak_bandwidth_map(
        self, nodes: Sequence[str]
    ) -> dict[tuple[str, str], float]:
        """Peak bandwidth of every pair of ``nodes``, canonically keyed.

        Pairs are inserted in ``nodes`` order.  The map of the latest
        node set is kept and returned to every caller asking for the
        same set, so snapshots of one node set share one map; it must
        never be written to.  Only one map is kept, so a node set that
        keeps changing (nodes going down and up) cannot grow the cache.
        """
        key = tuple(nodes)
        if self._peak_map[0] != key:
            peak: dict[tuple[str, str], float] = {}
            for i, a in enumerate(key):
                for b in key[i + 1 :]:
                    peak[(a, b) if a <= b else (b, a)] = self.peak_bandwidth(a, b)
            self._peak_map = (key, peak)
        return self._peak_map[1]

    def latency_us(self, u: str, v: str, *, rng=None) -> float:
        """One-way latency in microseconds under current utilization."""
        return self._latency.latency_us(
            u,
            v,
            self.link_utilization(),
            endpoint_load_per_core=self._endpoint_loads(u, v),
            rng=rng,
        )

    def latencies_us(
        self, pairs: Sequence[tuple[str, str]], *, rng=None
    ) -> np.ndarray:
        """:meth:`latency_us` of every pair, in pair order, in one sweep.

        Jitter draws follow pair order, so the values and ``rng``'s state
        equal those of one :meth:`latency_us` call per pair.
        """
        return self._latency.latencies_us(
            pairs,
            self.link_utilization(),
            node_load=self._node_load_provider,
            rng=rng,
        )

    def bandwidth_matrix(self, nodes: Sequence[str]) -> np.ndarray:
        """Symmetric matrix of available bandwidth between ``nodes``.

        Diagonal entries hold the peak loopback value (effectively
        infinite; we use the edge capacity as a stand-in so heatmaps stay
        finite).
        """
        n = len(nodes)
        mat = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                bw = self.available_bandwidth(nodes[i], nodes[j])
                mat[i, j] = mat[j, i] = bw
        for i in range(n):
            mat[i, i] = math.inf
        return mat

    def latency_matrix(self, nodes: Sequence[str], *, rng=None) -> np.ndarray:
        """Symmetric matrix of latencies (µs) between ``nodes``."""
        n = len(nodes)
        i, j = np.triu_indices(n, 1)
        pairs = [(nodes[a], nodes[b]) for a, b in zip(i, j)]
        mat = np.zeros((n, n))
        mat[i, j] = mat[j, i] = self.latencies_us(pairs, rng=rng)
        return mat
