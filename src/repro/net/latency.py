"""P2P latency model: per-hop base cost plus congestion-dependent queueing.

The paper's ``LatencyD`` measures round-trip style MPI latencies in
microseconds (Table 4 reports values between ~80 and ~550 µs).  We model

    latency(u, v) = sum over links l in path(u, v) of
                    base_per_hop · (1 + queue_factor · ρ_l / (1 − ρ_l))

where ρ_l is the link's utilization.  The M/M/1-style term makes latency
blow up on congested links, which is what produces the paper's dark
patches and Table 4's spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.cluster.topology import SwitchTopology
from repro.net.bandwidth import FairShareSolver
from repro.net.flows import Flow

#: Utilization is clamped below 1 to keep the queueing term finite.
_RHO_MAX = 0.99


@dataclass(frozen=True)
class LatencyConfig:
    """Tunables for the latency model.

    base_per_hop_us:
        Propagation + store-and-forward cost per link, microseconds.
        ~25 µs/hop yields ~100 µs for same-switch pairs (2 hops) at idle,
        in the ballpark of Gigabit Ethernet + MPI software stack.
    queue_factor:
        Strength of the congestion term.
    endpoint_load_us:
        Microseconds added per unit of *load per core* at each endpoint
        node.  Busy hosts are slow to progress MPI messages (scheduling
        noise, interrupt latency); this is why the paper's Table 4 shows
        sequential allocation measuring 304 µs on topologically adjacent
        but loaded nodes while the network-aware group measured 83 µs.
    jitter_us:
        Half-width of uniform measurement jitter (0 disables).
    """

    base_per_hop_us: float = 25.0
    queue_factor: float = 3.0
    endpoint_load_us: float = 150.0
    jitter_us: float = 0.0

    def __post_init__(self) -> None:
        if self.base_per_hop_us <= 0:
            raise ValueError(f"base_per_hop_us must be positive: {self.base_per_hop_us}")
        if self.queue_factor < 0:
            raise ValueError(f"queue_factor must be non-negative: {self.queue_factor}")
        if self.endpoint_load_us < 0:
            raise ValueError(
                f"endpoint_load_us must be non-negative: {self.endpoint_load_us}"
            )
        if self.jitter_us < 0:
            raise ValueError(f"jitter_us must be non-negative: {self.jitter_us}")


class LatencyModel:
    """Computes P2P latencies from topology + link utilization."""

    def __init__(
        self, topology: SwitchTopology, config: LatencyConfig | None = None
    ) -> None:
        self._topo = topology
        self.config = config or LatencyConfig()

    def latencies_us(
        self,
        pairs: Sequence[tuple[str, str]],
        link_utilization: Mapping[tuple[str, str], float],
        *,
        node_load: Callable[[str], float] | None = None,
        rng=None,
    ) -> np.ndarray:
        """One-way latency in microseconds of every pair, in pair order.

        ``node_load`` gives a node's load per core; each endpoint adds
        ``endpoint_load_us`` microseconds per unit.  It is called once
        per distinct node, and each link's queueing term is computed once
        however many pairs cross it.  With jitter, one draw per pair of
        distinct nodes, in pair order.

        Bit for bit one walk per pair: hops summed in path order from
        ``+0.0`` (padding hops add ``+0.0``, a no-op on a positive sum),
        and builtin ``max(x, 0.0)`` / ``min(x, c)`` written as
        ``np.where`` so a ``-0.0`` or NaN passes through as they pass it.
        """
        cfg = self.config
        routes = _Routes(self._topo, pairs)
        rho = np.array(
            [link_utilization.get(link, 0.0) for link in routes.links], dtype=float
        )
        rho = np.where(0.0 > rho, 0.0, rho)
        rho = np.where(_RHO_MAX < rho, _RHO_MAX, rho)
        # one term per link, and a trailing +0.0 for padding hops
        term = np.zeros(len(routes.links) + 1)
        term[:-1] = cfg.base_per_hop_us * (1.0 + cfg.queue_factor * rho / (1.0 - rho))
        hops = term[routes.hops]
        total = np.zeros(len(hops))
        for j in range(hops.shape[1]):
            total += hops[:, j]
        if node_load is not None:
            load = np.array([node_load(n) for n in routes.nodes], dtype=float)
            load = np.where(0.0 > load, 0.0, load)
            total += cfg.endpoint_load_us * (load[routes.ends[0]] + load[routes.ends[1]])
        if cfg.jitter_us > 0 and rng is not None:
            total += rng.uniform(-cfg.jitter_us, cfg.jitter_us, size=len(total))
        out = np.zeros(routes.size)
        out[routes.at] = np.where(0.0 > total, 0.0, total)
        return out

    def latency_us(
        self,
        u: str,
        v: str,
        link_utilization: Mapping[tuple[str, str], float],
        *,
        endpoint_load_per_core: tuple[float, float] | None = None,
        rng=None,
    ) -> float:
        """One-way latency in microseconds between nodes ``u`` and ``v``.

        ``endpoint_load_per_core`` gives (load/core at u, load/core at v);
        each contributes ``endpoint_load_us`` microseconds per unit.  The
        one-pair case of :meth:`latencies_us`.
        """
        node_load = None
        if endpoint_load_per_core is not None:
            node_load = dict(zip((u, v), endpoint_load_per_core)).__getitem__
        lat = self.latencies_us(
            ((u, v),), link_utilization, node_load=node_load, rng=rng
        )
        return float(lat[0])

    def latency_from_flows(
        self, u: str, v: str, flows: Sequence[Flow], *, rng=None
    ) -> float:
        """Convenience: solve fair-share utilization, then compute latency."""
        solver = FairShareSolver(self._topo)
        util = solver.link_utilization(flows)
        return self.latency_us(u, v, util, rng=rng)


class _Routes:
    """Index arrays for one pair sequence's latency sweep.

    Pairs of distinct nodes (positions ``at``; a node's latency to
    itself is 0) get a row of link indices in path order, padded with
    ``len(links)``, and their endpoints' indices into ``nodes``.
    """

    def __init__(
        self, topology: SwitchTopology, pairs: Sequence[tuple[str, str]]
    ) -> None:
        links: dict[tuple[str, str], int] = {}
        nodes: dict[str, int] = {}
        at: list[int] = []
        rows: list[list[int]] = []
        ends: list[list[int]] = []
        for i, (u, v) in enumerate(pairs):
            if u != v:
                at.append(i)
                path = topology.links_on_path(u, v)
                rows.append([links.setdefault(link, len(links)) for link in path])
                ends.append([nodes.setdefault(n, len(nodes)) for n in (u, v)])
        width = max(map(len, rows), default=0)
        self.size = len(pairs)
        self.at = np.array(at, dtype=np.intp)
        self.links = list(links)
        self.nodes = list(nodes)
        self.hops = np.array(
            [row + [len(links)] * (width - len(row)) for row in rows], dtype=np.intp
        ).reshape(len(rows), width)
        self.ends = np.array(ends, dtype=np.intp).reshape(len(ends), 2).T
