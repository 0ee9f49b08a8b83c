"""Network probing daemons: ``LatencyD`` and ``BandwidthD``.

Per the paper: "We run an MPI program at regular intervals of 1 minute for
latency and 5 minutes for bandwidth ... We schedule these P2P calculations
in a few rounds such that one node communicates with only one other node
in each round (n/2 distinct pairs of nodes communicate at a time)."

Each tick performs one full sweep organised as a round-robin tournament
(:func:`repro.net.probes.round_robin_rounds`).  Latency keeps 1- and
5-minute running means; bandwidth uses the instantaneous measurement —
both exactly as §4 of the paper specifies.  Results land in the store as
``latency/<node>`` and ``bandwidth/<node>`` records mapping peer → stats,
mirroring "each node only calculates its own latency/bandwidth with all
other nodes".
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.des.engine import Engine
from repro.monitor.daemons import Daemon
from repro.monitor.rolling import RollingWindows
from repro.monitor.store import SharedStore, StoreCorruptError
from repro.net.model import NetworkModel
from repro.net.probes import round_robin_rounds
from repro.util.units import MINUTES


def _live_nodes(store: SharedStore, cluster: Cluster) -> list[str]:
    """Nodes to probe: the livehosts list if available, else every node.

    A corrupt or malformed livehosts record must not kill a probe daemon
    — probing every member is the safe fallback (exactly what happens
    before LivehostsD's first write).
    """
    try:
        live = store.value("livehosts")
    except StoreCorruptError:
        return list(cluster.names)
    if live is None or not isinstance(live, (list, tuple)):
        return list(cluster.names)
    return [n for n in live if isinstance(n, str) and n in cluster]


class LatencyD(Daemon):
    """Sweeps all live-pair latencies every ``period_s`` (1 min paper)."""

    def __init__(
        self,
        engine: Engine,
        store: SharedStore,
        cluster: Cluster,
        network: NetworkModel,
        *,
        host: str | None = None,
        period_s: float = 60.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            engine, store, "latencyd", period_s, host=host, cluster=cluster
        )
        self._cluster = cluster
        self._network = network
        self._rng = rng
        self._windows: dict[tuple[str, str], RollingWindows] = {}

    def sample(self) -> None:
        nodes = _live_nodes(self.store, self._cluster)
        now = self.engine.now
        records: dict[str, dict[str, dict]] = {n: {} for n in nodes}
        for rnd in round_robin_rounds(nodes):
            for a, b in rnd:
                lat = self._network.latency_us(a, b, rng=self._rng)
                key = (a, b)
                win = self._windows.get(key)
                if win is None:
                    win = self._windows[key] = RollingWindows(
                        (1 * MINUTES, 5 * MINUTES)
                    )
                win.add(now, lat)
                m1, m5 = win.means(now).values()
                stats = {"now": lat, "m1": m1, "m5": m5}
                records[a][b] = stats
                records[b][a] = stats
        for n in nodes:
            self.store.put(f"latency/{n}", records[n], now)


class BandwidthD(Daemon):
    """Sweeps all live-pair effective bandwidths every ``period_s`` (5 min)."""

    def __init__(
        self,
        engine: Engine,
        store: SharedStore,
        cluster: Cluster,
        network: NetworkModel,
        *,
        host: str | None = None,
        period_s: float = 300.0,
    ) -> None:
        super().__init__(
            engine, store, "bandwidthd", period_s, host=host, cluster=cluster
        )
        self._cluster = cluster
        self._network = network

    def sample(self) -> None:
        nodes = _live_nodes(self.store, self._cluster)
        now = self.engine.now
        pairs = [p for rnd in round_robin_rounds(nodes) for p in rnd]
        measured = self._network.bulk_available_bandwidth(pairs)
        records: dict[str, dict[str, float]] = {n: {} for n in nodes}
        for (a, b), bw in measured.items():
            records[a][b] = bw
            records[b][a] = bw
        for n in nodes:
            self.store.put(f"bandwidth/{n}", records[n], now)
