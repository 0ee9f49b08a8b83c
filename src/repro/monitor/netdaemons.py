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

from itertools import combinations

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
    # a repeated name would make the probe schedule raise: keep the first
    return list(
        dict.fromkeys(n for n in live if isinstance(n, str) and n in cluster)
    )


class LatencyD(Daemon):
    """Sweeps all live-pair latencies every ``period_s`` (1 min paper).

    Its 1- and 5-minute means live in one window with a column per
    cluster pair: a sweep adds one row with the pairs it measured, so a
    pair that skipped sweeps (a node was down) averages only its own
    samples.
    """

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
        #: canonical pair -> its column; ``_live_nodes`` returns only
        #: cluster members, so every measured pair has one
        self._columns: dict[tuple[str, str], int] = {
            (a, b) if a <= b else (b, a): i
            for i, (a, b) in enumerate(combinations(cluster.names, 2))
        }
        self._window = RollingWindows(
            (1 * MINUTES, 5 * MINUTES), width=max(len(self._columns), 1)
        )

    def sample(self) -> None:
        nodes = _live_nodes(self.store, self._cluster)
        now = self.engine.now
        pairs = [p for rnd in round_robin_rounds(nodes) for p in rnd]
        lat = self._network.latencies_us(pairs, rng=self._rng)
        columns = [self._columns[p] for p in pairs]
        self._window.add(now, lat, columns)
        # every measured pair has this row, so no count is 0
        sums, counts = self._window.fold(now)
        m1s, m5s = (sums[:, columns] / counts[:, columns]).tolist()
        records: dict[str, dict[str, dict]] = {n: {} for n in nodes}
        for (a, b), lat_ab, m1, m5 in zip(pairs, lat.tolist(), m1s, m5s):
            stats = {"now": lat_ab, "m1": m1, "m5": m5}
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
