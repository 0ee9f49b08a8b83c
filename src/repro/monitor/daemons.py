"""Monitoring daemons: base class, ``NodeStateD`` and ``LivehostsD``.

Each daemon ticks periodically on the shared engine, performs one
observation, and writes the result plus a heartbeat to the shared store.
Daemons can *crash* (tick stops, heartbeat goes stale) and be *restarted*
— the behaviours the Central Monitor supervises.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.cluster.cluster import Cluster
from repro.des.engine import Engine
from repro.monitor.rolling import DEFAULT_WINDOWS, RollingWindows
from repro.monitor.store import SharedStore
from repro.util.validation import require_positive

HEARTBEAT_PREFIX = "heartbeat/"


class Daemon(ABC):
    """A periodically ticking monitoring process.

    Parameters
    ----------
    engine, store:
        Shared simulation clock and data plane.
    name:
        Unique daemon identity, e.g. ``"nodestate/csews7"``.
    period_s:
        Tick period.  Jitter (optional) desynchronises daemon fleets.
    host:
        Node the daemon runs on; a daemon whose host is down skips work
        (and its heartbeat goes stale), ``None`` = independent of any node.
    """

    def __init__(
        self,
        engine: Engine,
        store: SharedStore,
        name: str,
        period_s: float,
        *,
        host: str | None = None,
        cluster: Cluster | None = None,
        jitter_s: float = 0.0,
        jitter_rng: np.random.Generator | None = None,
    ) -> None:
        require_positive(period_s, "period_s")
        if host is not None and cluster is None:
            raise ValueError("a hosted daemon needs the cluster to check its host")
        self.engine = engine
        self.store = store
        self.name = name
        self.period_s = period_s
        self.host = host
        self._cluster = cluster
        self._jitter_s = jitter_s
        self._jitter_rng = jitter_rng
        self._task = None
        self.ticks = 0

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._task is not None and not self._task.stopped

    def start(self) -> None:
        """(Re)start ticking; the first tick runs one period from now.

        The daemon announces itself with an immediate heartbeat so a
        supervisor doesn't judge it stale (and restart it again) before
        its first tick — restart loops would otherwise starve slow-period
        daemons forever.
        """
        if self.alive:
            return
        if self._host_up():
            self.store.put(
                HEARTBEAT_PREFIX + self.name, self.ticks, self.engine.now
            )
        self._task = self.engine.every(
            self.period_s,
            self._tick,
            start=self.engine.now + self.period_s,
            jitter=self._jitter_s,
            jitter_rng=self._jitter_rng,
        )

    def crash(self) -> None:
        """Stop ticking immediately (simulated crash)."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _host_up(self) -> bool:
        if self.host is None:
            return True
        assert self._cluster is not None
        return self._cluster.state(self.host).up

    def _tick(self) -> None:
        if not self._host_up():
            return  # host down: no work, no heartbeat
        self.ticks += 1
        self.store.put(HEARTBEAT_PREFIX + self.name, self.ticks, self.engine.now)
        self.sample()

    @abstractmethod
    def sample(self) -> None:
        """One observation; implemented by concrete daemons."""


class NodeStateD(Daemon):
    """Per-node state sampler (the paper's ``NodeStateD``).

    Extracts static attributes once and dynamic attributes every tick
    (3–10 s in the paper), maintaining 1/5/15-minute running means, and
    writes the combined record to ``nodestate/<node>``.
    """

    #: dynamic attributes tracked with rolling means
    DYNAMIC = ("cpu_load", "cpu_util", "flow_rate_mbs", "available_memory_gb")

    def __init__(
        self,
        engine: Engine,
        store: SharedStore,
        cluster: Cluster,
        node: str,
        *,
        period_s: float = 5.0,
        jitter_s: float = 0.0,
        jitter_rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            engine,
            store,
            f"nodestate/{node}",
            period_s,
            host=node,
            cluster=cluster,
            jitter_s=jitter_s,
            jitter_rng=jitter_rng,
        )
        self.node = node
        self._windows: dict[str, RollingWindows] = {
            attr: RollingWindows(DEFAULT_WINDOWS) for attr in self.DYNAMIC
        }

    def sample(self) -> None:
        cluster = self._cluster
        assert cluster is not None
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
            win = self._windows[attr]
            win.add(now, v)
            m1, m5, m15 = win.means(now).values()
            record[attr] = {"now": v, "m1": m1, "m5": m5, "m15": m15}
        self.store.put(f"nodestate/{self.node}", record, now)


class LivehostsD(Daemon):
    """Pings every node and maintains the ``livehosts`` list.

    The paper runs several instances "on a few selected nodes at
    different frequencies ... for fault tolerance"; each instance writes
    the same ``livehosts`` key, so the freshest survivor wins.
    """

    def __init__(
        self,
        engine: Engine,
        store: SharedStore,
        cluster: Cluster,
        *,
        instance: str = "0",
        host: str | None = None,
        period_s: float = 30.0,
        jitter_s: float = 0.0,
        jitter_rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            engine,
            store,
            f"livehosts/{instance}",
            period_s,
            host=host,
            cluster=cluster if host is not None else cluster,
            jitter_s=jitter_s,
            jitter_rng=jitter_rng,
        )
        # cluster is always needed for pinging, host check or not
        self._cluster = cluster

    def sample(self) -> None:
        cluster = self._cluster
        live = [n for n in cluster.names if cluster.state(n).up]
        self.store.put("livehosts", live, self.engine.now)
