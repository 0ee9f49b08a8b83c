"""The paper's Resource Monitor: daemons, shared store, snapshots.

Components map one-to-one onto Figure 3 of the paper:

* :class:`~repro.monitor.store.SharedStore` — the NFS-backed data plane
* :class:`~repro.monitor.daemons.NodeStateD` — per-node state sampler
* :class:`~repro.monitor.daemons.LivehostsD` — reachability pinger
* :class:`~repro.monitor.netdaemons.LatencyD` / ``BandwidthD`` — P2P probes
* :class:`~repro.monitor.central.CentralMonitor` — master/slave supervisor
* :class:`~repro.monitor.snapshot.ClusterSnapshot` — what the allocator sees
"""

from repro.monitor.central import CentralMonitor
from repro.monitor.daemons import Daemon, LivehostsD, NodeStateD
from repro.monitor.drift import DriftReading, DriftTracker
from repro.monitor.failures import FailureInjector
from repro.monitor.netdaemons import BandwidthD, LatencyD
from repro.monitor.rolling import RollingWindows
from repro.monitor.snapshot import (
    CachedSnapshotSource,
    ClusterSnapshot,
    NodeView,
    oracle_snapshot,
)
from repro.monitor.slicing import ShardSnapshotSource
from repro.monitor.store import FileStore, InMemoryStore, SharedStore
from repro.monitor.system import MonitoringSystem

__all__ = [
    "CentralMonitor",
    "Daemon",
    "LivehostsD",
    "NodeStateD",
    "DriftReading",
    "DriftTracker",
    "FailureInjector",
    "BandwidthD",
    "LatencyD",
    "RollingWindows",
    "CachedSnapshotSource",
    "ClusterSnapshot",
    "NodeView",
    "oracle_snapshot",
    "FileStore",
    "InMemoryStore",
    "SharedStore",
    "ShardSnapshotSource",
    "MonitoringSystem",
]
