"""A federation shard's snapshot source — the fleet snapshot, scoped to a subtree.

:class:`ShardSnapshotSource` returns its parent's snapshot unchanged and
carries the shard's node set, so the router and every shard read one
snapshot and one :class:`~repro.core.arrays.ArrayStore` per refresh.  A
:class:`~repro.broker.service.BrokerService` over it excludes every other
node from its decisions and averages the §6 wait guard over its own;
excluding nodes normalizes Equations 1–2 over exactly the rest, so a
shard decides as it would on a snapshot cut down to its nodes.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.monitor.snapshot import ClusterSnapshot


class ShardSnapshotSource:
    """A parent snapshot source plus the shard's node set (``nodes``).

    Each call polls the parent and returns its snapshot as is.
    """

    def __init__(
        self,
        source: Callable[[], ClusterSnapshot],
        nodes: Iterable[str],
    ) -> None:
        self.nodes = frozenset(nodes)
        if not self.nodes:
            raise ValueError("a shard snapshot source needs at least one node")
        self._source = source

    def __call__(self) -> ClusterSnapshot:
        return self._source()
