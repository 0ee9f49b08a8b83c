"""Per-shard snapshot slicing — one subtree's view of the fleet.

A federation shard owns one switch subtree and must decide placements
against *its* slice of the monitor's snapshot: its nodes, the live hosts
among them, and only the measured links whose **both** endpoints are in
the shard (a link leaving the subtree is another shard's problem — the
router accounts for cross-shard traffic at a coarser granularity).

:func:`slice_snapshot` does one such projection; :func:`slice_delta`
projects a :class:`~repro.monitor.delta.SnapshotDelta` the same way; and
:class:`ShardSnapshotSource` wraps a parent snapshot source (typically a
:class:`~repro.monitor.snapshot.CachedSnapshotSource`) into a shard-local
source that keeps the incremental hot path alive: when the parent serves
the same object, the previous slice is returned identity-equal (so every
``derived_cache`` memo — array store, LoadState slices, lineage —
survives); when the parent advanced by one step, that step is projected
and patched in; after a longer gap the slice is recut and patched
through ``compute_delta``.  Either way the shard's array store is
patched once in O(changed) instead of rebuilt.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.monitor.delta import (
    SnapshotDelta,
    apply_snapshot_delta,
    compute_delta,
    snapshot_step_delta,
)
from repro.monitor.snapshot import ClusterSnapshot


def slice_snapshot(
    snapshot: ClusterSnapshot, nodes: Iterable[str]
) -> ClusterSnapshot:
    """The projection of ``snapshot`` onto ``nodes``.

    Nodes absent from the snapshot are ignored (a shard's partition is
    defined over the static topology; the monitor may momentarily know
    fewer nodes).  Pair measurements survive only when both endpoints
    are kept, and ``livehosts`` order is preserved.
    """
    keep = frozenset(nodes)
    views = {n: v for n, v in snapshot.nodes.items() if n in keep}

    def both(pair: tuple[str, str]) -> bool:
        return pair[0] in keep and pair[1] in keep

    return ClusterSnapshot(
        time=snapshot.time,
        nodes=views,
        bandwidth_mbs={
            k: v for k, v in snapshot.bandwidth_mbs.items() if both(k)
        },
        latency_us={k: v for k, v in snapshot.latency_us.items() if both(k)},
        peak_bandwidth_mbs={
            k: v for k, v in snapshot.peak_bandwidth_mbs.items() if both(k)
        },
        livehosts=tuple(h for h in snapshot.livehosts if h in keep),
    )


def slice_delta(delta: SnapshotDelta, nodes: Iterable[str]) -> SnapshotDelta:
    """The projection of ``delta`` onto ``nodes`` (may be empty)."""
    keep = frozenset(nodes)

    def both(pair: tuple[str, str]) -> bool:
        return pair[0] in keep and pair[1] in keep

    return SnapshotDelta(
        time=delta.time,
        nodes={n: v for n, v in delta.nodes.items() if n in keep},
        bandwidth_mbs={
            k: v for k, v in delta.bandwidth_mbs.items() if both(k)
        },
        latency_us={k: v for k, v in delta.latency_us.items() if both(k)},
    )


class ShardSnapshotSource:
    """A shard-local snapshot source over a parent source.

    Callable like every snapshot source (``() -> ClusterSnapshot``).
    The parent is polled on every call, so a shard catches itself up
    whenever its service decides; slicing work happens only when the
    parent actually served a new object:

    * same parent object → the previous slice, identity-equal
      (``reuses`` counter);
    * parent one stashed step ahead of the last one seen → that step,
      projected onto the shard, patches the old slice (``deltas``);
    * any other parent → a fresh slice, diffed against the old one and
      patched in when only values moved (``deltas``), or served as is
      on a structural change — nodes/links/livehosts appeared or
      vanished (``rebuilds``).
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
        self._parent: ClusterSnapshot | None = None
        self._sliced: ClusterSnapshot | None = None
        self.reuses = 0
        self.deltas = 0
        self.rebuilds = 0

    def __call__(self) -> ClusterSnapshot:
        return self.sync(self._source())

    def sync(self, parent: ClusterSnapshot) -> ClusterSnapshot:
        """Serve the slice of ``parent``, incrementally when possible.

        Tries, in order: identity reuse; the one-step delta stashed on
        ``parent`` by :func:`~repro.monitor.delta.apply_snapshot_delta`
        (O(changed), no re-diffing); a full reslice with a slice-level
        diff so the shard's array store is still patched, not rebuilt.
        """
        old = self._sliced
        if parent is self._parent and old is not None:
            self.reuses += 1
            return old
        step = None
        if self._parent is not None:
            step = snapshot_step_delta(parent, self._parent)
        if old is not None and step is not None:
            fresh = apply_snapshot_delta(old, slice_delta(step, self.nodes))
            self.deltas += 1
        else:
            fresh = slice_snapshot(parent, self.nodes)
            delta = None if old is None else compute_delta(old, fresh)
            if old is not None and delta is not None:
                fresh = apply_snapshot_delta(old, delta)
                self.deltas += 1
            else:
                self.rebuilds += 1
        self._parent = parent
        self._sliced = fresh
        return fresh
