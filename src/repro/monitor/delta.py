"""Delta snapshots — the monitor's incremental view of a drifting fleet.

Between two monitor sweeps only a small fraction of a large cluster
moves: most nodes idle along at the same rolling means, most links keep
their measured latency/bandwidth.  Rebuilding every derived structure
(normalized load vectors, dense network-load matrices) from scratch for
each sweep is the fleet-scale hot-path tax PR 6 removes.

This module provides the three pieces of the incremental path:

* :class:`SnapshotDelta` — the set of node views and link measurements
  that moved between two snapshots.
* :func:`compute_delta` — diff two snapshots into a delta, or report a
  *structural* change (nodes/pairs/livehosts appeared or vanished,
  static specs changed) that requires a full rebuild.
* :func:`apply_snapshot_delta` — patch the previous snapshot into a new
  immutable :class:`~repro.monitor.snapshot.ClusterSnapshot`, patch its
  one :class:`~repro.core.arrays.ArrayStore` (O(changed) instead of a
  rebuild; decisions on the new snapshot slice the patched store), and
  stamp the new snapshot's *lineage* and the step that produced it.

Lineage: every snapshot belongs to a ``(serial, generation)`` line.  A
full rebuild starts a new serial at generation 0; each applied delta
bumps the generation.  The broker's decision memo reads it via
:func:`snapshot_lineage` and clears whenever it changes; a shard's
sliced source reads it via :func:`snapshot_step_delta` to catch up one
step without re-diffing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from repro.monitor.snapshot import ClusterSnapshot, NodeView, derived_cache

PairKey = tuple[str, str]

#: key under which the (serial, generation) pair lives in a snapshot's
#: ``derived_cache``
_LINEAGE_KEY = "snapshot_lineage"

#: key under which a delta-patched snapshot stashes the exact
#: :class:`SnapshotDelta` that produced it from its predecessor
_STEP_DELTA_KEY = "snapshot_step_delta"

#: monotonically increasing serial handed to every fresh (non-delta)
#: snapshot lineage; process-wide so two sources never collide
_SERIALS = itertools.count(1)


@dataclass(frozen=True)
class SnapshotDelta:
    """Nodes and links that moved between two sweeps."""

    #: timestamp of the newer snapshot the delta was computed against
    time: float
    #: changed node views (full replacement views from the new snapshot)
    nodes: Mapping[str, NodeView] = field(default_factory=dict)
    #: changed measured bandwidths, MB/s (canonically ordered pairs)
    bandwidth_mbs: Mapping[PairKey, float] = field(default_factory=dict)
    #: changed measured latencies, microseconds
    latency_us: Mapping[PairKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for pairmap, label in (
            (self.bandwidth_mbs, "bandwidth"),
            (self.latency_us, "latency"),
        ):
            for a, b in pairmap:
                if a > b:
                    raise ValueError(
                        f"{label} pair {(a, b)} not canonically ordered"
                    )

    @property
    def is_empty(self) -> bool:
        return not (self.nodes or self.bandwidth_mbs or self.latency_us)


def _moved(old: float, new: float) -> bool:
    """Whether a value changed; a NaN on either side never counts."""
    return abs(new - old) > 0.0


#: dynamic NodeView attribute maps compared by :func:`_node_changed`
_DYNAMIC_ATTRS = (
    "cpu_load",
    "cpu_util",
    "flow_rate_mbs",
    "available_memory_gb",
)


def _node_changed(old: NodeView, new: NodeView) -> bool:
    if old.users != new.users:
        return True
    for attr in _DYNAMIC_ATTRS:
        a, b = getattr(old, attr), getattr(new, attr)
        if set(a) != set(b):
            return True
        for key, value in a.items():
            if _moved(float(value), float(b[key])):
                return True
    return False


def _static_changed(old: NodeView, new: NodeView) -> bool:
    return (
        old.cores != new.cores
        or old.frequency_ghz != new.frequency_ghz
        or old.memory_gb != new.memory_gb
        or old.switch != new.switch
    )


def _moved_pairs(
    old: Mapping[PairKey, float], new: Mapping[PairKey, float]
) -> dict[PairKey, float]:
    """The pairs of ``new`` whose value moved from ``old`` (same keys)."""
    if old is new:
        return {}
    out = {}
    for k, v in old.items():
        fresh = new[k]
        if fresh is not v and _moved(float(v), float(fresh)):
            out[k] = fresh
    return out


def compute_delta(old: ClusterSnapshot, new: ClusterSnapshot) -> SnapshotDelta | None:
    """Diff two snapshots into a :class:`SnapshotDelta`.

    Returns ``None`` when the change is *structural* — nodes or measured
    pairs appeared/disappeared, livehosts changed, or a static spec
    moved — in which case the caller must fall back to a full rebuild
    (incremental patching assumes fixed topology and index order).
    Otherwise every node view and link measurement that changed at all
    is in the delta.

    Snapshots are immutable, so a map, node view or pair value that is
    the same object on both sides has not moved and is not compared:
    a producer that hands over what it did not touch pays only for what
    it did.
    """
    if old.livehosts != new.livehosts:
        return None
    for attr in ("nodes", "bandwidth_mbs", "latency_us", "peak_bandwidth_mbs"):
        a, b = getattr(old, attr), getattr(new, attr)
        if a is not b and a.keys() != b.keys():
            return None
    if old.peak_bandwidth_mbs is not new.peak_bandwidth_mbs and any(
        old.peak_bandwidth_mbs[k] != new.peak_bandwidth_mbs[k]
        for k in old.peak_bandwidth_mbs
    ):
        return None  # peak bandwidth is static knowledge; a change is structural

    nodes: dict[str, NodeView] = {}
    if old.nodes is not new.nodes:
        for name, view in old.nodes.items():
            fresh = new.nodes[name]
            if fresh is view:
                continue
            if _static_changed(view, fresh):
                return None
            if _node_changed(view, fresh):
                nodes[name] = fresh
    bandwidth = _moved_pairs(old.bandwidth_mbs, new.bandwidth_mbs)
    latency = _moved_pairs(old.latency_us, new.latency_us)
    return SnapshotDelta(
        time=new.time,
        nodes=nodes,
        bandwidth_mbs=bandwidth,
        latency_us=latency,
    )


def snapshot_lineage(snapshot: ClusterSnapshot) -> tuple[int, int]:
    """The snapshot's ``(serial, generation)`` lineage pair.

    Snapshots that never went through :func:`apply_snapshot_delta` get a
    fresh serial at generation 0 on first access: each independently
    built snapshot is its own line.
    """
    cache = derived_cache(snapshot)
    lineage = cache.get(_LINEAGE_KEY)
    if lineage is None:
        lineage = (next(_SERIALS), 0)
        cache[_LINEAGE_KEY] = lineage
    return lineage


def snapshot_step_delta(
    snapshot: ClusterSnapshot, after: ClusterSnapshot
) -> SnapshotDelta | None:
    """The delta that advanced ``after`` into ``snapshot``, if it chains.

    Snapshots produced by :func:`apply_snapshot_delta` carry the exact
    delta that built them; a consumer holding the predecessor can catch
    up in O(changed) without re-diffing the fleet (the monitor already
    knew what moved at ingestion — diffing would re-pay O(V) for that
    knowledge).  Returns ``None`` unless ``snapshot`` is exactly one
    generation ahead of ``after`` on the same lineage; callers then fall
    back to :func:`compute_delta` or a full rebuild.
    """
    delta = derived_cache(snapshot).get(_STEP_DELTA_KEY)
    if delta is None:
        return None
    old_serial, old_generation = snapshot_lineage(after)
    serial, generation = snapshot_lineage(snapshot)
    if serial != old_serial or generation != old_generation + 1:
        return None
    return delta


def _patched(old: Mapping, changes: Mapping) -> Mapping:
    """``old`` with ``changes`` applied; ``old`` itself if there are none."""
    return {**old, **changes} if changes else old


def apply_snapshot_delta(
    old: ClusterSnapshot, delta: SnapshotDelta
) -> ClusterSnapshot:
    """Patch ``old`` into a new snapshot that carries ``old``'s store.

    The returned snapshot is a fresh immutable object whose maps share
    unchanged entries with ``old``; a map the delta has no entries for
    is ``old``'s map itself.  When ``old`` has an
    :class:`~repro.core.arrays.ArrayStore`, it is patched once,
    copy-on-write, in O(changed nodes + measured links) and installed on
    the new snapshot.  Per-request slices (``LoadState``) stay behind
    with ``old``: the first decision on the new snapshot cuts its own
    from the patched store.  ``old`` and its store stay valid.
    """
    patched = ClusterSnapshot(
        time=delta.time,
        nodes=_patched(old.nodes, delta.nodes),
        bandwidth_mbs=_patched(old.bandwidth_mbs, delta.bandwidth_mbs),
        latency_us=_patched(old.latency_us, delta.latency_us),
        peak_bandwidth_mbs=old.peak_bandwidth_mbs,
        livehosts=old.livehosts,
    )
    serial, generation = snapshot_lineage(old)
    cache = derived_cache(patched)
    cache[_LINEAGE_KEY] = (serial, generation + 1)
    cache[_STEP_DELTA_KEY] = delta
    # Local import: arrays.py imports the snapshot module at import
    # time, so the dependency must stay one-way at module load.
    from repro.core.arrays import STORE_KEY

    store = derived_cache(old).get(STORE_KEY)
    if store is not None:
        cache[STORE_KEY] = store.patched(patched, delta)
    return patched
