"""ClusterSnapshot — the allocator's entire view of the world.

The Node Allocator in the paper never inspects nodes directly; it reads
what the Resource Monitor wrote to the shared filesystem.  A snapshot is
therefore assembled *only* from store contents (possibly stale), plus
static peak-bandwidth knowledge.  For tests and oracle experiments,
:func:`oracle_snapshot` builds one directly from ground truth.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.cluster.cluster import Cluster
from repro.monitor.store import SharedStore, StoreCorruptError
from repro.net.model import NetworkModel
from repro.net.probes import round_robin_rounds

log = logging.getLogger(__name__)


class SnapshotUnavailableError(RuntimeError):
    """No usable snapshot can be served, not even a last-known-good one.

    Raised by :class:`CachedSnapshotSource` when the underlying source
    fails (or yields an empty view) *and* the cached fallback snapshot is
    older than the configured bound — the typed signal for "the monitor
    pipeline is down"; callers answer with a structured denial instead of
    allocating blind.
    """


@dataclass(frozen=True)
class NodeView:
    """Monitor-reported attributes of one node (Table 1 of the paper)."""

    name: str
    # static
    cores: int
    frequency_ghz: float
    memory_gb: float
    # dynamic — instantaneous and 1/5/15-minute means
    users: int
    cpu_load: Mapping[str, float]          # keys: now/m1/m5/m15
    cpu_util: Mapping[str, float]
    flow_rate_mbs: Mapping[str, float]
    available_memory_gb: Mapping[str, float]
    #: leaf switch the node attaches to (static, known to the monitor;
    #: ``None`` when assembled from records lacking topology info)
    switch: str | None = None

    def load_now(self) -> float:
        return float(self.cpu_load["now"])


@dataclass(frozen=True)
class ClusterSnapshot:
    """Everything the allocator may consult when placing a job.

    Snapshots are immutable, and so are their maps and node views: one
    map or view may be shared by many snapshots (every build of one node
    set shares its peak map, and a patched snapshot shares what did not
    move with its predecessor), so nothing may write one in place.
    """

    time: float
    nodes: Mapping[str, NodeView]
    #: effective (measured) bandwidth per unordered pair, MB/s
    bandwidth_mbs: Mapping[tuple[str, str], float]
    #: measured latency per unordered pair, microseconds
    latency_us: Mapping[tuple[str, str], float]
    #: idle-network peak bandwidth per unordered pair, MB/s
    peak_bandwidth_mbs: Mapping[tuple[str, str], float]
    livehosts: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for pairmap, label in (
            (self.bandwidth_mbs, "bandwidth"),
            (self.latency_us, "latency"),
            (self.peak_bandwidth_mbs, "peak bandwidth"),
        ):
            for a, b in pairmap:
                if a > b:
                    raise ValueError(
                        f"{label} pair {(a, b)} not canonically ordered"
                    )

    # -- accessors --------------------------------------------------------
    def pair(self, u: str, v: str) -> tuple[str, str]:
        return (u, v) if u <= v else (v, u)

    def bandwidth(self, u: str, v: str) -> float:
        return float(self.bandwidth_mbs[self.pair(u, v)])

    def latency(self, u: str, v: str) -> float:
        return float(self.latency_us[self.pair(u, v)])

    def peak_bandwidth(self, u: str, v: str) -> float:
        return float(self.peak_bandwidth_mbs[self.pair(u, v)])

    def bandwidth_complement(self, u: str, v: str) -> float:
        """The paper's ``peak bandwidth − available bandwidth`` term."""
        return max(self.peak_bandwidth(u, v) - self.bandwidth(u, v), 0.0)

    @property
    def names(self) -> list[str]:
        return list(self.nodes)


def derived_cache(snapshot: ClusterSnapshot) -> dict:
    """Per-snapshot memo space for structures derived from its contents.

    A snapshot is immutable, so anything computed from it (normalized
    load vectors, dense network-load matrices, …) stays valid for the
    snapshot's lifetime.  The cache lives on the instance itself — it is
    garbage-collected with the snapshot and never leaks across snapshots
    — and is *not* a dataclass field, so equality, ``repr`` and
    ``dataclasses.replace`` are unaffected (a ``replace``d snapshot
    starts with a fresh, empty cache).
    """
    cache = getattr(snapshot, "_derived_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(snapshot, "_derived_cache", cache)
    return cache


#: sanity bounds for monitor-reported attributes; a record outside these
#: is treated as corrupt (cosmic-ray NaNs, negative loads, absurd specs)
#: rather than fed to the allocator's arithmetic
_MAX_CORES = 4096
_MAX_FREQUENCY_GHZ = 100.0
_MAX_MEMORY_GB = 1 << 20
_MAX_USERS = 1_000_000
_MAX_DYNAMIC = 1e9


def _read(store: SharedStore, key: str) -> Any:
    """``store.value`` that degrades a corrupt record to "absent"."""
    try:
        return store.value(key)
    except StoreCorruptError as exc:
        log.warning("skipping corrupt store record: %s", exc)
        return None


def _bounded(value: Any, lo: float, hi: float, what: str) -> float:
    out = float(value)
    if not math.isfinite(out) or not lo <= out <= hi:
        raise ValueError(f"{what} {value!r} outside [{lo}, {hi}]")
    return out


def _checked_fill(stats: Any, what: str) -> dict[str, float]:
    filled = _fill(stats)
    for k, v in filled.items():
        _bounded(v, 0.0, _MAX_DYNAMIC, f"{what}[{k}]")
    return filled


def _validated_view(name: str, rec: Any) -> NodeView:
    """A :class:`NodeView` from one ``nodestate`` record, or ``ValueError``.

    Rejects records whose shape is wrong or whose values are NaN,
    negative, or outside physical bounds — a daemon writing garbage must
    cost the cluster one node's visibility, not the whole allocation.
    """
    static = rec["static"]
    cores = int(static["cores"])
    if not 1 <= cores <= _MAX_CORES:
        raise ValueError(f"cores {cores} outside [1, {_MAX_CORES}]")
    return NodeView(
        name=name,
        cores=cores,
        frequency_ghz=_bounded(
            static["frequency_ghz"], 1e-3, _MAX_FREQUENCY_GHZ, "frequency_ghz"
        ),
        memory_gb=_bounded(static["memory_gb"], 0.0, _MAX_MEMORY_GB, "memory_gb"),
        users=int(_bounded(rec["users"], 0, _MAX_USERS, "users")),
        cpu_load=_checked_fill(rec["cpu_load"], "cpu_load"),
        cpu_util=_checked_fill(rec["cpu_util"], "cpu_util"),
        flow_rate_mbs=_checked_fill(rec["flow_rate_mbs"], "flow_rate_mbs"),
        available_memory_gb=_checked_fill(
            rec["available_memory_gb"], "available_memory_gb"
        ),
        switch=static.get("switch"),
    )


def build_snapshot(
    store: SharedStore,
    cluster: Cluster,
    network: NetworkModel,
    now: float,
) -> ClusterSnapshot:
    """Assemble a snapshot from monitor records in the shared store.

    Nodes lacking a ``nodestate`` record (daemon never ran / crashed
    before writing) are omitted — the allocator cannot reason about nodes
    it has no data for.  Corrupt or out-of-range records are *skipped and
    logged* the same way (see :func:`_validated_view`), and pairs lacking
    probe data are omitted likewise; policies treat missing network data
    conservatively.  Peak bandwidth is static: every snapshot of one node
    set shares one map (:meth:`NetworkModel.peak_bandwidth_map`).
    """
    live = _read(store, "livehosts")
    if isinstance(live, (list, tuple)) and all(
        isinstance(n, str) for n in live
    ):
        livehosts = tuple(live)
    else:
        if live is not None:
            log.warning(
                "livehosts record is malformed (%r); assuming all nodes live",
                live,
            )
        livehosts = tuple(cluster.names)

    views: dict[str, NodeView] = {}
    for name in cluster.names:
        rec = _read(store, f"nodestate/{name}")
        if rec is None:
            continue
        try:
            views[name] = _validated_view(name, rec)
        except (KeyError, TypeError, ValueError) as exc:
            log.warning("skipping invalid nodestate/%s record: %s", name, exc)

    bandwidth: dict[tuple[str, str], float] = {}
    latency: dict[tuple[str, str], float] = {}
    names = list(views)
    for i, a in enumerate(names):
        bw_rec = _read(store, f"bandwidth/{a}") or {}
        lat_rec = _read(store, f"latency/{a}") or {}
        if not isinstance(bw_rec, dict):
            log.warning("bandwidth/%s record is malformed; skipping", a)
            bw_rec = {}
        if not isinstance(lat_rec, dict):
            log.warning("latency/%s record is malformed; skipping", a)
            lat_rec = {}
        for b in names[i + 1 :]:
            key = (a, b) if a <= b else (b, a)
            if b in bw_rec:
                try:
                    bandwidth[key] = _bounded(
                        bw_rec[b], 0.0, _MAX_DYNAMIC, "bandwidth"
                    )
                except (TypeError, ValueError) as exc:
                    log.warning("skipping bandwidth pair %s: %s", key, exc)
            if b in lat_rec:
                # Prefer the 1-minute mean per §4; fall back to instantaneous.
                try:
                    stats = lat_rec[b]
                    raw = stats["m1"] if stats.get("m1") is not None else stats["now"]
                    latency[key] = _bounded(raw, 0.0, _MAX_DYNAMIC, "latency")
                except (KeyError, TypeError, ValueError) as exc:
                    log.warning("skipping latency pair %s: %s", key, exc)

    return ClusterSnapshot(
        time=now,
        nodes=views,
        bandwidth_mbs=bandwidth,
        latency_us=latency,
        peak_bandwidth_mbs=network.peak_bandwidth_map(names),
        livehosts=livehosts,
    )


def _fill(stats: Mapping[str, float | None]) -> dict[str, float]:
    """Backfill missing rolling means with the freshest available value.

    An optional ``forecast`` entry (written by the forecasting daemon
    extension) passes through so policies can plan on predicted state.
    """
    now = float(stats["now"])  # type: ignore[arg-type]
    out = {"now": now}
    prev = now
    for k in ("m1", "m5", "m15"):
        v = stats.get(k)
        prev = float(v) if v is not None else prev
        out[k] = prev
    if stats.get("forecast") is not None:
        out["forecast"] = float(stats["forecast"])  # type: ignore[arg-type]
    return out


def oracle_snapshot(
    cluster: Cluster,
    network: NetworkModel,
    now: float = 0.0,
    *,
    rng=None,
) -> ClusterSnapshot:
    """Ground-truth snapshot (no monitoring delay/staleness).

    Useful for unit tests and for isolating allocator quality from
    monitoring quality in ablations.
    """
    views: dict[str, NodeView] = {}
    up = [n for n in cluster.names if cluster.state(n).up]
    for name in up:
        spec, state = cluster.spec(name), cluster.state(name)
        flat = lambda v: {"now": v, "m1": v, "m5": v, "m15": v}  # noqa: E731
        views[name] = NodeView(
            name=name,
            cores=spec.cores,
            frequency_ghz=spec.frequency_ghz,
            memory_gb=spec.memory_gb,
            users=state.users,
            cpu_load=flat(state.cpu_load),
            cpu_util=flat(state.cpu_util),
            flow_rate_mbs=flat(state.flow_rate_mbs),
            available_memory_gb=flat(max(spec.memory_gb - state.memory_used_gb, 0.0)),
            switch=spec.switch,
        )
    pairs = [p for rnd in round_robin_rounds(up) for p in rnd]
    bw = network.bulk_available_bandwidth(pairs)
    bandwidth = {k: float(v) for k, v in bw.items()}
    latency = {
        (a, b): network.latency_us(a, b, rng=rng) for a, b in pairs
    }
    peak = {(a, b): network.peak_bandwidth(a, b) for a, b in pairs}
    return ClusterSnapshot(
        time=now,
        nodes=views,
        bandwidth_mbs=bandwidth,
        latency_us=latency,
        peak_bandwidth_mbs=peak,
        livehosts=tuple(up),
    )


class CachedSnapshotSource:
    """Staleness-aware snapshot provider for long-lived services.

    A daemon serving a request stream must not rebuild the snapshot per
    request (that would defeat the per-snapshot ``derived_cache`` memo),
    nor serve an arbitrarily old one.  This wrapper memoizes the last
    snapshot and refreshes only when it is older than ``max_age_s`` by
    the injected ``clock`` — so every request decided within one
    freshness window shares one snapshot object *and therefore one array
    store and its memoized slices*.

    Each refresh diffs the freshly built snapshot against the one being
    served (:func:`repro.monitor.delta.compute_delta`) and serves a
    *patched* snapshot that carries the previous snapshot's array store,
    patched once in O(changed), and the next generation of its
    ``(serial, generation)`` lineage.  Decisions on the patched snapshot
    cut fresh slices of the store.  Structural changes (nodes, links, or
    livehosts appearing/vanishing, a static spec moving) install the
    fresh build instead, which starts a new lineage; an empty delta
    keeps serving the existing snapshot object unchanged.

    ``refresh_hook`` (optional) runs right before each refresh; the serve
    command uses it to advance the simulated cluster so monitor daemons
    produce genuinely new data between refreshes.

    ``lkg_max_age_s`` (optional) arms a *last-known-good* fallback: when
    a refresh fails (the source raises) or yields an empty snapshot —
    every record corrupt, every daemon dead — the previous snapshot keeps
    being served as long as it is no older than this bound.  Past the
    bound, :class:`SnapshotUnavailableError` propagates so callers can
    answer with a typed denial.  ``None`` (default) keeps the historical
    fail-fast behaviour.

    ``incremental`` is accepted and ignored: there is no other refresh
    mode.  It remains only because perfbench's system wiring still
    passes ``incremental=True``; delete it once that caller drops it.
    """

    def __init__(
        self,
        source,
        *,
        max_age_s: float = 5.0,
        clock=None,
        refresh_hook=None,
        lkg_max_age_s: float | None = None,
        incremental: bool = True,
    ) -> None:
        if max_age_s < 0:
            raise ValueError(f"max_age_s must be non-negative: {max_age_s}")
        if lkg_max_age_s is not None and lkg_max_age_s < max_age_s:
            raise ValueError(
                f"lkg_max_age_s ({lkg_max_age_s}) must be >= max_age_s "
                f"({max_age_s})"
            )
        import time as _time

        self._source = source
        self._clock = clock if clock is not None else _time.monotonic
        self.max_age_s = max_age_s
        self.lkg_max_age_s = lkg_max_age_s
        self._refresh_hook = refresh_hook
        self._snapshot: ClusterSnapshot | None = None
        self._built_at: float = float("-inf")
        #: observability counters (surfaced by the broker's status RPC)
        self.refreshes = 0
        self.hits = 0
        #: times a failed rebuild was papered over with the cached snapshot
        self.fallbacks = 0
        #: refresh outcomes: patches served, refreshes where nothing
        #: moved, and structural full rebuilds
        self.deltas_applied = 0
        self.deltas_empty = 0
        self.delta_full_rebuilds = 0

    def __call__(self) -> ClusterSnapshot:
        """The current snapshot, refreshed only when stale."""
        now = self._clock()
        if (
            self._snapshot is not None
            and now - self._built_at <= self.max_age_s
        ):
            self.hits += 1
            return self._snapshot
        if self._refresh_hook is not None:
            self._refresh_hook()
        if self.lkg_max_age_s is None:
            return self._adopt(self._source(), now)
        try:
            fresh = self._source()
        except SnapshotUnavailableError:
            raise
        except Exception as exc:  # noqa: BLE001 — degrade, don't crash
            return self._fallback(now, f"snapshot source failed: {exc!r}")
        if not fresh.nodes:
            return self._fallback(now, "snapshot source yielded no nodes")
        return self._adopt(fresh, now)

    def _adopt(self, fresh: ClusterSnapshot, now: float) -> ClusterSnapshot:
        """Install a freshly built snapshot as a patch of the served one."""
        prev = self._snapshot
        if prev is not None:
            # Local import: the delta module imports this one.
            from repro.monitor.delta import apply_snapshot_delta, compute_delta

            delta = compute_delta(prev, fresh)
            if delta is None:
                self.delta_full_rebuilds += 1
            elif delta.is_empty:
                # Nothing moved: the served snapshot is as good as the
                # rebuild; keep its object identity (and every derived
                # structure) alive.
                self.deltas_empty += 1
                fresh = prev
            else:
                fresh = apply_snapshot_delta(prev, delta)
                self.deltas_applied += 1
        self._snapshot = fresh
        self._built_at = now
        self.refreshes += 1
        return fresh

    def _fallback(self, now: float, reason: str) -> ClusterSnapshot:
        """Serve the last-known-good snapshot, or raise a typed error."""
        assert self.lkg_max_age_s is not None
        age = now - self._built_at
        if self._snapshot is not None and age <= self.lkg_max_age_s:
            self.fallbacks += 1
            log.warning(
                "%s; serving last-known-good snapshot (age %.1fs <= %.1fs)",
                reason, age, self.lkg_max_age_s,
            )
            return self._snapshot
        raise SnapshotUnavailableError(
            f"{reason}; last-known-good snapshot is "
            + ("absent" if self._snapshot is None else f"{age:.1f}s old")
            + f" (bound {self.lkg_max_age_s:.1f}s)"
        )

    def invalidate(self) -> None:
        """Force the next call to rebuild regardless of age."""
        self._snapshot = None
        self._built_at = float("-inf")

    def age_s(self) -> float:
        """Seconds since the cached snapshot was built (``inf`` if none)."""
        if self._snapshot is None:
            return float("inf")
        return max(0.0, self._clock() - self._built_at)
