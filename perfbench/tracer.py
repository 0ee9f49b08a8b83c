"""In-memory spans around the layers' public functions, for traced runs.

The daemon process installs a :class:`Tracer` before it serves: each
wrapped function records one span ``[name, start, end, parent]`` on the
shared ``CLOCK_MONOTONIC`` clock (``time.perf_counter`` on Linux), so
client-side send times and daemon-side spans compare directly.  Every
wrapped function is synchronous and never yields to the event loop, so
a plain stack gives each span its parent.

Spans stay in memory and are written once, when the daemon stops.  A
layer's *self time* is its span's duration minus the durations of its
direct children (:func:`self_times`).
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

clock = time.perf_counter

#: span fields
NAME, START, END, PARENT = 0, 1, 2, 3

Wrapper = Callable[[str, Callable[..., Any]], Callable[..., Any]]


class Tracer:
    """Records spans, per-request protocol marks and batch membership."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        #: request id → [op, parse start, parse end, request bytes]
        self.requests: dict[str, list[Any]] = {}
        #: request id → [encode start, encode end, response bytes]
        self.responses: dict[str, list[Any]] = {}
        #: id(params) → request id, to find an allocate's batch
        self._params_owner: dict[int, str] = {}
        #: top-level allocate batches: [span index, [request ids]]
        self.batches: list[list[Any]] = []
        #: [span index, size] of every ``held_nodes()`` call
        self.held_sizes: list[list[int]] = []
        #: attributes that could not be wrapped (renamed or removed)
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = clock()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn``, recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def patch(self, owner: Any, attr: str, name: str, make: Wrapper | None = None) -> None:
        """Replace ``owner.attr`` by its traced version, if it exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, (make or self.wrap)(name, fn))

    def wrap_decode(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``parse_request``: also note the request's identity and size."""

        @functools.wraps(fn)
        def traced(raw: Any, *args: Any, **kwargs: Any) -> Any:
            idx = self._open(name)
            try:
                request = fn(raw, *args, **kwargs)
            finally:
                self._close(idx)
            span = self.spans[idx]
            self.requests[request.id] = [request.op, span[START], span[END], len(raw)]
            if request.op == "allocate":
                self._params_owner[id(request.params)] = request.id
            return request

        return traced

    def wrap_encode(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``encode_response``: also note the response's id and size."""

        @functools.wraps(fn)
        def traced(response: Any, *args: Any, **kwargs: Any) -> Any:
            idx = self._open(name)
            try:
                data = fn(response, *args, **kwargs)
            finally:
                self._close(idx)
            span = self.spans[idx]
            self.responses[response.id] = [span[START], span[END], len(data)]
            return data

        return traced

    def wrap_batch(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``allocate_batch``: a top-level call also records its members."""

        @functools.wraps(fn)
        def traced(this: Any, batch: list[Any], *args: Any, **kwargs: Any) -> Any:
            top = not self._stack
            idx = self._open(name)
            if top:
                owners = [self._params_owner.pop(id(p), None) for p in batch]
                self.batches.append([idx, owners])
            try:
                return fn(this, batch, *args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_refresh(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``CachedSnapshotSource.__call__``: a cache hit is renamed."""

        @functools.wraps(fn)
        def traced(this: Any, *args: Any, **kwargs: Any) -> Any:
            before = this.refreshes
            idx = self._open(name)
            try:
                return fn(this, *args, **kwargs)
            finally:
                self._close(idx)
                if this.refreshes == before:
                    self.spans[idx][NAME] = "monitor.cache_hit"

        return traced

    def wrap_held(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``LeaseTable.held_nodes``: also sample the held-set size."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(name)
            try:
                held = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.held_sizes.append([idx, len(held)])
            return held

        return traced

    def dump(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "requests": self.requests,
            "responses": self.responses,
            "batches": self.batches,
            "held_sizes": self.held_sizes,
            "missing": self.missing,
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from.

    Module-level names are patched where their caller looks them up (the
    server binds ``parse_request``/``encode_response`` at import, the
    network-load-aware policy ``load_state``/``best_candidate_fast``),
    methods on their classes.  The cross-shard two-phase path has no
    public entry point, so its private method is wrapped.
    """
    import repro.broker.protocol as protocol
    import repro.broker.server as server
    import repro.core.arrays as arrays
    import repro.core.broker as core_broker
    import repro.core.policies.network_load_aware as nla
    import repro.monitor.delta as delta
    from repro.broker.service import BrokerService
    from repro.core.partition import PartitionedLoadState
    from repro.experiments.scenario import Scenario
    from repro.federation.router import FederationRouter
    from repro.monitor.slicing import ShardSnapshotSource
    from repro.monitor.snapshot import CachedSnapshotSource
    from repro.monitor.system import MonitoringSystem
    from repro.scheduler.leases import LeaseTable
    from system import DriftingFleet

    t = tracer
    # broker.protocol
    t.patch(server, "parse_request", "protocol.decode", t.wrap_decode)
    t.patch(protocol, "parse_request_obj", "protocol.decode")
    t.patch(server, "encode_response", "protocol.encode", t.wrap_encode)
    # broker.service
    t.patch(BrokerService, "allocate_batch", "service.allocate_batch", t.wrap_batch)
    t.patch(BrokerService, "renew", "service.renew")
    t.patch(BrokerService, "release", "service.release")
    # monitor; the simulated cluster advancing at each refresh stands in
    # for monitor daemons that would run elsewhere, so it is its own stage
    t.patch(CachedSnapshotSource, "__call__", "monitor.refresh", t.wrap_refresh)
    t.patch(MonitoringSystem, "snapshot", "monitor.snapshot_build")
    t.patch(DriftingFleet, "__call__", "monitor.snapshot_build")
    t.patch(Scenario, "advance", "monitor.world_advance")
    t.patch(delta, "compute_delta", "monitor.compute_delta")
    t.patch(delta, "apply_snapshot_delta", "monitor.apply_delta")
    # core
    t.patch(nla, "load_state", "core.load_state")
    t.patch(arrays.LoadState, "apply_delta", "core.load_state")
    t.patch(nla, "best_candidate_fast", "core.candidates")
    t.patch(arrays, "generate_all_candidates_fast", "core.candidates")
    t.patch(arrays, "score_candidates_fast", "core.select")
    t.patch(arrays, "select_best_fast", "core.select")
    t.patch(nla.NetworkLoadAwarePolicy, "allocate", "core.policy_allocate")
    t.patch(core_broker.ResourceBroker, "request", "core.policy_allocate")
    # scheduler.leases
    t.patch(LeaseTable, "grant", "leases.grant")
    t.patch(LeaseTable, "renew", "leases.renew")
    t.patch(LeaseTable, "release", "leases.release")
    t.patch(LeaseTable, "sweep", "leases.sweep")
    t.patch(LeaseTable, "held_nodes", "leases.held_nodes", t.wrap_held)
    # federation: the router is the service a federation daemon drives
    t.patch(FederationRouter, "allocate_batch", "federation.route", t.wrap_batch)
    t.patch(FederationRouter, "_allocate_cross", "federation.two_phase")
    t.patch(FederationRouter, "renew", "federation.lease_route")
    t.patch(FederationRouter, "release", "federation.lease_route")
    t.patch(PartitionedLoadState, "advance", "federation.partition_advance")
    t.patch(ShardSnapshotSource, "sync", "federation.slice_sync")
    t.patch(ShardSnapshotSource, "sync_to", "federation.slice_sync")


def merge_dumps(dumps: list[dict[str, Any]]) -> dict[str, Any]:
    """Several daemons' dumps as one, span indexes shifted to match."""
    out: dict[str, Any] = {
        "spans": [], "requests": {}, "responses": {}, "batches": [],
        "held_sizes": [], "missing": [],
    }
    for dump in dumps:
        base = len(out["spans"])
        out["spans"] += [
            [name, start, end, parent + base if parent >= 0 else -1]
            for name, start, end, parent in dump["spans"]
        ]
        out["requests"].update(dump["requests"])
        out["responses"].update(dump["responses"])
        out["batches"] += [[idx + base, owners] for idx, owners in dump["batches"]]
        out["held_sizes"] += [[idx + base, size] for idx, size in dump["held_sizes"]]
        out["missing"] += [m for m in dump.get("missing", ()) if m not in out["missing"]]
    return out


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def own_pieces(spans: list[list[Any]]) -> list[tuple[float, float, str]]:
    """Every span's own time as ``(start, end, name)`` pieces: its
    interval minus its direct children's, sorted and disjoint."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    pieces = []
    for i, s in enumerate(spans):
        t = s[START]
        for c in children.get(i, ()):
            pieces.append((t, spans[c][START], s[NAME]))
            t = spans[c][END]
        pieces.append((t, s[END], s[NAME]))
    return sorted(p for p in pieces if p[1] > p[0])
