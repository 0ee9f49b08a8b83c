"""Per-layer metrics and the stage table of one traced nominal phase.

Allocate time is attributed by what the daemon was doing while each
allocate was outstanding, on the shared ``CLOCK_MONOTONIC`` clock: every
piece of a span's own time (its duration minus its children's) that
falls between the client's send and its receipt counts to that span's
stage, whichever request it served, so head-of-line blocking shows as
the stages an allocate waited behind.  The rest is unattributed: the
kernel, both event loops and untraced daemon code.  The server's waits
(before decode, in the admission queue, before encode) are reported
beside the stages, not inside them.  Layer means are per call, over the
phase's window.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from statistics import fmean, median
from typing import Any

from loadgen import PhaseStats
from stats import tail
from tracer import END, NAME, PARENT, START, own_pieces, self_times

#: every per-layer metric and its unit, as BENCHMARK.json lists them
UNITS = {
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.bytes_per_op": "B",
    "server.read_wait_ms_p50": "ms",
    "server.queue_wait_ms_p50": "ms",
    "server.queue_wait_ms_p99": "ms",
    "server.reply_wait_ms_p50": "ms",
    "server.batch_size_mean": "count",
    "server.busy_rejected": "count",
    "service.allocate_batch_ms": "ms",
    "service.memo_hit_ratio": "ratio",
    "service.memo_hit_base": "count",
    "monitor.refresh_ms": "ms",
    "monitor.snapshot_build_ms": "ms",
    "monitor.world_advance_ms": "ms",
    "monitor.compute_delta_ms": "ms",
    "monitor.apply_delta_ms": "ms",
    "monitor.refreshes": "count",
    "monitor.delta_share": "ratio",
    "core.load_state_ms": "ms",
    "core.candidates_ms": "ms",
    "core.select_ms": "ms",
    "core.policy_allocate_ms": "ms",
    "leases.grant_us": "us",
    "leases.renew_us": "us",
    "leases.release_us": "us",
    "leases.sweep_ms": "ms",
    "leases.held_nodes": "count",
    "federation.route_ms": "ms",
    "federation.shard_allocate_ms": "ms",
    "federation.two_phase_ms": "ms",
    "federation.partition_advance_ms": "ms",
    "federation.slice_sync_ms": "ms",
    "federation.cross_shard_share": "ratio",
    "federation.cross_shard_base": "count",
    "federation.spills": "count",
    "federation.forwards": "count",
    "trace.coverage": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
    "generator.lag_p99_ms": "ms",
}

#: metric → (span name, scale, per-call self time rather than duration)
_PER_CALL = {
    "protocol.decode_us": ("protocol.decode", 1e6, False),
    "protocol.encode_us": ("protocol.encode", 1e6, False),
    "service.allocate_batch_ms": ("service.allocate_batch", 1e3, True),
    "monitor.refresh_ms": ("monitor.refresh", 1e3, False),
    "monitor.snapshot_build_ms": ("monitor.snapshot_build", 1e3, False),
    "monitor.world_advance_ms": ("monitor.world_advance", 1e3, False),
    "monitor.compute_delta_ms": ("monitor.compute_delta", 1e3, False),
    "monitor.apply_delta_ms": ("monitor.apply_delta", 1e3, False),
    "core.load_state_ms": ("core.load_state", 1e3, False),
    "core.candidates_ms": ("core.candidates", 1e3, False),
    "core.select_ms": ("core.select", 1e3, False),
    "core.policy_allocate_ms": ("core.policy_allocate", 1e3, False),
    "leases.grant_us": ("leases.grant", 1e6, False),
    "leases.renew_us": ("leases.renew", 1e6, False),
    "leases.release_us": ("leases.release", 1e6, False),
    "leases.sweep_ms": ("leases.sweep", 1e3, False),
    "federation.route_ms": ("federation.route", 1e3, True),
    "federation.two_phase_ms": ("federation.two_phase", 1e3, False),
    "federation.partition_advance_ms": ("federation.partition_advance", 1e3, False),
    "federation.slice_sync_ms": ("federation.slice_sync", 1e3, False),
}

#: server waits, reported beside the stages
WAITS = ("server.read_wait", "server.queue_wait", "server.reply_wait")

Row = tuple[str, str, float, float, int]


def analyze(
    dump: dict[str, Any],
    stats: PhaseStats,
    windows: list[tuple[float, float]],
    status: dict[str, int],
    memo: tuple[int, int],
    federated: bool,
) -> tuple[dict[str, float], list[Row]]:
    """Per-layer metrics, and stage rows ``(stage, kind, ms/allocate,
    share of client allocate time, spans)``, over the measured
    ``windows`` (warm-up and set-up fall outside them)."""
    spans = dump["spans"]
    own = self_times(spans)

    def within(t: float) -> bool:
        return any(t0 <= t <= t1 for t0, t1 in windows)

    def inside(i: int) -> bool:
        return within(spans[i][START])

    durations: dict[str, list[float]] = defaultdict(list)  # outermost spans
    own_total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for i, span in enumerate(spans):
        if not inside(i):
            continue
        own_total[span[NAME]] += own[i]
        count[span[NAME]] += 1
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] != span[NAME]:
            durations[span[NAME]].append(span[END] - span[START])

    metrics = dict.fromkeys(UNITS, 0.0)
    for metric, (name, scale, use_self) in _PER_CALL.items():
        calls = len(durations[name])
        if calls:
            total = own_total[name] if use_self else sum(durations[name])
            metrics[metric] = scale * total / calls

    requests, responses = dump["requests"], dump["responses"]
    waits: dict[str, list[float]] = {name: [] for name in WAITS}
    sizes: list[int] = []
    for idx, owners in dump["batches"]:
        if not inside(idx):
            continue
        sizes.append(len(owners))
        batch = spans[idx]
        for rid in owners:
            if rid in stats.timing and rid in responses:
                sent = stats.timing[rid][0]
                _, p0, p1, _ = requests[rid]
                e0 = responses[rid][0]
                waits["server.read_wait"].append(p0 - sent)
                waits["server.queue_wait"].append(batch[START] - p1)
                waits["server.reply_wait"].append(e0 - batch[END])
    if waits["server.read_wait"]:
        metrics["server.read_wait_ms_p50"] = 1e3 * median(waits["server.read_wait"])
        metrics["server.queue_wait_ms_p50"] = 1e3 * median(waits["server.queue_wait"])
        metrics["server.queue_wait_ms_p99"] = 1e3 * tail(waits["server.queue_wait"])[1]
        metrics["server.reply_wait_ms_p50"] = 1e3 * median(waits["server.reply_wait"])
    if sizes:
        metrics["server.batch_size_mean"] = fmean(sizes)

    pieces = own_pieces(spans)
    ends = [end for _, end, _ in pieces]
    stage: dict[str, float] = defaultdict(float)
    client_s = attributed_s = 0.0
    for sent, received in stats.timing.values():
        i = bisect_right(ends, sent)
        while i < len(pieces) and pieces[i][0] < received:
            start, end, name = pieces[i]
            overlap = min(end, received) - max(start, sent)
            stage[name] += overlap
            attributed_s += overlap
            i += 1
        client_s += received - sent
    n = len(stats.timing)
    if n:
        metrics["trace.coverage"] = attributed_s / client_s
        metrics["trace.unattributed_ms"] = 1e3 * (client_s - attributed_s) / n
    ids = [rid for rid, req in requests.items() if within(req[1])]
    if ids:
        wire = sum(
            requests[r][3] + (responses[r][2] if r in responses else 0) for r in ids
        )
        metrics["protocol.bytes_per_op"] = wire / len(ids)
    held = [size for idx, size in dump["held_sizes"] if inside(idx)]
    if held:
        metrics["leases.held_nodes"] = fmean(held)
    hits, base = memo
    metrics["service.memo_hit_ratio"] = min(1.0, hits / base) if base else 0.0
    metrics["service.memo_hit_base"] = float(base)
    refreshes = len(durations["monitor.refresh"])
    metrics["monitor.refreshes"] = float(refreshes)
    if refreshes:
        metrics["monitor.delta_share"] = len(durations["monitor.apply_delta"]) / refreshes
    metrics["server.busy_rejected"] = float(status.get("busy_rejected", 0))
    if federated:
        shard_calls = durations["service.allocate_batch"]
        if shard_calls:
            metrics["federation.shard_allocate_ms"] = 1e3 * fmean(shard_calls)
        if stats.grants:
            metrics["federation.cross_shard_share"] = stats.cross_shard / stats.grants
        metrics["federation.cross_shard_base"] = float(stats.grants)
        metrics["federation.spills"] = float(status.get("spills", 0))
        metrics["federation.forwards"] = float(status.get("forwards", 0))
    rows: list[Row] = []
    if n:
        for name, seconds in sorted(stage.items(), key=lambda kv: -kv[1]):
            rows.append((name, "self", 1e3 * seconds / n, seconds / client_s,
                         count[name]))
        rows.append(("unattributed", "rest", 1e3 * (client_s - attributed_s) / n,
                     1.0 - attributed_s / client_s, n))
        for name in WAITS:
            seconds = sum(waits[name])
            rows.append((name, "wait", 1e3 * seconds / n, seconds / client_s,
                         len(waits[name])))
    return metrics, rows
