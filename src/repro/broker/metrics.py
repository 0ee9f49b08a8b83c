"""Operational metrics of the broker daemon.

Everything the ``status`` RPC reports lives here: monotonically
increasing counters (requests by op, grants/denials, lease expiries,
``BUSY`` rejects), a batch-size histogram for the micro-batching
admission queue, and a bounded reservoir of decision latencies from
which p50/p99 are computed on demand.

The implementation is allocation-free on the hot path (one dict update
and one deque append per decision) so metrics never become the
bottleneck they are meant to observe.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any


def percentile(sorted_values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation.

    ``sorted_values`` must be non-empty and ascending; matches
    ``numpy.percentile``'s default (linear) method without requiring the
    samples to live in an array.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


class BrokerMetrics:
    """Counters + histograms backing the ``status`` RPC."""

    def __init__(self, *, latency_window: int = 4096) -> None:
        if latency_window <= 0:
            raise ValueError(f"latency_window must be positive: {latency_window}")
        self.requests_by_op: Counter[str] = Counter()
        self.granted = 0
        self.denied = 0
        self.busy_rejected = 0
        self.released = 0
        self.expired = 0
        self.renewed = 0
        self.protocol_errors = 0
        #: protocol errors that were not even parseable JSON objects
        #: (subset of ``protocol_errors``; garbage on the socket)
        self.malformed_lines = 0
        #: request lines rejected for exceeding ``MAX_LINE_BYTES``
        #: (subset of ``protocol_errors``; client bug or abuse)
        self.oversized_requests = 0
        #: reconfigure requests that committed a new placement
        self.reconfigured = 0
        #: reconfigure requests answered "stay put" (no plan or gated off)
        self.reconfig_rejected = 0
        self.decisions_memoized = 0
        #: decision-memo entries evicted by a lineage change (delta
        #: invalidation or a wholesale clear on a fresh snapshot)
        self.decisions_invalidated = 0
        #: batch order-swaps adopted by the improvement pass (each one
        #: strictly lowered a pair's summed raw Equation-4 cost)
        self.batch_swaps_adopted = 0
        #: allocate replays answered from the idempotency-token memo
        #: (a retried request that did NOT grant a second lease)
        self.allocates_deduped = 0
        #: background tasks (the sweeper) that died with an
        #: unexpected exception — counted by their done-callbacks so a
        #: fire-and-forget failure is never silently dropped
        self.background_task_failures = 0
        self.batches = 0
        self.batch_size_hist: Counter[int] = Counter()
        #: last ``latency_window`` allocate decision latencies, seconds
        self._latencies: deque[float] = deque(maxlen=latency_window)

    # -- recording ------------------------------------------------------
    def record_request(self, op: str) -> None:
        """Count one inbound request by operation name."""
        self.requests_by_op[op] += 1

    def record_batch(self, size: int) -> None:
        """Count one decided micro-batch of ``size`` allocate requests."""
        self.batches += 1
        self.batch_size_hist[size] += 1

    def record_decision(self, latency_s: float, *, granted: bool) -> None:
        """Count one allocate decision and sample its latency."""
        if granted:
            self.granted += 1
        else:
            self.denied += 1
        self._latencies.append(latency_s)

    # -- reporting ------------------------------------------------------
    def latency_quantiles_ms(self) -> dict[str, float]:
        """p50/p99/max decision latency in milliseconds (0.0 when empty)."""
        if not self._latencies:
            return {"p50": 0.0, "p99": 0.0, "max": 0.0}
        values = sorted(self._latencies)
        return {
            "p50": percentile(values, 0.50) * 1e3,
            "p99": percentile(values, 0.99) * 1e3,
            "max": values[-1] * 1e3,
        }

    def snapshot(self) -> dict[str, Any]:
        """The JSON-serializable metrics block of the ``status`` RPC."""
        return {
            "requests": dict(self.requests_by_op),
            "granted": self.granted,
            "denied": self.denied,
            "busy_rejected": self.busy_rejected,
            "released": self.released,
            "expired": self.expired,
            "renewed": self.renewed,
            "protocol_errors": self.protocol_errors,
            "malformed_lines": self.malformed_lines,
            "oversized_requests": self.oversized_requests,
            "reconfigured": self.reconfigured,
            "reconfig_rejected": self.reconfig_rejected,
            "decisions_memoized": self.decisions_memoized,
            "decisions_invalidated": self.decisions_invalidated,
            "batch_swaps_adopted": self.batch_swaps_adopted,
            "allocates_deduped": self.allocates_deduped,
            "background_task_failures": self.background_task_failures,
            "batches": self.batches,
            "batch_size_hist": {
                str(k): v for k, v in sorted(self.batch_size_hist.items())
            },
            "decision_latency_ms": self.latency_quantiles_ms(),
            "latency_samples": len(self._latencies),
        }
