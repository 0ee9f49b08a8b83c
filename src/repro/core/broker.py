"""ResourceBroker — the user-facing façade of the whole system.

Ties a snapshot source (usually a live :class:`MonitoringSystem`) to an
allocation policy, adds the §6 "recommend waiting" safeguard for
saturated clusters, and reports allocation latency (the paper cites
~1–2 ms for Algorithms 1+2 on their 60-node cluster).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Collection

import numpy as np

from repro.core.compute_load import compute_loads
from repro.core.policies import (
    Allocation,
    AllocationError,
    AllocationPolicy,
    AllocationRequest,
    NetworkLoadAwarePolicy,
    PAPER_POLICIES,
)
from repro.monitor.snapshot import ClusterSnapshot


class WaitRecommended(AllocationError):
    """The cluster is too loaded for a useful allocation (§6).

    "If the overall load on the cluster is extremely high, the
    performance gain will not be significant because there are not enough
    lightly loaded processors; in that case, our tool should recommend
    waiting rather than allocating it right away."
    """

    def __init__(self, mean_load_per_core: float, threshold: float) -> None:
        super().__init__(
            f"cluster mean load/core {mean_load_per_core:.2f} exceeds "
            f"wait threshold {threshold:.2f}; recommend waiting"
        )
        self.mean_load_per_core = mean_load_per_core
        self.threshold = threshold


@dataclass(frozen=True)
class BrokerResult:
    """An allocation plus broker bookkeeping."""

    allocation: Allocation
    overhead_ms: float
    snapshot_age_s: float


class ResourceBroker:
    """Allocates nodes for MPI jobs from monitor snapshots."""

    def __init__(
        self,
        snapshot_source: Callable[[], ClusterSnapshot],
        *,
        policy: AllocationPolicy | None = None,
        wait_threshold_load_per_core: float | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._snapshot_source = snapshot_source
        self.policy = policy or NetworkLoadAwarePolicy()
        self.wait_threshold = wait_threshold_load_per_core
        self._clock = clock

    def request(
        self,
        request: AllocationRequest,
        *,
        rng: np.random.Generator | None = None,
        policy: AllocationPolicy | str | None = None,
        now: float | None = None,
        exclude: frozenset[str] | None = None,
        snapshot: ClusterSnapshot | None = None,
        scope: Collection[str] | None = None,
    ) -> BrokerResult:
        """Allocate nodes for ``request``.

        ``policy`` overrides the broker default (instance or §5 name).
        ``exclude`` masks nodes already held (leased/busy) without
        rebuilding a filtered snapshot; ``snapshot`` pins the decision to
        a caller-chosen snapshot (the broker daemon decides every request
        of one micro-batch against the same one) instead of pulling a
        fresh one from the source.  ``scope`` limits the saturation
        guard's mean to those nodes (a federation shard's own; the
        caller excludes the rest).  Raises :class:`WaitRecommended` when
        the saturation guard trips.
        """
        chosen = self._resolve_policy(policy)
        if snapshot is None:
            snapshot = self._snapshot_source()
        if self.wait_threshold is not None:
            self._check_saturation(snapshot, scope)
        t0 = self._clock()
        allocation = chosen.allocate(
            snapshot, request, rng=rng, exclude=exclude or None
        )
        overhead_ms = (self._clock() - t0) * 1e3
        age = 0.0 if now is None else max(0.0, now - snapshot.time)
        return BrokerResult(
            allocation=allocation, overhead_ms=overhead_ms, snapshot_age_s=age
        )

    def _resolve_policy(
        self, policy: AllocationPolicy | str | None
    ) -> AllocationPolicy:
        if policy is None:
            return self.policy
        if isinstance(policy, AllocationPolicy):
            return policy
        try:
            return PAPER_POLICIES[policy]()
        except KeyError:
            raise AllocationError(
                f"unknown policy {policy!r}; choose from {sorted(PAPER_POLICIES)}"
            ) from None

    def _check_saturation(
        self, snapshot: ClusterSnapshot, scope: Collection[str] | None
    ) -> None:
        views = [v for n, v in snapshot.nodes.items() if scope is None or n in scope]
        if not views:
            raise AllocationError("no monitored nodes")
        per_core = [v.cpu_load["m5"] / v.cores for v in views]
        mean = float(np.mean(per_core))
        assert self.wait_threshold is not None
        if mean > self.wait_threshold:
            raise WaitRecommended(mean, self.wait_threshold)
