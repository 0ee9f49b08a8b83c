"""The broker's decision engine — transport-free, deterministic, testable.

:class:`BrokerService` owns the pieces a persistent Resource Manager
needs beyond the one-shot :class:`~repro.core.broker.ResourceBroker`:

* a **lease table** (:class:`~repro.scheduler.leases.LeaseTable`) so
  grants expire and dead clients cannot leak capacity;
* **micro-batch decisions**: :meth:`allocate_batch` resolves every
  request of a batch against *one* snapshot object, so the PR-1
  snapshot-keyed :class:`~repro.core.arrays.LoadState` memo is computed
  once and shared — concurrent requests pay Eq. 1–2 once, not N times;
* **decision memoization**: allocation is a pure function of
  ``(snapshot, request, held nodes)``, so repeated identical requests on
  an unchanged cluster return the cached answer in microseconds.  The
  memo belongs to the snapshot's *lineage* (``serial, generation`` from
  :func:`repro.monitor.delta.snapshot_lineage`) and is cleared whenever
  the served snapshot's lineage changes — a patch or a rebuild alike;
* a **batch solver**: :meth:`allocate_batch` decides every request
  before granting any lease — greedy in priority order, then a pairwise
  order-swap improvement pass — so a batch's total Equation-4 cost is
  never worse than the historical decide-and-grant-one-at-a-time loop;
* **metrics** for every grant/denial/renewal/expiry and decision latency;
* a **shard scope**: over a :class:`~repro.monitor.slicing.ShardSnapshotSource`
  the service decides on the fleet snapshot within the source's nodes.

The asyncio daemon in :mod:`repro.broker.server` is a thin transport
around this class; tests drive it directly with an injected clock.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Mapping

import numpy as np

from repro.broker.metrics import BrokerMetrics
from repro.broker.protocol import (
    PROTOCOL_VERSION,
    AllocateParams,
    ErrorCode,
    ProtocolError,
    ReconfigureParams,
    ReleaseParams,
    RenewParams,
    StatusParams,
)
from repro.elastic.cost import SnapshotMigrationCost
from repro.elastic.executor import (
    ReconfigError,
    TwoPhaseExecutor,
    release_quietly,
)
from repro.elastic.gate import PlanGate
from repro.elastic.plan import ReconfigPlan, ReconfigPlanner
from repro.core.broker import ResourceBroker, WaitRecommended
from repro.core.policies import (
    Allocation,
    AllocationError,
    AllocationPolicy,
    AllocationRequest,
    PAPER_POLICIES,
)
from repro.core.weights import TradeOff
from repro.monitor.delta import snapshot_lineage
from repro.monitor.quarantine import NodeQuarantine
from repro.monitor.slicing import ShardSnapshotSource
from repro.monitor.snapshot import (
    CachedSnapshotSource,
    ClusterSnapshot,
    SnapshotUnavailableError,
)
from repro.scheduler.leases import Lease, LeaseError, LeaseTable
from repro.util.atomic import atomic_between_awaits

#: service-level counters start from this wall-clock origin
_DecisionKey = tuple

#: how many allocate idempotency tokens the dedupe memo remembers.
#: Bounded so a hostile or leaky client cannot grow service memory;
#: retries land within seconds, so even a small LRU is generous.
_TOKEN_MEMO_CAP = 4096

#: how many (request, held-set) decisions the lineage-keyed memo holds
_DECISION_MEMO_CAP = 4096

#: most passes of the batch solver's order-swap improvement
BATCH_IMPROVE_PASSES = 2


def _check_ppn(
    params: AllocateParams, snapshot: ClusterSnapshot, exclude: frozenset[str]
) -> None:
    """Refuse a request that an explicit ``ppn`` cannot fit.

    Algorithm 1 round-robins a remainder it cannot place over the nodes
    it visited (lines 12-13), which would grant more than ``ppn``
    processes per node.  A lease must honour the ``ppn`` it was asked
    for, so the broker denies when the usable nodes — monitored, live
    and not excluded — cannot take ``n_processes`` at ``ppn`` each.
    """
    if params.ppn is None:
        return
    live = set(snapshot.livehosts)
    live.difference_update(exclude)
    usable = len(live.intersection(snapshot.nodes))
    if params.n_processes > params.ppn * usable:
        raise AllocationError(
            f"{params.n_processes} processes do not fit at ppn={params.ppn} "
            f"on {usable} usable node(s)"
        )


def _request(params: AllocateParams) -> AllocationRequest:
    """The core request for validated allocate params (built only when a
    policy runs: a memo hit reads none of it)."""
    return AllocationRequest(
        n_processes=params.n_processes,
        ppn=params.ppn,
        tradeoff=TradeOff.from_alpha(params.alpha),
    )


class _BatchEntry:
    """One successfully decided (not yet granted) batch member."""

    __slots__ = ("params", "policy", "allocation", "latency_s")

    def __init__(
        self,
        params: AllocateParams,
        policy: str,
        allocation: Allocation,
        latency_s: float,
    ) -> None:
        self.params = params
        self.policy = policy
        self.allocation = allocation
        self.latency_s = latency_s

    def raw_cost(self) -> float | None:
        """``α·C_G + β·N_G`` from the allocation's raw Equation-4 terms.

        Raw (un-normalized) costs are the only ones comparable across
        decisions — the normalized totals each divide by a different
        candidate-set denominator.  ``None`` when the policy does not
        report cost metadata (e.g. ``random``).
        """
        meta = self.allocation.metadata
        c, n = meta.get("compute_cost"), meta.get("network_cost")
        if c is None or n is None:
            return None
        alpha = self.params.alpha
        return alpha * float(c) + (1.0 - alpha) * float(n)


class _SnapshotCoster:
    """Migration-cost adapter bound to whichever snapshot is current.

    The gate holds one cost-model reference for its whole life, but the
    broker's snapshot changes between requests; this indirection lets
    :meth:`BrokerService.reconfigure` point the gate at the snapshot the
    plan was computed from (the service is single-threaded, so the
    assignment cannot race).
    """

    def __init__(self) -> None:
        self.snapshot: ClusterSnapshot | None = None

    def migration_cost_s(self, plan: ReconfigPlan) -> float:
        assert self.snapshot is not None, "set .snapshot before evaluating"
        return SnapshotMigrationCost(self.snapshot).migration_cost_s(plan)


class BrokerService:
    """Lease-granting allocation service over a snapshot source.

    ``clock`` drives lease TTLs and uptime; inject a fake for
    deterministic expiry tests.  ``snapshot_source`` is any
    ``() -> ClusterSnapshot`` callable — wrap it in
    :class:`~repro.monitor.snapshot.CachedSnapshotSource` to bound
    rebuild frequency (the serve command does).
    """

    def __init__(
        self,
        snapshot_source: Callable[[], ClusterSnapshot],
        *,
        clock: Callable[[], float] = time.monotonic,
        default_policy: str = "network_load_aware",
        default_ttl_s: float = 60.0,
        min_ttl_s: float = 1.0,
        max_ttl_s: float = 3600.0,
        wait_threshold_load_per_core: float | None = None,
        rng: np.random.Generator | None = None,
        memoize_decisions: bool = True,
        batch_improve: bool = True,
        quarantine: NodeQuarantine | None = None,
        migrate_hook: Callable[[Any], None] | None = None,
        lease_namespace: str = "",
        policy_overrides: Mapping[str, AllocationPolicy] | None = None,
    ) -> None:
        if default_policy not in PAPER_POLICIES:
            raise ValueError(
                f"unknown policy {default_policy!r}; "
                f"choose from {sorted(PAPER_POLICIES)}"
            )
        self._snapshots = snapshot_source
        #: a federation shard's own nodes (``None``: the whole snapshot)
        self._scope = (
            snapshot_source.nodes
            if isinstance(snapshot_source, ShardSnapshotSource)
            else None
        )
        # (lineage serial ≥ 1, snapshot nodes outside the scope)
        self._outside: tuple[int, frozenset[str]] = (0, frozenset())
        self._clock = clock
        self.default_policy = default_policy
        # name → configured policy instance used instead of the registry
        # default (e.g. a federation shard scaling its prune threshold)
        self._policy_overrides = dict(policy_overrides or {})
        for name in self._policy_overrides:
            if name not in PAPER_POLICIES:
                raise ValueError(
                    f"policy override for unknown policy {name!r}; "
                    f"choose from {sorted(PAPER_POLICIES)}"
                )
        self._broker = ResourceBroker(
            snapshot_source,
            wait_threshold_load_per_core=wait_threshold_load_per_core,
        )
        self.leases = LeaseTable(
            clock=clock,
            default_ttl_s=default_ttl_s,
            min_ttl_s=min_ttl_s,
            max_ttl_s=max_ttl_s,
            namespace=lease_namespace,
        )
        self.metrics = BrokerMetrics()
        self._rng = rng
        self.memoize_decisions = memoize_decisions
        #: run the pairwise order-swap improvement pass over each batch
        self.batch_improve = batch_improve
        # decision memo for the lineage in _memo_lineage: key → outcome
        self._decision_memo: OrderedDict[
            _DecisionKey, Allocation | AllocationError
        ] = OrderedDict()
        self._memo_lineage: tuple[int, int] | None = None
        # -- elastic reconfiguration plumbing ---------------------------
        self.planner = ReconfigPlanner()
        self._coster = _SnapshotCoster()
        self.gate = PlanGate(self._coster)
        self._executor = TwoPhaseExecutor(
            self.leases, reserve_ttl_s=default_ttl_s
        )
        self.quarantine = quarantine
        self.migrate_hook = migrate_hook
        # idempotency-token → decided result (grant dict or ProtocolError)
        self._token_memo: OrderedDict[str, dict[str, Any] | ProtocolError] = (
            OrderedDict()
        )
        self._started_at = clock()

    # ------------------------------------------------------------------
    # allocate (micro-batched)

    @atomic_between_awaits
    def allocate_batch(
        self, batch: list[AllocateParams]
    ) -> list[dict[str, Any] | ProtocolError]:
        """Solve a micro-batch of allocate requests against one snapshot.

        Three stages, all before any lease is granted:

        1. **replay** — idempotency tokens already answered return the
           original outcome without re-deciding;
        2. **greedy** — remaining requests are decided in stable
           priority order (ties keep arrival order, so an all-default
           batch reproduces the historical sequential behaviour); each
           decision's nodes join the exclusion mask of the ones after
           it, so one batch can never double-book a node;
        3. **improve** — adjacent pairs in decision order are re-decided
           in swapped order; a swap is adopted only when it strictly
           lowers the pair's summed raw Equation-4 cost, so the batch
           total is never worse than the greedy (= sequential) solution.

        Leases are then granted in arrival order.  Returns, per request,
        either a result dict for the wire or a :class:`ProtocolError`
        (``NO_CAPACITY``/``WAIT``/``BAD_REQUEST``).
        """
        if not batch:
            return []
        try:
            snapshot = self._snapshots()
        except SnapshotUnavailableError as exc:
            # Degradation floor: no fresh snapshot and the last-known-good
            # one aged out.  Denying is safer than placing jobs blind —
            # the whole batch gets the same typed, retryable error.
            self.metrics.record_batch(len(batch))
            err = ProtocolError(ErrorCode.MONITOR_STALE, str(exc))
            for _ in batch:
                self.metrics.record_decision(0.0, granted=False)
            return [err] * len(batch)
        if self.quarantine is not None:
            self.quarantine.observe(snapshot.livehosts)
        self.metrics.record_batch(len(batch))

        results: list[dict[str, Any] | ProtocolError | None] = [None] * len(batch)
        pending: list[int] = []
        for i, params in enumerate(batch):
            if params.token is not None:
                memoized = self._token_memo.get(params.token)
                if memoized is not None:
                    # Replay of a request whose answer the client never
                    # saw (transport died mid-response).  Return the
                    # *same* outcome — critically, without granting a
                    # second lease.
                    self._token_memo.move_to_end(params.token)
                    self.metrics.allocates_deduped += 1
                    results[i] = memoized
                    continue
            pending.append(i)

        held = self.leases.held_nodes()
        if self.quarantine is not None:
            quarantined = self.quarantine.excluded()
            if quarantined:
                held = frozenset(held | quarantined)

        # -- stage 2: greedy decide, priority order --------------------
        order = sorted(pending, key=lambda i: -batch[i].priority)
        decided: dict[int, _BatchEntry] = {}
        failed: dict[int, tuple[ProtocolError, float]] = {}
        solved: list[int] = []  # batch indexes, in decision order
        taken: set[str] = set()
        for i in order:
            params = batch[i]
            policy = params.policy or self.default_policy
            if policy not in PAPER_POLICIES:
                failed[i] = (
                    ProtocolError(
                        ErrorCode.BAD_REQUEST,
                        f"unknown policy {policy!r}; "
                        f"choose from {sorted(PAPER_POLICIES)}",
                    ),
                    0.0,
                )
                continue
            exclude = frozenset(held | taken) if taken else held
            t0 = time.perf_counter()
            try:
                allocation = self._decide(snapshot, params, policy, exclude)
            except WaitRecommended as exc:
                failed[i] = (
                    ProtocolError(ErrorCode.WAIT, str(exc)),
                    time.perf_counter() - t0,
                )
                continue
            except AllocationError as exc:
                failed[i] = (
                    ProtocolError(ErrorCode.NO_CAPACITY, str(exc)),
                    time.perf_counter() - t0,
                )
                continue
            decided[i] = _BatchEntry(
                params, policy, allocation, time.perf_counter() - t0
            )
            taken.update(allocation.nodes)
            solved.append(i)

        # -- stage 3: pairwise order-swap improvement ------------------
        if self.batch_improve and len(solved) >= 2:
            self._improve_batch(snapshot, held, solved, decided)

        # -- grant in arrival order ------------------------------------
        for i in pending:
            if i in failed:
                error, latency_s = failed[i]
                self.metrics.record_decision(latency_s, granted=False)
                results[i] = error
            else:
                entry = decided[i]
                lease = self.leases.grant(
                    entry.allocation.nodes,
                    entry.allocation.procs,
                    ttl_s=entry.params.ttl_s,
                    policy=entry.allocation.policy,
                    # kept on the lease so reconfigure can rebuild the request
                    ppn=entry.params.ppn,
                    alpha=entry.params.alpha,
                )
                self.metrics.record_decision(entry.latency_s, granted=True)
                results[i] = self._grant_result(lease, entry.allocation)
            params = batch[i]
            if params.token is not None:
                self._token_memo[params.token] = results[i]
                while len(self._token_memo) > _TOKEN_MEMO_CAP:
                    self._token_memo.popitem(last=False)
        return results  # type: ignore[return-value]

    def _improve_batch(
        self,
        snapshot: ClusterSnapshot,
        held: frozenset[str],
        solved: list[int],
        decided: dict[int, _BatchEntry],
    ) -> None:
        """Adjacent order-swap improvement over the greedy solution.

        A single job re-decided against the same exclusion superset can
        never beat its own greedy decision, so the only gains live in
        *ordering*: decide ``b`` before ``a`` and both may land better.
        Each probe re-decides the pair against all other final node sets
        (through the decision memo, so repeated shapes are cheap) and is
        adopted only on a strict decrease of the pair's summed raw
        Equation-4 cost — the batch total can only go down, and the loop
        terminates because the total is bounded below.
        """
        for _ in range(BATCH_IMPROVE_PASSES):
            improved = False
            for pos in range(len(solved) - 1):
                a, b = solved[pos], solved[pos + 1]
                ea, eb = decided[a], decided[b]
                if ea.policy == "random" or eb.policy == "random":
                    continue
                old_cost_a, old_cost_b = ea.raw_cost(), eb.raw_cost()
                if old_cost_a is None or old_cost_b is None:
                    continue
                base = set(held)
                for j in solved:
                    if j != a and j != b:
                        base.update(decided[j].allocation.nodes)
                t0 = time.perf_counter()
                try:
                    alloc_b = self._decide(
                        snapshot, eb.params, eb.policy, frozenset(base)
                    )
                    alloc_a = self._decide(
                        snapshot,
                        ea.params,
                        ea.policy,
                        frozenset(base | set(alloc_b.nodes)),
                    )
                except (WaitRecommended, AllocationError):
                    continue
                finally:
                    probe_s = time.perf_counter() - t0
                new_b = _BatchEntry(eb.params, eb.policy, alloc_b, eb.latency_s)
                new_a = _BatchEntry(ea.params, ea.policy, alloc_a, ea.latency_s)
                new_cost_a, new_cost_b = new_a.raw_cost(), new_b.raw_cost()
                if new_cost_a is None or new_cost_b is None:
                    continue
                gain = (old_cost_a + old_cost_b) - (new_cost_a + new_cost_b)
                if gain > 1e-12:
                    new_a.latency_s += probe_s
                    decided[a], decided[b] = new_a, new_b
                    solved[pos], solved[pos + 1] = b, a
                    self.metrics.batch_swaps_adopted += 1
                    improved = True
            if not improved:
                break

    def _decide(
        self,
        snapshot: ClusterSnapshot,
        params: AllocateParams,
        policy: str,
        held: frozenset[str],
    ) -> Allocation:
        # Stochastic policies must not be memoized — two clients asking
        # twice expect two draws — and are the only rng consumers.
        if not self.memoize_decisions or policy == "random":
            return self._allocate(snapshot, params, policy, held, self._rng)
        self._sync_decision_memo(snapshot_lineage(snapshot))
        key: _DecisionKey = (
            policy,
            params.n_processes,
            params.ppn,
            round(params.alpha, 12),
            held,
        )
        hit = self._decision_memo.get(key)
        if hit is not None:
            self._decision_memo.move_to_end(key)
            self.metrics.decisions_memoized += 1
            if isinstance(hit, AllocationError):
                raise hit
            return hit
        try:
            # An override swaps in a configured instance; the memo still
            # keys on the *name* (the override is fixed for this service)
            # and on ``held`` alone (the nodes outside the scope are fixed
            # for the lineage the memo belongs to).
            allocation = self._allocate(snapshot, params, policy, held)
        except WaitRecommended:
            raise  # depends on the threshold config, not worth caching
        except AllocationError as exc:
            self._memo_store(key, exc)  # a denial is deterministic too
            raise
        self._memo_store(key, allocation)
        return allocation

    def _allocate(
        self,
        snapshot: ClusterSnapshot,
        params: AllocateParams,
        policy: str,
        held: frozenset[str],
        rng: np.random.Generator | None = None,
    ) -> Allocation:
        """The policy's decision on ``snapshot``, with ``held`` and every
        node outside this service's scope masked out."""
        exclude = self._exclude(snapshot, held)
        _check_ppn(params, snapshot, exclude)
        return self._broker.request(
            _request(params),
            rng=rng,
            policy=self._policy_overrides.get(policy, policy),
            exclude=exclude or None,
            snapshot=snapshot,
            scope=self._scope,
        ).allocation

    def _exclude(
        self, snapshot: ClusterSnapshot, held: frozenset[str]
    ) -> frozenset[str]:
        """``held`` plus the snapshot's nodes outside this service's scope,
        kept per lineage serial (only a rebuild changes the node set), not
        on the snapshot, which it would keep alive."""
        if self._scope is None:
            return held
        serial = snapshot_lineage(snapshot)[0]
        if self._outside[0] != serial:
            self._outside = (
                serial,
                frozenset(n for n in snapshot.nodes if n not in self._scope),
            )
        return held | self._outside[1]

    def _memo_store(
        self, key: _DecisionKey, outcome: Allocation | AllocationError
    ) -> None:
        self._decision_memo[key] = outcome
        while len(self._decision_memo) > _DECISION_MEMO_CAP:
            self._decision_memo.popitem(last=False)

    def _sync_decision_memo(self, lineage: tuple[int, int]) -> None:
        """Clear the decision memo unless ``lineage`` is the one it holds.

        Every new snapshot — a delta patch (next generation) or a full
        rebuild (new serial) — may change any decision, because Eq. 1–2
        normalize over every usable node; a memo hit therefore only
        replays a decision made on the very snapshot being served.
        """
        if self._memo_lineage != lineage:
            self.metrics.decisions_invalidated += len(self._decision_memo)
            self._decision_memo.clear()
            self._memo_lineage = lineage

    def _grant_result(
        self, lease: Lease, allocation: Allocation
    ) -> dict[str, Any]:
        meta = allocation.metadata
        return {
            "lease_id": lease.lease_id,
            "nodes": list(lease.nodes),
            "procs": dict(lease.procs),
            "hostfile": allocation.hostfile(),
            "policy": lease.policy,
            "ttl_s": lease.ttl_s,
            "expires_at": lease.expires_at,
            "snapshot_time": allocation.snapshot_time,
            "total_cost": meta.get("total_cost"),
            "compute_cost": meta.get("compute_cost"),
            "network_cost": meta.get("network_cost"),
        }

    # ------------------------------------------------------------------
    # lease lifecycle

    def renew(self, params: RenewParams) -> dict[str, Any]:
        """Extend a lease; raises :class:`ProtocolError` on bad leases."""
        try:
            lease = self.leases.renew(params.lease_id, ttl_s=params.ttl_s)
        except LeaseError as exc:
            if exc.code == "EXPIRED_LEASE":
                self.metrics.expired += 1
            raise ProtocolError(ErrorCode(exc.code), exc.message) from None
        self.metrics.renewed += 1
        return {
            "lease_id": lease.lease_id,
            "ttl_s": lease.ttl_s,
            "expires_at": lease.expires_at,
            "renewals": lease.renewals,
        }

    def release(self, params: ReleaseParams) -> dict[str, Any]:
        """End a lease; raises :class:`ProtocolError` on bad leases."""
        try:
            lease = self.leases.release(params.lease_id)
        except LeaseError as exc:
            if exc.code == "EXPIRED_LEASE":
                self.metrics.expired += 1
            raise ProtocolError(ErrorCode(exc.code), exc.message) from None
        self.metrics.released += 1
        return {
            "lease_id": lease.lease_id,
            "released": True,
            "nodes": list(lease.nodes),
        }

    @atomic_between_awaits
    def reconfigure(self, params: ReconfigureParams) -> dict[str, Any]:
        """Replan a live lease; apply the plan if the gate accepts it.

        The planner re-runs Algorithm 1/2 over the lease's own nodes plus
        every unleased node; the gate weighs the Equation-4 gain (applied
        to ``remaining_s``) against the checkpoint-transfer bill priced
        from the snapshot's measured bandwidths.  An accepted plan is
        applied to the lease table through the two-phase executor, and
        the result carries the new node set and hostfile — the *client*
        performs the actual migration after reading the response, exactly
        as it launches ``mpiexec`` after ``allocate``.

        Returns ``{"reconfigured": false, "reason": ...}`` when staying
        put wins; raises :class:`ProtocolError` for dead leases or a
        failed swap.
        """
        now = self._clock()
        lease = self.leases.get(params.lease_id)
        if lease is None:
            raise ProtocolError(
                ErrorCode.UNKNOWN_LEASE,
                f"lease {params.lease_id!r} is not active",
            )
        if lease.expired(now):
            release_quietly(self.leases, lease)
            self.metrics.expired += 1
            raise ProtocolError(
                ErrorCode.EXPIRED_LEASE,
                f"lease {params.lease_id} expired; nodes reclaimed — "
                "re-allocate instead of reconfiguring",
            )
        try:
            snapshot = self._snapshots()
        except SnapshotUnavailableError as exc:
            self.metrics.reconfig_rejected += 1
            raise ProtocolError(ErrorCode.MONITOR_STALE, str(exc)) from None
        if self.quarantine is not None:
            self.quarantine.observe(snapshot.livehosts)
        alpha = params.alpha if params.alpha is not None else lease.alpha
        request = AllocationRequest(
            n_processes=sum(lease.procs.values()),
            ppn=lease.ppn,
            tradeoff=TradeOff.from_alpha(alpha),
        )
        exclude = self.leases.held_nodes()
        if self.quarantine is not None:
            quarantined = self.quarantine.excluded()
            if quarantined:
                exclude = frozenset(exclude | quarantined)
        exclude = self._exclude(snapshot, exclude)
        t0 = time.perf_counter()
        plan = self.planner.propose(
            snapshot,
            lease_id=lease.lease_id,
            nodes=lease.nodes,
            procs=lease.procs,
            request=request,
            exclude=exclude,
        )
        if plan is None:
            self.metrics.reconfig_rejected += 1
            return {
                "lease_id": lease.lease_id,
                "reconfigured": False,
                "reason": "placement_already_best",
                "plan_latency_s": time.perf_counter() - t0,
            }
        self._coster.snapshot = snapshot
        remaining_s = (
            params.remaining_s
            if params.remaining_s is not None
            else lease.remaining_s(now)
        )
        decision = self.gate.evaluate(plan, remaining_s=remaining_s, now=now)
        if not decision:
            self.metrics.reconfig_rejected += 1
            return {
                "lease_id": lease.lease_id,
                "reconfigured": False,
                "reason": decision.reason,
                "kind": plan.kind,
                "predicted_gain": plan.predicted_gain,
                "benefit_s": decision.benefit_s,
                "cost_s": decision.cost_s,
                "plan_latency_s": time.perf_counter() - t0,
            }
        try:
            swapped = self._executor.apply(plan, migrate=self.migrate_hook)
        except ReconfigError as exc:
            try:
                code = ErrorCode(exc.code)
            except ValueError:  # pragma: no cover — all codes are mapped
                code = ErrorCode.INTERNAL
            raise ProtocolError(code, exc.message) from None
        self.metrics.reconfigured += 1
        return {
            "lease_id": swapped.lease_id,
            "reconfigured": True,
            "kind": plan.kind,
            "nodes": list(swapped.nodes),
            "procs": dict(swapped.procs),
            "hostfile": plan.allocation().hostfile(),
            "add_nodes": list(plan.add_nodes),
            "drop_nodes": list(plan.drop_nodes),
            "predicted_gain": plan.predicted_gain,
            "benefit_s": decision.benefit_s,
            "cost_s": decision.cost_s,
            "reconfigs": swapped.reconfigs,
            "expires_at": swapped.expires_at,
            "plan_latency_s": time.perf_counter() - t0,
        }

    def sweep_expired(self) -> list[Lease]:
        """Reclaim expired leases (the daemon calls this periodically)."""
        reclaimed = self.leases.sweep()
        self.metrics.expired += len(reclaimed)
        return reclaimed

    # ------------------------------------------------------------------
    # status

    def status(self, params: StatusParams | None = None) -> dict[str, Any]:
        """The ``status`` RPC result: leases, metrics, snapshot health."""
        now = self._clock()
        leases = self.leases.active()
        result: dict[str, Any] = {
            "protocol_version": PROTOCOL_VERSION,
            "uptime_s": max(0.0, now - self._started_at),
            "policy": self.default_policy,
            "leases": {
                "active": len(leases),
                "nodes_held": len(self.leases.held_nodes()),
                "soonest_expiry_s": min(
                    (l.remaining_s(now) for l in leases), default=None
                ),
            },
            "metrics": self.metrics.snapshot(),
        }
        if isinstance(self._snapshots, CachedSnapshotSource):
            age = self._snapshots.age_s()
            result["snapshot"] = {
                "age_s": None if age == float("inf") else age,
                "max_age_s": self._snapshots.max_age_s,
                "refreshes": self._snapshots.refreshes,
                "hits": self._snapshots.hits,
                "fallbacks": self._snapshots.fallbacks,
                "deltas_applied": self._snapshots.deltas_applied,
                "deltas_empty": self._snapshots.deltas_empty,
                "delta_full_rebuilds": self._snapshots.delta_full_rebuilds,
            }
        if self.quarantine is not None:
            result["quarantine"] = self.quarantine.stats()
        return result
