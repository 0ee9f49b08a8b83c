"""The federation router — scoring front-end over per-subtree shards.

One :class:`FederationRouter` fronts N :class:`~repro.broker.service.
BrokerService` shards, each deciding placements within its own subtree
on the one fleet snapshot the router scores (see
:mod:`repro.monitor.slicing`; a shard polls the fleet source whenever
it decides, so the router never pushes snapshots) with a namespaced
lease table (``shard1:L00000001``).  The router duck-types
the ``BrokerService`` surface the daemon drives — ``allocate_batch`` /
``renew`` / ``release`` / ``reconfigure`` / ``status`` /
``sweep_expired`` plus a ``metrics`` object — so the whole asyncio
transport (admission queue, batch callback, sweeper, pipelining) is reused
unchanged; :class:`~repro.federation.daemon.FederationDaemon` only adds
the two router verbs (``shards``, ``resolve``).

Routing is O(shards), not O(nodes): the router consults cheap per-shard
aggregates (total/free cores, *fleet-normalized* mean Equation-1/2
loads, quarantine counts — see
:class:`~repro.core.partition.PartitionedLoadState`) and forwards each
allocate to the best-scoring shard, spilling to the next candidates on
a capacity denial.  Lease operations route by the lease-id namespace
prefix, so they never touch a snapshot at all.

Jobs too big for any single shard take the **cross-shard path**: the
request is split greedily over the ranked shards and reserved on each
with a short TTL (``RESERVE_TTL_S``), the same reserve/rollback
discipline as :class:`~repro.elastic.executor.TwoPhaseExecutor` —
rollback reuses its :func:`~repro.elastic.executor.release_quietly` —
then committed by renewing every reservation to the real TTL.  Any
failure in either phase — a shard denying its slice, a shard dying
mid-commit — rolls back every reservation on every surviving shard, so
the grant is atomic: all shards or none, and even a router crash cannot
strand nodes past one sweep interval thanks to the reserve TTL.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.broker.metrics import BrokerMetrics
from repro.broker.protocol import (
    MAX_TOKEN_CHARS,
    PROTOCOL_VERSION,
    AllocateParams,
    ErrorCode,
    ProtocolError,
    ReconfigureParams,
    ReleaseParams,
    RenewParams,
    ResolveParams,
    ShardsParams,
    StatusParams,
)
from repro.broker.service import BrokerService
from repro.core.arrays import PRUNE_KEEP_DEFAULT, PRUNE_THRESHOLD_DEFAULT
from repro.core.partition import PartitionedLoadState, ShardAggregate
from repro.core.policies import NetworkLoadAwarePolicy
from repro.elastic.executor import release_quietly
from repro.util.atomic import atomic_between_awaits
from repro.monitor.slicing import ShardSnapshotSource
from repro.monitor.snapshot import ClusterSnapshot, SnapshotUnavailableError
from repro.scheduler.leases import Lease

#: lease-id namespace reserved for the router's own cross-shard leases
CROSS_SHARD_PREFIX = "x"

#: how many idempotency tokens the router remembers (LRU)
_TOKEN_MEMO_CAP = 4096

#: TTL of a cross-shard reservation until its commit renews it: a router
#: that dies between the phases strands nothing past one shard sweep
RESERVE_TTL_S = 15.0

#: the α the ``shards`` verb scores shards with
SHARDS_ALPHA = 0.3


@dataclass
class Shard:
    """One federation member: a broker service plus liveness state.

    ``alive`` is flipped by :meth:`FederationRouter.kill` /
    :meth:`FederationRouter.revive` — in production that models a shard
    process dying and being restarted; in the chaos harness it is the
    fault-injection seam.
    """

    shard_id: str
    service: BrokerService
    alive: bool = True


class FederationRouter:
    """Scoring router over per-subtree broker shards.

    ``partition`` maps shard id → node names; ``services`` maps the same
    shard ids to their :class:`BrokerService` instances, whose lease
    tables must be namespaced ``"<shard_id>:"`` (prefer
    :func:`build_federation`, which wires all of this up).

    ``commit_hook``, when set, is called with the shard id immediately
    before each cross-shard commit — the seam the chaos harness uses to
    kill a shard mid-transaction.
    """

    def __init__(
        self,
        snapshot_source: Callable[[], ClusterSnapshot],
        partition: Mapping[str, tuple[str, ...]],
        services: Mapping[str, BrokerService],
        *,
        clock: Callable[[], float] = time.monotonic,
        commit_hook: Callable[[str], None] | None = None,
    ) -> None:
        if not partition:
            raise ValueError("a federation needs at least one shard")
        if set(partition) != set(services):
            raise ValueError(
                f"partition shards {sorted(partition)} != "
                f"service shards {sorted(services)}"
            )
        for sid in partition:
            if not sid or ":" in sid or sid == CROSS_SHARD_PREFIX:
                raise ValueError(
                    f"invalid shard id {sid!r} (non-empty, no ':', "
                    f"not the reserved {CROSS_SHARD_PREFIX!r})"
                )
            ns = services[sid].leases.namespace
            if ns != f"{sid}:":
                raise ValueError(
                    f"shard {sid!r} service has lease namespace {ns!r}; "
                    f"expected {sid + ':'!r} — the router routes renew/"
                    "release by that prefix"
                )
        self._snapshots = snapshot_source
        self.partition = {s: tuple(nodes) for s, nodes in partition.items()}
        self._shards = {
            sid: Shard(sid, services[sid]) for sid in self.partition
        }
        self._clock = clock
        self.commit_hook = commit_hook
        self.metrics = BrokerMetrics()
        # router-level counters (shard services keep their own metrics)
        self.forwards = 0
        self.spills = 0
        self.cross_shard_attempts = 0
        self.cross_shard_grants = 0
        self.cross_shard_rollbacks = 0
        self.cross_shard_reclaimed = 0
        self.shard_down_errors = 0
        # cross-shard leases: fed lease id → ((shard_id, member id), ...)
        self._fed_leases: dict[str, tuple[tuple[str, str], ...]] = {}
        self._next_fed_id = 1
        # idempotency: token → full result (cross-shard) or owning shard
        # (single-shard — the shard's own memo replays the grant)
        self._token_results: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._token_shard: OrderedDict[str, str] = OrderedDict()
        # PartitionedLoadState cache, keyed by snapshot identity
        self._plist: PartitionedLoadState | None = None
        self._plist_snapshot: ClusterSnapshot | None = None
        self._started_at = clock()

    # ------------------------------------------------------------------
    # shard liveness (production: process supervision; chaos: the fault)

    def shard(self, shard_id: str) -> Shard:
        return self._shards[shard_id]

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(self._shards)

    def kill(self, shard_id: str) -> None:
        """Mark a shard dead; its lease table dies with the process."""
        shard = self._shards[shard_id]
        shard.alive = False
        for lease in shard.service.leases.active():
            release_quietly(shard.service.leases, lease)

    def revive(self, shard_id: str) -> None:
        """Re-admit a shard (restarted empty, as a real process would)."""
        self._shards[shard_id].alive = True

    def _live_service(self, shard_id: str) -> BrokerService:
        shard = self._shards[shard_id]
        if not shard.alive:
            self.shard_down_errors += 1
            raise ProtocolError(
                ErrorCode.SHARD_DOWN,
                f"shard {shard_id!r} is down; retry after it is re-admitted",
            )
        return shard.service

    # ------------------------------------------------------------------
    # aggregates and scoring

    def _partitioned(self) -> PartitionedLoadState:
        try:
            snapshot = self._snapshots()
        except SnapshotUnavailableError as exc:
            raise ProtocolError(ErrorCode.MONITOR_STALE, str(exc)) from None
        if snapshot is not self._plist_snapshot or self._plist is None:
            self._plist = PartitionedLoadState(snapshot, self.partition)
            self._plist_snapshot = snapshot
        return self._plist

    def _held_nodes(self) -> frozenset[str]:
        held: set[str] = set()
        for shard in self._shards.values():
            if shard.alive:
                held |= shard.service.leases.held_nodes()
        return frozenset(held)

    def _quarantined(self) -> frozenset[str]:
        quarantined: set[str] = set()
        for shard in self._shards.values():
            if shard.service.quarantine is not None:
                quarantined |= shard.service.quarantine.excluded()
        return frozenset(quarantined)

    @staticmethod
    def _score(agg: ShardAggregate, alpha: float) -> float:
        """Equation-4-shaped shard score (lower is better)."""
        return alpha * agg.mean_cl + (1.0 - alpha) * agg.mean_nl

    def _rank(
        self, aggs: Mapping[str, ShardAggregate], *, alpha: float
    ) -> list[str]:
        """Live shards with usable nodes, best score first.

        Ties prefer the freer shard, then the lexically first id — fully
        deterministic, so routing replays across runs.
        """
        candidates = [
            sid
            for sid, shard in self._shards.items()
            if shard.alive and aggs[sid].usable_nodes > 0
        ]
        return sorted(
            candidates,
            key=lambda sid: (
                self._score(aggs[sid], alpha),
                -aggs[sid].free_procs,
                sid,
            ),
        )

    @staticmethod
    def _fits(agg: ShardAggregate, params: AllocateParams) -> bool:
        """Whether the aggregates suggest the shard can host the job.

        ``free_procs`` uses the Equation-3 formula; an explicit ``ppn``
        caps or raises per-node capacity, so both estimates are tried —
        a false positive just costs one spill, a false negative would
        wrongly force the cross-shard path.
        """
        if agg.free_procs >= params.n_processes:
            return True
        return (
            params.ppn is not None
            and agg.usable_nodes * params.ppn >= params.n_processes
        )

    # ------------------------------------------------------------------
    # allocate

    def allocate_batch(
        self, batch: list[AllocateParams]
    ) -> list[dict[str, Any] | ProtocolError]:
        """Route each request to its best shard (the batch callback's entry)."""
        if not batch:
            return []
        self.metrics.record_batch(len(batch))
        results: list[dict[str, Any] | ProtocolError] = []
        for params in batch:
            t0 = time.perf_counter()
            try:
                result: dict[str, Any] | ProtocolError = self._allocate_one(
                    params
                )
                granted = True
            except ProtocolError as exc:
                result = exc
                granted = False
            self.metrics.record_decision(
                time.perf_counter() - t0, granted=granted
            )
            results.append(result)
        return results

    def _allocate_one(self, params: AllocateParams) -> dict[str, Any]:
        token = params.token
        if token is not None:
            memo = self._token_results.get(token)
            if memo is not None:
                # A cross-shard grant whose response the client lost:
                # replay it verbatim, without touching any shard.
                self._token_results.move_to_end(token)
                self.metrics.allocates_deduped += 1
                return memo
            sticky = self._token_shard.get(token)
            if sticky is not None:
                # The token was already forwarded once; the same shard
                # must answer the retry so its own memo can dedupe.
                service = self._live_service(sticky)
                self.forwards += 1
                out = service.allocate_batch([params])[0]
                if isinstance(out, ProtocolError):
                    raise out
                return out

        plist = self._partitioned()
        held = self._held_nodes()
        quarantined = self._quarantined()
        aggs = plist.aggregates(held=held, quarantined=quarantined)
        ranked = self._rank(aggs, alpha=params.alpha)
        if not ranked:
            raise ProtocolError(
                ErrorCode.NO_CAPACITY,
                "no live shard has a usable node "
                f"({len(self._shards)} shard(s) configured)",
            )

        last_denial: ProtocolError | None = None
        first = True
        for sid in ranked:
            if not self._fits(aggs[sid], params):
                continue
            if not first:
                self.spills += 1
            first = False
            self.forwards += 1
            out = self._shards[sid].service.allocate_batch([params])[0]
            if isinstance(out, ProtocolError):
                if out.code in (ErrorCode.NO_CAPACITY, ErrorCode.WAIT):
                    last_denial = out
                    continue
                raise out
            if token is not None:
                self._note_token_shard(token, sid)
            return out

        total_free = sum(aggs[sid].free_procs for sid in ranked)
        if len(ranked) >= 2 and total_free >= params.n_processes:
            return self._allocate_cross(params, ranked, aggs)
        if last_denial is not None:
            raise last_denial
        raise ProtocolError(
            ErrorCode.NO_CAPACITY,
            f"no shard can host {params.n_processes} processes and the "
            f"fleet holds only ~{total_free} free processor slots",
        )

    def _note_token_shard(self, token: str, shard_id: str) -> None:
        self._token_shard[token] = shard_id
        self._token_shard.move_to_end(token)
        while len(self._token_shard) > _TOKEN_MEMO_CAP:
            self._token_shard.popitem(last=False)

    # ------------------------------------------------------------------
    # cross-shard two-phase placement

    @staticmethod
    def _sub_token(token: str | None, shard_id: str) -> str | None:
        """A per-shard derivative of the client's idempotency token.

        Keeps shard-level replays idempotent too: a rolled-back reserve
        retried on the same shard returns the shard's original outcome.
        Hashed down when the suffix would blow the wire limit.
        """
        if token is None:
            return None
        sub = f"{token}@{shard_id}"
        if len(sub) > MAX_TOKEN_CHARS:
            sub = hashlib.sha256(sub.encode()).hexdigest()[:MAX_TOKEN_CHARS]
        return sub

    @atomic_between_awaits
    def _allocate_cross(
        self,
        params: AllocateParams,
        ranked: list[str],
        aggs: Mapping[str, ShardAggregate],
    ) -> dict[str, Any]:
        self.cross_shard_attempts += 1
        remaining = params.n_processes
        plan: list[tuple[str, int]] = []
        for sid in ranked:
            if remaining <= 0:
                break
            cap = aggs[sid].free_procs
            if params.ppn is not None:
                # an explicit ppn bounds what the shard can actually
                # grant, however many processor slots look free
                cap = min(cap, aggs[sid].usable_nodes * params.ppn)
            take = min(cap, remaining)
            if take <= 0:
                continue
            plan.append((sid, take))
            remaining -= take
        if remaining > 0 or len(plan) < 2:
            raise ProtocolError(
                ErrorCode.NO_CAPACITY,
                f"cannot split {params.n_processes} processes across "
                f"{len(ranked)} live shard(s)",
            )

        granted: list[tuple[str, dict[str, Any]]] = []
        renewed: list[dict[str, Any]] = []
        try:
            # Phase 1 — reserve each slice under a short TTL, exactly the
            # executor's reserve discipline: a crashed router strands
            # nothing past one shard sweep.
            for sid, take in plan:
                service = self._live_service(sid)
                sub = AllocateParams(
                    n_processes=take,
                    ppn=params.ppn,
                    alpha=params.alpha,
                    policy=params.policy,
                    ttl_s=RESERVE_TTL_S,
                    token=self._sub_token(params.token, sid),
                    priority=params.priority,
                )
                self.forwards += 1
                out = service.allocate_batch([sub])[0]
                if isinstance(out, ProtocolError):
                    raise ProtocolError(
                        out.code,
                        f"shard {sid} denied its {take}-process slice: "
                        f"{out.message}",
                    )
                granted.append((sid, out))
            # Phase 2 — commit: renew every reservation to the real TTL.
            for sid, out in granted:
                if self.commit_hook is not None:
                    self.commit_hook(sid)
                service = self._live_service(sid)
                renewed.append(
                    service.renew(
                        RenewParams(
                            lease_id=out["lease_id"], ttl_s=params.ttl_s
                        )
                    )
                )
        except ProtocolError as exc:
            self._rollback_reserves(granted)
            self.cross_shard_rollbacks += 1
            raise ProtocolError(
                exc.code,
                f"cross-shard placement aborted ({exc.message}); "
                "all reservations rolled back",
            ) from None
        except BaseException:  # noqa: BLE001 — cleanup-and-reraise: a programming error propagates raw, but the reservations must never strand on surviving shards
            self._rollback_reserves(granted)
            self.cross_shard_rollbacks += 1
            raise

        members = tuple((sid, out["lease_id"]) for sid, out in granted)
        fed_id = f"{CROSS_SHARD_PREFIX}:F{self._next_fed_id:08d}"
        self._next_fed_id += 1
        self._fed_leases[fed_id] = members
        self.cross_shard_grants += 1
        result = self._compose_grant(fed_id, granted, renewed)
        if params.token is not None:
            self._token_results[params.token] = result
            while len(self._token_results) > _TOKEN_MEMO_CAP:
                self._token_results.popitem(last=False)
        return result

    def _rollback_reserves(
        self, granted: list[tuple[str, dict[str, Any]]]
    ) -> None:
        for sid, out in granted:
            shard = self._shards[sid]
            if not shard.alive:
                # The dead shard's lease table died with it; only the
                # survivors can (and must) be cleaned.
                continue
            leases = shard.service.leases
            release_quietly(leases, leases.get(out["lease_id"]))

    @staticmethod
    def _compose_grant(
        fed_id: str,
        granted: list[tuple[str, dict[str, Any]]],
        renewed: list[dict[str, Any]],
    ) -> dict[str, Any]:
        nodes: list[str] = []
        procs: dict[str, int] = {}
        hostfiles: list[str] = []
        costs = {"total_cost": 0.0, "compute_cost": 0.0, "network_cost": 0.0}
        costs_known = True
        for _, out in granted:
            nodes.extend(out["nodes"])
            procs.update(out["procs"])
            hostfiles.append(str(out["hostfile"]).rstrip("\n"))
            for key in costs:
                if out.get(key) is None:
                    costs_known = False
                else:
                    costs[key] += float(out[key])
        return {
            "lease_id": fed_id,
            "nodes": nodes,
            "procs": procs,
            "hostfile": "\n".join(h for h in hostfiles if h) + "\n",
            "policy": "federated",
            "ttl_s": min(r["ttl_s"] for r in renewed),
            "expires_at": min(r["expires_at"] for r in renewed),
            "snapshot_time": max(
                float(out.get("snapshot_time") or 0.0) for _, out in granted
            ),
            "total_cost": costs["total_cost"] if costs_known else None,
            "compute_cost": costs["compute_cost"] if costs_known else None,
            "network_cost": costs["network_cost"] if costs_known else None,
            "shards": {sid: out["lease_id"] for sid, out in granted},
        }

    # ------------------------------------------------------------------
    # lease lifecycle (prefix-routed)

    def _forward(
        self, lease_id: str, op: Callable[[BrokerService], dict[str, Any]]
    ) -> dict[str, Any]:
        """Run a single-shard lease op on the shard its id names, counting
        an expiry the shard detects lazily (``EXPIRED_LEASE``) here too."""
        sid, sep, _ = lease_id.partition(":")
        if not sep or sid not in self._shards:
            raise ProtocolError(
                ErrorCode.UNKNOWN_LEASE,
                f"lease {lease_id!r} does not name a federation shard",
            )
        try:
            return op(self._live_service(sid))
        except ProtocolError as exc:
            if exc.code is ErrorCode.EXPIRED_LEASE:
                self.metrics.expired += 1
            raise

    def renew(self, params: RenewParams) -> dict[str, Any]:
        """Extend a lease — fanning out over members for cross-shard ids."""
        members = self._fed_leases.get(params.lease_id)
        if members is None:
            out = self._forward(params.lease_id, lambda s: s.renew(params))
            self.metrics.renewed += 1
            return out
        outs = []
        for _, member_id in members:
            renew = RenewParams(lease_id=member_id, ttl_s=params.ttl_s)
            outs.append(self._forward(member_id, lambda s: s.renew(renew)))
        self.metrics.renewed += 1
        return {
            "lease_id": params.lease_id,
            "ttl_s": min(o["ttl_s"] for o in outs),
            "expires_at": min(o["expires_at"] for o in outs),
            "renewals": min(o["renewals"] for o in outs),
        }

    def release(self, params: ReleaseParams) -> dict[str, Any]:
        """End a lease — releasing every surviving member for cross-shard."""
        members = self._fed_leases.pop(params.lease_id, None)
        if members is None:
            out = self._forward(params.lease_id, lambda s: s.release(params))
            self.metrics.released += 1
            return out
        nodes: list[str] = []
        for sid, member_id in members:
            if not self._shards[sid].alive:
                continue
            release = ReleaseParams(lease_id=member_id)
            try:
                out = self._forward(member_id, lambda s: s.release(release))
                nodes.extend(out["nodes"])
            except ProtocolError:
                pass  # member already expired/swept — freed either way
        self.metrics.released += 1
        return {
            "lease_id": params.lease_id,
            "released": True,
            "nodes": nodes,
        }

    def reconfigure(self, params: ReconfigureParams) -> dict[str, Any]:
        """Replan a single-shard lease in place (cross-shard: re-allocate)."""
        if params.lease_id in self._fed_leases:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"lease {params.lease_id} spans shards; cross-shard leases "
                "cannot be reconfigured in place — release and re-allocate",
            )
        return self._forward(params.lease_id, lambda s: s.reconfigure(params))

    def sweep_expired(self) -> list[Lease]:
        """Sweep every live shard, then reap broken cross-shard leases.

        A cross-shard lease whose member expired (or whose shard died)
        can no longer be honoured whole; its surviving members are
        released so the atomic contract — all shards or none — holds
        for the sweeper too.
        """
        reclaimed: list[Lease] = []
        for shard in self._shards.values():
            if shard.alive:
                reclaimed.extend(shard.service.sweep_expired())
        self.metrics.expired += len(reclaimed)
        for fed_id, members in list(self._fed_leases.items()):
            broken = any(
                not self._shards[sid].alive
                or self._shards[sid].service.leases.get(member_id) is None
                for sid, member_id in members
            )
            if not broken:
                continue
            for sid, member_id in members:
                shard = self._shards[sid]
                if shard.alive:
                    release_quietly(
                        shard.service.leases,
                        shard.service.leases.get(member_id),
                    )
            del self._fed_leases[fed_id]
            self.cross_shard_reclaimed += 1
        return reclaimed

    # ------------------------------------------------------------------
    # introspection verbs

    def _counters(self) -> dict[str, int]:
        return {
            "forwards": self.forwards,
            "spills": self.spills,
            "cross_shard_attempts": self.cross_shard_attempts,
            "cross_shard_grants": self.cross_shard_grants,
            "cross_shard_rollbacks": self.cross_shard_rollbacks,
            "cross_shard_reclaimed": self.cross_shard_reclaimed,
            "cross_shard_active": len(self._fed_leases),
            "shard_down_errors": self.shard_down_errors,
        }

    def shards(
        self, params: ShardsParams | None = None
    ) -> dict[str, Any]:
        """The ``shards`` verb: per-shard aggregates, scores, liveness."""
        held = self._held_nodes()
        quarantined = self._quarantined()
        try:
            plist: PartitionedLoadState | None = self._partitioned()
        except ProtocolError:
            plist = None  # stale monitor: still answer with liveness
        rows = []
        for sid, shard in self._shards.items():
            row: dict[str, Any] = {
                "shard": sid,
                "alive": shard.alive,
                "active_leases": len(shard.service.leases.active()),
            }
            if plist is not None:
                agg = plist.aggregate(
                    sid, held=held, quarantined=quarantined
                )
                row.update(agg.as_dict())
                row["score"] = self._score(agg, SHARDS_ALPHA)
            rows.append(row)
        return {
            "shards": rows,
            "cross_shard_leases": len(self._fed_leases),
            "counters": self._counters(),
        }

    def resolve(self, params: ResolveParams) -> dict[str, Any]:
        """The ``resolve`` verb: which shard owns a lease id."""
        lease_id = params.lease_id
        members = self._fed_leases.get(lease_id)
        if members is not None:
            return {
                "lease_id": lease_id,
                "cross_shard": True,
                "active": True,
                "members": [
                    {"shard": sid, "lease_id": member_id}
                    for sid, member_id in members
                ],
            }
        sid, sep, _ = lease_id.partition(":")
        if sep and sid in self._shards:
            shard = self._shards[sid]
            return {
                "lease_id": lease_id,
                "cross_shard": False,
                "shard": sid,
                "alive": shard.alive,
                "active": shard.alive
                and shard.service.leases.get(lease_id) is not None,
            }
        raise ProtocolError(
            ErrorCode.UNKNOWN_LEASE,
            f"lease {lease_id!r} is not owned by any federation shard",
        )

    def status(self, params: StatusParams | None = None) -> dict[str, Any]:
        """The ``status`` RPC result, shaped like a single broker's."""
        now = self._clock()
        per_shard: dict[str, Any] = {}
        total_active = 0
        total_held = 0
        for sid, shard in self._shards.items():
            active = len(shard.service.leases.active())
            held = len(shard.service.leases.held_nodes())
            total_active += active
            total_held += held
            metrics = shard.service.metrics
            per_shard[sid] = {
                "alive": shard.alive,
                "active_leases": active,
                "nodes_held": held,
                "n_nodes": len(self.partition[sid]),
                # per-shard outcomes of the reconfigure verb
                "reconfigured": metrics.reconfigured,
                "reconfig_rejected": metrics.reconfig_rejected,
            }
        return {
            "protocol_version": PROTOCOL_VERSION,
            "uptime_s": max(0.0, now - self._started_at),
            "policy": "federated",
            "leases": {
                "active": total_active,
                "nodes_held": total_held,
                "cross_shard": len(self._fed_leases),
            },
            "metrics": self.metrics.snapshot(),
            "federation": {
                "shards": per_shard,
                "counters": self._counters(),
            },
        }


def build_federation(
    snapshot_source: Callable[[], ClusterSnapshot],
    partition: Mapping[str, tuple[str, ...]],
    *,
    clock: Callable[[], float] = time.monotonic,
    commit_hook: Callable[[str], None] | None = None,
    **service_kwargs: Any,
) -> FederationRouter:
    """Wire a full federation: scoped sources, namespaced shard services.

    Each shard gets a :class:`ShardSnapshotSource` over the parent
    source (the fleet snapshot itself, scoped to the shard's nodes) and
    a :class:`BrokerService` whose lease table is namespaced with the
    shard id.  ``service_kwargs`` go to every shard service verbatim,
    so a ``quarantine`` is one detector shared by every shard.

    Shard services scale the network-load-aware policy's Algorithm-1
    prune threshold by 1/N (unless the caller supplies their own
    ``policy_overrides``): a shard holds ~1/N of the fleet, so dividing
    the threshold preserves the fleet broker's behaviour exactly — the
    federation prunes if and only if a single broker over the whole
    fleet would, instead of every shard dropping below the absolute
    threshold and paying the exhaustive seed scan the fleet broker
    never runs.
    """
    if "policy_overrides" not in service_kwargs:
        threshold = max(1, PRUNE_THRESHOLD_DEFAULT // max(1, len(partition)))
        service_kwargs["policy_overrides"] = {
            "network_load_aware": NetworkLoadAwarePolicy(
                prune_threshold=threshold, prune_keep=PRUNE_KEEP_DEFAULT
            )
        }
    services = {
        sid: BrokerService(
            ShardSnapshotSource(snapshot_source, nodes),
            clock=clock,
            lease_namespace=f"{sid}:",
            **service_kwargs,
        )
        for sid, nodes in partition.items()
    }
    return FederationRouter(
        snapshot_source,
        partition,
        services,
        clock=clock,
        commit_hook=commit_hook,
    )
