"""Named chaos scenarios: monitor → broker → elastic under injected faults.

Each scenario builds a small simulated cluster whose monitor writes
through a :class:`~repro.chaos.store.ChaoticStore`, fronts it with the
production service stack (``build_snapshot`` →
:class:`CachedSnapshotSource` → :class:`BrokerService` with quarantine
and idempotency armed), schedules faults at exact simulation times, and
drives an allocate/hold/release workload while an
:class:`~repro.chaos.invariants.InvariantChecker` records violations.

Determinism: one integer seed fixes the cluster workload, every fault
target, and every request — a failing scenario replays identically from
``python -m repro chaos --seed N --only <name>``.

The quality oracle is *ground truth*: at each grant we also run the same
policy on an :func:`~repro.monitor.snapshot.oracle_snapshot` (zero
monitoring delay, zero faults) with the same exclusions, and bound the
degraded choice's Equation-4 score against the oracle's — degraded data
may cost quality, but only boundedly so.
"""

from __future__ import annotations

import asyncio
import json
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.broker.client import BrokerClient
from repro.broker.protocol import AllocateParams, ProtocolError
from repro.broker.server import BrokerServer
from repro.broker.service import BrokerService
from repro.chaos.faults import FaultInjector
from repro.chaos.interleave import (
    AtomicViolation,
    atomic_between_awaits,
    no_interleaving,
    run_interleaved,
)
from repro.chaos.invariants import (
    DEFAULT_QUALITY_BOUND,
    InvariantChecker,
)
from repro.chaos.store import (
    ChaoticStore,
    poison_nan,
    poison_negative,
)
from repro.chaos.transport import (
    CLOSE,
    DIE_AFTER_SEND,
    DIE_BEFORE_SEND,
    OK,
    ScriptedSocketFactory,
)
from repro.cluster.topology import uniform_cluster
from repro.core.policies import PAPER_POLICIES, AllocationRequest
from repro.core.weights import TradeOff
from repro.elastic.executor import ReconfigError
from repro.elastic.plan import ReconfigPlan, plan_kind
from repro.experiments.scenario import Scenario
from repro.federation import (
    build_federation,
    snapshot_switches,
    subtree_partition,
)
from repro.monitor.quarantine import NodeQuarantine
from repro.monitor.snapshot import CachedSnapshotSource, oracle_snapshot
from repro.monitor.store import InMemoryStore

#: leases far outlive every scenario, so expiry never confounds the
#: lease-accounting invariant (expiry itself is tier-1-tested elsewhere)
_LEASE_TTL_S = 3500.0


# ----------------------------------------------------------------------
# world building


@dataclass
class ChaosWorld:
    """Everything one scenario drives."""

    scenario: Scenario
    store: ChaoticStore
    source: CachedSnapshotSource
    service: BrokerService
    injector: FaultInjector
    quarantine: NodeQuarantine | None = None
    #: bounded-quality invariant bound this world was calibrated for —
    #: faster-varying regimes (bursty worlds) honestly cost more quality
    #: per second of monitoring staleness than the legacy smooth load
    quality_bound: float = DEFAULT_QUALITY_BOUND

    @property
    def now(self) -> float:
        return self.scenario.engine.now

    def truth(self):
        """Ground-truth snapshot of the cluster, bypassing the monitor."""
        return oracle_snapshot(
            self.scenario.cluster, self.scenario.network, now=self.now
        )


def build_world(
    seed: int,
    *,
    scenario: str | None = None,
    n_nodes: int = 8,
    warmup_s: float = 600.0,
    lkg_max_age_s: float | None = 600.0,
    with_quarantine: bool = False,
    migrate_hook: Callable[[Any], None] | None = None,
) -> ChaosWorld:
    """One fault-injectable world; ``scenario`` swaps in a registered cell.

    ``scenario=None`` keeps the legacy 8-node uniform tree bit-for-bit;
    a registered name (e.g. ``"bursty"`` — fat-tree under arrival
    storms) replays every fault schedule against that cell's topology
    and background regime instead.
    """
    store = ChaoticStore(InMemoryStore())
    quality_bound = DEFAULT_QUALITY_BOUND
    if scenario is None:
        specs, topo = uniform_cluster(n_nodes, nodes_per_switch=4)
        workload_config = None
    else:
        from repro.scenarios import get_scenario

        spec = get_scenario(scenario)
        specs, topo = spec.build_cluster()
        workload_config = spec.workload_config
        quality_bound = spec.chaos_quality_bound
    sc = Scenario.build(
        specs, topo, seed=seed, store=store, workload_config=workload_config
    )
    sc.warm_up(warmup_s)
    clock = lambda: sc.engine.now  # noqa: E731 — the DES clock, injected
    source = CachedSnapshotSource(
        sc.snapshot,
        max_age_s=5.0,
        clock=clock,
        lkg_max_age_s=lkg_max_age_s,
    )
    quarantine = (
        NodeQuarantine(
            clock=clock, flap_threshold=3, window_s=600.0, cooldown_s=900.0
        )
        if with_quarantine
        else None
    )
    service = BrokerService(
        source,
        clock=clock,
        default_ttl_s=_LEASE_TTL_S,
        quarantine=quarantine,
        migrate_hook=migrate_hook,
    )
    injector = FaultInjector(sc, store=store, seed=seed)
    return ChaosWorld(
        sc, store, source, service, injector, quarantine,
        quality_bound=quality_bound,
    )


# ----------------------------------------------------------------------
# the driven workload


@dataclass
class DriveStats:
    """What happened while the workload ran."""

    grants: int = 0
    denials: int = 0
    releases: int = 0
    outstanding: deque = field(default_factory=deque)  # lease_ids
    granted_nodes: list[tuple[float, tuple[str, ...]]] = field(
        default_factory=list
    )


def _allocate(
    world: ChaosWorld,
    checker: InvariantChecker,
    params: AllocateParams,
    label: str,
) -> dict[str, Any] | None:
    """One guarded allocate; denials are typed degradation, not failure."""
    result = checker.guard(
        label, lambda: world.service.allocate_batch([params])[0]
    )
    if result is None:
        return None
    if isinstance(result, ProtocolError):
        checker.stats["typed_errors"] += 1
        checker.error_codes[str(result.code.value)] += 1
        return None
    return result


def drive(
    world: ChaosWorld,
    checker: InvariantChecker,
    *,
    steps: int,
    step_s: float = 30.0,
    n: int = 4,
    ppn: int = 2,
    hold_steps: int = 2,
    check_quality: bool = False,
    quality_bound: float = DEFAULT_QUALITY_BOUND,
) -> DriveStats:
    """Allocate every step, release ``hold_steps`` later, check always."""
    stats = DriveStats()
    request = AllocationRequest(
        n_processes=n, ppn=ppn, tradeoff=TradeOff.from_alpha(0.3)
    )
    oracle_policy = PAPER_POLICIES["network_load_aware"]()
    for step in range(steps):
        world.scenario.advance(step_s)
        params = AllocateParams(
            n_processes=n, ppn=ppn, alpha=0.3, ttl_s=_LEASE_TTL_S
        )
        result = _allocate(world, checker, params, f"allocate@step{step}")
        if result is not None:
            stats.grants += 1
            nodes = tuple(result["nodes"])
            stats.outstanding.append(result["lease_id"])
            stats.granted_nodes.append((world.now, nodes))
            if check_quality:
                held = world.service.leases.held_nodes() - set(nodes)
                oracle = checker.guard(
                    f"oracle@step{step}",
                    lambda: oracle_policy.allocate(
                        world.truth(), request, exclude=held or None
                    ),
                )
                if oracle is not None:
                    # Compose the fault scenario's bound with the
                    # world's calibration: whichever is looser wins.
                    checker.check_quality(
                        chosen=nodes,
                        oracle=oracle.nodes,
                        truth=world.truth(),
                        request=request,
                        bound=max(quality_bound, world.quality_bound),
                        label=f"step{step}",
                    )
        else:
            stats.denials += 1
        if len(stats.outstanding) > hold_steps:
            lease_id = stats.outstanding.popleft()
            released = checker.guard(
                f"release@step{step}",
                lambda: world.service.release(
                    _release_params(lease_id)
                ),
            )
            if released is not None:
                stats.releases += 1
        checker.check_no_double_grant(world.service.leases)
        checker.check_lease_accounting(
            world.service.leases, len(stats.outstanding)
        )
    return stats


def _release_params(lease_id: str):
    from repro.broker.protocol import ReleaseParams

    return ReleaseParams(lease_id=lease_id)


def finish(
    world: ChaosWorld, checker: InvariantChecker, stats: DriveStats
) -> None:
    """Drain outstanding leases and re-check the table is clean."""
    while stats.outstanding:
        lease_id = stats.outstanding.popleft()
        if (
            checker.guard(
                "final_release",
                lambda: world.service.release(_release_params(lease_id)),
            )
            is not None
        ):
            stats.releases += 1
    checker.check_no_double_grant(world.service.leases)
    checker.check_lease_accounting(world.service.leases, 0)


def _require_liveness(
    checker: InvariantChecker, stats: DriveStats, minimum: int
) -> None:
    if stats.grants < minimum:
        checker.violate(
            "liveness",
            f"only {stats.grants} grant(s); expected at least {minimum}",
        )


# ----------------------------------------------------------------------
# reports & registry


@dataclass
class ChaosReport:
    """The outcome of one scenario run."""

    name: str
    seed: int
    checker: InvariantChecker
    stats: dict[str, Any]
    fault_log: list[str]

    @property
    def ok(self) -> bool:
        return self.checker.ok

    def summary(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            **self.checker.summary(),
            "drive": self.stats,
            "faults": self.fault_log,
        }


@dataclass(frozen=True)
class ChaosScenario:
    name: str
    description: str
    #: ``run(seed, world_scenario)`` — the second argument selects a
    #: registered world scenario (None = legacy uniform tree)
    run: Callable[[int, str | None], ChaosReport]
    #: included in the CI smoke trio
    smoke: bool = False


def _report(
    name: str,
    seed: int,
    world: ChaosWorld,
    checker: InvariantChecker,
    stats: DriveStats,
    **extra: Any,
) -> ChaosReport:
    return ChaosReport(
        name=name,
        seed=seed,
        checker=checker,
        stats={
            "grants": stats.grants,
            "denials": stats.denials,
            "releases": stats.releases,
            "store": {
                "corrupt_served": world.store.corrupt_served,
                "missing_served": world.store.missing_served,
                "writes_frozen": world.store.writes_frozen,
                "values_poisoned": world.store.values_poisoned,
                "times_skewed": world.store.times_skewed,
            },
            "snapshot_fallbacks": world.source.fallbacks,
            **extra,
        },
        fault_log=world.injector.plan.describe(),
    )


# ----------------------------------------------------------------------
# scenarios


def scenario_baseline_no_faults(seed: int, scenario: str | None = None) -> ChaosReport:
    """Sanity floor: no faults, every invariant, quality ratio ≈ 1."""
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("baseline_no_faults")
    stats = drive(world, checker, steps=10, check_quality=True)
    finish(world, checker, stats)
    _require_liveness(checker, stats, 8)
    if checker.stats["typed_errors"] > stats.denials:
        checker.violate(
            "liveness", "typed errors occurred in a fault-free run"
        )
    return _report("baseline_no_faults", seed, world, checker, stats)


def scenario_daemon_crash_storm(seed: int, scenario: str | None = None) -> ChaosReport:
    """A third of the NodeStateDs plus LivehostsD and LatencyD crash.

    The Central Monitor pair must restart them; allocations must keep
    flowing off stale-but-present records in the meantime.
    """
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("daemon_crash_storm")
    mon = world.scenario.monitoring
    assert mon is not None
    t0 = world.now
    victims = world.injector.pick_nodes(3)
    for i, node in enumerate(victims):
        world.injector.crash_daemon(
            mon.nodestate[node], t0 + 30.0 + 10.0 * i, f"nodestate/{node}"
        )
    world.injector.crash_daemon(mon.livehosts[0], t0 + 45.0, "livehostsd/0")
    world.injector.crash_daemon(mon.latencyd, t0 + 60.0, "latencyd")
    stats = drive(world, checker, steps=12, check_quality=True)
    finish(world, checker, stats)
    _require_liveness(checker, stats, 10)
    if not any(
        d.alive for d in (mon.latencyd, *mon.livehosts)
    ):  # pragma: no cover — supervision failure
        checker.violate("recovery", "central monitor never restarted daemons")
    return _report("daemon_crash_storm", seed, world, checker, stats)


def scenario_stale_monitor(seed: int, scenario: str | None = None) -> ChaosReport:
    """Staleness storm: node-state writes freeze for five minutes.

    Records stay present but stop refreshing — the classic stale-NFS
    failure.  Allocations continue on stale data with bounded quality.
    """
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("stale_monitor")
    world.injector.freeze_keys(
        "nodestate/*", world.now + 60.0, duration_s=300.0
    )
    stats = drive(world, checker, steps=14, check_quality=True)
    finish(world, checker, stats)
    _require_liveness(checker, stats, 12)
    if world.store.writes_frozen == 0:
        checker.violate("fault_fired", "freeze rule never intercepted a write")
    return _report("stale_monitor", seed, world, checker, stats)


def scenario_corrupt_store(seed: int, scenario: str | None = None) -> ChaosReport:
    """Torn JSON on two nodes' records plus all latency records.

    Snapshot assembly must skip-and-log the damaged keys; the damaged
    nodes must not be chosen while their records are unreadable.
    """
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("corrupt_store")
    victims = world.injector.pick_nodes(2)
    t0 = world.now
    for node in victims:
        world.injector.corrupt_keys(
            f"nodestate/{node}", t0 + 60.0, duration_s=240.0
        )
    world.injector.corrupt_keys("latency/*", t0 + 90.0, duration_s=120.0)
    # This scenario blinds the allocator hardest (two nodes' records AND
    # all latencies gone), so the quality leash is one notch looser.
    stats = drive(
        world, checker, steps=14, check_quality=True, quality_bound=4.0
    )
    finish(world, checker, stats)
    _require_liveness(checker, stats, 12)
    if world.store.corrupt_served == 0:
        checker.violate("fault_fired", "corrupt rule never served a read")
    window = (t0 + 70.0, t0 + 290.0)
    for at, nodes in stats.granted_nodes:
        if window[0] <= at <= window[1]:
            chosen_victims = set(nodes) & set(victims)
            if chosen_victims:
                checker.violate(
                    "degraded_exclusion",
                    f"grant at t={at:.0f}s used corrupt-record node(s) "
                    f"{sorted(chosen_victims)}",
                )
    return _report("corrupt_store", seed, world, checker, stats)


def scenario_poisoned_records(seed: int, scenario: str | None = None) -> ChaosReport:
    """Silent data corruption: NaN and negative values in node records.

    Snapshot validation must reject the records (never letting NaN reach
    Eq. 1–4) and the poisoned nodes must drop out of placement.
    """
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("poisoned_records")
    nan_node, neg_node = world.injector.pick_nodes(2)
    t0 = world.now
    world.injector.poison_keys(
        f"nodestate/{nan_node}", poison_nan, t0 + 60.0, duration_s=240.0
    )
    world.injector.poison_keys(
        f"nodestate/{neg_node}", poison_negative, t0 + 60.0, duration_s=240.0
    )
    stats = drive(world, checker, steps=14, check_quality=True)
    finish(world, checker, stats)
    _require_liveness(checker, stats, 12)
    if world.store.values_poisoned == 0:
        checker.violate("fault_fired", "poison rule never mutated a read")
    window = (t0 + 70.0, t0 + 290.0)
    for at, nodes in stats.granted_nodes:
        if window[0] <= at <= window[1]:
            bad = set(nodes) & {nan_node, neg_node}
            if bad:
                checker.violate(
                    "degraded_exclusion",
                    f"grant at t={at:.0f}s placed on poisoned node(s) "
                    f"{sorted(bad)}",
                )
    return _report("poisoned_records", seed, world, checker, stats)


def scenario_livehosts_blackout(seed: int, scenario: str | None = None) -> ChaosReport:
    """The livehosts record turns to garbage for four minutes.

    Snapshot assembly falls back to the static member list; allocations
    keep flowing (optimistically assuming nodes up beats refusing all).
    """
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("livehosts_blackout")
    world.injector.corrupt_keys("livehosts", world.now + 60.0, duration_s=240.0)
    stats = drive(world, checker, steps=12, check_quality=True)
    finish(world, checker, stats)
    _require_liveness(checker, stats, 10)
    if world.store.corrupt_served == 0:
        checker.violate("fault_fired", "livehosts corruption never read")
    return _report("livehosts_blackout", seed, world, checker, stats)


def scenario_node_flapping(seed: int, scenario: str | None = None) -> ChaosReport:
    """One host bounces up/down; quarantine must stop placements on it."""
    world = build_world(seed, scenario=scenario, with_quarantine=True)
    checker = InvariantChecker("node_flapping")
    flapper = world.scenario.cluster.names[-1]
    t0 = world.now
    world.injector.flap_node(
        flapper, t0 + 30.0, down_s=50.0, up_s=70.0, cycles=4
    )
    stats = drive(world, checker, steps=24, check_quality=False)
    finish(world, checker, stats)
    _require_liveness(checker, stats, 18)
    quarantine = world.quarantine
    assert quarantine is not None
    if quarantine.quarantines == 0:
        checker.violate(
            "quarantine", f"{flapper} flapped 4× but never tripped quarantine"
        )
    else:
        # The third down-phase starts at t0+270 and is observed within a
        # couple of monitor/allocate cycles; by t0+450 the quarantine is
        # certainly armed, and its 900 s cooldown outlasts the run — so
        # no grant after that point may touch the flapper, even when the
        # node happens to be up.
        for at, nodes in stats.granted_nodes:
            if at > t0 + 450.0 and flapper in nodes:
                checker.violate(
                    "quarantine",
                    f"grant at t={at:.0f}s placed on quarantined flapper "
                    f"{flapper!r}",
                )
    return _report(
        "node_flapping",
        seed,
        world,
        checker,
        stats,
        quarantine=quarantine.stats() if quarantine else None,
    )


def scenario_snapshot_outage(seed: int, scenario: str | None = None) -> ChaosReport:
    """Every store key unreadable: LKG fallback, then typed denial, then
    recovery — the full degradation ladder in one run."""
    world = build_world(seed, scenario=scenario, lkg_max_age_s=120.0)
    checker = InvariantChecker("snapshot_outage")
    t0 = world.now
    world.injector.corrupt_keys("*", t0 + 150.0, duration_s=300.0)
    stats = drive(world, checker, steps=20, check_quality=False)
    finish(world, checker, stats)
    if world.source.fallbacks == 0:
        checker.violate(
            "degradation_ladder", "LKG fallback never engaged during outage"
        )
    if checker.error_codes.get("MONITOR_STALE", 0) == 0:
        checker.violate(
            "degradation_ladder",
            "no MONITOR_STALE denial after the LKG window expired",
        )
    granted_after_heal = [
        at for at, _ in stats.granted_nodes if at > t0 + 460.0
    ]
    if not granted_after_heal:
        checker.violate("recovery", "no grants after the store healed")
    _require_liveness(checker, stats, 6)
    return _report("snapshot_outage", seed, world, checker, stats)


def scenario_flaky_transport(seed: int, scenario: str | None = None) -> ChaosReport:
    """Connections die before and after the server processes requests.

    The client must retry safely: the post-processing death is the
    double-grant trap, closed by the idempotency token.
    """
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("flaky_transport")
    factory = ScriptedSocketFactory(
        world.service,
        [DIE_AFTER_SEND, OK, DIE_BEFORE_SEND, OK, CLOSE, OK, OK, OK],
    )
    client = BrokerClient(
        socket_factory=factory,
        transport_retries=1,
        backoff_s=0.0,
        connect_retries=2,
        retry_delay_s=0.0,
        rng=random.Random(seed),
        sleep=lambda _s: None,
    )
    world.scenario.advance(30.0)
    metrics = world.service.metrics

    # 1. response lost AFTER the server granted → retry must dedupe
    grant1 = checker.guard("allocate#1", lambda: client.allocate(6, ppn=2))
    if grant1 is None:
        checker.violate("retry", "allocate#1 failed despite one retry")
    if metrics.allocates_deduped != 1:
        checker.violate(
            "idempotency",
            f"expected exactly 1 deduped allocate, saw "
            f"{metrics.allocates_deduped}",
        )
    checker.check_lease_accounting(world.service.leases, 1)
    checker.check_no_double_grant(world.service.leases)

    # 2. connection dies BEFORE the request is sent → plain retry
    grant2 = checker.guard("allocate#2", lambda: client.allocate(4, ppn=2))
    if grant2 is None:
        checker.violate("retry", "allocate#2 failed despite one retry")
    checker.check_lease_accounting(world.service.leases, 2)
    checker.check_no_double_grant(world.service.leases)

    # 3. orderly close with no response → status (read-only) retries
    status = checker.guard("status", client.status)
    if status is None:
        checker.violate("retry", "status failed despite one retry")

    for grant in (grant1, grant2):
        if grant is not None:
            checker.guard(
                "release", lambda g=grant: client.release(g.lease_id)
            )
    checker.check_lease_accounting(world.service.leases, 0)
    client.close()
    stats = DriveStats(
        grants=metrics.granted,
        denials=metrics.denied,
        releases=metrics.released,
    )
    return _report(
        "flaky_transport",
        seed,
        world,
        checker,
        stats,
        client_retries=client.retries_used,
        connections=factory.connections,
        dispatched=factory.dispatched,
    )


def scenario_mid_migration_death(seed: int, scenario: str | None = None) -> ChaosReport:
    """The migration callback dies mid-reconfiguration.

    The two-phase executor must roll back: the job keeps its original
    nodes, the reservation is freed (a follow-up allocate can take those
    nodes), and the retry with a working callback commits cleanly.
    """
    calls = {"n": 0}

    def flaky_migrate(plan: Any) -> None:
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("chaos: checkpoint transfer died")

    world = build_world(seed, scenario=scenario, migrate_hook=flaky_migrate)
    checker = InvariantChecker("mid_migration_death")
    world.scenario.advance(30.0)
    params = AllocateParams(n_processes=4, ppn=2, ttl_s=_LEASE_TTL_S)
    grant = _allocate(world, checker, params, "allocate")
    if grant is None:
        checker.violate("setup", "initial allocate failed")
        return _report(
            "mid_migration_death", seed, world, checker, DriveStats()
        )
    lease_id = grant["lease_id"]
    old_nodes = tuple(grant["nodes"])
    old_procs = {str(k): int(v) for k, v in grant["procs"].items()}

    # Hand-build a migration plan onto disjoint nodes: deterministic,
    # independent of whether the planner would currently bother.
    free = [
        n
        for n in world.scenario.cluster.names
        if n not in world.service.leases.held_nodes()
    ]
    new_nodes = tuple(free[: len(old_nodes)])
    request = AllocationRequest(
        n_processes=4, ppn=2, tradeoff=TradeOff.from_alpha(0.3)
    )
    plan = ReconfigPlan(
        lease_id=lease_id,
        kind=plan_kind(old_nodes, new_nodes),
        old_nodes=old_nodes,
        new_nodes=new_nodes,
        old_procs=old_procs,
        procs={n: 2 for n in new_nodes},
        current_total=1.0,
        proposed_total=0.7,
        predicted_gain=0.3,
        request=request,
        snapshot_time=world.now,
    )
    executor = world.service._executor

    # Attempt 1: migrate dies → RECONFIG_FAILED, rollback, lease intact.
    try:
        executor.apply(plan, migrate=world.service.migrate_hook)
        checker.violate("rollback", "failed migration reported success")
    except ReconfigError as exc:
        if exc.code != "RECONFIG_FAILED":
            checker.violate(
                "rollback", f"expected RECONFIG_FAILED, got {exc.code}"
            )
        checker.stats["typed_errors"] += 1
        checker.error_codes[exc.code] += 1
    except Exception as exc:  # noqa: BLE001 — the invariant under test is "typed errors only"; any other type IS the violation being recorded
        checker.violate(
            "no_unhandled_exception", f"{type(exc).__name__}: {exc}"
        )
    lease = world.service.leases.get(lease_id)
    if lease is None or set(lease.nodes) != set(old_nodes):
        checker.violate(
            "rollback",
            f"lease nodes changed after failed migration: "
            f"{None if lease is None else sorted(lease.nodes)}",
        )
    checker.check_lease_accounting(world.service.leases, 1)
    checker.check_no_double_grant(world.service.leases)
    if executor.rollbacks != 1:
        checker.violate(
            "rollback", f"executor rollbacks={executor.rollbacks}, expected 1"
        )

    # The reservation must be gone: the target nodes are allocatable.
    probe = checker.guard(
        "reservation_freed",
        lambda: world.service.leases.grant(
            new_nodes, {n: 1 for n in new_nodes}, ttl_s=60.0, policy="probe"
        ),
    )
    if probe is None:
        checker.violate(
            "rollback",
            f"reservation leaked: {sorted(new_nodes)} not allocatable "
            "after rollback",
        )
    else:
        world.service.leases.release(probe.lease_id)

    # Attempt 2: migrate succeeds → committed swap onto the new nodes.
    try:
        swapped = executor.apply(plan, migrate=world.service.migrate_hook)
        if set(swapped.nodes) != set(new_nodes):
            checker.violate(
                "commit",
                f"post-swap nodes {sorted(swapped.nodes)} != plan "
                f"{sorted(new_nodes)}",
            )
    except Exception as exc:  # noqa: BLE001 — any failure here, typed or not, is a commit-path violation; the scenario must keep driving to check accounting
        checker.violate(
            "commit", f"retried migration failed: {type(exc).__name__}: {exc}"
        )
    checker.check_lease_accounting(world.service.leases, 1)
    checker.check_no_double_grant(world.service.leases)
    checker.guard(
        "final_release",
        lambda: world.service.release(_release_params(lease_id)),
    )
    checker.check_lease_accounting(world.service.leases, 0)
    stats = DriveStats(grants=1, releases=1)
    return _report(
        "mid_migration_death",
        seed,
        world,
        checker,
        stats,
        migrate_calls=calls["n"],
        executor={
            "attempts": executor.attempts,
            "commits": executor.commits,
            "rollbacks": executor.rollbacks,
        },
    )


def scenario_shard_death_cross_reserve(seed: int, scenario: str | None = None) -> ChaosReport:
    """A shard dies between cross-shard reserve and commit.

    The federation router must roll the transaction back: surviving
    shards keep **zero** reservation leases, the caller sees a typed
    ``SHARD_DOWN`` denial (never a hang or a raw exception), and after
    the shard is re-admitted the same request commits across both
    subtrees.
    """
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("shard_death_cross_reserve")
    world.scenario.advance(30.0)

    # 8 nodes / 4 per switch → two switch subtrees → two shards.
    partition = subtree_partition(snapshot_switches(world.source()), 2)
    killed: list[str] = []

    def die_at_commit(sid: str) -> None:
        # First commit call: the *other* shard's process dies, so the
        # in-flight transaction loses a member it already reserved.
        if not killed:
            victim = next(s for s in router.shard_ids if s != sid)
            router.kill(victim)
            killed.append(victim)

    router = build_federation(
        world.source,
        partition,
        clock=lambda: world.now,
        commit_hook=die_at_commit,
        default_ttl_s=_LEASE_TTL_S,
    )

    def fed_allocate(
        params: AllocateParams, label: str
    ) -> dict[str, Any] | None:
        result = checker.guard(
            label, lambda: router.allocate_batch([params])[0]
        )
        if result is None:
            return None
        if isinstance(result, ProtocolError):
            checker.stats["typed_errors"] += 1
            checker.error_codes[str(result.code.value)] += 1
            return None
        return result

    def cross_shard_n() -> int:
        """A process count no single shard can host but the fleet can.

        Sized from the router's own aggregates (the ``shards`` verb):
        bigger than the freest shard, comfortably under the fleet
        total, whatever load the warmup left behind.
        """
        frees = sorted(
            row["free_procs"] for row in router.shards()["shards"]
        )
        return frees[-1] + max(2, frees[0] // 4)

    stats = DriveStats()

    # Warm-up traffic: single-shard grants routed by the aggregates.
    for step in range(3):
        world.scenario.advance(30.0)
        small = AllocateParams(n_processes=4, ppn=2, ttl_s=_LEASE_TTL_S)
        result = fed_allocate(small, f"allocate@step{step}")
        if result is not None:
            stats.grants += 1
            stats.outstanding.append(result["lease_id"])
    while stats.outstanding:
        lease_id = stats.outstanding.popleft()
        released = checker.guard(
            "warmup_release",
            lambda: router.release(_release_params(lease_id)),
        )
        if released is not None:
            stats.releases += 1

    # The doomed transaction: more processes than either 4-node subtree
    # holds, so the router must reserve on both shards.
    big = AllocateParams(
        n_processes=cross_shard_n(),
        ttl_s=_LEASE_TTL_S,
        token="chaos-fed-1",
    )
    result = fed_allocate(big, "cross_shard_doomed")
    if result is not None:
        checker.violate(
            "rollback", "cross-shard grant succeeded despite shard death"
        )
        stats.grants += 1
    if not killed:
        checker.violate("fault_fired", "commit hook never killed a shard")
    if checker.error_codes["SHARD_DOWN"] != 1:
        checker.violate(
            "typed_errors",
            "expected exactly one SHARD_DOWN denial, saw "
            f"{dict(checker.error_codes)}",
        )
    if router.cross_shard_rollbacks != 1:
        checker.violate(
            "rollback",
            f"cross_shard_rollbacks={router.cross_shard_rollbacks}, "
            "expected 1",
        )
    # Zero leaked leases anywhere: the survivor's reservation was
    # rolled back and the dead shard's table died with its process.
    for sid in router.shard_ids:
        svc = router.shard(sid).service
        checker.check_lease_accounting(svc.leases, 0)
        checker.check_no_double_grant(svc.leases)

    # Recovery: re-admit the shard; the retried transaction commits.
    router.commit_hook = None
    for sid in killed:
        router.revive(sid)
    world.scenario.advance(30.0)
    retry_n = cross_shard_n()
    retry = AllocateParams(
        n_processes=retry_n, ttl_s=_LEASE_TTL_S, token="chaos-fed-2"
    )
    grant = fed_allocate(retry, "cross_shard_retry")
    if grant is None:
        checker.violate("liveness", "cross-shard retry denied after revive")
    else:
        stats.grants += 1
        if len(grant["shards"]) < 2:
            checker.violate(
                "cross_shard",
                f"grant spans {len(grant['shards'])} shard(s), expected ≥2",
            )
        total_procs = sum(int(v) for v in grant["procs"].values())
        if total_procs != retry_n:
            checker.violate(
                "cross_shard",
                f"granted {total_procs} procs, wanted {retry_n}",
            )
        released = checker.guard(
            "fed_release",
            lambda: router.release(_release_params(grant["lease_id"])),
        )
        if released is not None:
            stats.releases += 1
    router.sweep_expired()
    for sid in router.shard_ids:
        svc = router.shard(sid).service
        checker.check_lease_accounting(svc.leases, 0)
        checker.check_no_double_grant(svc.leases)
    _require_liveness(checker, stats, 3)
    return _report(
        "shard_death_cross_reserve",
        seed,
        world,
        checker,
        stats,
        federation={
            "partition": {
                sid: len(router.partition[sid]) for sid in router.shard_ids
            },
            "killed": killed,
            "forwards": router.forwards,
            "spills": router.spills,
            "cross_shard_attempts": router.cross_shard_attempts,
            "cross_shard_grants": router.cross_shard_grants,
            "cross_shard_rollbacks": router.cross_shard_rollbacks,
            "shard_down_errors": router.shard_down_errors,
        },
    )


def scenario_clock_skew(seed: int, scenario: str | None = None) -> ChaosReport:
    """Monitor record timestamps jump 15 minutes forward, then backward.

    Staleness arithmetic must survive negative and huge ages without a
    crash; allocations continue throughout.
    """
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("clock_skew")
    t0 = world.now
    world.injector.skew_keys("nodestate/*", +900.0, t0 + 60.0, duration_s=150.0)
    world.injector.skew_keys("nodestate/*", -900.0, t0 + 240.0, duration_s=150.0)
    stats = drive(world, checker, steps=14, check_quality=True)
    finish(world, checker, stats)
    _require_liveness(checker, stats, 12)
    if world.store.times_skewed == 0:
        checker.violate("fault_fired", "skew rule never touched a read")
    return _report("clock_skew", seed, world, checker, stats)


# ----------------------------------------------------------------------
# interleaving sanitizer scenarios (repro/chaos/interleave.py): the
# dynamic counterpart of the static RACE pass — the same atomicity
# claims, exercised under seed-driven adversarial task schedules


def _wire_request(req_id: str, op: str, params: dict[str, Any]) -> bytes:
    return json.dumps(
        {"v": 1, "id": req_id, "op": op, "params": params}
    ).encode() + b"\n"


def scenario_interleave_pipelined_burst(
    seed: int, scenario: str | None = None
) -> ChaosReport:
    """A pipelined allocate burst under seeded task reordering.

    A real :class:`BrokerServer` serves a burst of pipelined allocates
    over loopback TCP while the fuzzer loop shuffles every ready-queue
    drain.  Whatever schedule the seed produces: every request must be
    answered exactly once, no node may be double-granted, and the lease
    table must account for exactly the grants that were answered.
    """
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("interleave_pipelined_burst")
    n_requests = 12

    async def burst() -> tuple[dict[str, Any], int]:
        server = BrokerServer(world.service, batch_window_s=0.0, max_batch=8)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(_wire_request(
            "hello", "hello",
            {"codec": "json", "pipeline": True, "max_inflight": n_requests},
        ))
        await writer.drain()
        await reader.readline()
        for i in range(n_requests):
            writer.write(_wire_request(
                f"r{i}", "allocate",
                {"n": 2, "ppn": 2, "alpha": 0.3, "ttl_s": _LEASE_TTL_S},
            ))
        await writer.drain()
        responses: dict[str, Any] = {}
        for _ in range(n_requests):
            obj = json.loads(await reader.readline())
            responses[str(obj["id"])] = obj
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        await server.stop()
        loop = asyncio.get_running_loop()
        return responses, getattr(loop, "reorders", 0)

    outcome = checker.guard("burst", lambda: run_interleaved(burst, seed))
    responses: dict[str, Any] = {}
    reorders = 0
    if outcome is not None:
        responses, reorders = outcome
        expected = {f"r{i}" for i in range(n_requests)}
        if set(responses) != expected:
            checker.violate(
                "every_request_answered_once",
                f"ids answered: {sorted(responses)} != {sorted(expected)}",
            )
    grants = sum(1 for r in responses.values() if r.get("ok"))
    if outcome is not None and grants == 0:
        checker.violate("liveness", "burst produced zero grants")
    checker.check_no_double_grant(world.service.leases)
    checker.check_lease_accounting(world.service.leases, grants)
    return ChaosReport(
        name="interleave_pipelined_burst",
        seed=seed,
        checker=checker,
        stats={
            "grants": grants,
            "denials": len(responses) - grants,
            "reorders": reorders,
        },
        fault_log=[f"ready-queue shuffles: {reorders}"],
    )


def scenario_interleave_shutdown_drain(
    seed: int, scenario: str | None = None
) -> ChaosReport:
    """Two concurrent ``stop()`` calls race a live client connection.

    ``stop()`` swaps shared handles out before its first await exactly
    so this schedule is safe; under the fuzzer both stops must return,
    every background task spawned by ``start()`` must be reaped, and
    the task registry must end empty — the pre-fix ``clear()`` variant
    orphans a task here (see ``tests/chaos/test_interleave.py``).
    """
    world = build_world(seed, scenario=scenario)
    checker = InvariantChecker("interleave_shutdown_drain")

    async def drain() -> dict[str, Any]:
        server = BrokerServer(world.service)
        host, port = await server.start()
        spawned = list(server._tasks)

        async def client() -> str:
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(_wire_request(
                    "c0", "allocate",
                    {"n": 2, "ppn": 2, "alpha": 0.3, "ttl_s": _LEASE_TTL_S},
                ))
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                writer.close()
                return "answered" if line else "closed"
            except asyncio.TimeoutError:
                return "timeout"
            except (ConnectionError, OSError):
                return "refused"

        client_fate, stop_a, stop_b = await asyncio.gather(
            client(), server.stop(), server.stop(), return_exceptions=True
        )
        loop = asyncio.get_running_loop()
        return {
            "client": client_fate
            if isinstance(client_fate, str)
            else repr(client_fate),
            "stop_errors": [
                repr(r) for r in (stop_a, stop_b) if isinstance(r, BaseException)
            ],
            "orphans": sum(1 for t in spawned if not t.done()),
            "tasks_left": len(server._tasks),
            "reorders": getattr(loop, "reorders", 0),
        }

    out = checker.guard("drain", lambda: run_interleaved(drain, seed))
    if out is not None:
        if out["stop_errors"]:
            checker.violate(
                "idempotent_stop", f"stop() raised: {out['stop_errors']}"
            )
        if out["orphans"]:
            checker.violate(
                "no_orphaned_tasks",
                f"{out['orphans']} background task(s) never reaped by stop()",
            )
        if out["tasks_left"]:
            checker.violate(
                "task_registry_drained",
                f"{out['tasks_left']} task(s) left registered after stop()",
            )
    checker.check_no_double_grant(world.service.leases)
    return ChaosReport(
        name="interleave_shutdown_drain",
        seed=seed,
        checker=checker,
        stats=dict(out or {}, grants=0),
        fault_log=["concurrent stop()+stop()+client over fuzzer loop"],
    )


def scenario_interleave_atomic_sections(
    seed: int, scenario: str | None = None
) -> ChaosReport:
    """The sanitizer's own teeth, end to end.

    Four claims, each driven on a fuzzer loop: (1) the literal pre-fix
    decision-memo TOCTOU double-computes under interleaving (the fuzzer
    can actually reach the race); (2) the lock-guarded fix computes
    exactly once under the same seed; (3) ``@atomic_between_awaits``
    raises on a section that yields; (4) ``no_interleaving`` raises
    when two tasks overlap inside a marked section.
    """
    del scenario  # no world: this scenario exercises the sanitizer itself
    checker = InvariantChecker("interleave_atomic_sections")

    class Memo:
        """The decision-memo shape: check, await the compute, insert."""

        def __init__(self) -> None:
            self.data: dict[str, int] = {}
            self.computes = 0
            self.lock: asyncio.Lock | None = None

        async def get_racy(self, key: str) -> int:
            if key not in self.data:  # lint: allow(RACE002) — deliberate pre-fix TOCTOU; the scenario asserts the fuzzer reaches it
                await asyncio.sleep(0)
                self.computes += 1
                self.data[key] = self.computes
            return self.data[key]

        async def get_locked(self, key: str) -> int:
            if self.lock is None:
                self.lock = asyncio.Lock()
            async with self.lock:
                if key not in self.data:
                    await asyncio.sleep(0)
                    self.computes += 1
                    self.data[key] = self.computes
            return self.data[key]

    async def racy() -> int:
        memo = Memo()
        await asyncio.gather(*(memo.get_racy("k") for _ in range(4)))
        return memo.computes

    async def locked() -> int:
        memo = Memo()
        await asyncio.gather(*(memo.get_locked("k") for _ in range(4)))
        return memo.computes

    racy_computes = checker.guard("racy", lambda: run_interleaved(racy, seed))
    if racy_computes is not None and racy_computes <= 1:
        checker.violate(
            "fuzzer_reaches_race",
            f"pre-fix TOCTOU memo computed {racy_computes}× — the fuzzer "
            "failed to exercise the known race",
        )
    locked_computes = checker.guard(
        "locked", lambda: run_interleaved(locked, seed)
    )
    if locked_computes is not None and locked_computes != 1:
        checker.violate(
            "lock_fixes_race",
            f"lock-guarded memo computed {locked_computes}× (expected 1)",
        )

    @atomic_between_awaits
    async def yielding_section() -> None:
        await asyncio.sleep(0)  # declared atomic, but yields: must raise

    async def guard_trips() -> bool:
        try:
            await yielding_section()
        except AtomicViolation:
            return True
        return False

    tripped = checker.guard(
        "atomic_guard", lambda: run_interleaved(guard_trips, seed)
    )
    if tripped is not None and not tripped:
        checker.violate(
            "atomic_guard_trips",
            "@atomic_between_awaits let a yielding section pass",
        )

    monitor = object()

    async def overlap() -> int:
        async def section() -> None:
            async with no_interleaving(monitor, "memo-update"):
                await asyncio.sleep(0)

        results = await asyncio.gather(
            section(), section(), return_exceptions=True
        )
        return sum(isinstance(r, AtomicViolation) for r in results)

    caught = checker.guard(
        "no_interleaving", lambda: run_interleaved(overlap, seed)
    )
    if caught is not None and caught == 0:
        checker.violate(
            "overlap_detected",
            "no_interleaving let two tasks overlap inside a marked section",
        )
    return ChaosReport(
        name="interleave_atomic_sections",
        seed=seed,
        checker=checker,
        stats={
            "grants": 0,
            "racy_computes": racy_computes or 0,
            "locked_computes": locked_computes or 0,
            "guard_tripped": bool(tripped),
            "overlaps_caught": caught or 0,
        },
        fault_log=["seeded yield-point fuzzing of sanitizer primitives"],
    )


# ----------------------------------------------------------------------

SCENARIOS: dict[str, ChaosScenario] = {
    s.name: s
    for s in (
        ChaosScenario(
            "baseline_no_faults",
            "fault-free sanity floor for every invariant",
            scenario_baseline_no_faults,
            smoke=True,
        ),
        ChaosScenario(
            "daemon_crash_storm",
            "monitor daemons crash; supervision restarts them",
            scenario_daemon_crash_storm,
        ),
        ChaosScenario(
            "stale_monitor",
            "node-state writes freeze (staleness storm)",
            scenario_stale_monitor,
        ),
        ChaosScenario(
            "corrupt_store",
            "torn JSON in node and latency records",
            scenario_corrupt_store,
            smoke=True,
        ),
        ChaosScenario(
            "poisoned_records",
            "NaN/negative values injected into node records",
            scenario_poisoned_records,
        ),
        ChaosScenario(
            "livehosts_blackout",
            "livehosts record unreadable; fallback to member list",
            scenario_livehosts_blackout,
        ),
        ChaosScenario(
            "node_flapping",
            "a host bounces until quarantine excludes it",
            scenario_node_flapping,
        ),
        ChaosScenario(
            "snapshot_outage",
            "whole store dark: LKG → typed denial → recovery",
            scenario_snapshot_outage,
        ),
        ChaosScenario(
            "flaky_transport",
            "connections die around requests; idempotent retry",
            scenario_flaky_transport,
        ),
        ChaosScenario(
            "mid_migration_death",
            "migration callback dies; two-phase rollback",
            scenario_mid_migration_death,
            smoke=True,
        ),
        ChaosScenario(
            "shard_death_cross_reserve",
            "shard dies mid cross-shard reserve; router rollback",
            scenario_shard_death_cross_reserve,
            smoke=True,
        ),
        ChaosScenario(
            "clock_skew",
            "record timestamps skew ±15 minutes",
            scenario_clock_skew,
        ),
        ChaosScenario(
            "interleave_pipelined_burst",
            "pipelined allocate burst under seeded task reordering",
            scenario_interleave_pipelined_burst,
            smoke=True,
        ),
        ChaosScenario(
            "interleave_shutdown_drain",
            "concurrent stop() calls race a live connection",
            scenario_interleave_shutdown_drain,
            smoke=True,
        ),
        ChaosScenario(
            "interleave_atomic_sections",
            "atomic-section guards tripped and vindicated by the fuzzer",
            scenario_interleave_atomic_sections,
            smoke=True,
        ),
    )
}

#: the fastest scenarios, run per-PR in CI
SMOKE_SCENARIOS: tuple[str, ...] = tuple(
    name for name, s in SCENARIOS.items() if s.smoke
)
