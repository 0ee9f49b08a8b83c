"""Malleable jobs in the DES — repricing, drift, and live migration.

The stock :class:`~repro.scheduler.scheduler.ClusterScheduler` freezes a
job's execution time at allocation instant: whatever the BSP model
priced then is when the finish event fires, however much the ambient
load drifts afterwards.  That is exactly the blind spot the elastic
engine exists for — so this module first makes *running* jobs feel
drift, then (optionally) lets them escape it:

* :class:`MalleableClusterScheduler` re-prices every running job each
  ``reprice_period_s`` against *current* ground truth: progress so far
  is banked as a work fraction (``done += elapsed / T_current``) and the
  finish event moves to ``now + (1 − done) · T_new``.  A job whose nodes
  got busy slows down mid-flight; one whose nodes cleared speeds up.
* With ``reconfigure=True`` it additionally runs the full elastic loop
  per tick: feed the snapshot to the drift monitor, replan drifting
  jobs, gate each plan on exactly-priced benefit vs. migration cost, and
  apply accepted plans through a real :class:`LeaseTable` via the
  two-phase executor.  A successful migration moves the job's load and
  ring traffic to the new nodes and pays the migration time as a dead
  delay; an (injectable) failed migration rolls back and the job
  continues untouched where it was.

The static baseline for the drifting-load experiment is this same class
with ``reconfigure=False`` — identical repricing dynamics, no escape —
so the comparison isolates reconfiguration itself.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.policies import AllocationPolicy, AllocationRequest
from repro.des.engine import Engine
from repro.elastic.cost import MigrationCostConfig, NetworkMigrationCost
from repro.elastic.drift import DriftPolicy, LoadDriftMonitor
from repro.elastic.executor import (
    MigrationFailure,
    ReconfigError,
    TwoPhaseExecutor,
)
from repro.elastic.gate import GateConfig, GateDecision, PlanGate
from repro.elastic.plan import ReconfigPlan, ReconfigPlanner
from repro.monitor.snapshot import ClusterSnapshot
from repro.net.model import NetworkModel
from repro.scheduler.leases import LeaseError, LeaseTable
from repro.scheduler.queue import ScheduledJob
from repro.scheduler.scheduler import ClusterScheduler
from repro.simmpi.job import SimJob
from repro.simmpi.placement import Placement
from repro.workload.generator import BackgroundWorkload

#: effectively-infinite lease TTL for simulated jobs (renewed each tick
#: anyway; expiry semantics are exercised by the broker tests)
_SIM_LEASE_TTL_S = 1.0e7


class MalleableClusterScheduler(ClusterScheduler):
    """FIFO scheduler whose running jobs are repriced — and movable."""

    def __init__(
        self,
        engine: Engine,
        workload: BackgroundWorkload,
        network: NetworkModel,
        snapshot_source: Callable[[], ClusterSnapshot],
        *,
        policy: AllocationPolicy | None = None,
        rng: np.random.Generator | None = None,
        exclusive_nodes: bool = True,
        job_flow_mbs: float = 8.0,
        reprice_period_s: float = 30.0,
        reconfigure: bool = False,
        planner: ReconfigPlanner | None = None,
        drift_policy: DriftPolicy | None = None,
        gate_config: GateConfig | None = None,
        cost_config: MigrationCostConfig | None = None,
        migration_failure_rate: float = 0.0,
        failure_rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            engine,
            workload,
            network,
            snapshot_source,
            policy=policy,
            rng=rng,
            exclusive_nodes=exclusive_nodes,
            job_flow_mbs=job_flow_mbs,
        )
        if reprice_period_s <= 0:
            raise ValueError(
                f"reprice_period_s must be positive, got {reprice_period_s}"
            )
        if not 0.0 <= migration_failure_rate <= 1.0:
            raise ValueError(
                "migration_failure_rate must be in [0, 1], got "
                f"{migration_failure_rate}"
            )
        self.reprice_period_s = float(reprice_period_s)
        self.reconfigure = reconfigure
        self.migration_failure_rate = float(migration_failure_rate)
        self._failure_rng = (
            failure_rng
            if failure_rng is not None
            else np.random.default_rng(0xE1A57)
        )

        self.cost_model = NetworkMigrationCost(network, cost_config)
        self.planner = planner or ReconfigPlanner()
        self.gate = PlanGate(self.cost_model, gate_config)
        self.drift_monitor = LoadDriftMonitor(drift_policy)
        self.leases = LeaseTable(
            clock=lambda: self.engine.now,
            default_ttl_s=_SIM_LEASE_TTL_S,
            max_ttl_s=_SIM_LEASE_TTL_S,
        )
        self.executor = TwoPhaseExecutor(
            self.leases, reserve_ttl_s=_SIM_LEASE_TTL_S
        )

        #: work fraction completed per running job id
        self._done: dict[int, float] = {}
        #: sim time the fraction was last banked at
        self._marks: dict[int, float] = {}
        #: current full-run execution time estimate per running job id
        self._exec_T: dict[int, float] = {}
        self._lease_ids: dict[int, str] = {}
        #: reconfiguration history: dicts with time/job_id/kind/outcome/…
        self.reconfig_events: list[dict] = []
        self._ticker = engine.every(self.reprice_period_s, self._tick)

    # -- lifecycle hooks -----------------------------------------------
    def _on_started(self, job: ScheduledJob, priced_time_s: float) -> None:
        assert job.allocation is not None
        jid = job.request.job_id
        self._done[jid] = 0.0
        self._marks[jid] = self.engine.now
        self._exec_T[jid] = max(priced_time_s, 1e-9)
        lease = self.leases.grant(
            job.allocation.nodes,
            job.allocation.procs,
            policy=job.allocation.policy,
            ppn=job.request.ppn,
        )
        self._lease_ids[jid] = lease.lease_id

    def _on_finished(self, job: ScheduledJob) -> None:
        jid = job.request.job_id
        self._done.pop(jid, None)
        self._marks.pop(jid, None)
        self._exec_T.pop(jid, None)
        lease_id = self._lease_ids.pop(jid, None)
        if lease_id is not None:
            self.gate.forget(lease_id)
            try:
                self.leases.release(lease_id)
            except LeaseError:
                pass  # lease already lapsed; nothing held either way
        # actual wall occupancy, not the allocation-time estimate
        assert job.start_time is not None and job.finish_time is not None
        job.execution_time_s = job.finish_time - job.start_time

    # -- progress accounting -------------------------------------------
    def _bank_progress(self, jid: int, now: float) -> None:
        """Convert elapsed time since the last mark into work fraction.

        A mark in the future means the job is paused mid-migration; no
        progress accrues and the mark stays put until the pause elapses.
        """
        elapsed = now - self._marks[jid]
        if elapsed <= 0:
            return
        self._done[jid] = min(
            1.0, self._done[jid] + elapsed / self._exec_T[jid]
        )
        self._marks[jid] = now

    def _pause_left_s(self, jid: int, now: float) -> float:
        """Seconds of migration dead time still ahead of ``now``."""
        return max(self._marks[jid] - now, 0.0)

    def _reschedule_finish(self, job: ScheduledJob, delay_s: float) -> None:
        jid = job.request.job_id
        old = self._finish_events.get(jid)
        if old is not None:
            old.cancel()
        self._finish_events[jid] = self.engine.schedule(
            max(delay_s, 0.0), lambda: self._finish(job)
        )

    def _price_placement(self, job: ScheduledJob, placement: Placement) -> float:
        """Full-run time for ``job`` on ``placement``, excluding itself.

        The job's own external load and ring flows are already installed
        while it runs; pricing with them present would double-count the
        job against itself (its ranks appear both as the placement and as
        background load).  Callers vacate first, price, then re-occupy.
        """
        report = SimJob(
            job.request.app, placement, self.cluster, self.network
        ).run()
        return max(report.total_time_s, 1e-9)

    # -- the periodic elastic tick -------------------------------------
    def _tick(self) -> None:
        if not self._running:
            return
        now = self.engine.now
        for jid in sorted(self._running):
            self._reprice(self._running[jid], now)
        if not self.reconfigure:
            return
        snapshot = self._snapshot_source()
        self.drift_monitor.observe_snapshot(snapshot)
        for jid in sorted(self._running):
            job = self._running.get(jid)
            if job is not None:
                self._consider_reconfig(job, snapshot)

    def _reprice(self, job: ScheduledJob, now: float) -> None:
        """Update one job's remaining time to current ground truth."""
        assert job.allocation is not None
        jid = job.request.job_id
        self._bank_progress(jid, now)
        placement = Placement.from_allocation(job.allocation)
        self._vacate(job)
        new_T = self._price_placement(job, placement)
        self._occupy(job, placement)
        self._exec_T[jid] = new_T
        remaining = (1.0 - self._done[jid]) * new_T + self._pause_left_s(
            jid, now
        )
        self._reschedule_finish(job, remaining)
        self.leases.renew(self._lease_ids[jid])

    # -- reconfiguration -----------------------------------------------
    def _consider_reconfig(
        self, job: ScheduledJob, snapshot: ClusterSnapshot
    ) -> None:
        assert job.allocation is not None
        jid = job.request.job_id
        lease_id = self._lease_ids[jid]
        verdict = self.drift_monitor.verdict(
            job.allocation.nodes, snapshot.time
        )
        if not verdict.triggered:
            return
        request = AllocationRequest(
            n_processes=job.request.n_processes,
            ppn=job.request.ppn,
            tradeoff=job.request.app.recommended_tradeoff(),
        )
        exclude = (
            frozenset(self._busy_nodes) if self.exclusive_nodes else None
        )
        plan = self.planner.propose(
            snapshot,
            lease_id=lease_id,
            nodes=job.allocation.nodes,
            procs=job.allocation.procs,
            request=request,
            exclude=exclude,
        )
        if plan is None:
            return

        now = self.engine.now
        self._bank_progress(jid, now)
        frac_left = 1.0 - self._done[jid]
        pause_left = self._pause_left_s(jid, now)
        old_placement = Placement.from_allocation(job.allocation)
        new_allocation = plan.allocation()
        new_placement = Placement.from_allocation(new_allocation)

        # Price both placements with the job's own footprint lifted, so
        # the benefit is an apples-to-apples ground-truth delta.
        self._vacate(job)
        cur_T = self._price_placement(job, old_placement)
        new_T = self._price_placement(job, new_placement)
        cost_s = self.cost_model.migration_cost_s(plan)
        remaining_cur = frac_left * cur_T + pause_left
        remaining_new = frac_left * new_T + cost_s + pause_left
        decision = self.gate.evaluate(
            plan,
            remaining_s=remaining_cur,
            now=now,
            benefit_s=remaining_cur - remaining_new,
        )
        if not decision:
            self._occupy(job, old_placement)
            self._exec_T[jid] = cur_T
            self._reschedule_finish(job, remaining_cur)
            return

        try:
            self.executor.apply(plan, migrate=self._maybe_fail)
        except ReconfigError as err:
            # Rolled back: the job continues exactly where it was.
            self._occupy(job, old_placement)
            self._exec_T[jid] = cur_T
            self._reschedule_finish(job, remaining_cur)
            self._record(plan, now, "failed", decision, error=err.code)
            return

        job.allocation = new_allocation
        self._occupy(job, new_placement)
        self._exec_T[jid] = new_T
        # The migration itself is dead time before work resumes; the
        # future-dated mark pauses progress until it has passed.
        self._reschedule_finish(job, remaining_new)
        self._marks[jid] = now + pause_left + cost_s
        self._record(plan, now, "committed", decision)

    def _maybe_fail(self, plan: ReconfigPlan) -> None:
        """Migration callback with injectable mid-flight failure."""
        if (
            self.migration_failure_rate > 0
            and self._failure_rng.random() < self.migration_failure_rate
        ):
            raise MigrationFailure(
                f"injected migration failure for lease {plan.lease_id}"
            )

    def _record(
        self,
        plan: ReconfigPlan,
        now: float,
        outcome: str,
        decision: GateDecision,
        *,
        error: str | None = None,
    ) -> None:
        self.reconfig_events.append(
            {
                "time": now,
                "lease_id": plan.lease_id,
                "kind": plan.kind,
                "outcome": outcome,
                "from": list(plan.old_nodes),
                "to": list(plan.new_nodes),
                "predicted_gain": plan.predicted_gain,
                "benefit_s": decision.benefit_s,
                "cost_s": decision.cost_s,
                "error": error,
            }
        )

    # -- observability --------------------------------------------------
    @property
    def reconfig_count(self) -> int:
        """Committed reconfigurations so far."""
        return sum(
            1 for e in self.reconfig_events if e["outcome"] == "committed"
        )

    @property
    def failed_migrations(self) -> int:
        """Migrations that died mid-flight and were rolled back."""
        return sum(
            1 for e in self.reconfig_events if e["outcome"] == "failed"
        )

    def stop(self) -> None:
        """Stop the periodic tick (after drain, for engine reuse)."""
        self._ticker.stop()
