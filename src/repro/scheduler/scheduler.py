"""ClusterScheduler — serving a stream of MPI jobs through the broker.

Each arriving job is allocated by the configured policy against the
*current* monitor snapshot, priced by the BSP execution model against the
current ground truth (including earlier jobs' load and traffic), and then
occupies its nodes for the priced duration:

* its ranks register as external CPU load on every allocated node (so the
  monitor and the contention model see them);
* a ring of traffic flows among its nodes stands in for its sustained
  halo exchanges (so later jobs route around it).

With ``exclusive_nodes=True`` (default) a node hosts at most one
scheduled job at a time — the usual space-sharing discipline; requests
that don't fit wait FIFO until departures free capacity.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.policies import (
    AllocationError,
    AllocationPolicy,
    AllocationRequest,
    NetworkLoadAwarePolicy,
)
from repro.core.weights import TradeOff
from repro.des.engine import Engine, Event
from repro.monitor.snapshot import ClusterSnapshot
from repro.net.flows import Flow
from repro.net.model import NetworkModel
from repro.scheduler.queue import JobRequest, ScheduledJob, SchedulerStats
from repro.simmpi.job import SimJob
from repro.simmpi.placement import Placement
from repro.workload.generator import BackgroundWorkload


class ClusterScheduler:
    """FIFO scheduler placing each job with an allocation policy."""

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
    ) -> None:
        if job_flow_mbs < 0:
            raise ValueError(f"job_flow_mbs must be non-negative: {job_flow_mbs}")
        self.engine = engine
        self.workload = workload
        self.cluster = workload.cluster
        self.network = network
        self._snapshot_source = snapshot_source
        self.policy = policy or NetworkLoadAwarePolicy()
        self._rng = rng
        self.exclusive_nodes = exclusive_nodes
        self.job_flow_mbs = job_flow_mbs

        self.jobs: list[ScheduledJob] = []
        self._pending: list[ScheduledJob] = []
        self._running: dict[int, ScheduledJob] = {}
        self._busy_nodes: set[str] = set()
        self._job_flows: dict[int, list[Flow]] = {}
        #: finish-event handle per running job, so subclasses (elastic
        #: reconfiguration) can cancel and reschedule completions
        self._finish_events: dict[int, Event] = {}

    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> ScheduledJob:
        """Register a job; it is considered at its ``submit_time``."""
        total_cores = self.cluster.total_cores()
        if request.n_processes > 4 * total_cores:
            raise AllocationError(
                f"job {request.job_id} wants {request.n_processes} processes "
                f"on a {total_cores}-core cluster — never satisfiable"
            )
        job = ScheduledJob(request=request)
        self.jobs.append(job)
        at = max(request.submit_time, self.engine.now)
        self.engine.schedule_at(at, lambda: self._enqueue(job))
        return job

    def _enqueue(self, job: ScheduledJob) -> None:
        self._pending.append(job)
        self._try_start()

    # ------------------------------------------------------------------
    def _try_start(self) -> None:
        """Start pending jobs (FIFO) while allocations succeed."""
        while self._pending:
            job = self._pending[0]
            if not self._start(job):
                return  # head of queue blocked: stay FIFO
            self._pending.pop(0)

    def _start(self, job: ScheduledJob) -> bool:
        req = job.request
        snapshot = self._snapshot_source()
        # Busy nodes are masked out via the policies' exclude parameter —
        # rebuilding a filtered snapshot would copy all O(V²) pair maps
        # per job, and would defeat the snapshot-keyed LoadState cache.
        exclude = (
            frozenset(self._busy_nodes)
            if self.exclusive_nodes and self._busy_nodes
            else None
        )
        request = AllocationRequest(
            n_processes=req.n_processes,
            ppn=req.ppn,
            tradeoff=req.app.recommended_tradeoff(),
        )
        try:
            allocation = self.policy.allocate(
                snapshot, request, rng=self._rng, exclude=exclude
            )
        except AllocationError:
            return False
        if self.exclusive_nodes:
            needed = request.nodes_needed
            if needed is not None and allocation.n_nodes < needed:
                return False  # not enough free nodes: wait for departures

        placement = Placement.from_allocation(allocation)
        report = SimJob(
            req.app, placement, self.cluster, self.network
        ).run()

        job.allocation = allocation
        job.start_time = self.engine.now
        job.execution_time_s = report.total_time_s
        self._running[req.job_id] = job
        self._occupy(job, placement)
        self._finish_events[req.job_id] = self.engine.schedule(
            report.total_time_s, lambda: self._finish(job)
        )
        self._on_started(job, report.total_time_s)
        return True

    def _on_started(self, job: ScheduledJob, priced_time_s: float) -> None:
        """Hook for subclasses; called after a job starts occupying nodes."""

    # ------------------------------------------------------------------
    def _occupy(self, job: ScheduledJob, placement: Placement) -> None:
        assert job.allocation is not None
        for node, count in placement.procs_per_node().items():
            self.workload.add_external_load(node, float(count))
        nodes = job.allocation.nodes
        flows: list[Flow] = []
        if self.job_flow_mbs > 0 and len(nodes) > 1:
            for a, b in zip(nodes, nodes[1:] + nodes[:1]):
                if a != b:
                    flows.append(
                        self.network.add_flow(
                            Flow(
                                src=a,
                                dst=b,
                                demand_mbs=self.job_flow_mbs,
                                tag=f"sched_job:{job.request.job_id}",
                            )
                        )
                    )
        self._job_flows[job.request.job_id] = flows
        if self.exclusive_nodes:
            self._busy_nodes.update(nodes)

    def _vacate(self, job: ScheduledJob) -> None:
        """Remove a job's load, traffic and node holds (not its record)."""
        assert job.allocation is not None
        placement = Placement.from_allocation(job.allocation)
        for node, count in placement.procs_per_node().items():
            self.workload.add_external_load(node, -float(count))
        for flow in self._job_flows.pop(job.request.job_id, []):
            if flow in self.network.flows:
                self.network.remove_flow(flow)
        if self.exclusive_nodes:
            self._busy_nodes.difference_update(job.allocation.nodes)

    def _finish(self, job: ScheduledJob) -> None:
        job.finish_time = self.engine.now
        self._vacate(job)
        self._finish_events.pop(job.request.job_id, None)
        del self._running[job.request.job_id]
        self._on_finished(job)
        self._try_start()

    def _on_finished(self, job: ScheduledJob) -> None:
        """Hook for subclasses; called after a job released its nodes."""

    # ------------------------------------------------------------------
    @property
    def running(self) -> list[ScheduledJob]:
        return list(self._running.values())

    @property
    def pending(self) -> list[ScheduledJob]:
        return list(self._pending)

    def drain(self, max_s: float = 7 * 24 * 3600.0) -> SchedulerStats:
        """Run the engine until every submitted job finished."""
        deadline = self.engine.now + max_s

        def outstanding() -> bool:
            return any(not j.done for j in self.jobs)

        while outstanding() and self.engine.now < deadline:
            if not self.engine.step():
                break
        if outstanding():
            raise RuntimeError(
                f"jobs still outstanding after {max_s} simulated seconds"
            )
        return SchedulerStats.from_jobs(self.jobs)


