"""SimJob — executes an application model on a placement (BSP pricing).

Per step: every rank's compute work is priced against its host node's
clock frequency and *contention* (background load competing for cores),
the communication phases are priced against the live network, and the BSP
barrier makes the step as slow as its slowest rank.

Contention model: a rank on node ``v`` with background load ``L``,
``c`` cores and ``k`` job ranks sees slowdown

    max(1 + soft · L / c,  (L + k) / c)

— a mild cache/memory/turbo penalty while cores are free, and fair-share
time slicing once runnable processes exceed cores.  This is what makes
loaded nodes slow (the load-aware baselines' concern) while the network
terms make distant/congested groups slow (the paper's addition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.cluster.cluster import Cluster
from repro.net.model import NetworkModel
from repro.simmpi.collectives import allreduce_time_s, alltoall_time_s
from repro.simmpi.costmodel import CommCostConfig, MessageCostModel
from repro.simmpi.placement import Placement
from repro.util.validation import require_non_negative

if TYPE_CHECKING:  # avoid a circular import: apps depend on simmpi types
    from repro.apps.base import AppModel


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of a simulated run."""

    app: str
    n_ranks: int
    nodes: tuple[str, ...]
    total_time_s: float
    compute_time_s: float
    comm_time_s: float
    steps: int
    details: Mapping[str, float] = field(default_factory=dict)

    @property
    def comm_fraction(self) -> float:
        """Share of wall time spent communicating."""
        if self.total_time_s == 0:
            return 0.0
        return self.comm_time_s / self.total_time_s


@dataclass(frozen=True)
class ContentionConfig:
    """Compute-slowdown tunables."""

    #: sub-saturation interference per unit background load per core
    soft_interference: float = 1.0

    def __post_init__(self) -> None:
        require_non_negative(self.soft_interference, "soft_interference")


class SimJob:
    """Prices one application run at the current cluster/network state."""

    def __init__(
        self,
        app: "AppModel",
        placement: Placement,
        cluster: Cluster,
        network: NetworkModel,
        *,
        comm_config: CommCostConfig | None = None,
        contention: ContentionConfig | None = None,
    ) -> None:
        self.app = app
        self.placement = placement
        self.cluster = cluster
        self.network = network
        self._cost = MessageCostModel(network, comm_config)
        self.contention = contention or ContentionConfig()
        for node in placement.nodes:
            if node not in cluster:
                raise KeyError(f"placement uses unknown node {node!r}")

    # ------------------------------------------------------------------
    def rank_slowdown(self, node: str) -> float:
        """Contention slowdown factor for ranks on ``node`` (>= 1)."""
        spec = self.cluster.spec(node)
        state = self.cluster.state(node)
        k = self.placement.procs_per_node()[node]
        load = state.cpu_load
        soft = 1.0 + self.contention.soft_interference * load / spec.cores
        hard = (load + k) / spec.cores
        return max(soft, hard, 1.0)

    def compute_time_s(self, node: str, gcycles: float) -> float:
        """Seconds for one rank on ``node`` to burn ``gcycles``."""
        spec = self.cluster.spec(node)
        return gcycles / spec.frequency_ghz * self.rank_slowdown(node)

    def run(self) -> ExecutionReport:
        """Price the full run at the current instant."""
        placement = self.placement
        # Per-node compute rate is placement-wide constant; cache it.
        per_gcycle: dict[str, float] = {
            node: self.compute_time_s(node, 1.0) for node in placement.nodes
        }
        slowest_node = max(placement.nodes, key=lambda n: per_gcycle[n])

        total_compute = 0.0
        total_comm = 0.0
        steps = 0
        # Schedules repeat the same few demand objects across many blocks
        # (e.g. miniMD's plain/thermo/reneighbor cycle), and cluster state
        # is frozen for the pricing instant — memoize per distinct phase.
        phase_cache: dict[int, float] = {}
        reduce_cache: dict[float, float] = {}
        a2a_cache: dict[float, float] = {}
        for block in self.app.schedule(placement.n_ranks):
            d = block.demand
            compute = d.compute_gcycles * per_gcycle[slowest_node]
            comm = 0.0
            for phase in d.phases:
                key = id(phase)
                if key not in phase_cache:
                    phase_cache[key] = self._cost.phase_time_s(phase, placement)
                comm += phase_cache[key]
            for mb in d.allreduce_mb:
                if mb not in reduce_cache:
                    reduce_cache[mb] = allreduce_time_s(
                        self.network,
                        placement,
                        mb,
                        software_overhead_us=self._cost.config.software_overhead_us,
                    )
                comm += reduce_cache[mb]
            for mb in d.alltoall_mb:
                if mb not in a2a_cache:
                    a2a_cache[mb] = alltoall_time_s(
                        self.network,
                        placement,
                        mb,
                        software_overhead_us=self._cost.config.software_overhead_us,
                    )
                comm += a2a_cache[mb]
            total_compute += compute * block.count
            total_comm += comm * block.count
            steps += block.count
        return ExecutionReport(
            app=self.app.name,
            n_ranks=placement.n_ranks,
            nodes=tuple(placement.nodes),
            total_time_s=total_compute + total_comm,
            compute_time_s=total_compute,
            comm_time_s=total_comm,
            steps=steps,
            details={
                "slowest_node_gcycle_s": per_gcycle[slowest_node],
                "max_slowdown": max(
                    self.rank_slowdown(n) for n in placement.nodes
                ),
            },
        )
