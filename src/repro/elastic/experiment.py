"""Static vs. elastic under drifting load — the subsystem's headline claim.

One seed builds two identical simulated clusters whose background load
*drifts* (slow, large-amplitude OU excursions instead of the calibrated
Figure-1 jitter).  The same job stream runs through two schedulers:

* **static** — :class:`MalleableClusterScheduler` with reconfiguration
  off.  Jobs are still repriced against ground truth every tick, so
  drift genuinely hurts them; they just cannot escape it.
* **elastic** — the same scheduler with the full drift → plan → gate →
  two-phase-execute loop enabled.

Everything else — cluster, seeds, workload trajectory, policy, job
stream — is identical, so any difference in completion times is
attributable to reconfiguration alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.apps.minimd import MiniMD, MiniMDConfig
from repro.cluster.topology import uniform_cluster
from repro.elastic.cost import MigrationCostConfig
from repro.elastic.drift import DriftPolicy
from repro.elastic.gate import GateConfig
from repro.elastic.sim import MalleableClusterScheduler
from repro.experiments.scenario import Scenario
from repro.scheduler.queue import JobRequest, SchedulerStats
from repro.workload.generator import WorkloadConfig


def drifting_workload_config(intensity: float = 1.0) -> WorkloadConfig:
    """Workload whose ambient load wanders far and slowly.

    The stock config is calibrated to the paper's Figure 1 (load spikes
    around a fairly stable mean).  For the elastic experiment we want
    the regime the engine exists for: per-node load that climbs or falls
    by several runnable processes and *stays* there for tens of minutes
    (users logging in, long analysis scripts).  The OU parameters set
    the stationary spread to ≈ ``2.3 · intensity`` load units with a
    ~30-minute correlation time, and stronger per-node busyness skew
    makes quiet escape hatches exist when a node turns hot.
    """
    if intensity <= 0:
        raise ValueError(f"intensity must be positive, got {intensity}")
    base = WorkloadConfig()
    return replace(
        base,
        ambient_load_mu=1.2 * intensity,
        ambient_load_theta=1.0 / 1800.0,
        ambient_load_sigma=0.077 * intensity,
        busyness_sigma=0.8,
    )


def drifting_world(
    scenario: str | None,
    *,
    drift_intensity: float,
    n_nodes: int,
    nodes_per_switch: int,
):
    """Cluster + workload for one variant world, optionally from a scenario.

    Returns ``(specs, topo, workload_config, spec)`` where ``spec`` is the
    resolved :class:`~repro.scenarios.registry.ScenarioSpec` (or ``None``
    for the legacy uniform tree).  A scenario contributes its topology,
    node classes, background job/flow processes and regime fields
    (diurnal, spikes); the ambient terms stay the drifting OU this
    experiment's static-vs-elastic claim depends on.
    """
    if scenario is None:
        specs, topo = uniform_cluster(
            n_nodes, nodes_per_switch=nodes_per_switch
        )
        return specs, topo, drifting_workload_config(drift_intensity), None
    from repro.scenarios import get_scenario

    spec = get_scenario(scenario)
    specs, topo = spec.build_cluster()
    base = spec.workload_config
    workload_config = replace(
        drifting_workload_config(drift_intensity),
        jobs=base.jobs,
        netflows=base.netflows,
        diurnal=base.diurnal,
        spikes=base.spikes,
    )
    return specs, topo, workload_config, spec


def submit_offsets(spec, n_jobs: int, interarrival_s: float, streams):
    """Per-job submit offsets: fixed spacing, or the scenario's arrivals."""
    if spec is None:
        return tuple(i * interarrival_s for i in range(n_jobs))
    return spec.arrival_offsets(n_jobs, streams.child("arrivals"))


@dataclass(frozen=True)
class ElasticExperimentConfig:
    """Everything one static-vs-elastic comparison run depends on."""

    #: registered scenario providing cluster + regime (None = the legacy
    #: uniform 12-node tree; any other value changes topology, job/flow
    #: background and arrival process while keeping the drifting ambient
    #: load the experiment's claim needs)
    scenario: str | None = None
    n_nodes: int = 12
    nodes_per_switch: int = 4
    n_jobs: int = 6
    n_processes: int = 8
    ppn: int = 4
    #: miniMD problem size / length (sets job duration; the defaults
    #: price to ~30 idle minutes — long enough to live through drift)
    app_s: int = 64
    app_timesteps: int = 12000
    interarrival_s: float = 600.0
    warmup_s: float = 1800.0
    reprice_period_s: float = 30.0
    drift_intensity: float = 1.0
    migration_failure_rate: float = 0.0
    drift_policy: DriftPolicy = field(default_factory=DriftPolicy)
    gate_config: GateConfig = field(default_factory=GateConfig)
    cost_config: MigrationCostConfig = field(
        default_factory=MigrationCostConfig
    )

    def __post_init__(self) -> None:
        if self.n_nodes < 2 or self.n_jobs < 1:
            raise ValueError("need at least 2 nodes and 1 job")


@dataclass(frozen=True)
class VariantResult:
    """One scheduler variant's outcome on the drifting scenario."""

    variant: str
    stats: SchedulerStats
    reconfigs: int
    failed_migrations: int
    reconfig_events: tuple = ()

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n_jobs": self.stats.n_jobs,
            "makespan_s": self.stats.makespan_s,
            "mean_wait_s": self.stats.mean_wait_s,
            "mean_turnaround_s": self.stats.mean_turnaround_s,
            "mean_execution_s": self.stats.mean_execution_s,
            "reconfigs": self.reconfigs,
            "failed_migrations": self.failed_migrations,
        }


@dataclass(frozen=True)
class ElasticComparison:
    """Static vs. elastic, same seed, same drifting world."""

    seed: int
    static: VariantResult
    elastic: VariantResult

    @property
    def turnaround_improvement_pct(self) -> float:
        """Mean-completion-time gain of elastic over static (positive = wins)."""
        base = self.static.stats.mean_turnaround_s
        if base <= 0:
            return 0.0
        return (base - self.elastic.stats.mean_turnaround_s) / base * 100.0

    @property
    def makespan_improvement_pct(self) -> float:
        base = self.static.stats.makespan_s
        if base <= 0:
            return 0.0
        return (base - self.elastic.stats.makespan_s) / base * 100.0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "static": self.static.to_dict(),
            "elastic": self.elastic.to_dict(),
            "turnaround_improvement_pct": self.turnaround_improvement_pct,
            "makespan_improvement_pct": self.makespan_improvement_pct,
        }


def run_variant(
    *,
    reconfigure: bool,
    seed: int,
    config: ElasticExperimentConfig,
) -> VariantResult:
    """One scheduler variant on a freshly built drifting-load world."""
    cfg = config
    specs, topo, workload_config, spec = drifting_world(
        cfg.scenario,
        drift_intensity=cfg.drift_intensity,
        n_nodes=cfg.n_nodes,
        nodes_per_switch=cfg.nodes_per_switch,
    )
    sc = Scenario.build(
        specs, topo, seed=seed, workload_config=workload_config
    )
    sc.warm_up(cfg.warmup_s)
    scheduler = MalleableClusterScheduler(
        sc.engine,
        sc.workload,
        sc.network,
        sc.snapshot,
        rng=sc.streams.child("scheduler"),
        reprice_period_s=cfg.reprice_period_s,
        reconfigure=reconfigure,
        drift_policy=cfg.drift_policy,
        gate_config=cfg.gate_config,
        cost_config=cfg.cost_config,
        migration_failure_rate=(
            cfg.migration_failure_rate if reconfigure else 0.0
        ),
        failure_rng=sc.streams.child("migration-failures"),
    )
    app = MiniMD(cfg.app_s, MiniMDConfig(timesteps=cfg.app_timesteps))
    t0 = sc.engine.now
    offsets = submit_offsets(
        spec, cfg.n_jobs, cfg.interarrival_s, sc.streams
    )
    for offset in offsets:
        scheduler.submit(
            JobRequest(
                app=app,
                n_processes=cfg.n_processes,
                ppn=cfg.ppn,
                submit_time=t0 + offset,
            )
        )
    stats = scheduler.drain()
    scheduler.stop()
    return VariantResult(
        variant="elastic" if reconfigure else "static",
        stats=stats,
        reconfigs=scheduler.reconfig_count,
        failed_migrations=scheduler.failed_migrations,
        reconfig_events=tuple(scheduler.reconfig_events),
    )


def run_elastic_comparison(
    *,
    seed: int = 0,
    config: ElasticExperimentConfig | None = None,
    **overrides: Any,
) -> ElasticComparison:
    """The headline experiment: same drifting world, with and without escape.

    ``overrides`` are field overrides for :class:`ElasticExperimentConfig`
    (convenience for the CLI / benchmarks).
    """
    cfg = config or ElasticExperimentConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    static = run_variant(reconfigure=False, seed=seed, config=cfg)
    elastic = run_variant(reconfigure=True, seed=seed, config=cfg)
    return ElasticComparison(seed=seed, static=static, elastic=elastic)

