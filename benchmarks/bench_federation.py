"""Federation benchmarks: shard-count scaling and placement quality.

Two sections, one machine-readable record (``BENCH_federation.json`` at
the repo root, also via ``make bench-json``):

* **throughput vs shard count** — a 1024-node synthetic cluster whose
  monitor drifts ~2% of nodes/links before every request (served as
  delta-patched snapshots, exactly what ``CachedSnapshotSource``
  produces); we measure allocate→release round-trips/sec and decision
  latency for a single ``BrokerService`` over the whole fleet against a
  :func:`~repro.federation.router.build_federation` federation at 1, 2,
  4, and 8 shards.  Sharding wins by shrinking the Algorithm-1/2
  decision set per shard while the router's fleet pass stays O(changed)
  per drift step.
* **quality gap vs the single-broker oracle** — the §5 paper topology
  (60 nodes, 4 switches) partitioned into its 4 subtrees; the same
  request stream (including a cross-shard job no single subtree can
  hold) runs against the federation and a fleet-wide single broker, and
  the summed raw Equation-4 cost ratio must stay within the chaos
  harness's :data:`~repro.chaos.invariants.DEFAULT_QUALITY_BOUND`.

CI floors (see ``assert``s): the 4-shard federation must sustain
≥ :data:`MIN_SHARD_SPEEDUP_4` × the single-broker round-trip rate on the
1k-node topology, and the federation's Equation-4 quality gap on the
paper topology must stay ≤ the oracle bound while actually exercising
the cross-shard two-phase path.  Cross-shard rollback hygiene (zero
surviving leases after a mid-placement shard death) is CI-asserted by
``tests/federation`` and the ``shard_death_cross_reserve`` chaos
scenario.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.bench_hotpath import synth_cluster
from benchmarks.conftest import run_once, scale
from repro.broker import BrokerService
from repro.broker.protocol import AllocateParams, ProtocolError, ReleaseParams
from repro.chaos.invariants import DEFAULT_QUALITY_BOUND
from repro.experiments.scenario import paper_scenario
from repro.federation.router import build_federation
from repro.federation.sharding import snapshot_switches, subtree_partition
from repro.monitor.delta import SnapshotDelta, apply_snapshot_delta
from repro.monitor.snapshot import CachedSnapshotSource, ClusterSnapshot

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_federation.json"

#: floors gated in CI
MIN_SHARD_SPEEDUP_4 = 2.0
MAX_QUALITY_GAP = DEFAULT_QUALITY_BOUND

#: node count of the scaling topology (the acceptance floor is defined
#: at fleet scale; smoke only trims repetitions, never the fleet)
FLEET_NODES = 1024
#: fraction of nodes/links that drift between consecutive requests
DRIFT_FRACTION = 0.02

RECORD: dict = {"scale": scale()}


def _write_record() -> None:
    RECORD["floors"] = {
        "shard4_vs_single_broker_min": MIN_SHARD_SPEEDUP_4,
        "quality_gap_max": MAX_QUALITY_GAP,
    }
    OUT.write_text(json.dumps(RECORD, indent=2) + "\n")


# ---------------------------------------------------------------- section 1
def _drift_delta(
    snap: ClusterSnapshot, rng: np.random.Generator, fraction: float
) -> SnapshotDelta:
    """~``fraction`` of nodes and measured links move, topology fixed."""
    names = list(snap.nodes)
    nodes = {}
    for name in rng.choice(
        names, size=max(1, int(fraction * len(names))), replace=False
    ):
        view = snap.nodes[name]
        factor = 1.0 + float(rng.uniform(-0.3, 0.3))
        nodes[name] = type(view)(
            name=view.name,
            cores=view.cores,
            frequency_ghz=view.frequency_ghz,
            memory_gb=view.memory_gb,
            switch=view.switch,
            users=view.users,
            cpu_load={k: v * factor for k, v in view.cpu_load.items()},
            cpu_util={
                k: min(100.0, v * factor) for k, v in view.cpu_util.items()
            },
            flow_rate_mbs={
                k: v * factor for k, v in view.flow_rate_mbs.items()
            },
            available_memory_gb=view.available_memory_gb,
        )
    pairs = list(snap.latency_us)
    bandwidth = {}
    for idx in rng.choice(
        len(pairs), size=max(1, int(fraction * len(pairs))), replace=False
    ):
        key = pairs[idx]
        bandwidth[key] = float(
            snap.peak_bandwidth_mbs[key] * rng.uniform(0.3, 1.0)
        )
    return SnapshotDelta(
        time=snap.time + 1.0, nodes=nodes, bandwidth_mbs=bandwidth
    )


class _DriftingSource:
    """A push-style monitor: each tick serves a delta-patched snapshot.

    This is the shape :class:`~repro.monitor.snapshot.CachedSnapshotSource`
    produces on every value-only refresh — each snapshot a delta patch of
    the last — so both the single broker and the federation exercise
    their real incremental path (array-store patching) rather than full
    rebuilds.
    """

    def __init__(self, snap: ClusterSnapshot, seed: int) -> None:
        self.snap = snap
        self.rng = np.random.default_rng(seed)

    def tick(self) -> None:
        self.snap = apply_snapshot_delta(
            self.snap, _drift_delta(self.snap, self.rng, DRIFT_FRACTION)
        )

    def __call__(self) -> ClusterSnapshot:
        return self.snap


def _scaling_tiers() -> tuple[int, int, tuple[int, ...]]:
    """(timed requests, repetitions, federation shard counts)."""
    if scale() == "smoke":
        return 30, 2, (1, 4)
    if scale() == "full":
        return 60, 3, (1, 2, 4, 8)
    return 30, 2, (1, 2, 4, 8)


_WARMUP_REQUESTS = 3
_SCALING_PARAMS = AllocateParams(n_processes=16, ppn=4, ttl_s=30.0)


def _round_trips(target, source: _DriftingSource, requests: int) -> dict:
    """allocate→release ``requests`` times, drifting before each one."""
    for _ in range(_WARMUP_REQUESTS):
        source.tick()
        out = target.allocate_batch([_SCALING_PARAMS])[0]
        assert not isinstance(out, ProtocolError), out
        target.release(ReleaseParams(out["lease_id"]))
    laps: list[float] = []
    t0 = time.perf_counter()
    for _ in range(requests):
        source.tick()
        t1 = time.perf_counter()
        out = target.allocate_batch([_SCALING_PARAMS])[0]
        laps.append(time.perf_counter() - t1)
        assert not isinstance(out, ProtocolError), out
        target.release(ReleaseParams(out["lease_id"]))
    elapsed = time.perf_counter() - t0
    laps.sort()
    return {
        "rts": requests / elapsed,
        "decide_p50_ms": 1e3 * laps[len(laps) // 2],
        "decide_p99_ms": 1e3 * laps[min(len(laps) - 1, int(0.99 * len(laps)))],
    }


def test_shard_scaling(benchmark):
    requests, reps, shard_counts = _scaling_tiers()
    base_snap = synth_cluster(FLEET_NODES, seed=7)
    rows: dict[str, dict] = {}

    def best_of(make_target) -> dict:
        best: dict | None = None
        for rep in range(reps):
            source = _DriftingSource(base_snap, seed=99 + rep)
            row = _round_trips(make_target(source), source, requests)
            if best is None or row["rts"] > best["rts"]:
                best = row
        assert best is not None
        return best

    def sweep() -> None:
        rows["single_broker"] = best_of(lambda src: BrokerService(src))
        for n_shards in shard_counts:
            partition = subtree_partition(
                snapshot_switches(base_snap), n_shards
            )
            rows[str(n_shards)] = best_of(
                lambda src, p=partition: build_federation(src, p)
            )

    run_once(benchmark, sweep)
    RECORD["shard_scaling"] = {
        "nodes": FLEET_NODES,
        "requests": requests,
        "repetitions": reps,
        "drift_fraction": DRIFT_FRACTION,
        "request_shape": {"n_processes": 16, "ppn": 4},
        "by_shards": rows,
    }
    _write_record()
    base = rows["single_broker"]
    print(f"\nsingle broker: {base['rts']:.1f} RT/s "
          f"(p50 {base['decide_p50_ms']:.1f} ms)")
    for n_shards in shard_counts:
        row = rows[str(n_shards)]
        print(f"{n_shards} shard(s): {row['rts']:.1f} RT/s "
              f"(p50 {row['decide_p50_ms']:.1f} ms, "
              f"{row['rts'] / base['rts']:.2f}x)")
    speedup = rows["4"]["rts"] / base["rts"]
    assert speedup >= MIN_SHARD_SPEEDUP_4, (
        f"4-shard federation sustained {rows['4']['rts']:.1f} RT/s — only "
        f"{speedup:.2f}x the single broker's {base['rts']:.1f} RT/s "
        f"(floor {MIN_SHARD_SPEEDUP_4}x at {FLEET_NODES} nodes)"
    )


# ---------------------------------------------------------------- section 2
ALPHA = 0.3


def _cross_shard_n(router) -> int:
    """A process count no single shard can host but the fleet can."""
    frees = sorted(
        row["free_procs"]
        for row in router.shards()["shards"]
        if row["alive"]
    )
    return frees[-1] + max(2, frees[0] // 4)


def _quality_stream(router) -> tuple[AllocateParams, ...]:
    """Subtree-sized jobs plus one the two-phase path must split."""
    return (
        AllocateParams(n_processes=16, ppn=4, alpha=ALPHA, ttl_s=600.0),
        AllocateParams(n_processes=24, ppn=4, alpha=ALPHA, ttl_s=600.0),
        AllocateParams(n_processes=_cross_shard_n(router), alpha=ALPHA,
                       ttl_s=600.0),
        AllocateParams(n_processes=16, ppn=4, alpha=ALPHA, ttl_s=600.0),
        AllocateParams(n_processes=8, ppn=2, alpha=ALPHA, ttl_s=600.0),
    )


def _raw_cost(grant: dict, alpha: float) -> float:
    return alpha * grant["compute_cost"] + (1 - alpha) * grant["network_cost"]


def test_quality_gap_vs_oracle(benchmark):
    sc = paper_scenario(seed=5, warmup_s=600.0)
    source = CachedSnapshotSource(sc.snapshot, max_age_s=1e9)
    partition = subtree_partition(snapshot_switches(source()), 4)
    result: dict = {}
    stream_shapes: list[dict] = []

    def place() -> None:
        oracle = BrokerService(source)
        router = build_federation(source, partition)
        oracle_total = 0.0
        fed_total = 0.0
        stream = _quality_stream(router)
        stream_shapes[:] = [
            {"n_processes": p.n_processes, "ppn": p.ppn} for p in stream
        ]
        for params in stream:
            for target, bucket in ((oracle, "oracle"), (router, "fed")):
                out = target.allocate_batch([params])[0]
                assert not isinstance(out, ProtocolError), (
                    f"{bucket} denied {params.n_processes} procs: {out}"
                )
                cost = _raw_cost(out, params.alpha)
                if bucket == "oracle":
                    oracle_total += cost
                else:
                    fed_total += cost
        result.update(
            oracle_cost=oracle_total,
            federation_cost=fed_total,
            quality_gap=fed_total / oracle_total,
            cross_shard_grants=router.cross_shard_grants,
            spills=router.spills,
        )

    run_once(benchmark, place)
    RECORD["quality_gap"] = {
        "topology": "paper (60 nodes, 4 switches)",
        "shards": len(partition),
        "stream": stream_shapes,
        **result,
    }
    _write_record()
    print(f"\nquality gap: federation {result['federation_cost']:.3f} vs "
          f"oracle {result['oracle_cost']:.3f} "
          f"({result['quality_gap']:.2f}x, "
          f"{result['cross_shard_grants']} cross-shard grant(s))")
    assert result["cross_shard_grants"] >= 1, (
        "the quality stream never exercised the cross-shard two-phase path"
    )
    assert result["quality_gap"] <= MAX_QUALITY_GAP, (
        f"federated placement cost {result['federation_cost']:.3f} is "
        f"{result['quality_gap']:.2f}x the single-broker oracle's "
        f"{result['oracle_cost']:.3f} (bound {MAX_QUALITY_GAP}x)"
    )
