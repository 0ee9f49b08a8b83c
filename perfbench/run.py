"""The repository's benchmark: open-loop launcher traffic against a live daemon.

    python3 perfbench/run.py --workload paper60-churn --seed 1 --seconds 10 --trace 0

Every daemon (``daemon.py``) runs in its own process and is reached only
over loopback, through the wire protocol.  ``--trace 0`` measures the
end-to-end metrics: a nominal-rate phase in segments on fresh daemons
(latency, capacity, failures, traffic self-checks, set-up time, peak
memory) and a placement-quality replay.  ``--trace 1`` runs one nominal
segment untraced and the same segment traced, and reports the per-layer
breakdown; tracing never touches the end-to-end numbers.  The
report goes to stdout, and its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Working files
go to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Awaitable

import numpy as np

from layers import UNITS as LAYER_UNITS
from layers import analyze
from ledger import Ledger
from loadgen import N_CONNECTIONS, Client, PhaseStats, clock, pool, run_phase
from stats import tail
from tracer import merge_dumps
from workloads import WORKLOADS, Workload, digest, schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: end-to-end metrics and their units, as BENCHMARK.json lists them
E2E_UNITS = {
    "alloc_p50_ms": "ms",
    "max_jobs_per_s": "1/s",
    "placement_vs_seq": "ratio",
    "setup_s": "s",
    "daemon_rss_mb": "MB",
}
#: the end-to-end nominal phase runs as this many segments, one daemon
#: each; set-up time is the median of their launches
SEGMENTS = 4
#: a segment whose sender ran later than this (p99) is rerun once
GEN_LAG_LIMIT_MS = 20.0
#: stage self times should cover this share of client allocate time on
#: a workload whose snapshot is live; the rest is kernel and event-loop
#: time, which grows on a busy host
MIN_COVERAGE = 0.9
#: below this share the tracer is missing a stage, and the run fails
COVERAGE_FLOOR = 0.5
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
MARK_TIMEOUT_S = 30.0


class Daemon:
    """One daemon process, from launch to its exit report."""

    #: daemons started and not yet stopped, killed if a run dies
    live: set[Daemon] = set()

    def __init__(self, w: Workload, trace: bool, tag: str) -> None:
        self.report_path = OUT / f"daemon-{tag}.json"
        self.log_path = OUT / f"daemon-{tag}.log"
        self.args = [
            sys.executable, str(HERE / "daemon.py"),
            "--kind", w.kind, "--frozen", str(int(w.frozen)),
            "--trace", str(int(trace)), "--report", str(self.report_path),
        ]
        self.proc: asyncio.subprocess.Process | None = None
        self.port = 0
        self.launched = 0.0

    async def start(self) -> None:
        self.report_path.unlink(missing_ok=True)
        with open(self.log_path, "wb") as log:
            self.launched = clock()
            self.proc = await asyncio.create_subprocess_exec(
                *self.args, stdout=asyncio.subprocess.PIPE, stderr=log, cwd=ROOT
            )
        Daemon.live.add(self)
        assert self.proc.stdout is not None
        line = await asyncio.wait_for(self.proc.stdout.readline(), START_TIMEOUT_S)
        if not line.startswith(b"READY "):
            await self.kill()
            raise RuntimeError(f"daemon did not start; see {self.log_path}")
        self.port = int(line.split()[1])

    async def mark(self) -> dict[str, Any]:
        """The daemon's lifetime counters, now (it answers SIGUSR1)."""
        assert self.proc is not None
        path = self.report_path.with_suffix(".mark")
        path.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = clock() + MARK_TIMEOUT_S
        while not path.exists():
            if clock() > deadline:
                raise RuntimeError(f"daemon wrote no counters; see {self.log_path}")
            await asyncio.sleep(0.005)
        return json.loads(path.read_text())

    async def stop(self) -> dict[str, Any]:
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        code = await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        Daemon.live.discard(self)
        if code != 0:
            raise RuntimeError(f"daemon exited with {code}; see {self.log_path}")
        return json.loads(self.report_path.read_text())

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()
        Daemon.live.discard(self)


async def launch(
    w: Workload, trace: bool, tag: str
) -> tuple[Daemon, Client, float, float]:
    """Start a daemon; returns it, a client, and the wall time and the
    daemon's CPU time from launch to its first successful allocate."""
    daemon = Daemon(w, trace, tag)
    await daemon.start()
    client = Client()
    try:
        await client.open(daemon.port)
        probe = w.shapes[0]
        params: dict[str, Any] = {"n": probe.n, "alpha": w.alphas[0], "ttl_s": w.ttl_s}
        if probe.ppn is not None:
            params["ppn"] = probe.ppn
        reply = await client.call(0, "allocate", params)
        ready = clock()
        if not reply.get("ok"):
            raise RuntimeError(f"set-up allocate failed: {reply}")
        cpu_s = (await daemon.mark())["cpu_s"]
        await client.call(0, "release", {"lease_id": reply["result"]["lease_id"]})
    except BaseException:
        await client.close()
        await daemon.kill()
        raise
    return daemon, client, ready - daemon.launched, cpu_s


async def shutdown(daemon: Daemon, client: Client) -> dict[str, Any]:
    await client.close()
    return await daemon.stop()


def counters_of(status: dict[str, Any]) -> dict[str, int]:
    """The ``status`` counters a phase is judged by."""
    status = status["result"]
    out = {"busy_rejected": status["metrics"]["busy_rejected"]}
    fed = status.get("federation")
    if fed:
        c = fed["counters"]
        out.update(
            forwards=c["forwards"],
            spills=c["spills"],
            cross_shard_grants=c["cross_shard_grants"],
        )
    return out


@dataclass
class Segment:
    """One stretch of the nominal phase on its own daemon."""

    stats: PhaseStats
    #: ``status`` counter deltas over the segment
    status: dict[str, int]
    #: deltas of the daemon's own counters over the segment
    counters: dict[str, float]
    rss_mb: float
    trace: dict[str, Any] | None
    #: wall time and daemon CPU time from launch to the first grant
    setup_s: float
    setup_cpu_s: float
    digest: str
    violations: list[str]
    unreleased: int
    #: whether the generator kept up
    steady: bool


async def run_segment(
    w: Workload, seed: int, idx: int, seconds: float, trace: bool, tag: str
) -> Segment:
    daemon, client, setup_s, setup_cpu_s = await launch(w, trace, tag)
    ledger = Ledger()
    jobs = schedule(w, seed, f"nominal{idx}", seconds)
    try:
        await run_phase(
            client, schedule(w, seed, f"warmup{idx}", w.warmup_s), ledger, f"{tag}w"
        )
        before = counters_of(await client.call(0, "status"))
        marked = await daemon.mark()
        stats = await run_phase(client, jobs, ledger, f"{tag}n")
        after = counters_of(await client.call(0, "status"))
        counters = {k: v - marked[k] for k, v in (await daemon.mark()).items()}
    except BaseException:
        await client.close()
        await daemon.kill()
        raise
    report = await shutdown(daemon, client)
    return Segment(
        stats=stats,
        status={k: after[k] - before.get(k, 0) for k in after},
        counters=counters,
        rss_mb=report["maxrss_kb"] / 1024.0,
        trace=report.get("trace"),
        setup_s=setup_s,
        setup_cpu_s=setup_cpu_s,
        digest=digest(jobs),
        violations=ledger.violations,
        unreleased=len(ledger.unreleased()),
        steady=tail(stats.lag_ms)[1] <= GEN_LAG_LIMIT_MS,
    )


@dataclass
class Nominal:
    """The nominal phase: segments of one length, each on a fresh daemon.

    A daemon's refresh cost grows with every distinct held-node set it
    has seen (each cached ``LoadState`` is patched at every refresh), so
    one long phase would drift; equal segments keep it steady.
    """

    segments: list[Segment]

    @property
    def stats(self) -> PhaseStats:
        return pool([seg.stats for seg in self.segments])

    @property
    def counters(self) -> dict[str, float]:
        return {k: sum(seg.counters[k] for seg in self.segments)
                for k in self.segments[0].counters}

    @property
    def status(self) -> dict[str, int]:
        return {k: sum(seg.status[k] for seg in self.segments)
                for k in self.segments[0].status}

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            " ".join(seg.digest for seg in self.segments).encode()
        ).hexdigest()[:16]


async def nominal_phase(
    w: Workload, seed: int, seconds: float, segments: int, trace: bool
) -> Nominal:
    """``segments`` segments of ``seconds / segments`` each; a segment
    whose generator fell behind is rerun once."""
    out = []
    for idx in range(segments):
        for attempt in range(2):
            tag = f"{'t' if trace else 'n'}{idx}.{attempt}"
            seg = await run_segment(w, seed, idx, seconds / segments, trace, tag)
            if seg.steady:
                break
            print(f"# generator fell behind in segment {idx}; segment discarded",
                  file=sys.stderr)
        out.append(seg)
    return Nominal(out)


def latency_growth(st: PhaseStats) -> float:
    """Least-squares growth of allocate latency over a phase, ms per s."""
    t = np.array([due for due, _, _ in st.allocs])
    y = np.array([ms for _, ms, _ in st.allocs])
    t -= t.mean()
    return float((t * (y - y.mean())).sum() / (t * t).sum()) if (t * t).sum() else 0.0


def slo_check(w: Workload, nom: Nominal) -> tuple[bool, str]:
    """Whether the phase met the allocate SLO with no growing backlog
    (allocate latency rising by more than the SLO over a segment)."""
    pct, p99 = tail(nom.stats.alloc_ms)
    growth = [(latency_growth(seg.stats), seg.stats.window) for seg in nom.segments]
    grew = any(g * (t1 - t0) > w.slo_ms for g, (t0, t1) in growth)
    ok = p99 <= w.slo_ms and not grew
    return ok, (f"p{pct:.1f} {p99:.2f} ms (SLO {w.slo_ms:g} ms), latency growth "
                f"up to {max(g for g, _ in growth):.1f} ms/s")


def memo_share(nom: Nominal) -> tuple[int, int]:
    """(memo hits, decisions) over the phase, over every service."""
    return int(nom.counters["memo_hits"]), int(nom.counters["decisions"])


def timing_conditions(w: Workload, nom: Nominal) -> list[tuple[str, bool, str]]:
    """Whether the host let the phase run as planned.  They depend on
    how busy the machine was, not on what the daemon answered, so a miss
    is reported as a warning and leaves the run correct."""
    return [
        ("nominal rate meets the SLO", *slo_check(w, nom)),
        ("generator kept up", all(seg.steady for seg in nom.segments),
         f"send lag p99 {tail(nom.stats.lag_ms)[1]:.2f} ms (limit {GEN_LAG_LIMIT_MS:g})"),
    ]


def traffic_checks(w: Workload, nom: Nominal) -> list[tuple[str, bool, str]]:
    """Whether every answer was right and the phase was the traffic its
    workload claims to be."""
    st = nom.stats
    allocs = st.ops["allocate"]
    mix = st.ops["renew"] / allocs if allocs else 0.0
    violations = [v for seg in nom.segments for v in seg.violations]
    checks = [
        ("no operation failed", not st.failed,
         f"{st.failed} of {st.attempted} operations; errors {dict(st.errors)}"),
        ("op mix", abs(mix - w.renews_per_job) <= 0.25 * w.renews_per_job + 0.1,
         f"allocate:renew:release {allocs}:{st.ops['renew']}:{st.ops['release']}, "
         f"{mix:.2f} renews per allocate (target {w.renews_per_job:g})"),
        ("lease ledger clean",
         not violations and not any(seg.unreleased for seg in nom.segments),
         "; ".join(violations[:3]) or f"{st.grants} grants, each released exactly once"),
    ]
    hits, base = memo_share(nom)
    if w.memo_hits is not None:
        lo, hi = w.memo_hits
        share = min(1.0, hits / base) if base else 0.0
        checks.append(("decision-memo hit share", bool(base) and lo <= share <= hi,
                       f"{share:.3f} of {base} decisions (valid {lo:g}..{hi:g})"))
    if w.cross_shard:
        checks.append(("cross-shard grants", st.cross_shard > 0,
                       f"{st.cross_shard} of {st.grants} grants"))
    if not w.frozen:
        c = nom.counters
        checks.append(("snapshot refreshes land in the run", c["refreshes"] > 0,
                       f"{c['refreshes']:g} refreshes: {c['deltas_applied']:g} "
                       f"deltas applied, {c['full_rebuilds']:g} full rebuilds"))
    return checks


def allocs_line(nom: Nominal, seconds: float) -> str:
    st = nom.stats
    shapes = ", ".join(f"{k} x{v}" for k, v in st.shapes.most_common(8))
    return (f"{st.ops['allocate']} jobs in {len(nom.segments)} x "
            f"{seconds / len(nom.segments):g} s, {st.cross_shard} cross-shard; "
            f"commonest shapes n/ppn: {shapes}")


async def end_to_end(w: Workload, seed: int, seconds: float) -> dict[str, Any]:
    from placement import placement_vs_seq

    nom = await nominal_phase(w, seed, seconds, SEGMENTS, trace=False)
    st = nom.stats
    setups = [seg.setup_cpu_s for seg in nom.segments]
    ratio, replayed = placement_vs_seq(w)
    a_pct, a_tail = tail(st.alloc_ms)
    l_pct, l_tail = tail(st.lease_ms)
    cpu_s = nom.counters["cpu_s"]
    metrics = {
        "alloc_p50_ms": median(st.alloc_ms),
        "max_jobs_per_s": st.ops["allocate"] / cpu_s,
        "placement_vs_seq": ratio,
        "setup_s": median(setups),
        "daemon_rss_mb": median(seg.rss_mb for seg in nom.segments),
    }
    notes = {
        "alloc_p50_ms": f"median of n={len(st.alloc_ms)}, timed from due",
        "max_jobs_per_s": "jobs per daemon CPU-second at the nominal mix: the rate "
        "at which the daemon saturates",
        "placement_vs_seq": f"mean Eq-4 cost over sequential's, {replayed} replayed grants",
        "setup_s": f"daemon CPU-seconds from launch to its first grant, median of "
        f"{len(setups)} launches",
        "daemon_rss_mb": f"median peak RSS of the {len(nom.segments)} segment daemons",
    }
    hits, base = memo_share(nom)
    lines = [
        f"schedule digest {nom.digest}: {allocs_line(nom, seconds)}",
        "end-to-end metrics",
        *(f"  {name:<18} {metrics[name]:>12.4f} {unit:<6} {notes[name]}"
          for name, unit in E2E_UNITS.items()),
        "reported, not bounded (their spread over seeds exceeds any bound)",
        f"  {'alloc_p99_ms':<18} {a_tail:>12.4f} {'ms':<6} "
        f"p{a_pct:.1f} of n={len(st.alloc_ms)}, timed from due",
        f"  {'lease_op_p99_ms':<18} {l_tail:>12.4f} {'ms':<6} "
        f"p{l_pct:.1f} of n={len(st.lease_ms)} renews and releases",
        f"  {'setup_wall_s':<18} {median(seg.setup_s for seg in nom.segments):>12.4f} "
        f"{'s':<6} wall time from launch to the first grant, median",
        f"  {'fail_frac':<18} {st.failed / st.attempted:>12.4f} {'':<6} "
        f"{st.failed} of {st.attempted} operations; errors {dict(st.errors)}",
        f"  {'gen_lag_p99_ms':<18} {tail(st.lag_ms)[1]:>12.4f} ms",
        f"  {'daemon_busy':<18} {cpu_s / seconds:>12.4f} {'':<6} "
        "daemon CPU-seconds per second of the nominal phase",
        f"  {'memo_hit_share':<18} {min(1.0, hits / base) if base else 0.0:>12.4f} "
        f"{'':<6} of {base} decisions",
    ]
    return {"metrics": metrics, "lines": lines, "checks": traffic_checks(w, nom),
            "conditions": timing_conditions(w, nom),
            "attempted": st.attempted, "failed": st.failed}


async def per_layer_run(w: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Half the end-to-end segments untraced, then the same ones traced."""
    half = seconds / 2
    plain = await nominal_phase(w, seed, half, SEGMENTS // 2, trace=False)
    traced = await nominal_phase(w, seed, half, SEGMENTS // 2, trace=True)
    dump = merge_dumps([seg.trace for seg in traced.segments if seg.trace is not None])
    st = traced.stats
    metrics, rows = analyze(
        dump, st, [seg.stats.window for seg in traced.segments], traced.status,
        memo_share(traced), federated=w.kind == "fleet1k-fed",
    )
    p50 = median(plain.stats.alloc_ms)
    metrics["trace.overhead_pct"] = 100.0 * (median(st.alloc_ms) - p50) / p50
    metrics["generator.lag_p99_ms"] = tail(st.lag_ms)[1]
    lines = [
        f"schedule digest {traced.digest}: {allocs_line(traced, half)} "
        "(the same schedule untraced, then traced)",
        "per-layer metrics (traced run)",
        *(f"  {name:<32} {metrics[name]:>12.4f} {unit}"
          for name, unit in LAYER_UNITS.items()),
        f"stage table: what the daemon ran while each allocate was outstanding "
        f"({len(st.timing)} allocates, traced run; waits overlap the stages)",
        f"  {'stage':<30} {'kind':<5} {'ms/alloc':>9} {'share':>7} {'spans':>7}",
        *(f"  {name:<30} {kind:<5} {ms:>9.3f} {share:>7.1%} {count:>7}"
          for name, kind, ms, share, count in rows),
    ]
    missing = dump["missing"]
    if missing:
        lines.append(f"not traced (renamed or removed): {', '.join(missing)}")
    checks, conditions = [], []
    for label, nom in (("untraced", plain), ("traced", traced)):
        checks += [(f"{label}: {name}", ok, detail)
                   for name, ok, detail in traffic_checks(w, nom)]
        conditions += [(f"{label}: {name}", ok, detail)
                       for name, ok, detail in timing_conditions(w, nom)]
    if not w.frozen:
        coverage = metrics["trace.coverage"]
        checks.append(("stage self times attribute client allocate time",
                       coverage >= COVERAGE_FLOOR,
                       f"{coverage:.3f} (at least {COVERAGE_FLOOR:g})"))
        conditions.append(("stage self times cover client allocate time",
                           coverage >= MIN_COVERAGE,
                           f"{coverage:.3f} (target {MIN_COVERAGE:g})"))
    return {
        "metrics": metrics, "lines": lines, "checks": checks, "conditions": conditions,
        "attempted": plain.stats.attempted + traced.stats.attempted,
        "failed": plain.stats.failed + traced.stats.failed,
    }


def provenance(w: Workload, seed: int, seconds: float) -> dict[str, Any]:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            git_sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest()[:16],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": w.name,
        "seed": seed,
        "nominal_rate_per_s": w.rate,
        "seconds": seconds,
        "loop": f"open, {N_CONNECTIONS} pipelined JSON-lines connections",
    }


async def guarded(run: Awaitable[dict[str, Any]]) -> dict[str, Any]:
    """``run``, with every daemon it started stopped whatever happens."""
    try:
        return await run
    finally:
        for daemon in list(Daemon.live):
            await daemon.kill()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="One benchmark run.")
    parser.add_argument("--workload", required=True, help=f"one of {sorted(WORKLOADS)}")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured nominal phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} is missing; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    w = WORKLOADS.get(args.workload)
    if w is None or args.seconds <= 0:
        print(f"perfbench: need --workload from {sorted(WORKLOADS)} and "
              "--seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    run = per_layer_run if args.trace else end_to_end
    # a collection pause in the generator would delay every reply in
    # flight and show up as daemon latency
    gc.freeze()
    gc.disable()
    result = asyncio.run(guarded(run(w, args.seed, args.seconds)))
    gc.enable()
    units = LAYER_UNITS if args.trace else E2E_UNITS
    prov = provenance(w, args.seed, args.seconds)
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: nominal "
          f"{w.rate:g} jobs/s for {args.seconds:g} s")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in result["lines"]:
        print(line)
    print("correctness and traffic checks")
    for name, ok, detail in result["checks"]:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    print("timing conditions (a miss is a warning: it depends on the host's load)")
    for name, ok, detail in result["conditions"]:
        print(f"  [{'ok' if ok else 'warn'}] {name}: {detail}")
    for name, ok, detail in result["checks"] + result["conditions"]:
        if not ok:
            print(f"perfbench: {name}: {detail}", file=sys.stderr)
    final = {
        "correct": all(ok for _, ok, _ in result["checks"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**final, "provenance": prov, "report": result["lines"]}, indent=1)
    )
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
