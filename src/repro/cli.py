"""Command-line interface: ``python -m repro <command>``.

Commands operate on a freshly built simulated paper cluster (seeded, so
every invocation is reproducible):

* ``allocate`` — request nodes and print an MPICH-style hostfile;
* ``simulate`` — allocate and price a miniMD/miniFE/stencil run;
* ``compare``  — the §5 four-policy comparison at one configuration;
* ``elastic``  — static vs. elastic scheduling under drifting load (DES);
* ``trace``    — record cluster resource usage to CSV (Figure 1 data);
* ``report``   — regenerate a figure/table of the paper by name;
* ``serve``    — run the persistent allocation broker daemon (TCP);
* ``client``   — talk to a running broker
  (allocate/renew/release/reconfigure/status);
* ``lint``     — static invariant checks (determinism, async-safety,
  typed errors, idempotency, async races) with a CI-gateable exit code.

``allocate`` and ``compare`` accept ``--json`` for machine-readable
output, so scripted callers don't scrape the human-formatted text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.apps.base import AppModel
from repro.apps.fft import FFT3D
from repro.apps.minife import MiniFE
from repro.apps.minimd import MiniMD
from repro.apps.stencil import Stencil3D
from repro.core.policies import AllocationRequest
from repro.core.weights import TradeOff
from repro.experiments.runner import POLICY_ORDER, compare_policies
from repro.simmpi.job import SimJob
from repro.simmpi.placement import Placement

APPS = {"minimd": MiniMD, "minife": MiniFE, "stencil": Stencil3D, "fft": FFT3D}


def make_app(name: str, size: int) -> AppModel:
    try:
        return APPS[name](size)
    except KeyError:
        raise SystemExit(f"unknown app {name!r}; choose from {sorted(APPS)}")


def add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument(
        "--warmup-min", type=float, default=30.0,
        help="background warm-up before acting (simulated minutes)",
    )
    p.add_argument(
        "--scenario", default="paper-tree", metavar="NAME",
        help="registered world scenario to act on "
             "(see `python -m repro scenarios list`)",
    )


def _int_from(low: int):
    """An argparse ``type``: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports "invalid int value"
    return parse


def _alpha(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


_alpha.__name__ = "float"


def add_request_args(
    p: argparse.ArgumentParser, *, min_ppn: int = 1
) -> None:
    """``-n``/``--ppn``/``--alpha``, checked so a bad value exits 2 with usage."""
    p.add_argument("-n", "--procs", type=_int_from(1), default=32)
    p.add_argument("--ppn", type=_int_from(min_ppn), default=4,
                   help="processes per node")
    p.add_argument(
        "--alpha", type=_alpha, default=0.3,
        help="compute weight in [0, 1] (beta = 1 - alpha weighs the network)",
    )


def build_request(args: argparse.Namespace) -> AllocationRequest:
    return AllocationRequest(
        n_processes=args.procs,
        ppn=args.ppn,
        tradeoff=TradeOff.from_alpha(args.alpha),
    )


def scenario_from_args(args: argparse.Namespace, **build_kwargs):
    """Build the world a CLI command acts on, from its ``--scenario``.

    The default ``paper-tree`` reproduces the legacy ``paper_scenario()``
    world bit-for-bit.
    """
    from repro.scenarios import get_scenario

    name = getattr(args, "scenario", None) or "paper-tree"
    try:
        spec = get_scenario(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    build_kwargs.setdefault("warmup_s", args.warmup_min * 60.0)
    return spec.build(args.seed, **build_kwargs)


def cmd_allocate(args: argparse.Namespace) -> int:
    sc = scenario_from_args(args)
    broker = sc.broker()
    result = broker.request(
        build_request(args),
        rng=sc.streams.child("cli"),
        policy=args.policy,
    )
    alloc = result.allocation
    if args.json:
        print(json.dumps({
            "policy": alloc.policy,
            "overhead_ms": result.overhead_ms,
            "n_processes": alloc.request.n_processes,
            "nodes": list(alloc.nodes),
            "procs": dict(alloc.procs),
            "hostfile": alloc.hostfile(),
        }, indent=2))
        return 0
    print(f"# policy={alloc.policy} overhead={result.overhead_ms:.2f}ms")
    sys.stdout.write(alloc.hostfile())
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    sc = scenario_from_args(args)
    broker = sc.broker()
    app = make_app(args.app, args.size)
    result = broker.request(
        build_request(args),
        rng=sc.streams.child("cli"),
        policy=args.policy,
    )
    report = SimJob(
        app,
        Placement.from_allocation(result.allocation),
        sc.cluster,
        sc.network,
    ).run()
    print(f"app={report.app} ranks={report.n_ranks} "
          f"nodes={len(report.nodes)} policy={result.allocation.policy}")
    print(f"time={report.total_time_s:.3f}s "
          f"compute={report.compute_time_s:.3f}s "
          f"comm={report.comm_time_s:.3f}s "
          f"({report.comm_fraction * 100:.0f}% communication)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    sc = scenario_from_args(args)
    app = make_app(args.app, args.size)
    comparison = compare_policies(
        sc, app, build_request(args), rng=sc.streams.child("cli")
    )
    elastic_cmp = None
    if args.elastic:
        from repro.elastic.experiment import run_elastic_comparison

        elastic_cmp = run_elastic_comparison(
            seed=args.seed,
            n_processes=args.procs,
            ppn=args.ppn,
        )
    if args.json:
        payload = {
            "app": args.app,
            "size": args.size,
            "n_processes": args.procs,
            "alpha": args.alpha,
            "runs": {
                name: {
                    "time_s": comparison.runs[name].time_s,
                    "n_nodes": comparison.runs[name].allocation.n_nodes,
                    "nodes": list(comparison.runs[name].allocation.nodes),
                }
                for name in POLICY_ORDER
            },
        }
        if elastic_cmp is not None:
            payload["elastic"] = elastic_cmp.to_dict()
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{'policy':>20s}  {'time (s)':>9s}  {'nodes':>5s}")
    for name in POLICY_ORDER:
        run = comparison.runs[name]
        print(f"{name:>20s}  {run.time_s:9.3f}  {run.allocation.n_nodes:5d}")
    if elastic_cmp is not None:
        print()
        _print_elastic_table(elastic_cmp)
    return 0


def _print_elastic_table(cmp) -> None:
    print(f"{'variant':>10s}  {'turnaround (s)':>14s}  {'makespan (s)':>12s}  "
          f"{'reconfigs':>9s}  {'failed':>6s}")
    for row in (cmp.static, cmp.elastic):
        print(f"{row.variant:>10s}  {row.stats.mean_turnaround_s:14.1f}  "
              f"{row.stats.makespan_s:12.1f}  {row.reconfigs:9d}  "
              f"{row.failed_migrations:6d}")
    print(f"elastic wins: turnaround {cmp.turnaround_improvement_pct:+.1f}%  "
          f"makespan {cmp.makespan_improvement_pct:+.1f}%")


def cmd_elastic(args: argparse.Namespace) -> int:
    from repro.elastic.experiment import run_elastic_comparison

    cmp = run_elastic_comparison(
        seed=args.seed,
        scenario=args.scenario,
        n_nodes=args.nodes,
        n_jobs=args.jobs,
        n_processes=args.procs,
        ppn=args.ppn,
        drift_intensity=args.intensity,
        migration_failure_rate=args.failure_rate,
        reprice_period_s=args.reprice_period_s,
    )
    if args.json:
        out = cmp.to_dict()
        if args.events:
            out["elastic"]["events"] = list(cmp.elastic.reconfig_events)
        print(json.dumps(out, indent=2))
        return 0
    _print_elastic_table(cmp)
    if args.events:
        for ev in cmp.elastic.reconfig_events:
            print(f"  t={ev['time']:8.0f}s lease={ev['lease_id']} "
                  f"{ev['kind']:>7s} {ev['outcome']:>9s} "
                  f"gain={ev.get('predicted_gain', 0.0):+.3f}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.runner import main as chaos_main

    only = None
    if args.only:
        only = [s for chunk in args.only for s in chunk.split(",") if s]
    try:
        return chaos_main(
            seed=args.seed,
            only=only,
            smoke=args.smoke,
            world=args.scenario,
            list_only=args.list,
            as_json=args.json,
            verbose=args.verbose,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_comparison
    from repro.scenarios import get_scenario, list_scenarios

    if args.action == "list":
        if args.json:
            print(json.dumps([
                {
                    "name": name,
                    "description": get_scenario(name).description,
                    "smoke": get_scenario(name).smoke,
                    "paper": get_scenario(name).paper,
                }
                for name in list_scenarios()
            ], indent=2))
            return 0
        for name in list_scenarios():
            spec = get_scenario(name)
            tags = "".join(
                f" [{t}]" for t, on in
                (("paper", spec.paper), ("smoke", spec.smoke)) if on
            )
            print(f"{name:<14s} {spec.description}{tags}")
        return 0
    # action == "run"
    try:
        get_scenario(args.name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    result = run_comparison(
        args.name,
        seed=args.seed,
        n_jobs=args.jobs,
        n_processes=args.procs,
        ppn=args.ppn,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    means = result.mean_times()
    print(f"scenario={result.scenario} seed={result.seed} "
          f"jobs={len(result.jobs)}")
    print(f"{'policy':>20s}  {'mean time (s)':>13s}")
    for name in POLICY_ORDER:
        if name in means:
            print(f"{name:>20s}  {means[name]:13.3f}")
    print(f"allocate vs random {result.improvement_pct('random'):+.1f}%  "
          f"vs sequential {result.improvement_pct('sequential'):+.1f}%")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.workload.traces import TraceRecorder

    sc = scenario_from_args(args, warmup_s=0.0, with_monitoring=False)
    rec = TraceRecorder(sc.engine, sc.cluster, period_s=args.period_s)
    sc.engine.run(args.hours * 3600.0)
    trace = rec.finish()
    text = trace.to_csv(args.output)
    if args.output:
        print(f"wrote {len(trace.times)} samples x {len(trace.nodes)} nodes "
              f"to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v)
    except ValueError:
        raise SystemExit(f"expected comma-separated integers, got {text!r}")


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import figures, tables

    grid_kwargs: dict = {"seed": args.seed, "repeats": args.repeats}
    if args.procs:
        grid_kwargs["proc_counts"] = _int_list(args.procs)
    if args.sizes:
        grid_kwargs["sizes"] = _int_list(args.sizes)

    name = args.artifact
    if name == "fig1":
        print(figures.fig1(seed=args.seed, hours=args.hours).render())
    elif name == "fig2":
        print(figures.fig2(seed=args.seed).render())
    elif name in ("fig4", "fig5", "table2"):
        grid = figures.fig4(**grid_kwargs)
        if name == "fig4":
            print(figures.render_fig4(grid))
        elif name == "fig5":
            print(figures.render_fig5(figures.fig5(grid)))
        else:
            print(tables.table2(grid).render(table_no=2))
    elif name in ("fig6", "table3"):
        grid = figures.fig6(**grid_kwargs)
        if name == "fig6":
            print(figures.render_fig6(grid))
        else:
            print(tables.table3(grid).render(table_no=3))
    elif name == "table4":
        print(tables.table4(seed=args.seed).render())
    elif name == "fig7":
        print(figures.fig7(seed=args.seed).render())
    else:
        raise SystemExit(f"unknown artifact {name!r}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.broker import BrokerServer, BrokerService
    from repro.monitor.snapshot import CachedSnapshotSource

    sc = scenario_from_args(args)
    refresh_hook = None
    if args.advance_on_refresh_s > 0:
        refresh_hook = lambda: sc.advance(args.advance_on_refresh_s)  # noqa: E731
    source = CachedSnapshotSource(
        sc.snapshot,
        max_age_s=args.snapshot_max_age_s,
        refresh_hook=refresh_hook,
    )
    shards = getattr(args, "shards", 0)
    if shards > 0:
        from repro.federation.daemon import FederationDaemon
        from repro.federation.router import build_federation
        from repro.federation.sharding import (
            snapshot_switches,
            subtree_partition,
        )

        partition = subtree_partition(snapshot_switches(source()), shards)
        router = build_federation(
            source,
            partition,
            default_policy=args.policy,
            default_ttl_s=args.default_ttl_s,
            max_ttl_s=args.max_ttl_s,
            wait_threshold_load_per_core=args.wait_threshold,
        )
        server = FederationDaemon(
            router,
            host=args.host,
            port=args.port,
            batch_window_s=args.batch_window_ms / 1e3,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            sweep_period_s=args.sweep_period_s,
        )
        banner = f"federation ({len(partition)} shards) listening on"
    else:
        service = BrokerService(
            source,
            default_policy=args.policy,
            default_ttl_s=args.default_ttl_s,
            max_ttl_s=args.max_ttl_s,
            wait_threshold_load_per_core=args.wait_threshold,
            rng=sc.streams.child("broker"),
        )
        server = BrokerServer(
            service,
            host=args.host,
            port=args.port,
            batch_window_s=args.batch_window_ms / 1e3,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            sweep_period_s=args.sweep_period_s,
        )
        banner = "broker listening on"

    async def run() -> None:
        host, port = await server.start()
        print(f"{banner} {host}:{port}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("broker stopped", flush=True)
    return 0


def cmd_federate(args: argparse.Namespace) -> int:
    """Build a federation over the paper cluster and show its routing."""
    from repro.broker.protocol import AllocateParams, ProtocolError
    from repro.federation.router import build_federation
    from repro.federation.sharding import snapshot_switches, subtree_partition
    from repro.monitor.snapshot import CachedSnapshotSource

    sc = scenario_from_args(args)
    source = CachedSnapshotSource(sc.snapshot, max_age_s=1e9)
    partition = subtree_partition(snapshot_switches(source()), args.shards)
    router = build_federation(source, partition)
    out = router.allocate_batch([
        AllocateParams(
            n_processes=args.procs,
            ppn=args.ppn if args.ppn > 0 else None,
            alpha=args.alpha,
        )
    ])[0]
    report = router.shards()
    if isinstance(out, ProtocolError):
        grant: dict = {"error": out.code, "message": out.message}
    else:
        grant = {
            "lease_id": out["lease_id"],
            "policy": out["policy"],
            "nodes": list(out["nodes"]),
            "cross_shard": str(out["lease_id"]).startswith("x:"),
        }
    if args.json:
        print(json.dumps({"shards": report["shards"], "grant": grant},
                         indent=2))
        return 0 if "error" not in grant else 1
    print(f"{len(report['shards'])} shard(s) over "
          f"{sum(r['n_nodes'] for r in report['shards'])} nodes:")
    for row in report["shards"]:
        print(f"  {row['shard']}: nodes={row['n_nodes']} "
              f"free_procs={row['free_procs']} "
              f"mean_cl={row['mean_cl']:.3f} mean_nl={row['mean_nl']:.3f} "
              f"score={row['score']:.3f}"
              + ("" if row["alive"] else " [down]"))
    if "error" in grant:
        print(f"allocate {args.procs} procs: error {grant['error']}: "
              f"{grant['message']}")
        return 1
    kind = "cross-shard" if grant["cross_shard"] else "single-shard"
    print(f"allocate {args.procs} procs -> {kind} lease "
          f"{grant['lease_id']} over {len(grant['nodes'])} node(s)")
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    from repro.broker import BrokerClient, BrokerError

    client = BrokerClient(
        host=args.host,
        port=args.port,
        timeout_s=args.timeout_s,
        connect_retries=args.connect_retries,
        seed=args.client_seed,
    )
    try:
        with client:
            return args.client_func(client, args)
    except BrokerError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 1


def client_allocate(client, args: argparse.Namespace) -> int:
    grant = client.allocate(
        args.procs,
        ppn=args.ppn,
        alpha=args.alpha,
        policy=args.policy,
        ttl_s=args.ttl_s,
    )
    if args.json:
        print(json.dumps(dataclasses.asdict(grant), indent=2))
        return 0
    print(f"# lease={grant.lease_id} policy={grant.policy} "
          f"ttl={grant.ttl_s:.0f}s")
    sys.stdout.write(grant.hostfile)
    return 0


def client_renew(client, args: argparse.Namespace) -> int:
    result = client.renew(args.lease_id, ttl_s=args.ttl_s)
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(f"lease {result['lease_id']} renewed: ttl={result['ttl_s']:.0f}s "
              f"renewals={result['renewals']}")
    return 0


def client_release(client, args: argparse.Namespace) -> int:
    result = client.release(args.lease_id)
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(f"lease {result['lease_id']} released "
              f"({len(result['nodes'])} nodes freed)")
    return 0


def client_reconfigure(client, args: argparse.Namespace) -> int:
    result = client.reconfigure(
        args.lease_id, remaining_s=args.remaining_s, alpha=args.alpha
    )
    if args.json:
        print(json.dumps(result, indent=2))
        return 0
    if not result.get("reconfigured"):
        print(f"lease {args.lease_id}: staying put ({result.get('reason')})")
        return 0
    print(f"# lease={result['lease_id']} kind={result['kind']} "
          f"gain={result['predicted_gain']:+.3f} "
          f"cost={result['cost_s']:.1f}s "
          f"drop={','.join(result['drop_nodes']) or '-'}")
    sys.stdout.write(result["hostfile"])
    return 0


def client_status(client, args: argparse.Namespace) -> int:
    result = client.status()
    if args.json:
        print(json.dumps(result, indent=2))
        return 0
    m = result["metrics"]
    lat = m["decision_latency_ms"]
    print(f"broker v{result['protocol_version']} "
          f"uptime={result['uptime_s']:.1f}s policy={result['policy']}")
    print(f"leases: active={result['leases']['active']} "
          f"nodes_held={result['leases']['nodes_held']}")
    print(f"decisions: granted={m['granted']} denied={m['denied']} "
          f"busy_rejected={m['busy_rejected']} expired={m['expired']} "
          f"memoized={m['decisions_memoized']}")
    print(f"reconfigure: committed={m['reconfigured']} "
          f"rejected={m['reconfig_rejected']}")
    print(f"protocol: errors={m['protocol_errors']} "
          f"malformed={m['malformed_lines']} "
          f"oversized={m['oversized_requests']}")
    print(f"batches: {m['batches']} sizes={m['batch_size_hist']}")
    print(f"latency: p50={lat['p50']:.3f}ms p99={lat['p99']:.3f}ms "
          f"max={lat['max']:.3f}ms")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as lint_main

    return lint_main(getattr(args, "lint_args", []))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Network and load-aware resource manager (ICPP'20 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="print a hostfile for a request")
    add_scenario_args(p)
    add_request_args(p)
    p.add_argument("--policy", default="network_load_aware")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of a hostfile")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("simulate", help="allocate and price an app run")
    add_scenario_args(p)
    add_request_args(p)
    p.add_argument("--policy", default="network_load_aware")
    p.add_argument("--app", default="minimd", choices=sorted(APPS))
    p.add_argument("--size", type=int, default=16,
                   help="problem size (s for miniMD, nx for miniFE, n for stencil)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run all four §5 policies once")
    add_scenario_args(p)
    add_request_args(p)
    p.add_argument("--app", default="minimd", choices=sorted(APPS))
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of a table")
    p.add_argument("--elastic", action="store_true",
                   help="additionally run the static-vs-elastic DES "
                        "comparison under drifting load (same seed)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "elastic",
        help="static vs. elastic scheduling under drifting load",
    )
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--jobs", type=int, default=6)
    p.add_argument("-n", "--procs", type=int, default=8)
    p.add_argument("--ppn", type=int, default=4)
    p.add_argument("--intensity", type=float, default=1.0,
                   help="drift intensity multiplier for the OU excursions")
    p.add_argument("--failure-rate", type=float, default=0.0,
                   help="probability an accepted migration fails mid-flight")
    p.add_argument("--reprice-period-s", type=float, default=30.0)
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="registered world scenario "
                        "(default: legacy uniform tree)")
    p.add_argument("--events", action="store_true",
                   help="also print each reconfiguration event")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_elastic)

    p = sub.add_parser(
        "chaos",
        help="run the deterministic fault-injection scenario harness",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="drives faults, workload, and targets identically")
    p.add_argument("--only", action="append", default=None,
                   metavar="NAME[,NAME...]",
                   help="run only these scenarios (repeatable)")
    p.add_argument("--smoke", action="store_true",
                   help="run only the fast CI smoke trio")
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="registered world scenario to inject faults "
                        "into (default: legacy uniform tree)")
    p.add_argument("--list", action="store_true",
                   help="list available scenarios and exit")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable reports")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print each injected fault")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "scenarios",
        help="list registered world scenarios or run one end-to-end",
    )
    scen_sub = p.add_subparsers(dest="action", required=True)
    pl = scen_sub.add_parser("list", help="list the registered matrix")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=cmd_scenarios)
    pr = scen_sub.add_parser(
        "run", help="four-policy comparison over one scenario's job stream"
    )
    pr.add_argument("name", help="registered scenario name")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--jobs", type=int, default=5)
    pr.add_argument("-n", "--procs", type=int, default=16)
    pr.add_argument("--ppn", type=int, default=4)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("trace", help="record resource usage to CSV")
    add_scenario_args(p)
    p.add_argument("--hours", type=float, default=24.0)
    p.add_argument("--period-s", type=float, default=300.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("report", help="regenerate a paper figure/table")
    add_scenario_args(p)
    p.add_argument(
        "artifact",
        choices=["fig1", "fig2", "fig4", "fig5", "fig6", "fig7",
                 "table2", "table3", "table4"],
    )
    p.add_argument("--hours", type=float, default=48.0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument(
        "--procs", default=None,
        help="comma-separated process counts for grid artifacts "
             "(default: the paper's)",
    )
    p.add_argument(
        "--sizes", default=None,
        help="comma-separated problem sizes for grid artifacts",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("serve", help="run the allocation broker daemon")
    add_scenario_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7077,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--policy", default="network_load_aware")
    p.add_argument("--default-ttl-s", type=float, default=60.0,
                   help="lease TTL when the client doesn't pick one")
    p.add_argument("--max-ttl-s", type=float, default=3600.0)
    p.add_argument("--batch-window-ms", type=float, default=0.0,
                   help="extra time to wait for micro-batch stragglers "
                        "(0 = adaptive: batch whatever queued during the "
                        "previous decision)")
    p.add_argument("--max-batch", type=int, default=64)
    p.add_argument("--max-queue", type=int, default=128,
                   help="admission queue bound; overflow answers BUSY")
    p.add_argument("--sweep-period-s", type=float, default=1.0,
                   help="how often expired leases are reclaimed")
    p.add_argument("--snapshot-max-age-s", type=float, default=5.0,
                   help="serve decisions from a snapshot at most this old")
    p.add_argument("--advance-on-refresh-s", type=float, default=5.0,
                   help="simulated seconds the cluster advances per "
                        "snapshot refresh (0 = frozen cluster)")
    p.add_argument("--wait-threshold", type=float, default=None,
                   help="§6 saturation guard: mean load/core above which "
                        "allocate answers WAIT")
    p.add_argument("--shards", type=int, default=0,
                   help="run a sharded federation instead of one broker: "
                        "partition the cluster into up to N switch-subtree "
                        "shards behind a scoring router (0 = single broker)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "federate",
        help="build a sharded federation and show its routing",
    )
    add_scenario_args(p)
    add_request_args(p, min_ppn=0)  # --ppn 0: no explicit ppn
    p.add_argument("--shards", type=int, default=4,
                   help="target shard count (whole switch subtrees)")
    p.add_argument("--json", action="store_true",
                   help="print shard aggregates and the grant as JSON")
    p.set_defaults(func=cmd_federate)

    p = sub.add_parser("client", help="talk to a running broker daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7077)
    p.add_argument("--timeout-s", type=float, default=10.0)
    p.add_argument("--connect-retries", type=int, default=20)
    p.add_argument("--seed", dest="client_seed", type=int, default=None,
                   help="seed for retry-jitter (default: $REPRO_CLIENT_SEED "
                        "or 0, so retry schedules replay byte-identically)")
    csub = p.add_subparsers(dest="client_command", required=True)

    c = csub.add_parser("allocate", help="request nodes and a lease")
    c.add_argument("-n", "--procs", type=int, default=32)
    c.add_argument("--ppn", type=int, default=None)
    c.add_argument("--alpha", type=float, default=0.3)
    c.add_argument("--policy", default=None)
    c.add_argument("--ttl-s", type=float, default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_client, client_func=client_allocate)

    c = csub.add_parser("renew", help="extend a lease's TTL")
    c.add_argument("lease_id")
    c.add_argument("--ttl-s", type=float, default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_client, client_func=client_renew)

    c = csub.add_parser("release", help="release a lease")
    c.add_argument("lease_id")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_client, client_func=client_release)

    c = csub.add_parser(
        "reconfigure", help="replan a lease against current conditions"
    )
    c.add_argument("lease_id")
    c.add_argument("--remaining-s", type=float, default=None,
                   help="estimated remaining job runtime (amortizes the "
                        "migration bill; default: lease's remaining TTL)")
    c.add_argument("--alpha", type=float, default=None,
                   help="override the Eq-4 trade-off recorded at grant time")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_client, client_func=client_reconfigure)

    c = csub.add_parser("status", help="daemon status and metrics")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_client, client_func=client_status)

    # `lint` forwards everything after the verb to the analysis CLI (see
    # main(): argparse.REMAINDER cannot forward leading options).
    p = sub.add_parser(
        "lint",
        help="run the static invariant checks (see docs/ANALYSIS.md)",
    )
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forwarded verbatim: the lint engine owns its own argparse
        # (argparse.REMAINDER would swallow leading --options here).
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
