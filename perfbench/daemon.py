"""Serve one benchmark system on loopback until SIGTERM.

``run.py`` starts this in its own process::

    python3 perfbench/daemon.py --kind paper60 --frozen 0 --trace 0 \
        --report out.json

It prints ``READY <port>`` once the server listens.  On SIGUSR1 it
writes its lifetime counters (snapshot source, decision memo, CPU time)
to ``<report>.mark``, so a phase can be judged by the counters' change
over it.  On SIGTERM it stops the server and writes a JSON report: the
same counters, its peak RSS and, when traced, every recorded span.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from system import System, build_system  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def counters(system: System) -> dict[str, Any]:
    """Lifetime counters the ``status`` verb does not carry for every kind."""
    source = system.source
    shard_ids = getattr(system.service, "shard_ids", None)
    services = (
        [system.service.shard(sid).service for sid in shard_ids]
        if shard_ids is not None
        else [system.service]
    )
    return {
        "refreshes": source.refreshes,
        "deltas_applied": source.deltas_applied,
        "deltas_empty": source.deltas_empty,
        "full_rebuilds": source.delta_full_rebuilds,
        "memo_hits": sum(s.metrics.decisions_memoized for s in services),
        "decisions": sum(s.metrics.granted + s.metrics.denied for s in services),
        "cpu_s": time.process_time(),
    }


def write_json(path: Path, obj: Any) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj))
    os.replace(tmp, path)


async def serve(system: System, tracer: Tracer | None, report: Path) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(
        signal.SIGUSR1, lambda: write_json(report.with_suffix(".mark"), counters(system))
    )
    _, port = await system.server.start()
    print(f"READY {port}", flush=True)
    try:
        await stop.wait()
    finally:
        await system.server.stop()
    out: dict[str, Any] = {
        "counters": counters(system),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.dump()
    write_json(report, out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True)
    parser.add_argument("--frozen", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, required=True)
    args = parser.parse_args()
    system = build_system(args.kind, frozen=bool(args.frozen))
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    asyncio.run(serve(system, tracer, args.report))


if __name__ == "__main__":
    main()
