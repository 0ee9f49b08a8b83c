"""Open-loop launcher traffic over pipelined JSON-lines connections.

One task sends every scheduled operation when it falls due, whether or
not earlier ones were answered: independent launchers do not wait for
each other, so a stalled daemon faces a growing queue.  Reader tasks
match responses to requests by id.  Every latency is timed from when the
operation was *due*, which charges a stall to each request it delays;
how late the sender itself ran is recorded separately.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ledger import Ledger
from workloads import Job

clock = time.perf_counter

#: connections per client, one per CPU of the reference host
N_CONNECTIONS = 2
#: pipelined allocates each connection may have in flight
MAX_INFLIGHT = 128
#: the first operation of a phase falls due this long after it starts
START_DELAY_S = 0.05
#: how long a phase waits for outstanding replies after its last send
DRAIN_TIMEOUT_S = 20.0

Reply = Callable[[dict[str, Any], float], None]


class Client:
    """Pipelined JSON-lines connections to one daemon."""

    def __init__(self) -> None:
        self._writers: list[asyncio.StreamWriter] = []
        self._readers: list[asyncio.Task[None]] = []
        self._pending: dict[str, Reply] = {}
        self._ids = itertools.count()

    async def open(self, port: int) -> None:
        for _ in range(N_CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self._writers.append(writer)
            self._readers.append(asyncio.ensure_future(self._read(reader)))
        for conn in range(N_CONNECTIONS):
            reply = await self.call(
                conn, "hello", {"pipeline": True, "max_inflight": MAX_INFLIGHT}
            )
            if not reply.get("ok"):
                raise RuntimeError(f"hello refused: {reply}")

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while line := await reader.readline():
            now = clock()
            msg = json.loads(line)
            on_reply = self._pending.pop(str(msg.get("id")), None)
            if on_reply is not None:
                on_reply(msg, now)

    def send(
        self,
        conn: int,
        req_id: str,
        op: str,
        params: dict[str, Any] | None,
        on_reply: Reply,
    ) -> float:
        """Write one request; returns the time it was handed to the socket."""
        self._pending[req_id] = on_reply
        obj: dict[str, Any] = {"v": 1, "id": req_id, "op": op}
        if params:
            obj["params"] = params
        line = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
        sent = clock()
        self._writers[conn].write(line)
        return sent

    async def call(
        self,
        conn: int,
        op: str,
        params: dict[str, Any] | None = None,
        timeout_s: float = 60.0,
    ) -> dict[str, Any]:
        """One request, awaited."""
        fut: asyncio.Future[dict[str, Any]] = (
            asyncio.get_running_loop().create_future()
        )

        def on_reply(msg: dict[str, Any], _now: float) -> None:
            if not fut.done():
                fut.set_result(msg)

        self.send(conn, f"c{next(self._ids)}", op, params, on_reply)
        return await asyncio.wait_for(fut, timeout_s)

    async def close(self) -> None:
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


@dataclass
class PhaseStats:
    """What one phase sent, and what came back."""

    #: (due time, latency ms, error code or None) of each answered allocate
    allocs: list[tuple[float, float, str | None]] = field(default_factory=list)
    #: latency ms of each answered renew and release
    lease_ms: list[float] = field(default_factory=list)
    #: how late the sender ran, ms, for each operation sent on schedule
    lag_ms: list[float] = field(default_factory=list)
    #: allocate id → (sent, received), for trace attribution
    timing: dict[str, tuple[float, float]] = field(default_factory=dict)
    ops: Counter[str] = field(default_factory=Counter)
    errors: Counter[str] = field(default_factory=Counter)
    shapes: Counter[str] = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    #: renews and releases never sent because their allocate failed
    skipped: int = 0
    grants: int = 0
    cross_shard: int = 0
    #: (first due time, end of the phase) on the shared clock
    window: tuple[float, float] = (0.0, 0.0)

    @property
    def alloc_ms(self) -> list[float]:
        return [ms for _, ms, _ in self.allocs]


def pool(parts: Sequence[PhaseStats]) -> PhaseStats:
    """Several phases' stats as one sample; the window is left unset."""
    out = PhaseStats()
    for p in parts:
        out.allocs += p.allocs
        out.lease_ms += p.lease_ms
        out.lag_ms += p.lag_ms
        out.timing.update(p.timing)
        out.ops.update(p.ops)
        out.errors.update(p.errors)
        out.shapes.update(p.shapes)
        out.attempted += p.attempted
        out.failed += p.failed
        out.skipped += p.skipped
        out.grants += p.grants
        out.cross_shard += p.cross_shard
    return out


async def run_phase(
    client: Client, jobs: Sequence[Job], ledger: Ledger, tag: str
) -> PhaseStats:
    """Drive one schedule open-loop, then wait for every reply."""
    st = PhaseStats()
    events = sorted(
        [(job.arrive, 0, job.idx, 0) for job in jobs]
        + [(t, 1, job.idx, k) for job in jobs for k, t in enumerate(job.renews)]
        + [(job.release, 2, job.idx, 0) for job in jobs]
    )
    lease: dict[int, str | None] = {}  # job → lease id, None if denied
    deferred: dict[int, list[tuple[int, int, int, float]]] = defaultdict(list)
    outstanding = 0
    sending = True
    drained = asyncio.Event()

    def settle(error: str | None) -> None:
        nonlocal outstanding
        if error is not None:
            st.failed += 1
            st.errors[error] += 1
        outstanding -= 1
        if not sending and outstanding == 0:
            drained.set()

    def send_op(kind: int, j: int, k: int, due: float) -> float:
        nonlocal outstanding
        job = jobs[j]
        conn = j % N_CONNECTIONS
        outstanding += 1
        st.attempted += 1
        if kind == 0:
            rid = f"{tag}.a{j}"
            params: dict[str, Any] = {
                "n": job.n, "alpha": job.alpha, "ttl_s": job.ttl_s,
            }
            if job.ppn is not None:
                params["ppn"] = job.ppn
            st.ops["allocate"] += 1
            st.shapes[f"{job.n}/{job.ppn or '-'}"] += 1

            def on_grant(msg: dict[str, Any], now: float) -> None:
                st.timing[rid] = (sent, now)
                if not msg.get("ok"):
                    code = msg["error"]["code"]
                    st.allocs.append((due, 1e3 * (now - due), code))
                    lease[j] = None
                    st.skipped += len(deferred.pop(j, ()))
                    settle(code)
                    return
                st.allocs.append((due, 1e3 * (now - due), None))
                result = msg["result"]
                lease[j] = result["lease_id"]
                st.grants += 1
                st.cross_shard += "shards" in result
                good = ledger.grant(job.n, job.ppn, result)
                for item in deferred.pop(j, ()):
                    send_op(*item)
                settle(None if good else "LEDGER")

            sent = client.send(conn, rid, "allocate", params, on_grant)
            return sent
        lid = lease[j]
        assert lid is not None
        if kind == 1:
            rid, op = f"{tag}.r{j}.{k}", "renew"
            params = {"lease_id": lid, "ttl_s": job.ttl_s}
        else:
            rid, op = f"{tag}.x{j}", "release"
            params = {"lease_id": lid}
            ledger.release_sent(lid)
        st.ops[op] += 1

        def on_lease(msg: dict[str, Any], now: float) -> None:
            st.lease_ms.append(1e3 * (now - due))
            if not msg.get("ok"):
                settle(msg["error"]["code"])
            elif kind == 1:
                settle(None if ledger.renew(lid, msg["result"]) else "LEDGER")
            else:
                settle(None if ledger.released(lid) else "LEDGER")

        return client.send(conn, rid, op, params, on_lease)

    t0 = clock() + START_DELAY_S
    for due_rel, kind, j, k in events:
        due = t0 + due_rel
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        if kind and j not in lease:  # its grant is still in flight
            deferred[j].append((kind, j, k, due))
            continue
        if kind and lease[j] is None:  # its allocate failed
            st.skipped += 1
            continue
        sent = send_op(kind, j, k, due)
        st.lag_ms.append(1e3 * (sent - due))
    sending = False
    if outstanding:
        try:
            await asyncio.wait_for(drained.wait(), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            st.failed += outstanding
            st.errors["TIMEOUT"] += outstanding
    st.window = (t0, clock())
    return st
