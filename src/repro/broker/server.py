"""The broker daemon — asyncio JSON-lines over TCP.

Transport architecture:

* one :func:`asyncio.start_server` connection handler per client,
  reading newline-delimited requests and writing one response line per
  request, in order.  A ``hello`` request may switch the connection to
  **pipelined** mode, where up to ``max_inflight`` allocate requests
  ride the admission queue concurrently and responses are written as
  they complete — possibly out of order, matched by request ``id``.
  Exceeding the in-flight window answers ``BUSY`` immediately;
* admitted ops (``allocate``) flow through a **bounded admission queue**
  into a single batcher task.  The batcher drains whatever accumulated
  while the previous batch was being decided (plus, optionally, waits
  ``batch_window_s`` for stragglers), then decides the whole batch
  against one shared snapshot via
  :meth:`~repro.broker.service.BrokerService.allocate_batch`.  When the
  queue is full the connection handler answers ``BUSY`` immediately —
  explicit backpressure instead of unbounded buffering;
* every other op in the daemon's :attr:`~BrokerServer.SCOPES` is served
  inline by the connection handler through
  :func:`~repro.broker.protocol.dispatch`; the rest answer ``UNKNOWN_OP``;
* a **sweeper task** reclaims expired leases every ``sweep_period_s`` so
  capacity held by dead clients returns to the pool even if nobody ever
  allocates again.

:class:`BrokerDaemonThread` hosts the event loop in a daemon thread so
synchronous code (benchmarks, tests, notebooks) can run a broker without
touching asyncio.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Any

from repro.broker.protocol import (
    BROKER_SCOPE,
    CODECS,
    MAX_LINE_BYTES,
    OP_TABLE,
    PROTOCOL_VERSION,
    TRANSPORT_SCOPE,
    AllocateParams,
    ErrorCode,
    HelloParams,
    ProtocolError,
    Request,
    Response,
    best_effort_id,
    dispatch,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)
from repro.broker.service import BrokerService

log = logging.getLogger(__name__)

#: Coalesced-response cap: a pipelined burst flushes at least this often
#: even while further requests are still buffered, bounding both memory
#: and the client's wait for the first response of a very large burst.
_FLUSH_HIGH_WATER = 256 * 1024


class _TransportViolation(Exception):
    """A framing-level fault the connection cannot recover from."""

    def __init__(self, error: ProtocolError) -> None:
        super().__init__(error.message)
        self.error = error


class _ConnState:
    """Per-connection transport options negotiated via ``hello``."""

    __slots__ = ("pipeline", "max_inflight", "write_lock", "out")

    def __init__(self) -> None:
        self.pipeline = False
        self.max_inflight = 1
        self.write_lock = asyncio.Lock()
        # Coalesced inline responses awaiting one flush (reader loop only).
        self.out = bytearray()


class BrokerServer:
    """Asyncio TCP daemon around a :class:`BrokerService`.

    ``port=0`` binds an ephemeral port (read it back from ``self.port``
    after :meth:`start`).  ``batch_window_s=0`` (the default) batches
    *adaptively*: each batch is whatever arrived while the previous one
    was being decided — no added latency when traffic is light, large
    batches exactly when traffic is heavy.  A positive window additionally
    waits that long for stragglers before deciding.
    """

    #: op scopes this daemon serves (:data:`~repro.broker.protocol.OP_TABLE`);
    #: any other op answers ``UNKNOWN_OP``
    SCOPES: frozenset[str] = frozenset({BROKER_SCOPE, TRANSPORT_SCOPE})

    def __init__(
        self,
        service: BrokerService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window_s: float = 0.0,
        max_batch: int = 64,
        max_queue: int = 128,
        sweep_period_s: float = 1.0,
    ) -> None:
        if batch_window_s < 0:
            raise ValueError(f"batch_window_s must be >= 0: {batch_window_s}")
        if max_batch <= 0 or max_queue <= 0:
            raise ValueError("max_batch and max_queue must be positive")
        if sweep_period_s <= 0:
            raise ValueError(f"sweep_period_s must be positive: {sweep_period_s}")
        self.service = service
        self.host = host
        self.port = port
        self.batch_window_s = batch_window_s
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.sweep_period_s = sweep_period_s
        self._server: asyncio.base_events.Server | None = None
        self._queue: asyncio.Queue | None = None
        self._tasks: list[asyncio.Task] = []

    # ------------------------------------------------------------------
    async def start(
        self, *, start_batcher: bool = True, start_sweeper: bool = True
    ) -> tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``.

        The batcher/sweeper switches exist for deterministic tests (a
        paused batcher makes the admission queue fill synchronously).
        """
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        # The stream limit must exceed MAX_LINE_BYTES so oversized-but-
        # bounded lines are *read* and then rejected (and counted) by
        # parse_request, instead of blowing up readline() mid-transport.
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=4 * MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]  # lint: allow(RACE001) — start() runs once; rebinding host/port to the resolved socket address is the point
        if start_batcher:
            self._spawn(self._batcher(), "batcher")
        if start_sweeper:
            self._spawn(self._sweeper(), "sweeper")
        log.info("broker listening on %s:%d", self.host, self.port)
        return self.host, self.port

    def _spawn(self, coro: Any, name: str) -> "asyncio.Task[Any]":
        """Start a background task with its failure accounted for.

        The reference is retained in ``self._tasks`` (the loop keeps only
        a weak one) and a done-callback logs and counts any unexpected
        death into ``metrics.background_task_failures`` — a silently dead
        sweeper would otherwise leak every expired lease forever.
        """
        task = asyncio.ensure_future(coro)

        def _on_done(done: "asyncio.Task[Any]") -> None:
            if done.cancelled():
                return
            exc = done.exception()
            if exc is not None:
                self.service.metrics.background_task_failures += 1
                log.error("background task %r died: %r", name, exc)

        task.add_done_callback(_on_done)
        self._tasks.append(task)
        return task

    async def serve_forever(self) -> None:
        """Run until cancelled (after :meth:`start`)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, cancel background tasks, fail queued waiters.

        Safe to call twice or concurrently: every shared handle is
        swapped out *before* the first await touching it, so a task
        registered while the drain awaits lands in a fresh list and is
        drained by the next round instead of being ``clear()``-ed away
        uncancelled, and a second ``stop()`` closing the listener finds
        it already taken.
        """
        while self._tasks:
            tasks, self._tasks = self._tasks, []
            for task in tasks:
                task.cancel()
            for task in tasks:
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001 — shutdown drains every background task; a task that died earlier must not abort stop()
                    pass
        if self._queue is not None:
            while not self._queue.empty():
                _, fut = self._queue.get_nowait()
                # an admission future resolves to a grant or a denial,
                # so _admit turns this into the waiter's typed reply
                if not fut.done():
                    fut.set_result(
                        ProtocolError(ErrorCode.INTERNAL, "server shutting down")
                    )
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        conn = _ConnState()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    raw = await self._read_line(reader)
                except _TransportViolation as exc:
                    # Oversized line: the stream cannot be resynced
                    # mid-message, so answer once, count it, and drop the
                    # connection.
                    metrics = self.service.metrics
                    metrics.protocol_errors += 1
                    metrics.oversized_requests += 1
                    try:
                        await self._send(writer, conn, error_response("", exc.error))
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                    break
                except ConnectionResetError:
                    break
                if raw is None:
                    break
                try:
                    await self._handle_message(raw, conn, writer, pending)
                    if conn.out and not self._defer_flush(reader, conn):
                        await self._flush(writer, conn)
                except (ConnectionResetError, BrokenPipeError):
                    break
        finally:
            for task in pending:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            log.debug("connection from %s closed", peer)

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
        """The next non-blank request line; ``None`` on EOF."""
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # A line even the raised stream limit couldn't hold.
                raise _TransportViolation(ProtocolError(
                    ErrorCode.BAD_REQUEST,
                    f"request exceeds {MAX_LINE_BYTES} bytes",
                )) from None
            if not line:
                return None
            if line.strip() == b"":
                continue
            return line

    async def _send(
        self, writer: asyncio.StreamWriter, conn: _ConnState, response: Response
    ) -> None:
        """Encode and write one response line.

        The lock serializes writers: in pipelined mode the reader loop
        and any number of completion tasks share one socket.
        """
        data = encode_response(response)
        async with conn.write_lock:
            writer.write(data)
            await writer.drain()

    @staticmethod
    def _defer_flush(reader: asyncio.StreamReader, conn: _ConnState) -> bool:
        """Whether coalesced responses may wait for the next request.

        Only a *pipelined* connection (which has promised to read
        responses concurrently) with more request bytes already buffered
        gets its inline responses coalesced into one write — a burst of
        N cheap ops then costs one syscall instead of N.  Everyone else
        is flushed before the reader blocks, preserving strict
        request/response alternation for stop-and-wait clients.
        """
        return (
            conn.pipeline
            and len(conn.out) < _FLUSH_HIGH_WATER
            and bool(getattr(reader, "_buffer", None))
        )

    async def _flush(
        self, writer: asyncio.StreamWriter, conn: _ConnState
    ) -> None:
        """Write every coalesced inline response in one locked burst."""
        data = bytes(conn.out)
        del conn.out[:]
        async with conn.write_lock:
            writer.write(data)
            await writer.drain()

    async def _handle_message(
        self,
        raw: bytes,
        conn: _ConnState,
        writer: asyncio.StreamWriter,
        pending: set[asyncio.Task],
    ) -> None:
        try:
            request = parse_request(raw)
        except ProtocolError as exc:
            metrics = self.service.metrics
            metrics.protocol_errors += 1
            if len(raw) > MAX_LINE_BYTES:
                metrics.oversized_requests += 1
            elif not _parses_as_object(raw):
                metrics.malformed_lines += 1
            conn.out += encode_response(error_response(best_effort_id(raw), exc))
            return
        self.service.metrics.record_request(request.op)
        spec = OP_TABLE[request.op]
        if spec.scope == TRANSPORT_SCOPE:
            # The granted mode applies to every request after this one.
            response, upgrade = self._hello(request)
            conn.out += encode_response(response)
            if upgrade is not None:
                conn.pipeline, conn.max_inflight = upgrade
            return
        if conn.pipeline and spec.admitted:
            if len(pending) >= conn.max_inflight:
                self.service.metrics.busy_rejected += 1
                conn.out += encode_response(error_response(
                    request.id,
                    ProtocolError(
                        ErrorCode.BUSY,
                        f"pipeline window full ({conn.max_inflight}); "
                        "read some responses before sending more",
                    ),
                ))
                return
            task = asyncio.ensure_future(
                self._serve_pipelined(request, conn, writer)
            )
            pending.add(task)
            task.add_done_callback(pending.discard)
            return
        if spec.admitted:
            response = await self._admit(request)
        else:
            response = dispatch(self.service, request, self.SCOPES)
        conn.out += encode_response(response)

    def _hello(
        self, request: Request
    ) -> tuple[Response, tuple[bool, int] | None]:
        """Negotiate pipelining; returns (response, upgrade)."""
        params = request.params
        assert isinstance(params, HelloParams)
        if params.codec not in CODECS:
            return error_response(request.id, ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"unsupported codec {params.codec!r}; "
                f"server offers {list(CODECS)}",
            )), None
        window = min(params.max_inflight, self.max_queue) if params.pipeline else 1
        result = {
            "codec": params.codec,
            "pipeline": params.pipeline,
            "max_inflight": window,
            "codecs": list(CODECS),
            "protocol_version": PROTOCOL_VERSION,
        }
        return ok_response(request.id, result), (params.pipeline, window)

    async def _serve_pipelined(
        self,
        request: Request,
        conn: _ConnState,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Decide one pipelined allocate and write its response when done."""
        response = await self._admit(request)
        try:
            await self._send(writer, conn, response)
        except (ConnectionResetError, BrokenPipeError, OSError, RuntimeError):
            log.debug("pipelined response for %s lost: peer gone", request.id)

    async def _admit(self, request: Request) -> Response:
        """Queue an allocate request, or reject with ``BUSY`` when full."""
        assert self._queue is not None, "server not started"
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((request.params, fut))
        except asyncio.QueueFull:
            self.service.metrics.busy_rejected += 1
            return error_response(
                request.id,
                ProtocolError(
                    ErrorCode.BUSY,
                    f"admission queue full ({self.max_queue}); retry later",
                ),
            )
        outcome = await fut
        if isinstance(outcome, ProtocolError):
            return error_response(request.id, outcome)
        return ok_response(request.id, outcome)

    # ------------------------------------------------------------------
    async def _batcher(self) -> None:
        """Collect micro-batches off the admission queue and decide them."""
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch: list[tuple[AllocateParams, asyncio.Future]] = [first]
            if self.batch_window_s > 0:
                deadline = loop.time() + self.batch_window_s
                while len(batch) < self.max_batch:
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(self._queue.get(), timeout)
                        )
                    except asyncio.TimeoutError:
                        break
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                results = self.service.allocate_batch([p for p, _ in batch])
            except Exception as exc:  # noqa: BLE001 — keep the batcher alive
                log.exception("batch decision failed")
                err = ProtocolError(
                    ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
                )
                results = [err] * len(batch)
            for (_, fut), result in zip(batch, results):
                if not fut.done():
                    fut.set_result(result)

    async def _sweeper(self) -> None:
        """Periodically reclaim expired leases."""
        while True:
            await asyncio.sleep(self.sweep_period_s)
            reclaimed = self.service.sweep_expired()
            if reclaimed:
                log.info(
                    "sweeper reclaimed %d expired lease(s): %s",
                    len(reclaimed),
                    ", ".join(l.lease_id for l in reclaimed),
                )


def _parses_as_object(line: bytes) -> bool:
    """Whether the line is at least a JSON object (vs. raw garbage)."""
    import json

    try:
        return isinstance(json.loads(line), dict)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError both are
        return False


class BrokerDaemonThread:
    """A broker daemon running its event loop in a background thread.

    Lets synchronous code (benchmarks, the CLI smoke test, notebooks)
    start a real TCP broker, talk to it with the blocking
    :class:`~repro.broker.client.BrokerClient`, and tear it down —
    without writing any asyncio.
    """

    def __init__(self, server: BrokerServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        return self.server.port

    def start(self, timeout_s: float = 10.0) -> "BrokerDaemonThread":
        """Start the loop thread and wait until the server is listening."""

        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def boot() -> None:
                try:
                    await self.server.start()
                except BaseException as exc:  # noqa: BLE001 — captured for the foreground thread to re-raise; swallowing any failure here would hang start()'s wait
                    self._start_error = exc
                    raise
                finally:
                    self._started.set()

            try:
                loop.run_until_complete(boot())
            except BaseException:  # noqa: BLE001 — reported via _start_error
                return
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.stop())
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-broker", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("broker daemon failed to start in time")
        if self._start_error is not None:
            raise RuntimeError(
                f"broker daemon failed to start: {self._start_error}"
            )
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the server and join the loop thread."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout_s)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "BrokerDaemonThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
