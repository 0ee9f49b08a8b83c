"""The broker daemon — asyncio JSON-lines over TCP.

Transport architecture:

* one :class:`asyncio.Protocol` per client connection, and no task per
  connection or per request.  Each chunk the socket delivers is split
  into newline-delimited requests, served in order, and the replies to
  its inline ops leave in one write.  A ``hello`` request may switch the
  connection to **pipelined** mode, where up to ``max_inflight``
  allocate requests wait in the admission queue at once and their
  responses are written as they are decided — possibly out of order,
  matched by request ``id``.  Exceeding the in-flight window answers
  ``BUSY`` immediately.  A connection that has not pipelined reads no
  further request until its allocate is answered;
* admitted ops (``allocate``) join a **bounded admission queue**.  The
  first one schedules a single batch callback on the event loop (after
  ``batch_window_s``, when one is set), which decides up to
  ``max_batch`` queued requests against one shared snapshot via
  :meth:`~repro.broker.service.BrokerService.allocate_batch` and writes
  their replies: a batch is whatever queued before the loop got to it.
  When the queue is full the connection answers ``BUSY`` immediately —
  explicit backpressure instead of unbounded buffering;
* every other op in the daemon's :attr:`~BrokerServer.SCOPES` is served
  inline through :func:`~repro.broker.protocol.dispatch`; the rest
  answer ``UNKNOWN_OP``;
* a connection whose peer stops reading its replies stops being read
  (``pause_writing`` pauses reading until ``resume_writing``), so no
  connection buffers without bound;
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
from collections import deque
from typing import Any, Iterable, cast

from repro.broker.protocol import (
    BROKER_SCOPE,
    CODECS,
    MAX_LINE_BYTES,
    OP_TABLE,
    PROTOCOL_VERSION,
    TRANSPORT_SCOPE,
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

#: Coalesced-response cap: a burst flushes at least this often even while
#: further requests are still buffered, bounding both memory and the
#: client's wait for the first response of a very large burst.
_FLUSH_HIGH_WATER = 256 * 1024

#: A line longer than this cannot be resynced mid-message, so it is
#: answered once and its connection closed.  A line between
#: ``MAX_LINE_BYTES`` and this is read whole, refused by
#: ``parse_request``, and the connection keeps serving.
_LINE_LIMIT = 4 * MAX_LINE_BYTES

#: an admitted allocate: the request and the connection its reply goes to
_Entry = tuple[Request, "_Connection"]


class _Connection(asyncio.Protocol):
    """One client connection: framing, inline ops, admission, flow control.

    Buffered lines wait, unread, while the peer does not read its
    replies (``pause_writing``) and, on a connection that has not
    pipelined, while its admitted allocate awaits its reply; reading
    from the socket pauses with them.
    """

    __slots__ = (
        "server", "transport", "peer", "pipeline", "max_inflight",
        "inflight", "awaiting", "write_paused", "eof", "closed", "buf",
        "scanned", "out",
    )

    def __init__(self, server: BrokerServer) -> None:
        self.server = server
        self.transport: asyncio.Transport
        self.peer: Any = None
        self.pipeline = False
        self.max_inflight = 1
        #: admitted allocates not yet answered
        self.inflight = 0
        #: the allocate a connection that has not pipelined waits on
        self.awaiting: Request | None = None
        self.write_paused = False
        self.eof = False
        self.closed = False
        #: received bytes not yet served; ``buf[:scanned]`` holds no
        #: newline after the first unserved line's start
        self.buf = bytearray()
        self.scanned = 0
        #: replies awaiting one write
        self.out = bytearray()

    # -- asyncio.Protocol -----------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self.peer = transport.get_extra_info("peername")

    def data_received(self, data: bytes) -> None:
        self.buf += data
        self.serve_buffered()

    def eof_received(self) -> bool:
        # Lines received before the EOF are still served; the connection
        # closes once they are, and replies still pending are dropped.
        self.eof = True
        self.serve_buffered()
        return True

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed = True
        log.debug("connection from %s closed", self.peer)

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self.serve_buffered()

    # -- serving --------------------------------------------------------
    def serve_buffered(self) -> None:
        """Serve every buffered line that may be served now, write the
        replies, and read from the socket only if more may be served."""
        buf = self.buf
        start = 0
        close = False
        while not (self.awaiting is not None or self.write_paused or self.closed):
            end = buf.find(b"\n", self.scanned)
            if end < 0:
                self.scanned = len(buf)
                if len(buf) - start > _LINE_LIMIT:
                    self.refuse_oversized()
                    close = True
                else:
                    close = self.eof
                break
            if end - start > _LINE_LIMIT:
                self.refuse_oversized()
                close = True
                break
            line = buf[start:end + 1]
            start = self.scanned = end + 1
            if line.strip():
                self.serve_line(line)
                if len(self.out) >= _FLUSH_HIGH_WATER:
                    self.flush()
        if start:
            del buf[:start]
            self.scanned -= start
        self.flush()
        if close:
            self.closed = True
            self.transport.close()
        elif not (self.eof or self.closed):
            if self.awaiting is not None or self.write_paused:
                self.transport.pause_reading()
            else:
                self.transport.resume_reading()

    def refuse_oversized(self) -> None:
        """Answer a line past ``_LINE_LIMIT`` once; the caller closes."""
        metrics = self.server.service.metrics
        metrics.protocol_errors += 1
        metrics.oversized_requests += 1
        self.out += encode_response(error_response("", ProtocolError(
            ErrorCode.BAD_REQUEST, f"request exceeds {MAX_LINE_BYTES} bytes"
        )))

    def serve_line(self, raw: bytearray) -> None:
        """Answer one request line inline, or admit its allocate."""
        server = self.server
        metrics = server.service.metrics
        try:
            request = parse_request(raw)
        except ProtocolError as exc:
            metrics.protocol_errors += 1
            if len(raw) > MAX_LINE_BYTES:
                metrics.oversized_requests += 1
            elif not _parses_as_object(raw):
                metrics.malformed_lines += 1
            self.out += encode_response(error_response(best_effort_id(raw), exc))
            return
        metrics.record_request(request.op)
        spec = OP_TABLE[request.op]
        if spec.scope == TRANSPORT_SCOPE:
            # The granted mode applies to every request after this one.
            response, upgrade = server._hello(request)
            if upgrade is not None:
                self.pipeline, self.max_inflight = upgrade
        elif not spec.admitted:
            response = dispatch(server.service, request, server.SCOPES)
        elif self.pipeline and self.inflight >= self.max_inflight:
            metrics.busy_rejected += 1
            response = error_response(request.id, ProtocolError(
                ErrorCode.BUSY,
                f"pipeline window full ({self.max_inflight}); "
                "read some responses before sending more",
            ))
        elif len(server._queue) >= server.max_queue:
            metrics.busy_rejected += 1
            response = error_response(request.id, ProtocolError(
                ErrorCode.BUSY,
                f"admission queue full ({server.max_queue}); retry later",
            ))
        else:
            server._queue.append((request, self))
            server._schedule_batch()
            self.inflight += 1
            if not self.pipeline:
                self.awaiting = request
            return
        self.out += encode_response(response)

    def flush(self) -> None:
        """Write every coalesced reply at once."""
        if self.out and not self.closed:
            out, self.out = self.out, bytearray()
            self.transport.write(out)


def _answer(entries: Iterable[_Entry], outcomes: Iterable[Any]) -> None:
    """Write each admitted allocate's reply (a grant or a
    :class:`ProtocolError`); a connection that closed gets none."""
    answered: dict[_Connection, None] = {}
    for (request, conn), outcome in zip(entries, outcomes):
        conn.inflight -= 1
        if conn.awaiting is request:
            conn.awaiting = None
        if conn.closed:
            continue
        if isinstance(outcome, ProtocolError):
            response = error_response(request.id, outcome)
        else:
            response = ok_response(request.id, outcome)
        conn.out += encode_response(response)
        answered[conn] = None
    for conn in answered:
        conn.serve_buffered()


class BrokerServer:
    """Asyncio TCP daemon around a :class:`BrokerService`.

    ``port=0`` binds an ephemeral port (read it back from ``self.port``
    after :meth:`start`).  ``batch_window_s=0`` (the default) batches
    *adaptively*: each batch is whatever queued before the event loop got
    to it — no added latency when traffic is light, large batches exactly
    when traffic is heavy.  A positive window additionally waits that
    long after a batch's first request for stragglers, unless
    ``max_batch`` requests are already queued.
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
        #: the admission queue, bounded by ``max_queue``
        self._queue: deque[_Entry] = deque()
        #: whether admitted allocates get decided (off before start(),
        #: with ``start_batcher=False`` and after stop())
        self._batching = False
        #: the scheduled batch callback, if any
        self._batch_handle: asyncio.Handle | None = None
        self._tasks: list[asyncio.Task] = []

    # ------------------------------------------------------------------
    async def start(
        self, *, start_batcher: bool = True, start_sweeper: bool = True
    ) -> tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``.

        The batcher/sweeper switches exist for deterministic tests: with
        the batcher off, admitted allocates stay queued, undecided, so
        the admission queue fills synchronously.
        """
        self._batching = start_batcher
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]  # lint: allow(RACE001) — start() runs once; rebinding host/port to the resolved socket address is the point
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
        """Stop accepting, cancel the batch and background tasks, and
        answer every queued allocate ``INTERNAL``.

        Safe to call twice or concurrently: every shared handle is
        swapped out *before* the first await touching it, so a task
        registered while the drain awaits lands in a fresh list and is
        drained by the next round instead of being ``clear()``-ed away
        uncancelled, and a second ``stop()`` closing the listener finds
        it already taken.
        """
        self._batching = False
        handle, self._batch_handle = self._batch_handle, None
        if handle is not None:
            handle.cancel()
        while self._tasks:
            tasks, self._tasks = self._tasks, []
            for task in tasks:
                task.cancel()
            for task in tasks:
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001 — shutdown drains every background task; a task that died earlier must not abort stop()
                    pass
        shutting_down = ProtocolError(ErrorCode.INTERNAL, "server shutting down")
        # answering a connection that has not pipelined serves the lines
        # behind its allocate, which may queue another
        while self._queue:
            entries = list(self._queue)
            self._queue.clear()
            _answer(entries, [shutting_down] * len(entries))
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    def _schedule_batch(self) -> None:
        """Have the loop decide the queue: at once when no window is set
        or a full batch is queued, else when the straggler window ends."""
        queue = self._queue
        if not (self._batching and queue):
            return
        handle = self._batch_handle
        loop = asyncio.get_running_loop()
        if self.batch_window_s and len(queue) < self.max_batch:
            if handle is None:
                self._batch_handle = loop.call_later(
                    self.batch_window_s, self._decide_batch
                )
        elif handle is None or isinstance(handle, asyncio.TimerHandle):
            if handle is not None:
                handle.cancel()
            self._batch_handle = loop.call_soon(self._decide_batch)

    def _decide_batch(self) -> None:
        """Decide up to ``max_batch`` queued allocates in one
        ``allocate_batch`` and write their replies."""
        self._batch_handle = None
        queue = self._queue
        batch = [queue.popleft() for _ in range(min(len(queue), self.max_batch))]
        try:
            outcomes = self.service.allocate_batch(
                [request.params for request, _ in batch]
            )
        except Exception as exc:  # noqa: BLE001 — a failed batch answers INTERNAL and the daemon keeps serving
            log.exception("batch decision failed")
            err = ProtocolError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")
            outcomes = [err] * len(batch)
        _answer(batch, outcomes)
        self._schedule_batch()

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
