"""Scripted in-memory transport — broker wire faults without sockets.

:class:`ScriptedSocketFactory` plugs into ``BrokerClient(socket_factory=…)``
and serves each request by calling :func:`dispatch_line` — the daemon's
parse → :func:`~repro.broker.protocol.dispatch` pipeline, synchronously
— against a real :class:`~repro.broker.service.BrokerService`.  A
*script* of behaviors, consumed one per request (plus ``REFUSE``
consumed at connect), injects the transport failures that matter for
client correctness:

``DIE_BEFORE_SEND``
    the connection dies before the request reaches the server — the
    server never saw it, so a retry is trivially safe;
``DIE_AFTER_SEND``
    the server *processed* the request but the response was lost — the
    dangerous case: a naive allocate retry would double-grant, which is
    exactly what the idempotency token must prevent;
``GARBAGE`` / ``CLOSE``
    an unparseable response line / an orderly close with no response.

Everything is deterministic: no threads, no ports, no timing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable

from repro.broker.protocol import (
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
from repro.broker.server import BrokerServer
from repro.broker.service import BrokerService

#: per-request behaviors a script may contain
OK = "ok"
REFUSE = "refuse"
DIE_BEFORE_SEND = "die_before_send"
DIE_AFTER_SEND = "die_after_send"
GARBAGE = "garbage"
CLOSE = "close"

BEHAVIORS = frozenset(
    {OK, REFUSE, DIE_BEFORE_SEND, DIE_AFTER_SEND, GARBAGE, CLOSE}
)


def dispatch_line(service: BrokerService, line: bytes) -> bytes:
    """One request line → one response line, synchronously.

    Serves what a single-broker daemon serves (``BrokerServer.SCOPES``)
    through the same :func:`~repro.broker.protocol.dispatch`, without
    the admission queue: allocate requests are decided as singleton
    batches.  Internal exceptions become ``INTERNAL`` error responses,
    exactly as the daemon must never die on a request.
    """
    try:
        request = parse_request(line)
    except ProtocolError as exc:
        service.metrics.protocol_errors += 1
        return encode_response(error_response(best_effort_id(line), exc))
    service.metrics.record_request(request.op)
    if OP_TABLE[request.op].scope == TRANSPORT_SCOPE:
        return encode_response(_hello(request))
    return encode_response(dispatch(service, request, BrokerServer.SCOPES))


def _hello(request: Request) -> Response:
    """Answer ``hello`` honestly, without ever upgrading.

    This in-memory transport speaks exactly one framing (JSON lines,
    strict alternation), so that is all it grants.
    """
    params = request.params
    assert isinstance(params, HelloParams)
    if params.codec != "json" or params.pipeline:
        return error_response(request.id, ProtocolError(
            ErrorCode.BAD_REQUEST,
            "chaos transport speaks JSON lines only",
        ))
    return ok_response(request.id, {
        "codec": "json",
        "pipeline": False,
        "max_inflight": 1,
        "codecs": ["json"],
        "protocol_version": PROTOCOL_VERSION,
    })


class ScriptedSocketFactory:
    """``(host, port, timeout_s) -> socket``-alike driving a service.

    The script is a sequence of behaviors consumed in order — one per
    request sent (``REFUSE`` entries are consumed at connect time
    instead).  An exhausted script behaves as ``OK`` forever.
    """

    def __init__(
        self,
        service: BrokerService,
        script: Iterable[str] = (),
        *,
        dispatch: Callable[[BrokerService, bytes], bytes] = dispatch_line,
    ) -> None:
        script = list(script)
        unknown = set(script) - BEHAVIORS
        if unknown:
            raise ValueError(f"unknown behaviors in script: {sorted(unknown)}")
        self.service = service
        self.script: deque[str] = deque(script)
        self.dispatch = dispatch
        #: observability for test assertions
        self.connections = 0
        self.dispatched = 0

    def next_behavior(self) -> str:
        return self.script.popleft() if self.script else OK

    def __call__(self, host: str, port: int, timeout_s: float) -> "_FakeSocket":
        if self.script and self.script[0] == REFUSE:
            self.script.popleft()
            raise OSError("chaos: connection refused")
        self.connections += 1
        return _FakeSocket(self)


class _FakeSocket:
    """Just enough socket surface for ``BrokerClient``."""

    def __init__(self, factory: ScriptedSocketFactory) -> None:
        self._factory = factory
        self._responses: deque[Any] = deque()
        self._closed = False

    def makefile(self, mode: str) -> "_FakeReadFile":
        assert mode == "rb", f"unexpected makefile mode {mode!r}"
        return _FakeReadFile(self)

    def sendall(self, line: bytes) -> None:
        if self._closed:
            raise OSError("chaos: socket already closed")
        behavior = self._factory.next_behavior()
        if behavior == DIE_BEFORE_SEND:
            self._closed = True
            raise OSError("chaos: connection reset before send")
        # From here on the server HAS processed the request — any further
        # fault loses only the response, never the side effect.
        response = self._factory.dispatch(self._factory.service, line)
        self._factory.dispatched += 1
        if behavior == DIE_AFTER_SEND:
            self._responses.append(
                OSError("chaos: connection reset mid-response")
            )
        elif behavior == GARBAGE:
            self._responses.append(b"%%% not json %%%\n")
        elif behavior == CLOSE:
            self._responses.append(b"")
        else:
            self._responses.append(response)

    def close(self) -> None:
        self._closed = True

    # BrokerClient's default factory sets TCP options; a custom factory
    # controls its own socket, but keep the method for drop-in safety.
    def setsockopt(self, *args: Any) -> None:  # pragma: no cover
        pass


class _FakeReadFile:
    def __init__(self, sock: _FakeSocket) -> None:
        self._sock = sock

    def readline(self) -> bytes:
        if not self._sock._responses:
            return b""
        item = self._sock._responses.popleft()
        if isinstance(item, Exception):
            raise item
        return item

    def close(self) -> None:
        pass
