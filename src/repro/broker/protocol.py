"""Wire protocol of the allocation broker (JSON lines over TCP).

One request per line, one response line per request, always in order:

.. code-block:: json

    {"v": 1, "id": "c1-7", "op": "allocate",
     "params": {"n": 32, "ppn": 4, "alpha": 0.3, "ttl_s": 60.0}}

    {"v": 1, "id": "c1-7", "ok": true, "result": {"lease_id": "L00000001",
     "nodes": ["node-03", "..."], "procs": {"node-03": 4}, "...": "..."}}

Failures carry a structured error instead of a result:

.. code-block:: json

    {"v": 1, "id": "c1-8", "ok": false,
     "error": {"code": "BUSY", "message": "admission queue full"}}

Everything here is transport-free: the op table (:data:`OP_TABLE`),
parsing, validation, encoding, and the inline :func:`dispatch`.  The
daemons (:mod:`repro.broker.server`, :mod:`repro.federation.daemon`),
the chaos transport and the client library (:mod:`repro.broker.client`)
share this module, so a verb, version or schema change happens in
exactly one place.

Transport negotiation (still protocol v1, fully backward compatible):
every connection speaks JSON lines; a ``hello`` request may enable
*pipelining* (many requests in flight per connection, responses matched
by ``id`` and possibly out of order).  ``hello`` is a transport verb
(:data:`TRANSPORT_OPS`): the daemon answers it itself and it never
reaches :class:`~repro.broker.service.BrokerService`.  Clients that
never send ``hello`` see exactly the historical one-line-in,
one-line-out protocol.
"""

from __future__ import annotations

import enum
import json
import logging
import math
from dataclasses import dataclass
from typing import Any, Collection, Mapping

log = logging.getLogger(__name__)

#: Protocol version spoken by this build.  Requests carrying a different
#: ``v`` are rejected with ``UNSUPPORTED_VERSION`` (no negotiation — the
#: client library always sends the version it was built with).
PROTOCOL_VERSION = 1

#: Hard cap on one request line; longer lines are a client bug (or an
#: attack) and are rejected before JSON parsing.
MAX_LINE_BYTES = 64 * 1024


class ErrorCode(str, enum.Enum):
    """Structured failure codes carried in error responses."""

    #: malformed JSON, missing/invalid fields, bad parameter values
    BAD_REQUEST = "BAD_REQUEST"
    #: request ``v`` differs from :data:`PROTOCOL_VERSION`
    UNSUPPORTED_VERSION = "UNSUPPORTED_VERSION"
    #: ``op`` is not in :data:`OP_TABLE`, or this daemon does not serve it
    UNKNOWN_OP = "UNKNOWN_OP"
    #: admission queue full — retry later (backpressure, not failure)
    BUSY = "BUSY"
    #: the policy could not produce an allocation (no capacity/data)
    NO_CAPACITY = "NO_CAPACITY"
    #: §6 saturation guard tripped — the broker recommends waiting
    WAIT = "WAIT"
    #: ``lease_id`` was never granted, or already released/reclaimed
    UNKNOWN_LEASE = "UNKNOWN_LEASE"
    #: the lease's TTL elapsed; its nodes have been reclaimed
    EXPIRED_LEASE = "EXPIRED_LEASE"
    #: a reconfigure would add nodes another lease holds (all-or-nothing)
    NODE_CONFLICT = "NODE_CONFLICT"
    #: structurally invalid lease swap (overlapping/unheld/empty sets)
    BAD_SWAP = "BAD_SWAP"
    #: the lease changed between planning and applying; retry
    STALE_PLAN = "STALE_PLAN"
    #: the migration itself failed; the original allocation is intact
    RECONFIG_FAILED = "RECONFIG_FAILED"
    #: the monitor pipeline is down and the last-known-good snapshot is
    #: too old to allocate from — retry once monitoring recovers
    MONITOR_STALE = "MONITOR_STALE"
    #: the federation shard owning this lease (or chosen for placement)
    #: is down/detached — retry after the router re-admits it
    SHARD_DOWN = "SHARD_DOWN"
    #: unexpected server-side failure (bug — check daemon logs)
    INTERNAL = "INTERNAL"


class ProtocolError(Exception):
    """A request that cannot be served, with its wire error code."""

    def __init__(self, code: ErrorCode, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


#: Op scopes, the ``scope`` column of :data:`OP_TABLE`.  Every daemon
#: serves broker ops, only a federation daemon (``serve --shards N``)
#: serves federation ops, and the transport answers transport ops itself.
BROKER_SCOPE = "broker"
FEDERATION_SCOPE = "federation"
TRANSPORT_SCOPE = "transport"

#: Codecs a ``hello`` may ask for: JSON lines is the only wire format.
CODECS = ("json",)

#: Upper bound a server will grant for pipelined in-flight requests.
MAX_INFLIGHT_LIMIT = 1024


#: longest accepted client dedupe token (they're opaque ids, not payloads)
MAX_TOKEN_CHARS = 128


@dataclass(frozen=True)
class AllocateParams:
    """Parameters of an ``allocate`` request.

    ``token`` is an optional client-chosen idempotency key: retrying an
    allocate with the same token returns the *original* grant (or the
    original denial) instead of creating a second lease — the safety net
    for a response lost to a mid-request transport death.

    ``priority`` orders jobs *within one micro-batch*: the batch solver
    decides higher-priority jobs first, so under contention they get the
    better placements.  Ties (including the default ``0.0``) keep
    arrival order, which makes an all-default batch byte-identical to
    the historical sequential behaviour.
    """

    n_processes: int
    ppn: int | None = None
    alpha: float = 0.3
    policy: str | None = None
    ttl_s: float | None = None
    token: str | None = None
    priority: float = 0.0

    @classmethod
    def from_wire(cls, raw: Mapping[str, Any]) -> AllocateParams:
        alpha = _opt(raw, "alpha", (int, float), "params")
        priority = _opt(raw, "priority", (int, float), "params")
        return cls(
            n_processes=_require(raw, "n", (int,), "params"),
            ppn=_opt(raw, "ppn", (int,), "params"),
            alpha=0.3 if alpha is None else float(alpha),
            policy=_opt(raw, "policy", (str,), "params"),
            ttl_s=_opt(raw, "ttl_s", (int, float), "params"),
            token=_opt(raw, "token", (str,), "params"),
            priority=0.0 if priority is None else float(priority),
        )

    def __post_init__(self) -> None:
        if not math.isfinite(self.priority):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.priority must be finite, got {self.priority}",
            )
        if self.token is not None and not (
            0 < len(self.token) <= MAX_TOKEN_CHARS
        ):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.token must be 1..{MAX_TOKEN_CHARS} chars, "
                f"got {len(self.token)}",
            )
        if self.n_processes <= 0:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.n must be a positive integer, got {self.n_processes}",
            )
        if self.ppn is not None and self.ppn <= 0:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.ppn must be a positive integer, got {self.ppn}",
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.alpha must lie in [0, 1], got {self.alpha}",
            )
        if self.ttl_s is not None and self.ttl_s <= 0:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.ttl_s must be positive, got {self.ttl_s}",
            )
        if self.ttl_s is not None and not math.isfinite(self.ttl_s):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.ttl_s must be finite, got {self.ttl_s}",
            )


@dataclass(frozen=True)
class RenewParams:
    """Parameters of a ``renew`` request."""

    lease_id: str
    ttl_s: float | None = None

    @classmethod
    def from_wire(cls, raw: Mapping[str, Any]) -> RenewParams:
        return cls(
            lease_id=_require(raw, "lease_id", (str,), "params"),
            ttl_s=_opt(raw, "ttl_s", (int, float), "params"),
        )

    def __post_init__(self) -> None:
        if not self.lease_id:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "params.lease_id must be non-empty"
            )
        if self.ttl_s is not None and self.ttl_s <= 0:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.ttl_s must be positive, got {self.ttl_s}",
            )
        if self.ttl_s is not None and not math.isfinite(self.ttl_s):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.ttl_s must be finite, got {self.ttl_s}",
            )


@dataclass(frozen=True)
class ReleaseParams:
    """Parameters of a ``release`` request."""

    lease_id: str

    @classmethod
    def from_wire(cls, raw: Mapping[str, Any]) -> ReleaseParams:
        return cls(lease_id=_require(raw, "lease_id", (str,), "params"))

    def __post_init__(self) -> None:
        if not self.lease_id:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "params.lease_id must be non-empty"
            )


@dataclass(frozen=True)
class ReconfigureParams:
    """Parameters of a ``reconfigure`` request.

    Asks the broker to replan the lease's placement against the current
    snapshot.  ``remaining_s`` is the client's estimate of how long its
    job still has to run — the cost/benefit gate amortizes the migration
    bill over it; without it the broker falls back to the lease's
    remaining TTL (a conservative lower bound).  ``alpha`` overrides the
    Equation-4 trade-off recorded at grant time.
    """

    lease_id: str
    remaining_s: float | None = None
    alpha: float | None = None

    @classmethod
    def from_wire(cls, raw: Mapping[str, Any]) -> ReconfigureParams:
        alpha = _opt(raw, "alpha", (int, float), "params")
        return cls(
            lease_id=_require(raw, "lease_id", (str,), "params"),
            remaining_s=_opt(raw, "remaining_s", (int, float), "params"),
            alpha=None if alpha is None else float(alpha),
        )

    def __post_init__(self) -> None:
        if not self.lease_id:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "params.lease_id must be non-empty"
            )
        if self.remaining_s is not None and self.remaining_s <= 0:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.remaining_s must be positive, got {self.remaining_s}",
            )
        if self.remaining_s is not None and not math.isfinite(self.remaining_s):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.remaining_s must be finite, got {self.remaining_s}",
            )
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.alpha must lie in [0, 1], got {self.alpha}",
            )


@dataclass(frozen=True)
class StatusParams:
    """Parameters of a ``status`` request (none defined in v1)."""

    @classmethod
    def from_wire(cls, raw: Mapping[str, Any]) -> StatusParams:
        return cls()


@dataclass(frozen=True)
class ShardsParams:
    """Parameters of a ``shards`` router request (none defined in v1)."""

    @classmethod
    def from_wire(cls, raw: Mapping[str, Any]) -> ShardsParams:
        return cls()


@dataclass(frozen=True)
class ResolveParams:
    """Parameters of a ``resolve`` router request."""

    lease_id: str

    @classmethod
    def from_wire(cls, raw: Mapping[str, Any]) -> ResolveParams:
        return cls(lease_id=_require(raw, "lease_id", (str,), "params"))

    def __post_init__(self) -> None:
        if not self.lease_id:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "params.lease_id must be non-empty"
            )


@dataclass(frozen=True)
class HelloParams:
    """Parameters of a ``hello`` transport-negotiation request.

    ``pipeline`` opts into out-of-order responses with up to
    ``max_inflight`` requests in flight; without it the server keeps the
    historical strict request/response alternation.  ``codec`` is still
    parsed because it is client input: only ``"json"`` is granted.
    """

    codec: str = "json"
    pipeline: bool = False
    max_inflight: int = 32

    @classmethod
    def from_wire(cls, raw: Mapping[str, Any]) -> HelloParams:
        pipeline = raw.get("pipeline", False)
        if not isinstance(pipeline, bool):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.pipeline must be a boolean, got {pipeline!r}",
            )
        max_inflight = _opt(raw, "max_inflight", (int,), "params")
        codec = _opt(raw, "codec", (str,), "params")
        return cls(
            codec="json" if codec is None else codec,
            pipeline=pipeline,
            max_inflight=32 if max_inflight is None else max_inflight,
        )

    def __post_init__(self) -> None:
        if not self.codec:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "params.codec must be non-empty"
            )
        if not 1 <= self.max_inflight <= MAX_INFLIGHT_LIMIT:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"params.max_inflight must lie in "
                f"[1, {MAX_INFLIGHT_LIMIT}], got {self.max_inflight}",
            )


Params = (
    AllocateParams
    | RenewParams
    | ReleaseParams
    | ReconfigureParams
    | StatusParams
    | ShardsParams
    | ResolveParams
    | HelloParams
)


@dataclass(frozen=True)
class OpSpec:
    """One row of :data:`OP_TABLE`: how an op parses and who serves it."""

    #: the params dataclass; its ``from_wire(raw)`` parses the wire fields
    params: type[Params]
    #: service method that serves the op (``None``: the transport does)
    handler: str | None
    #: :data:`BROKER_SCOPE`, :data:`FEDERATION_SCOPE` or :data:`TRANSPORT_SCOPE`
    scope: str
    #: rides the admission queue and the batch callback
    admitted: bool = False
    #: the client may replay it after a transport death (``allocate``
    #: only with the idempotency token the client always attaches)
    retry_safe: bool = False


#: The wire verb set, declared once.  The parser, both daemons, the
#: chaos transport and the client all read it.
OP_TABLE: dict[str, OpSpec] = {
    "allocate": OpSpec(
        AllocateParams, "allocate_batch", BROKER_SCOPE,
        admitted=True, retry_safe=True,
    ),
    "renew": OpSpec(RenewParams, "renew", BROKER_SCOPE),
    "release": OpSpec(ReleaseParams, "release", BROKER_SCOPE),
    # inline, not admitted: replanning is heavier than renew/release, but
    # the service is synchronous anyway and reconfigure traffic is orders
    # of magnitude rarer than allocate
    "reconfigure": OpSpec(ReconfigureParams, "reconfigure", BROKER_SCOPE),
    "status": OpSpec(StatusParams, "status", BROKER_SCOPE, retry_safe=True),
    "shards": OpSpec(ShardsParams, "shards", FEDERATION_SCOPE, retry_safe=True),
    "resolve": OpSpec(
        ResolveParams, "resolve", FEDERATION_SCOPE, retry_safe=True
    ),
    "hello": OpSpec(HelloParams, None, TRANSPORT_SCOPE),
}

#: The ops of each scope, in table order.
OPS = tuple(op for op, s in OP_TABLE.items() if s.scope == BROKER_SCOPE)
FEDERATION_OPS = tuple(
    op for op, s in OP_TABLE.items() if s.scope == FEDERATION_SCOPE
)
TRANSPORT_OPS = tuple(
    op for op, s in OP_TABLE.items() if s.scope == TRANSPORT_SCOPE
)


@dataclass(frozen=True)
class Request:
    """A parsed, validated client request."""

    id: str
    op: str
    params: Params
    v: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class Response:
    """A server response; exactly one of ``result``/``error`` is set."""

    id: str
    ok: bool
    result: Mapping[str, Any] | None = None
    error: ProtocolError | None = None
    v: int = PROTOCOL_VERSION


# ----------------------------------------------------------------------
# parsing

def _require(obj: Mapping[str, Any], key: str, types: tuple, where: str) -> Any:
    value = obj.get(key)
    if not isinstance(value, types) or isinstance(value, bool):
        names = "/".join(t.__name__ for t in types)
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"{where}.{key} must be {names}, got {value!r}"
        )
    return value


def _opt(obj: Mapping[str, Any], key: str, types: tuple, where: str) -> Any:
    if obj.get(key) is None:
        return None
    return _require(obj, key, types, where)


def parse_request(line: str | bytes) -> Request:
    """Parse one JSON wire line into a :class:`Request`.

    Raises :class:`ProtocolError` with ``BAD_REQUEST``,
    ``UNSUPPORTED_VERSION`` or ``UNKNOWN_OP`` on anything off-spec.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"request exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"request is not valid JSON: {exc}"
        ) from None
    return parse_request_obj(obj)


def parse_request_obj(obj: Any) -> Request:
    """Validate an already-decoded request object."""
    if not isinstance(obj, dict):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "request must be a JSON object"
        )
    version = _require(obj, "v", (int,), "request")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.UNSUPPORTED_VERSION,
            f"server speaks v{PROTOCOL_VERSION}, request is v{version}",
        )
    req_id = str(_require(obj, "id", (str, int), "request"))
    op = _require(obj, "op", (str,), "request")
    raw = obj.get("params")
    if raw is None:
        raw = {}
    elif not isinstance(raw, dict):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "request.params must be an object"
        )
    spec = OP_TABLE.get(op)
    if spec is None:
        raise ProtocolError(
            ErrorCode.UNKNOWN_OP,
            f"unknown op {op!r}; choose from {tuple(OP_TABLE)}",
        )
    params = spec.params.from_wire(raw)
    return Request(id=req_id, op=op, params=params, v=version)


# ----------------------------------------------------------------------
# encoding

def encode_request(
    req_id: str, op: str, params: Mapping[str, Any] | None = None
) -> bytes:
    """One request wire line (``None`` params dropped; used by the client)."""
    obj: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": req_id, "op": op}
    if params:
        obj["params"] = {k: v for k, v in params.items() if v is not None}
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def ok_response(req_id: str, result: Mapping[str, Any]) -> Response:
    """A success :class:`Response`."""
    return Response(id=req_id, ok=True, result=result)


def error_response(req_id: str, error: ProtocolError) -> Response:
    """A failure :class:`Response`."""
    return Response(id=req_id, ok=False, error=error)


def encode_response(response: Response) -> bytes:
    """One response wire line."""
    obj: dict[str, Any] = {
        "v": response.v,
        "id": response.id,
        "ok": response.ok,
    }
    if response.ok:
        obj["result"] = response.result or {}
    else:
        assert response.error is not None
        obj["error"] = {
            "code": response.error.code.value,
            "message": response.error.message,
        }
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def best_effort_id(line: bytes) -> str:
    """Salvage the request id from an unparseable line (for the reply)."""
    try:
        obj = json.loads(line)
        if isinstance(obj, dict) and isinstance(obj.get("id"), (str, int)):
            return str(obj["id"])
    except ValueError:  # JSONDecodeError and UnicodeDecodeError both are
        pass
    return ""


# ----------------------------------------------------------------------
# serving

def dispatch(
    service: Any, request: Request, scopes: Collection[str]
) -> Response:
    """Serve one parsed request inline against ``service``; never raises.

    The row's handler is looked up on ``service`` at call time and
    called with the request's params; an admitted op is decided here as
    a singleton batch.  An op outside ``scopes`` answers ``UNKNOWN_OP``,
    a :class:`ProtocolError` its typed error, and any other exception
    ``INTERNAL``.  Transport verbs are the caller's to answer.
    """
    spec = OP_TABLE[request.op]
    try:
        if spec.scope not in scopes:
            raise ProtocolError(
                ErrorCode.UNKNOWN_OP,
                f"this daemon does not serve {spec.scope} op "
                f"{request.op!r}; a federation daemon "
                "(repro serve --shards N) serves every op",
            )
        assert spec.handler is not None, "the transport answers its own ops"
        handler = getattr(service, spec.handler)
        if spec.admitted:
            result = handler([request.params])[0]
            if isinstance(result, ProtocolError):
                return error_response(request.id, result)
        else:
            result = handler(request.params)
        return ok_response(request.id, result)
    except ProtocolError as exc:
        return error_response(request.id, exc)
    except Exception as exc:  # noqa: BLE001 — a daemon must not die on a request
        log.exception("internal error serving %s", request.op)
        return error_response(
            request.id,
            ProtocolError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"),
        )

