"""Synchronous client library for the broker daemon.

Small by design: a blocking socket, one JSON line per call, structured
errors surfaced as :class:`BrokerError`.  Connection establishment
retries with backoff (daemons take a moment to warm the scenario), every
call carries a timeout, and a broken connection is re-established
transparently on the next call — so scripted callers get at-most-once
submission with explicit failures, never hangs.

.. code-block:: python

    from repro.broker import BrokerClient

    with BrokerClient(port=7077) as client:
        grant = client.allocate(n=32, ppn=4, ttl_s=60.0)
        try:
            run_mpi_job(grant.hostfile)
            client.renew(grant.lease_id)
        finally:
            client.release(grant.lease_id)
"""

from __future__ import annotations

import itertools
import json
import os
import random
import socket
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.broker.protocol import OP_TABLE, PROTOCOL_VERSION, encode_request

#: codes where retrying after a backoff can plausibly succeed
TRANSIENT_ERROR_CODES = frozenset(
    {"CONNECT", "TIMEOUT", "BUSY", "MONITOR_STALE", "SHARD_DOWN"}
)

#: environment knob seeding the client's retry-jitter stream when neither
#: ``rng`` nor ``seed`` is passed (``repro client --seed`` sets it too)
SEED_ENV_VAR = "REPRO_CLIENT_SEED"


def _default_rng(seed: int | None) -> random.Random:
    """The retry-jitter stream: explicit seed > env knob > 0.

    Always seeded — an entropy-seeded generator here would make chaos
    transport scenarios (which replay injected connection deaths against
    recorded backoff schedules) non-reproducible.  Identical seeds give
    identical jitter, which is exactly what replay wants; callers that
    need decorrelated fleets pass distinct seeds.
    """
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env:
            try:
                seed = int(env)
            except ValueError:
                raise ValueError(
                    f"{SEED_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            seed = 0
    return random.Random(seed)


def _opt_float(value: Any) -> float | None:
    """A reply's optional number: ``None`` stays ``None``."""
    return None if value is None else float(value)


def _default_socket_factory(
    host: str, port: int, timeout_s: float
) -> socket.socket:
    """A real TCP connection with Nagle disabled (the production path)."""
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class BrokerError(Exception):
    """A structured failure from the daemon (or the transport).

    ``code`` matches :class:`repro.broker.protocol.ErrorCode` values,
    plus the client-side ``CONNECT`` and ``TIMEOUT``.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    @property
    def transient(self) -> bool:
        """Whether retrying later can plausibly succeed."""
        return self.code in TRANSIENT_ERROR_CODES


@dataclass(frozen=True)
class Grant:
    """A successful allocation as seen by the client.

    The last five fields are ``None`` when the reply lacks them: only a
    federation's cross-shard grant names its ``shards`` (member shard →
    member lease), and a policy that reports no Equation-4 terms (e.g.
    ``random``) leaves the costs out.
    """

    lease_id: str
    nodes: tuple[str, ...]
    procs: Mapping[str, int]
    hostfile: str
    policy: str
    ttl_s: float
    expires_at: float
    shards: Mapping[str, str] | None = None
    snapshot_time: float | None = None
    total_cost: float | None = None
    compute_cost: float | None = None
    network_cost: float | None = None


class BrokerClient:
    """Blocking JSON-lines client with connect retries and timeouts."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7077,
        *,
        timeout_s: float = 10.0,
        connect_retries: int = 20,
        retry_delay_s: float = 0.1,
        transport_retries: int = 1,
        backoff_s: float = 0.05,
        socket_factory: Callable[[str, int, float], socket.socket] | None = None,
        rng: random.Random | None = None,
        seed: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """``rng`` (an already-seeded generator) wins over ``seed``; with
        neither, the jitter stream is seeded from ``$REPRO_CLIENT_SEED``
        (default 0) so retry schedules replay byte-identically.
        """
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive: {timeout_s}")
        if connect_retries < 0 or retry_delay_s < 0:
            raise ValueError("retries/delay must be non-negative")
        if transport_retries < 0 or backoff_s < 0:
            raise ValueError("transport_retries/backoff_s must be non-negative")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.connect_retries = connect_retries
        self.retry_delay_s = retry_delay_s
        self.transport_retries = transport_retries
        self.backoff_s = backoff_s
        self.retries_used = 0
        self._socket_factory = socket_factory or _default_socket_factory
        self._rng = rng if rng is not None else _default_rng(seed)
        self._sleep = sleep
        self._sock: socket.socket | None = None
        self._rfile = None
        self._ids = itertools.count(1)
        # live transport state (re-negotiated on every reconnect)
        self._pipeline = False
        self._max_inflight = 1
        # last granted negotiation, replayed by connect() after a reconnect
        self._negotiate: dict[str, Any] | None = None

    # -- connection -----------------------------------------------------
    def connect(self) -> "BrokerClient":
        """Establish the connection, retrying while the daemon boots.

        If :meth:`hello` negotiated pipelining earlier, it is
        re-negotiated automatically — a transparent reconnect lands in
        the same mode the server granted before.
        """
        if self._sock is not None:
            return self
        last: Exception | None = None
        for attempt in range(self.connect_retries + 1):
            try:
                sock = self._socket_factory(
                    self.host, self.port, self.timeout_s
                )
                self._sock = sock
                self._rfile = sock.makefile("rb")
                break
            except OSError as exc:
                last = exc
                if attempt < self.connect_retries:
                    self._sleep(self.retry_delay_s)
        else:
            raise BrokerError(
                "CONNECT",
                f"cannot reach broker at {self.host}:{self.port} "
                f"after {self.connect_retries + 1} attempts: {last}",
            )
        if self._negotiate is not None:
            try:
                self._hello_exchange(self._negotiate)
            except BrokerError:
                self.close()
                raise
        return self

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        # a fresh connection always starts in strict alternation
        self._pipeline = False
        self._max_inflight = 1

    def __enter__(self) -> "BrokerClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- RPC ------------------------------------------------------------
    def call(self, op: str, params: dict[str, Any] | None = None) -> dict:
        """One request/response round-trip; returns the result dict.

        Raises :class:`BrokerError` with the server's error code on
        failure responses, ``TIMEOUT`` when the daemon doesn't answer in
        ``timeout_s``, and ``CONNECT`` when the connection cannot be
        (re-)established.

        Transport deaths (``CONNECT``/``TIMEOUT``) are retried up to
        ``transport_retries`` times with jittered exponential backoff —
        but only for ops whose :data:`~repro.broker.protocol.OP_TABLE`
        row is ``retry_safe``: the read-only ``status``/``shards``/
        ``resolve``, and ``allocate`` only when the request carries an
        idempotency ``token`` the server dedupes on.  ``renew``,
        ``release`` and ``reconfigure`` are never replayed automatically;
        the caller sees the transport error and decides.
        """
        spec = OP_TABLE.get(op)
        retryable = spec is not None and spec.retry_safe and (
            op != "allocate" or bool((params or {}).get("token"))
        )
        attempts = self.transport_retries + 1 if retryable else 1
        for attempt in range(attempts):
            try:
                return self._call_once(op, params)
            except BrokerError as exc:
                transient = exc.code in ("CONNECT", "TIMEOUT")
                if not transient or attempt + 1 >= attempts:
                    raise
                self.retries_used += 1
                delay = self.backoff_s * (2**attempt) * (
                    0.5 + self._rng.random()
                )
                self._sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def _call_once(self, op: str, params: dict[str, Any] | None = None) -> dict:
        self.connect()
        return self._exchange(op, params)

    def _exchange(self, op: str, params: dict[str, Any] | None) -> dict:
        """One raw round-trip on the live connection (no reconnect)."""
        assert self._sock is not None and self._rfile is not None
        req_id = f"c{next(self._ids)}"
        try:
            self._sock.sendall(encode_request(req_id, op, params))
            obj = self._read_response_obj()
        except socket.timeout:
            self.close()
            raise BrokerError(
                "TIMEOUT", f"no response to {op!r} within {self.timeout_s}s"
            ) from None
        except OSError as exc:
            self.close()
            raise BrokerError("CONNECT", f"connection lost: {exc}") from None
        outcome = self._outcome(obj)
        if isinstance(outcome, BrokerError):
            raise outcome
        return outcome

    def _read_response_obj(self) -> dict:
        """Read and decode one response line."""
        assert self._rfile is not None
        raw = self._rfile.readline()
        if not raw:
            self.close()
            raise BrokerError("CONNECT", "server closed the connection")
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            self.close()
            raise BrokerError("INTERNAL", f"unparseable response: {exc}") from None
        if not isinstance(obj, dict):
            self.close()
            raise BrokerError("INTERNAL", "response is not an object")
        return obj

    @staticmethod
    def _outcome(obj: dict) -> dict | BrokerError:
        """Map a decoded response to its result dict or a BrokerError."""
        if obj.get("v") != PROTOCOL_VERSION:
            return BrokerError(
                "UNSUPPORTED_VERSION",
                f"server answered v{obj.get('v')}, client speaks "
                f"v{PROTOCOL_VERSION}",
            )
        if not obj.get("ok"):
            err = obj.get("error") or {}
            return BrokerError(
                str(err.get("code", "INTERNAL")),
                str(err.get("message", "unknown error")),
            )
        result = obj.get("result")
        return result if isinstance(result, dict) else {}

    # -- transport negotiation ------------------------------------------
    def hello(self, *, pipeline: bool = False, max_inflight: int = 32) -> dict:
        """Negotiate the connection's pipelining window.

        A granted choice is remembered: a transparent reconnect after a
        transport death re-negotiates it before the next request is
        sent.  A refused hello leaves both the live connection and the
        remembered negotiation as they were.  Returns the server's hello
        result (granted window, its codec list, protocol version).
        """
        want = {"pipeline": pipeline, "max_inflight": max_inflight}
        self.connect()
        result = self._hello_exchange(want)
        self._negotiate = want
        return result

    def _hello_exchange(self, want: dict[str, Any]) -> dict:
        result = self._exchange("hello", dict(want))
        self._pipeline = bool(result.get("pipeline", False))
        self._max_inflight = int(result.get("max_inflight", 1))
        return result

    # -- pipelined bursts -----------------------------------------------
    def call_many(
        self, op: str, params_list: list[dict[str, Any] | None]
    ) -> list[dict | BrokerError]:
        """Issue many calls down one pipelined connection.

        Requests are written in bursts of the negotiated in-flight
        window (one ``sendall`` per burst) and responses are matched
        back by request id, in whatever order the server finishes them.
        Per-request failures come back as :class:`BrokerError` *values*;
        only transport death raises — and is **never** retried
        automatically, because half a burst may already be decided
        (attach idempotency tokens and replay yourself if you need
        exactly-once allocates).  Requires a prior
        :meth:`hello(pipeline=True) <hello>`.
        """
        if not params_list:
            return []
        self.connect()  # a reconnect replays the granted pipelining
        if not self._pipeline:
            raise BrokerError(
                "BAD_REQUEST",
                "call_many requires hello(pipeline=True) first",
            )
        assert self._sock is not None
        results: list[dict | BrokerError | None] = [None] * len(params_list)
        window = max(1, self._max_inflight)
        pos = 0
        try:
            while pos < len(params_list):
                chunk = params_list[pos : pos + window]
                lines: list[bytes] = []
                id_to_index: dict[str, int] = {}
                for offset, params in enumerate(chunk):
                    req_id = f"c{next(self._ids)}"
                    id_to_index[req_id] = pos + offset
                    lines.append(encode_request(req_id, op, params))
                self._sock.sendall(b"".join(lines))
                while id_to_index:
                    obj = self._read_response_obj()
                    index = id_to_index.pop(str(obj.get("id")), None)
                    if index is not None:
                        results[index] = self._outcome(obj)
                pos += len(chunk)
        except socket.timeout:
            self.close()
            raise BrokerError(
                "TIMEOUT",
                f"pipelined {op!r} burst timed out after {self.timeout_s}s",
            ) from None
        except OSError as exc:
            self.close()
            raise BrokerError("CONNECT", f"connection lost: {exc}") from None
        return results  # type: ignore[return-value]

    # -- typed operations ----------------------------------------------
    def allocate(
        self,
        n: int,
        *,
        ppn: int | None = None,
        alpha: float = 0.3,
        policy: str | None = None,
        ttl_s: float | None = None,
        token: str | None = None,
        priority: float = 0.0,
    ) -> Grant:
        """Request nodes for ``n`` processes; returns the lease grant.

        A fresh idempotency ``token`` is attached when the caller does
        not supply one, so a request replayed after a transport death is
        deduped server-side rather than granted twice.  ``priority``
        orders the request within the server's micro-batch (higher
        decides first under contention).
        """
        result = self.call(
            "allocate",
            {"n": n, "ppn": ppn, "alpha": alpha, "policy": policy,
             "ttl_s": ttl_s, "token": token or uuid.uuid4().hex,
             "priority": priority if priority else None},
        )
        return Grant(
            lease_id=str(result["lease_id"]),
            nodes=tuple(result["nodes"]),
            procs={str(k): int(v) for k, v in result["procs"].items()},
            hostfile=str(result["hostfile"]),
            policy=str(result["policy"]),
            ttl_s=float(result["ttl_s"]),
            expires_at=float(result["expires_at"]),
            shards=(
                None if result.get("shards") is None
                else {str(k): str(v) for k, v in result["shards"].items()}
            ),
            snapshot_time=_opt_float(result.get("snapshot_time")),
            total_cost=_opt_float(result.get("total_cost")),
            compute_cost=_opt_float(result.get("compute_cost")),
            network_cost=_opt_float(result.get("network_cost")),
        )

    def renew(self, lease_id: str, *, ttl_s: float | None = None) -> dict:
        """Extend a lease's TTL; returns the renewal record."""
        return self.call("renew", {"lease_id": lease_id, "ttl_s": ttl_s})

    def release(self, lease_id: str) -> dict:
        """Release a lease; returns the release record."""
        return self.call("release", {"lease_id": lease_id})

    def reconfigure(
        self,
        lease_id: str,
        *,
        remaining_s: float | None = None,
        alpha: float | None = None,
    ) -> dict:
        """Ask the broker to replan the lease against current conditions.

        ``remaining_s`` is this client's estimate of how much work its
        job still has (the cost/benefit gate amortizes migration cost
        over it); without it the broker uses the lease's remaining TTL.

        Returns the decision record.  When ``result["reconfigured"]`` is
        true the caller must checkpoint, restart on ``result["hostfile"]``,
        and treat ``result["drop_nodes"]`` as gone; when false,
        ``result["reason"]`` says why staying put won.
        """
        return self.call(
            "reconfigure",
            {
                "lease_id": lease_id,
                "remaining_s": remaining_s,
                "alpha": alpha,
            },
        )

    def status(self) -> dict:
        """The daemon's status/metrics block."""
        return self.call("status")

    def shards(self) -> dict:
        """The federation router's per-shard aggregates and scores.

        Only a federation daemon (``serve --shards N``) answers this; a
        single-broker daemon returns ``UNKNOWN_OP``.
        """
        return self.call("shards")

    def resolve(self, lease_id: str) -> dict:
        """Which federation shard owns ``lease_id`` (router verb)."""
        return self.call("resolve", {"lease_id": lease_id})
