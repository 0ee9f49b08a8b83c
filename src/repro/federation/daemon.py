"""The federation daemon — the broker transport plus the router verbs.

:class:`FederationDaemon` is a :class:`~repro.broker.server.BrokerServer`
whose service is a :class:`~repro.federation.router.FederationRouter`.
Every transport feature — JSON lines, pipelining, the bounded
admission queue, the batch callback, the sweeper — is inherited
unchanged (the router duck-types the service surface those drive); the
only addition is the federation scope of
:data:`~repro.broker.protocol.OP_TABLE`, whose two router verbs the
shared dispatch then serves:

* ``shards``  — per-shard aggregates, scores, and liveness;
* ``resolve`` — which shard owns a lease id.

A single-broker daemon does not serve that scope, so it answers these
verbs with ``UNKNOWN_OP``.
"""

from __future__ import annotations

from typing import Any

from repro.broker.protocol import FEDERATION_SCOPE
from repro.broker.server import BrokerServer
from repro.federation.router import FederationRouter


class FederationDaemon(BrokerServer):
    """Asyncio TCP daemon around a :class:`FederationRouter`."""

    SCOPES = BrokerServer.SCOPES | {FEDERATION_SCOPE}

    def __init__(self, router: FederationRouter, **kwargs: Any) -> None:
        # The router duck-types the BrokerService surface the transport
        # machinery drives (allocate_batch/renew/release/reconfigure/
        # status/sweep_expired/metrics).
        super().__init__(router, **kwargs)  # type: ignore[arg-type]
