"""The op table is the wire verb set's one declaration; its rows hold."""

import pytest

from repro.broker.client import BrokerClient
from repro.broker.protocol import (
    BROKER_SCOPE,
    FEDERATION_OPS,
    FEDERATION_SCOPE,
    OP_TABLE,
    OPS,
    TRANSPORT_OPS,
    TRANSPORT_SCOPE,
    parse_request_obj,
)
from repro.broker.service import BrokerService
from repro.federation.router import FederationRouter

#: the least each op needs on the wire
MINIMAL_PARAMS = {
    "allocate": {"n": 1},
    "renew": {"lease_id": "L1"},
    "release": {"lease_id": "L1"},
    "reconfigure": {"lease_id": "L1"},
    "resolve": {"lease_id": "L1"},
}


def test_scope_tuples_partition_the_table():
    assert OPS + FEDERATION_OPS + TRANSPORT_OPS == tuple(OP_TABLE)


@pytest.mark.parametrize("op", list(OP_TABLE))
def test_every_row_parses_a_minimal_request(op):
    request = parse_request_obj(
        {"v": 1, "id": "t", "op": op, "params": MINIMAL_PARAMS.get(op)}
    )
    assert request.op == op
    assert type(request.params) is OP_TABLE[op].params


@pytest.mark.parametrize("op", list(OP_TABLE))
def test_every_handler_exists_where_it_is_served(op):
    spec = OP_TABLE[op]
    if spec.scope == TRANSPORT_SCOPE:
        assert spec.handler is None
        return
    assert spec.handler is not None
    # a federation daemon serves every scope, a single broker only its own
    owners = {BROKER_SCOPE: (BrokerService, FederationRouter),
              FEDERATION_SCOPE: (FederationRouter,)}[spec.scope]
    for owner in owners:
        assert callable(getattr(owner, spec.handler, None)), owner


@pytest.mark.parametrize("op", list(OP_TABLE))
def test_client_has_a_method_per_op(op):
    assert callable(getattr(BrokerClient, op, None))


def test_flags():
    assert [op for op, s in OP_TABLE.items() if s.admitted] == ["allocate"]
    assert [op for op, s in OP_TABLE.items() if s.retry_safe] == [
        "allocate", "status", "shards", "resolve",
    ]
