"""Scripted transport faults against a real BrokerService, no sockets."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.broker.client import BrokerClient, BrokerError
from repro.broker.service import BrokerService
from repro.chaos.transport import (
    CLOSE,
    DIE_AFTER_SEND,
    DIE_BEFORE_SEND,
    GARBAGE,
    OK,
    REFUSE,
    ScriptedSocketFactory,
    dispatch_line,
)

from tests.core.test_array_equivalence import random_snapshot


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def service() -> BrokerService:
    snap = random_snapshot(np.random.default_rng(77), 8)
    return BrokerService(lambda: snap, clock=FakeClock(), default_ttl_s=600.0)


def _client(factory: ScriptedSocketFactory, **kwargs) -> BrokerClient:
    defaults = dict(
        connect_retries=2,
        retry_delay_s=0.0,
        transport_retries=1,
        backoff_s=0.0,
        socket_factory=factory,
        sleep=lambda _s: None,
    )
    defaults.update(kwargs)
    return BrokerClient("fake", 0, **defaults)


class TestDispatchLine:
    def test_unparseable_line_is_protocol_error(self, service):
        raw = dispatch_line(service, b"not json\n")
        assert b'"ok": false' in raw or b'"ok":false' in raw.replace(b" ", b"")
        assert service.metrics.protocol_errors == 1

    def test_allocate_round_trip(self, service):
        line = (
            b'{"v": 1, "id": "t1", "op": "allocate",'
            b' "params": {"n": 4, "ppn": 2}}\n'
        )
        raw = dispatch_line(service, line)
        assert b"lease_id" in raw
        assert len(service.leases.active()) == 1

    def test_internal_errors_become_typed_responses(self, service):
        def boom() -> None:
            raise RuntimeError("kaboom")

        service._snapshots = boom
        line = (
            b'{"v": 1, "id": "t2", "op": "allocate",'
            b' "params": {"n": 2, "ppn": 2}}\n'
        )
        raw = dispatch_line(service, line)
        assert b"INTERNAL" in raw  # never a raised exception

    # it mirrors a single broker, which does not serve the federation scope
    @pytest.mark.parametrize("op", ["shards", "resolve"])
    def test_router_verbs_are_unknown_ops(self, service, op):
        line = json.dumps({
            "v": 1, "id": "t3", "op": op, "params": {"lease_id": "L00000001"},
        }).encode() + b"\n"
        obj = json.loads(dispatch_line(service, line))
        assert obj["id"] == "t3" and obj["ok"] is False
        assert obj["error"]["code"] == "UNKNOWN_OP"
        assert "federation daemon" in obj["error"]["message"]


class TestScriptedBehaviors:
    def test_ok_script_serves_real_grants(self, service):
        factory = ScriptedSocketFactory(service, [OK])
        with _client(factory) as client:
            grant = client.allocate(4, ppn=2)
        assert len(grant.nodes) == 2
        assert factory.dispatched == 1

    def test_refuse_consumed_at_connect(self, service):
        factory = ScriptedSocketFactory(service, [REFUSE, OK])
        with _client(factory) as client:
            status = client.status()
        assert status["leases"]["active"] == 0
        assert factory.connections == 1  # second attempt got through

    def test_die_before_send_never_reaches_server(self, service):
        factory = ScriptedSocketFactory(
            service, [DIE_BEFORE_SEND, DIE_BEFORE_SEND]
        )
        client = _client(factory, transport_retries=0)
        with pytest.raises(BrokerError) as err:
            client.status()
        assert err.value.code == "CONNECT"
        assert factory.dispatched == 0
        assert len(service.leases.active()) == 0

    def test_die_after_send_has_server_side_effect(self, service):
        factory = ScriptedSocketFactory(service, [DIE_AFTER_SEND])
        client = _client(factory, transport_retries=0)
        with pytest.raises(BrokerError):
            client.allocate(4, ppn=2)
        # The response was lost but the grant happened — the dangerous case.
        assert factory.dispatched == 1
        assert len(service.leases.active()) == 1

    def test_garbage_response_maps_to_internal(self, service):
        factory = ScriptedSocketFactory(service, [GARBAGE])
        client = _client(factory, transport_retries=0)
        with pytest.raises(BrokerError) as err:
            client.status()
        assert err.value.code == "INTERNAL"

    def test_close_maps_to_connect_error(self, service):
        factory = ScriptedSocketFactory(service, [CLOSE])
        client = _client(factory, transport_retries=0)
        with pytest.raises(BrokerError) as err:
            client.status()
        assert err.value.code == "CONNECT"

    def test_exhausted_script_defaults_to_ok(self, service):
        factory = ScriptedSocketFactory(service, [])
        with _client(factory) as client:
            client.status()
            client.status()
        assert factory.dispatched == 2

    def test_unknown_behavior_rejected(self, service):
        with pytest.raises(ValueError, match="unknown behaviors"):
            ScriptedSocketFactory(service, ["explode"])
