"""Wire-protocol parsing, validation and encoding."""

import ast
import json

import pytest

from repro.broker.protocol import (
    FEDERATION_OPS,
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    TRANSPORT_OPS,
    AllocateParams,
    ErrorCode,
    ProtocolError,
    encode_request,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)


def line(**overrides) -> str:
    obj = {"v": PROTOCOL_VERSION, "id": "r1", "op": "status"}
    obj.update(overrides)
    return json.dumps(obj)


class TestParseRequest:
    def test_roundtrip_allocate(self):
        raw = encode_request(
            "c7", "allocate", {"n": 32, "ppn": 4, "alpha": 0.4, "ttl_s": 60}
        )
        req = parse_request(raw)
        assert req.id == "c7" and req.op == "allocate"
        assert req.params == AllocateParams(
            n_processes=32, ppn=4, alpha=0.4, ttl_s=60
        )

    def test_defaults(self):
        req = parse_request(line(op="allocate", params={"n": 8}))
        assert req.params.ppn is None
        assert req.params.alpha == 0.3
        assert req.params.policy is None and req.params.ttl_s is None

    def test_renew_release_status(self):
        renew = parse_request(
            line(op="renew", params={"lease_id": "L1", "ttl_s": 5})
        )
        assert renew.params.lease_id == "L1" and renew.params.ttl_s == 5
        release = parse_request(line(op="release", params={"lease_id": "L1"}))
        assert release.params.lease_id == "L1"
        status = parse_request(line(op="status"))
        assert status.op == "status"

    def test_numeric_id_coerced_to_string(self):
        assert parse_request(line(id=12)).id == "12"

    @pytest.mark.parametrize("bad", [
        "not json at all",
        "[1, 2, 3]",
        '"a string"',
        line(op="allocate"),                        # missing n
        line(op="allocate", params={"n": 0}),       # non-positive n
        line(op="allocate", params={"n": -4}),
        line(op="allocate", params={"n": 8, "ppn": 0}),
        line(op="allocate", params={"n": 8, "alpha": 1.5}),
        line(op="allocate", params={"n": 8, "ttl_s": -1}),
        line(op="allocate", params={"n": True}),    # bool is not an int here
        line(op="allocate", params={"n": "8"}),
        line(op="renew", params={}),                # missing lease_id
        line(op="renew", params={"lease_id": ""}),
        line(op="release", params={"lease_id": 7}),
        line(op="status", params="nope"),
        json.dumps({"id": "x", "op": "status"}),    # missing v
        # non-finite TTLs would never expire; a non-finite remaining
        # runtime defeats both cost/benefit gate comparisons
        line(op="allocate", params={"n": 8, "ttl_s": float("nan")}),
        line(op="allocate", params={"n": 8, "ttl_s": float("inf")}),
        line(op="renew", params={"lease_id": "L1", "ttl_s": float("nan")}),
        line(op="renew", params={"lease_id": "L1", "ttl_s": float("inf")}),
        line(op="reconfigure",
             params={"lease_id": "L1", "remaining_s": float("nan")}),
        line(op="reconfigure",
             params={"lease_id": "L1", "remaining_s": float("inf")}),
        # only a missing or null params means "no params"
        line(op="status", params=[]),
        line(op="status", params=0),
        line(op="status", params=False),
        line(op="status", params=""),
        # an empty codec reaches HelloParams' own check
        line(op="hello", params={"codec": ""}),
    ])
    def test_bad_requests(self, bad):
        with pytest.raises(ProtocolError) as err:
            parse_request(bad)
        assert err.value.code == ErrorCode.BAD_REQUEST

    def test_wrong_version(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(line(v=99))
        assert err.value.code == ErrorCode.UNSUPPORTED_VERSION

    # the fleet verbs are retired: they must be typed denials now
    @pytest.mark.parametrize("op", ["teleport", "fleet_plan", "fleet_status"])
    def test_unknown_op(self, op):
        with pytest.raises(ProtocolError) as err:
            parse_request(line(op=op))
        assert err.value.code == ErrorCode.UNKNOWN_OP
        listed = ast.literal_eval(err.value.message.split("choose from ")[1])
        assert listed == OPS + FEDERATION_OPS + TRANSPORT_OPS

    def test_oversized_line_rejected(self):
        huge = line(op="allocate", params={"n": 8, "policy": "x" * MAX_LINE_BYTES})
        with pytest.raises(ProtocolError) as err:
            parse_request(huge)
        assert err.value.code == ErrorCode.BAD_REQUEST


class TestEncodeResponse:
    def test_ok_roundtrip(self):
        raw = encode_response(ok_response("r9", {"lease_id": "L1"}))
        obj = json.loads(raw)
        assert obj == {
            "v": PROTOCOL_VERSION,
            "id": "r9",
            "ok": True,
            "result": {"lease_id": "L1"},
        }

    def test_error_roundtrip(self):
        err = ProtocolError(ErrorCode.BUSY, "queue full")
        obj = json.loads(encode_response(error_response("r2", err)))
        assert obj["ok"] is False
        assert obj["error"] == {"code": "BUSY", "message": "queue full"}

    def test_one_line_per_message(self):
        raw = encode_response(ok_response("a", {"x": 1}))
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
