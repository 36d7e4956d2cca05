"""The wire protocol: validation, envelopes, fingerprints."""

import json

import pytest

from repro.scenarios.service_workload import demo_document
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_bytes,
    decode_line,
    encode_line,
    error_envelope,
    ok_envelope,
    request_fingerprint,
    validate_request,
)


def make(op="ping", **overrides):
    data = {"id": "r1", "op": op}
    data.update(overrides)
    return data


class TestValidation:
    def test_minimal_control_request(self):
        request = validate_request(make())
        assert request.op == "ping" and request.params == {}
        assert request.deadline_s is None and request.no_cache is False

    def test_defaults_are_filled(self):
        request = validate_request(
            make("exists", params={"document": demo_document()})
        )
        assert request.params == {"document": demo_document(), "star_bound": 2}

    def test_deadline_and_no_cache_pass_through(self):
        request = validate_request(make(deadline_s=2, no_cache=True))
        assert request.deadline_s == 2.0 and request.no_cache is True

    @pytest.mark.parametrize(
        "data, code",
        [
            ("not a dict", "bad-request"),
            (make(op="frobnicate"), "unknown-op"),
            ({"op": "ping"}, "bad-request"),  # missing id
            (make(id=7), "bad-request"),  # non-string id
            (make(extra=1), "bad-request"),  # unknown top-level field
            (make(deadline_s="soon"), "bad-request"),
            (make(no_cache="yes"), "bad-request"),
            (make("exists"), "bad-request"),  # missing required document
            (make("exists", params={"document": {}}), "bad-request"),
            (make("exists", params="nope"), "bad-request"),
            (make("certain", params={"document": {"setting": {}, "instance": {}},
                                     "query": ""}), "bad-request"),
            (make("certain", params={"document": {"setting": {}, "instance": {}},
                                     "query": "f", "pair": ["a"]}), "bad-request"),
            (make("evaluate_batch", params={"document": {"setting": {}, "instance": {}},
                                            "queries": []}), "bad-request"),
            (make("exists", params={"document": {"setting": {}, "instance": {}},
                                    "star_bound": -1}), "bad-request"),
            (make("exists", params={"document": {"setting": {}, "instance": {}},
                                    "engine": "quantum"}), "bad-request"),
            (make("exists", params={"document": {"setting": {}, "instance": {}},
                                    "solver": "z3"}), "bad-request"),
            (make("ping", params={"surprise": 1}), "bad-request"),
            (make("cancel"), "bad-request"),
        ],
    )
    def test_rejections_carry_stable_codes(self, data, code):
        with pytest.raises(ProtocolError) as excinfo:
            validate_request(data)
        assert excinfo.value.code == code

    @pytest.mark.parametrize(
        "name, value",
        [("kernel", "vector"), ("engine", "compiled"), ("solver", "cdcl"),
         ("backend", "csr")],
    )
    def test_retired_kernel_param_is_rejected_by_name(self, name, value):
        """Clients written against the selectable kernel/engine/solver/
        backend protocol get a typed rejection naming the param, not a
        silent ignore."""
        document = demo_document()
        with pytest.raises(ProtocolError) as excinfo:
            validate_request(
                make("certain", params={"document": document, "query": "f",
                                        name: value})
            )
        assert excinfo.value.code == "bad-request"
        assert f"does not accept params [{name!r}]" in str(excinfo.value)
        request = validate_request(
            make("certain", params={"document": document, "query": "f"})
        )
        assert name not in request.params


    @pytest.mark.parametrize(
        "op, extra",
        [
            ("exists", {}),
            ("evaluate_batch", {"queries": ["f"]}),
            ("apply_updates", {"updates": []}),
        ],
    )
    def test_retired_backend_param_is_rejected_on_every_op(self, op, extra):
        """``backend`` was accepted by every compute op; now none takes it."""
        with pytest.raises(ProtocolError) as excinfo:
            validate_request(
                make(op, params={"document": demo_document(), "backend": "dict",
                                 **extra})
            )
        assert excinfo.value.code == "bad-request"
        assert "does not accept params ['backend']" in str(excinfo.value)


class TestFingerprint:
    def test_defaults_normalise_to_the_same_key(self):
        doc = demo_document()
        explicit = validate_request(
            make("exists", params={"document": doc, "star_bound": 2})
        )
        implicit = validate_request(make("exists", params={"document": doc}))
        assert explicit.fingerprint() == implicit.fingerprint()

    def test_different_params_different_keys(self):
        doc = demo_document()
        a = validate_request(make("exists", params={"document": doc}))
        b = validate_request(
            make("exists", params={"document": doc, "star_bound": 3})
        )
        assert a.fingerprint() != b.fingerprint()

    def test_value_based_not_identity_based(self):
        one = request_fingerprint("exists", {"document": demo_document()})
        other = request_fingerprint("exists", {"document": demo_document()})
        assert one == other

    def test_key_order_is_irrelevant(self):
        assert request_fingerprint("x", {"a": 1, "b": 2}) == request_fingerprint(
            "x", {"b": 2, "a": 1}
        )


class TestWireFormat:
    def test_encode_decode_round_trip(self):
        envelope = ok_envelope("r9", {"answers": [["c1", "c3"]]}, cached=True)
        assert decode_line(encode_line(envelope).strip()) == envelope

    def test_canonical_bytes_are_deterministic(self):
        assert canonical_bytes({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'

    def test_bad_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(b"{truncated")
        assert excinfo.value.code == "bad-json"

    def test_envelopes_shape(self):
        ok = ok_envelope("a", {"x": 1})
        assert ok == {"id": "a", "ok": True, "result": {"x": 1}, "cached": False}
        bad = error_envelope("a", "bad-request", "nope")
        assert bad["ok"] is False and bad["error"]["code"] == "bad-request"

    def test_protocol_version_is_stable(self):
        assert PROTOCOL_VERSION == 1

    def test_encode_line_is_one_json_line(self):
        line = encode_line({"id": "x", "ok": True})
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        json.loads(line)
