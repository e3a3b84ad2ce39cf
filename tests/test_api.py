"""The unified public API surface (repro.api): error table, tokens,
op registry, typed payloads, OpenAPI round-trip."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.api.auth import SCOPES, TokenAuthority, scope_allows
from repro.api.errors import (
    ERROR_TABLE,
    ErrorEnvelope,
    envelope_for,
    exit_code_for,
    http_status_for,
)
from repro.api.openapi import generate_openapi, schema_for
from repro.api.registry import OpRegistry
from repro.api.types import API_TYPES, JobInfo, JobSubmitRequest
from repro.core.domain import errors as domain_errors
from repro.core.domain.errors import (
    ChronusError,
    CircuitOpenError,
    ForbiddenError,
    ModelNotFoundError,
    NoLeaderError,
    ProtocolError,
    UnauthenticatedError,
)


class TestErrorTable:
    def test_every_domain_error_is_mapped(self):
        """The one-table satellite: nothing in errors.__all__ may be
        missing, so a new domain error without a wire identity fails CI."""
        for name in domain_errors.__all__:
            cls = getattr(domain_errors, name)
            assert cls in ERROR_TABLE, f"{name} has no ErrorSpec"

    def test_codes_and_statuses_are_sane(self):
        codes = [spec.code for spec in ERROR_TABLE.values()]
        assert len(codes) == len(set(codes)), "duplicate wire codes"
        for spec in ERROR_TABLE.values():
            assert 400 <= spec.http_status <= 599
            assert spec.kind in ("user", "internal", "transient")

    def test_transient_errors_are_retryable(self):
        env = envelope_for(CircuitOpenError("open"))
        assert env.retryable is True
        assert env.http_status == 503
        env = envelope_for(ModelNotFoundError("nope"))
        assert env.retryable is False
        assert env.http_status == 404

    def test_mro_walk_resolves_subclasses(self):
        class FancyTimeout(domain_errors.PredictTimeoutError):
            pass

        env = envelope_for(FancyTimeout("late"))
        assert env.code == "PREDICT_TIMEOUT"

    def test_submit_error_mapped_by_name_without_import(self):
        """SubmitError lives in the slurm layer; the table matches it by
        class name so repro.api never imports upward."""
        from repro.slurm.controller import SubmitError

        env = envelope_for(SubmitError("too many tasks"))
        assert env.code == "SUBMIT_REJECTED"
        assert env.http_status == 400
        assert env.exit_code == 2

    def test_unknown_exception_falls_back_to_internal(self):
        env = envelope_for(RuntimeError("boom"))
        assert env.code == "INTERNAL"
        assert env.http_status == 500
        assert env.exit_code == 1

    def test_exit_codes_user_vs_internal(self):
        # user errors: exit 2 (bad input, not our bug)
        assert exit_code_for(ModelNotFoundError("x")) == 2
        assert exit_code_for(ProtocolError("x")) == 2
        # internal/transient: exit 1
        assert exit_code_for(ChronusError("x")) == 1
        assert exit_code_for(NoLeaderError("x")) == 1

    def test_envelope_wire_shape_matches_chronus2(self):
        d = envelope_for(UnauthenticatedError("no token")).to_dict()
        assert set(d) == {"error", "message", "retryable"}
        assert d["error"] == "UNAUTHORIZED"

    def test_http_status_reverse_lookup(self):
        assert http_status_for("NO_LEADER") == 503
        assert http_status_for("SHED") == 429
        assert http_status_for("SOMETHING_NEW") == 500

    def test_dependency_errors_have_stable_wire_codes(self):
        """PR10 satellite: a malformed --dependency is a typed user error
        (REST 400, CLI exit 2) and a cycle is a 409 with its own code."""
        env = envelope_for(domain_errors.DependencyError("bad spec"))
        assert (env.code, env.http_status, env.exit_code) == ("DEPENDENCY", 400, 2)
        env = envelope_for(domain_errors.DependencyCycleError("loop"))
        assert (env.code, env.http_status, env.exit_code) == (
            "DEPENDENCY_CYCLE", 409, 2,
        )
        # a cycle is still a dependency error to an MRO walk, but the
        # subclass row must win
        assert issubclass(
            domain_errors.DependencyCycleError, domain_errors.DependencyError
        )


class TestTokens:
    def test_round_trip(self):
        authority = TokenAuthority("s3cret")
        token = authority.issue("alice", "submit", ttl_s=60.0)
        claims = authority.verify(token)
        assert claims.principal == "alice"
        assert claims.scope == "submit"

    def test_expired_token_rejected(self):
        now = [1000.0]
        authority = TokenAuthority("s3cret", clock=lambda: now[0])
        token = authority.issue("bob", "read", ttl_s=10.0)
        now[0] = 1011.0
        with pytest.raises(UnauthenticatedError, match="expired"):
            authority.verify(token)

    def test_tampered_signature_rejected(self):
        authority = TokenAuthority("s3cret")
        token = authority.issue("eve", "admin")
        head, payload, sig = token.split(".")
        with pytest.raises(UnauthenticatedError, match="signature"):
            authority.verify(f"{head}.{payload}.{sig[:-2]}xx")

    def test_tampered_payload_rejected(self):
        import base64

        authority = TokenAuthority("s3cret")
        token = authority.issue("eve", "read")
        head, payload, sig = token.split(".")
        raw = base64.urlsafe_b64decode(payload + "=" * (-len(payload) % 4))
        upgraded = raw.replace(b'"read"', b'"admin"')
        forged = base64.urlsafe_b64encode(upgraded).rstrip(b"=").decode()
        with pytest.raises(UnauthenticatedError):
            authority.verify(f"{head}.{forged}.{sig}")

    def test_wrong_secret_rejected(self):
        token = TokenAuthority("one").issue("x", "read")
        with pytest.raises(UnauthenticatedError):
            TokenAuthority("two").verify(token)

    def test_malformed_tokens_rejected(self):
        authority = TokenAuthority("s3cret")
        for bad in ("", "garbage", "v1.only-two", "v2.a.b", "v1.!!!.sig"):
            with pytest.raises(UnauthenticatedError):
                authority.verify(bad)

    def test_scope_ordering(self):
        assert scope_allows("admin", "read")
        assert scope_allows("submit", "read")
        assert not scope_allows("read", "submit")
        assert not scope_allows("nonsense", "read")
        assert SCOPES == ("read", "submit", "admin")

    def test_require_enforces_scope(self):
        authority = TokenAuthority("s3cret")
        token = authority.issue("carol", "read")
        with pytest.raises(ForbiddenError, match="requires 'submit'"):
            authority.require(token, "submit")
        assert authority.require(token, "read").principal == "carol"

    def test_unknown_scope_refused_at_issue(self):
        with pytest.raises(ValueError):
            TokenAuthority("s3cret").issue("x", "root")


class TestOpRegistry:
    def test_dispatch_wraps_standard_envelope(self):
        ops = OpRegistry("test daemon")

        @ops.register("ping")
        def _ping(target, probe):
            return {"healthy": True}

        answer = json.loads(ops.dispatch(object(), {"op": "ping"}))
        assert answer == {
            "proto": "chronus/2", "ok": True, "op": "ping", "healthy": True,
        }

    def test_unknown_op_lists_known_ops(self):
        ops = OpRegistry("test daemon")
        answer = json.loads(ops.dispatch(object(), {"op": "warp"}))
        assert answer["error"] == "INVALID"
        assert "test daemon" in answer["message"]

    def test_duplicate_registration_refused(self):
        ops = OpRegistry("test daemon")
        ops.register("x")(lambda t, p: {})
        with pytest.raises(ValueError):
            ops.register("x")(lambda t, p: {})

    def test_chronus_error_resolves_through_envelope(self):
        ops = OpRegistry("test daemon")

        @ops.register("boom")
        def _boom(target, probe):
            raise NoLeaderError("nobody home")

        answer = json.loads(ops.dispatch(object(), {"op": "boom"}))
        assert answer["error"] == "NO_LEADER"
        assert answer["retryable"] is True

    def test_handler_bug_still_answers(self):
        ops = OpRegistry("test daemon")

        @ops.register("bug")
        def _bug(target, probe):
            raise ZeroDivisionError("oops")

        answer = json.loads(ops.dispatch(object(), {"op": "bug"}))
        assert answer["error"] == "INTERNAL"

    def test_daemons_use_the_registry(self):
        from repro.serving.server import SERVER_OPS

        assert SERVER_OPS.ops() == ["ping", "reload", "shutdown"]


class TestApiTypes:
    def test_round_trip(self):
        req = JobSubmitRequest(name="j", binary="/bin/x", num_tasks=4)
        assert JobSubmitRequest.from_dict(req.to_dict()) == req

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError, match="required field 'binary'"):
            JobSubmitRequest.from_dict({"name": "j"})

    def test_wrong_type_names_the_field(self):
        with pytest.raises(ProtocolError, match="num_tasks"):
            JobSubmitRequest.from_dict(
                {"name": "j", "binary": "/bin/x", "num_tasks": "four"}
            )

    def test_bool_does_not_pass_as_int(self):
        with pytest.raises(ProtocolError, match="num_tasks"):
            JobSubmitRequest.from_dict(
                {"name": "j", "binary": "/bin/x", "num_tasks": True}
            )

    def test_unknown_fields_tolerated(self):
        req = JobSubmitRequest.from_dict(
            {"name": "j", "binary": "/bin/x", "from_the_future": 1}
        )
        assert req.name == "j"

    def test_arrays_become_tuples(self):
        req = JobSubmitRequest.from_dict(
            {"name": "j", "binary": "/bin/x", "array": [0, 1, 2]}
        )
        assert req.array == (0, 1, 2)

    def test_optional_fields(self):
        info = JobInfo.from_dict(
            {"job_id": 1, "name": "j", "state": "PENDING", "submit_time": 0.0}
        )
        assert info.start_time is None
        d = info.to_dict()
        assert d["node_list"] == []

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            JobSubmitRequest.from_dict([1, 2, 3])

    def test_dependency_spec_parsed_into_descriptor(self):
        req = JobSubmitRequest.from_dict({
            "name": "j", "binary": "/bin/x",
            "dependency": "afterok:3:5,afterany:7", "workflow_id": "wf-1",
        })
        desc = req.to_descriptor()
        assert desc.dependency == (
            ("afterok", 3), ("afterok", 5), ("afterany", 7)
        )
        assert desc.workflow == "wf-1"

    def test_malformed_dependency_is_a_typed_error(self):
        req = JobSubmitRequest.from_dict(
            {"name": "j", "binary": "/bin/x", "dependency": "after:nope"}
        )
        with pytest.raises(domain_errors.DependencyError):
            req.to_descriptor()

    def test_workflow_info_round_trip(self):
        from repro.api.types import WorkflowInfo, WorkflowList

        info = WorkflowInfo(
            workflow_id="wf-1", job_ids=(1, 2), jobs=2, completed=1,
            failed=1, total_energy_j=42.5, attempts=3, models=("7:v2",),
        )
        assert WorkflowInfo.from_dict(info.to_dict()) == info
        wl = WorkflowList(workflows=(info,), next_cursor="abc")
        assert WorkflowList.from_dict(wl.to_dict()) == wl


class TestOpenApi:
    def test_committed_spec_round_trips(self):
        """docs/openapi.json is generated, never hand-edited: the
        committed file must equal generate_openapi() exactly."""
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "docs",
            "openapi.json",
        )
        with open(path) as fh:
            committed = json.load(fh)
        assert committed == json.loads(
            json.dumps(generate_openapi(), sort_keys=True)
        )

    def test_every_route_is_in_the_spec(self):
        from repro.restd.gateway import ROUTES

        spec = generate_openapi()
        for route in ROUTES:
            operation = spec["paths"][route.openapi_path()][route.method.lower()]
            assert operation["x-required-scope"] == route.scope

    def test_every_api_type_has_a_schema(self):
        spec = generate_openapi()
        for cls in API_TYPES:
            assert cls.__name__ in spec["components"]["schemas"]
        assert "Error" in spec["components"]["schemas"]

    def test_schema_marks_required_fields(self):
        schema = schema_for(JobSubmitRequest)
        assert schema["required"] == ["name", "binary"]
        assert schema["properties"]["array"] == {
            "type": "array", "items": {"type": "integer"},
        }

    def test_schemas_cover_all_dataclass_fields(self):
        for cls in API_TYPES:
            schema = schema_for(cls)
            assert set(schema["properties"]) == {
                f.name for f in dataclasses.fields(cls)
            }


class TestCliEnvelope:
    def test_user_error_exits_2_with_code(self, capsys, tmp_path):
        from repro.core.cli.main import main

        rc = main(["--workspace", str(tmp_path), "slurm-config", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[MODEL_NOT_FOUND]:")

    def test_envelope_parses_as_code_then_message(self):
        env = ErrorEnvelope("NO_LEADER", "nobody", 503, "transient")
        assert env.exit_code == 1
        assert env.to_dict()["retryable"] is True
