"""The REST gateway (repro.restd) over real sockets: routes, auth, HTTP
edge cases, pagination across journal compaction, leader failover."""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass, field

import pytest

from repro.api.auth import TokenAuthority
from repro.restd.gateway import RestGateway
from repro.restd.server import RestdServer
from repro.serving.protocol import ErrorResponse
from repro.slurm.dbd import SlurmDbd
from repro.slurm.ha import DRILL_BINARY, build_drill_plane

SECRET = "restd-test-secret"


@dataclass
class _Record:
    """Quacks like a ModelRecord for the registry routes."""

    model_id: int
    model_type: str = "xgboost"
    system_id: int = 1
    application: str = "hpcg"
    stage: str = "staging"
    version: int = 1
    created_at: float = 0.0
    training_points: int = 64
    parent_id: "int | None" = None
    digest: str = "deadbeef"


class _Registry:
    def __init__(self):
        self.records = {1: _Record(1), 2: _Record(2, stage="active", version=2)}
        self.calls: list = []

    def list(self, stage=None):
        rows = sorted(self.records.values(), key=lambda r: r.model_id)
        return [r for r in rows if stage is None or r.stage == stage]

    def promote(self, model_id):
        self.calls.append(("promote", model_id))
        record = self.records[model_id]  # KeyError -> 404
        record.stage = "active"
        return record

    def shadow(self, model_id):
        self.calls.append(("shadow", model_id))
        record = self.records[model_id]
        record.stage = "shadow"
        return record

    def rollback(self, system_id, application):
        self.calls.append(("rollback", system_id, application))
        return self.records[1]


class _Answer:
    def to_dict(self):
        return {"proto": "chronus/2", "ok": True, "conf_best": 7}


class _Provider:
    """predict() stub: one canned answer, or an ErrorResponse."""

    def __init__(self):
        self.answer = _Answer()
        self.seen: list = []

    def predict(self, request):
        self.seen.append(request)
        return self.answer


@dataclass
class Stack:
    drill: object
    authority: TokenAuthority
    gateway: RestGateway
    server: RestdServer
    registry: _Registry
    provider: _Provider
    tokens: dict = field(default_factory=dict)

    def token(self, scope: str) -> str:
        if scope not in self.tokens:
            self.tokens[scope] = self.authority.issue(f"test-{scope}", scope)
        return self.tokens[scope]

    def call(self, method, target, *, scope="admin", body=None, token=None,
             headers=None):
        """One HTTP request; returns (status, headers, payload)."""
        conn = http.client.HTTPConnection(*self.server.address, timeout=10.0)
        try:
            sent = dict(headers or {})
            if token != "":
                sent["Authorization"] = f"Bearer {token or self.token(scope)}"
            conn.request(
                method, target,
                body=json.dumps(body) if body is not None else None,
                headers=sent,
            )
            answer = conn.getresponse()
            raw = answer.read()
        finally:
            conn.close()
        payload = json.loads(raw) if raw else {}
        return answer.status, dict(answer.getheaders()), payload

    def raw(self, data: bytes, *, settle_s: float = 0.0) -> bytes:
        """Send raw bytes, read until the server hangs up."""
        with socket.create_connection(self.server.address, timeout=10.0) as s:
            s.sendall(data)
            if settle_s:
                time.sleep(settle_s)
            chunks = []
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def advance(self, seconds: float) -> None:
        """Run the simulated cluster forward (no pump in these tests)."""
        with self.gateway.lock:
            self.drill.sim.run(until=self.drill.sim.now + seconds)

    def submit(self, name, **extra):
        body = {"name": name, "binary": DRILL_BINARY, "time_limit_s": 600}
        body.update(extra)
        return self.call("POST", "/slurm/v1/jobs", scope="submit", body=body)


@pytest.fixture
def stack(tmp_path):
    drill = build_drill_plane(str(tmp_path / "statesave"))
    authority = TokenAuthority(SECRET)
    registry = _Registry()
    provider = _Provider()
    gateway = RestGateway(
        authority=authority,
        leader=drill.plane.leader,
        dbd=drill.dbd,
        predict_provider=provider,
        registry=registry,
        retry_after_s=0.25,
    )
    server = RestdServer(gateway).start()
    s = Stack(drill, authority, gateway, server, registry, provider)
    try:
        yield s
    finally:
        server.stop()


class TestJobRoutes:
    def test_submit_then_get(self, stack):
        status, _, payload = stack.submit("alpha", num_tasks=2)
        assert status == 201
        assert payload["deduplicated"] is False
        job_id = payload["job_id"]

        status, _, job = stack.call("GET", f"/slurm/v1/jobs/{job_id}",
                                    scope="read")
        assert status == 200
        assert job["name"] == "alpha"
        assert job["state"] == "PENDING"

    def test_submit_runs_to_completion(self, stack):
        _, _, payload = stack.submit("runs")
        stack.advance(600.0)
        _, _, job = stack.call("GET", f"/slurm/v1/jobs/{payload['job_id']}")
        assert job["state"] == "COMPLETED"
        assert job["node_list"]

    def test_dedup_answers_existing_job(self, stack):
        status1, _, first = stack.submit("twice")
        status2, _, second = stack.submit("twice")
        assert (status1, status2) == (201, 200)
        assert second["deduplicated"] is True
        assert second["job_id"] == first["job_id"]

    def test_dedup_off_creates_a_second_job(self, stack):
        _, _, first = stack.submit("again")
        status, _, second = stack.submit("again", dedup=False)
        assert status == 201
        assert second["job_id"] != first["job_id"]

    def test_array_submit_reports_task_ids(self, stack):
        status, _, payload = stack.submit("arr", array=[0, 1, 2])
        assert status == 201
        assert len(payload["task_ids"]) == 3

    def test_cancel(self, stack):
        _, _, payload = stack.submit("doomed")
        status, _, job = stack.call(
            "DELETE", f"/slurm/v1/jobs/{payload['job_id']}", scope="submit"
        )
        assert status == 200
        assert job["state"] == "CANCELLED"

    def test_get_unknown_job_404(self, stack):
        status, _, payload = stack.call("GET", "/slurm/v1/jobs/99999")
        assert status == 404
        assert payload["error"] == "NOT_FOUND"

    def test_cancel_unknown_job_404(self, stack):
        status, _, payload = stack.call("DELETE", "/slurm/v1/jobs/99999",
                                        scope="submit")
        assert status == 404

    def test_non_integer_job_id_400(self, stack):
        status, _, payload = stack.call("GET", "/slurm/v1/jobs/latest")
        assert status == 400
        assert payload["error"] == "INVALID"

    def test_submit_missing_binary_400(self, stack):
        status, _, payload = stack.call(
            "POST", "/slurm/v1/jobs", scope="submit", body={"name": "x"}
        )
        assert status == 400
        assert "binary" in payload["message"]


class TestPagination:
    def test_walk_equals_full_listing(self, stack):
        for i in range(9):
            stack.submit(f"page-{i}")
        seen, cursor, pages = [], None, 0
        while True:
            target = "/slurm/v1/jobs?limit=4"
            if cursor:
                target += f"&cursor={cursor}"
            status, _, payload = stack.call("GET", target)
            assert status == 200
            seen.extend(j["job_id"] for j in payload["jobs"])
            pages += 1
            cursor = payload.get("next_cursor")
            if not cursor:
                break
        assert pages == 3
        _, _, full = stack.call("GET", "/slurm/v1/jobs?limit=1000")
        assert seen == [j["job_id"] for j in full["jobs"]]
        assert seen == sorted(seen)

    def test_limit_validation(self, stack):
        for bad in ("0", "1001", "-3", "soon"):
            status, _, payload = stack.call(
                "GET", f"/slurm/v1/jobs?limit={bad}"
            )
            assert status == 400, bad

    def test_malformed_cursor_400(self, stack):
        for bad in ("!!!", "bm90LWpzb24", "eyJ2IjogOX0="):  # junk, not-json, v9
            status, _, payload = stack.call(
                "GET", f"/slurm/v1/jobs?cursor={bad}"
            )
            assert status == 400, bad
            assert payload["error"] == "INVALID"

    def test_cursor_survives_journal_compaction(self, stack):
        """The tentpole pagination claim: a cursor taken before the
        journal is compacted still resumes exactly after the row it
        named, because the dbd re-bootstraps from the snapshot."""
        for i in range(12):
            stack.submit(f"compact-{i}")
        status, _, page1 = stack.call("GET", "/slurm/v1/jobs?limit=5")
        assert status == 200
        cursor = page1["next_cursor"]
        assert cursor

        # snapshot + compact, then point the gateway at a *fresh* dbd
        # whose cursor predates the compaction point
        with stack.gateway.lock:
            leader = stack.drill.plane.leader()
            statesave = stack.drill.statesave
            statesave.write_snapshot(
                leader.capture_state(), epoch=leader.epoch,
                time=stack.drill.sim.now,
            )
            assert statesave.compact() > 0
            fresh = SlurmDbd(statesave)
            stack.gateway.dbd = fresh

        status, _, page2 = stack.call(
            "GET", f"/slurm/v1/jobs?limit=1000&cursor={cursor}"
        )
        assert status == 200
        assert fresh.bootstraps == 1
        ids = [j["job_id"] for j in page1["jobs"]] + [
            j["job_id"] for j in page2["jobs"]
        ]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids)) == 12


class TestAuth:
    def test_missing_token_401(self, stack):
        status, _, payload = stack.call("GET", "/slurm/v1/diag", token="")
        assert status == 401
        assert payload["error"] == "UNAUTHORIZED"
        assert payload["retryable"] is False

    def test_garbage_token_401(self, stack):
        status, _, _ = stack.call("GET", "/slurm/v1/diag", token="garbage")
        assert status == 401

    def test_wrong_scheme_401(self, stack):
        status, _, _ = stack.call(
            "GET", "/slurm/v1/diag", token="",
            headers={"Authorization": "Basic dXNlcjpwdw=="},
        )
        assert status == 401

    def test_expired_token_401(self, stack):
        stale = TokenAuthority(SECRET, clock=lambda: 1.0)
        token = stale.issue("old", "admin", ttl_s=10.0)  # expired long ago
        status, _, payload = stack.call("GET", "/slurm/v1/diag", token=token)
        assert status == 401
        assert "expired" in payload["message"]

    def test_read_token_cannot_submit_403(self, stack):
        status, _, payload = stack.call(
            "POST", "/slurm/v1/jobs", token=stack.token("read"),
            body={"name": "x", "binary": DRILL_BINARY},
        )
        assert status == 403
        assert payload["error"] == "FORBIDDEN"

    def test_submit_token_cannot_drain_403(self, stack):
        host = stack.drill.slurmds[0].hostname
        status, _, _ = stack.call(
            "POST", f"/slurm/v1/nodes/{host}/drain",
            token=stack.token("submit"),
        )
        assert status == 403

    def test_admin_covers_everything(self, stack):
        for target in ("/slurm/v1/jobs", "/slurm/v1/nodes", "/slurm/v1/diag",
                       "/chronus/v1/models", "/chronus/v1/metrics"):
            status, _, _ = stack.call("GET", target)
            assert status == 200, target


class TestHttpEdgeCases:
    def test_unknown_path_404(self, stack):
        status, _, payload = stack.call("GET", "/slurm/v1/partitions")
        assert status == 404
        assert payload["error"] == "NOT_FOUND"

    def test_wrong_method_405(self, stack):
        status, _, payload = stack.call("PUT", "/slurm/v1/jobs")
        assert status == 405
        assert payload["error"] == "METHOD_NOT_ALLOWED"

    def test_malformed_json_body_400(self, stack):
        status, _, payload = stack.call(
            "POST", "/slurm/v1/jobs", scope="submit",
            headers={"Content-Type": "application/json"},
            body=None, token=stack.token("submit"),
        )
        # now with a genuinely broken body, raw
        raw = (
            b"POST /slurm/v1/jobs HTTP/1.1\r\n"
            b"Host: t\r\n"
            + f"Authorization: Bearer {stack.token('submit')}\r\n".encode()
            + b"Content-Length: 9\r\nConnection: close\r\n\r\n{not json"
        )
        answer = stack.raw(raw)
        assert b" 400 " in answer.split(b"\r\n", 1)[0]
        assert b"not valid JSON" in answer

    def test_oversized_headers_431(self, stack):
        raw = (
            b"GET /slurm/v1/diag HTTP/1.1\r\n"
            b"X-Padding: " + b"a" * 20000 + b"\r\n\r\n"
        )
        answer = stack.raw(raw)
        assert b" 431 " in answer.split(b"\r\n", 1)[0]
        assert b"HEADERS_TOO_LARGE" in answer

    def test_oversized_body_413(self, stack):
        raw = (
            b"POST /slurm/v1/jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 2000000\r\n\r\n"
        )
        answer = stack.raw(raw)
        assert b" 413 " in answer.split(b"\r\n", 1)[0]
        assert b"BODY_TOO_LARGE" in answer

    def test_oversized_chunked_body_413(self, stack):
        # one declared 2 MiB chunk: refused before any data is read
        raw = (
            b"POST /slurm/v1/jobs HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n200000\r\n"
        )
        answer = stack.raw(raw)
        assert b" 413 " in answer.split(b"\r\n", 1)[0]

    def test_malformed_chunk_size_400(self, stack):
        raw = (
            b"POST /slurm/v1/jobs HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\nzz\r\n"
        )
        answer = stack.raw(raw)
        assert b" 400 " in answer.split(b"\r\n", 1)[0]
        assert b"malformed chunk size" in answer

    def test_bad_chunk_terminator_400(self, stack):
        raw = (
            b"POST /slurm/v1/jobs HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n5\r\nhelloXX"
        )
        answer = stack.raw(raw)
        assert b" 400 " in answer.split(b"\r\n", 1)[0]
        assert b"CRLF" in answer

    def test_well_formed_chunked_body_accepted(self, stack):
        body = json.dumps({"name": "chunky", "binary": DRILL_BINARY}).encode()
        raw = (
            b"POST /slurm/v1/jobs HTTP/1.1\r\nHost: t\r\n"
            + f"Authorization: Bearer {stack.token('submit')}\r\n".encode()
            + b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
        )
        answer = stack.raw(raw)
        assert b" 201 " in answer.split(b"\r\n", 1)[0]

    def test_malformed_request_line_400(self, stack):
        answer = stack.raw(b"NONSENSE\r\n\r\n")
        assert b" 400 " in answer.split(b"\r\n", 1)[0]

    def test_slow_client_408(self, stack):
        """A stalled (slowloris) read times out as 408, not a hang."""
        slow = RestdServer(stack.gateway, read_timeout_s=0.2).start()
        try:
            with socket.create_connection(slow.address, timeout=10.0) as s:
                s.sendall(b"GET /slurm/v1/diag HTT")  # ...and stall
                chunks = []
                while True:
                    chunk = s.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            answer = b"".join(chunks)
        finally:
            slow.stop()
        assert b" 408 " in answer.split(b"\r\n", 1)[0]
        assert b'"retryable": true' in answer
        assert b"Retry-After" in answer

    def test_keep_alive_serves_many_requests(self, stack):
        conn = http.client.HTTPConnection(*stack.server.address, timeout=10.0)
        try:
            for _ in range(3):
                conn.request(
                    "GET", "/slurm/v1/diag",
                    headers={"Authorization": f"Bearer {stack.token('read')}"},
                )
                answer = conn.getresponse()
                answer.read()
                assert answer.status == 200
        finally:
            conn.close()
        assert stack.server.requests_served >= 3


class TestNodesAndDiag:
    def test_list_nodes(self, stack):
        status, _, payload = stack.call("GET", "/slurm/v1/nodes")
        assert status == 200
        assert len(payload["nodes"]) == 4
        assert all(n["state"] == "idle" for n in payload["nodes"])

    def test_drain_resume_round_trip(self, stack):
        host = stack.drill.slurmds[0].hostname
        status, _, node = stack.call("POST", f"/slurm/v1/nodes/{host}/drain")
        assert (status, node["state"]) == (200, "drained")
        status, _, node = stack.call("POST", f"/slurm/v1/nodes/{host}/resume")
        assert (status, node["state"]) == (200, "idle")

    def test_drain_unknown_node_404(self, stack):
        status, _, _ = stack.call("POST", "/slurm/v1/nodes/ghost/drain")
        assert status == 404

    def test_diag(self, stack):
        stack.submit("diag-job")
        status, _, diag = stack.call("GET", "/slurm/v1/diag")
        assert status == 200
        assert diag["leader"] == "ctld-a"
        assert diag["epoch"] == 0
        assert diag["jobs_total"] == 1


class TestChronusRoutes:
    def test_predict_round_trip(self, stack):
        status, _, payload = stack.call(
            "POST", "/chronus/v1/predict", scope="read",
            body={"proto": "chronus/2", "system_id": 1, "binary_hash": "abc"},
        )
        assert status == 200
        assert payload["conf_best"] == 7
        assert stack.provider.seen[0].system_id == 1

    def test_predict_without_proto_is_invalid(self, stack):
        status, _, payload = stack.call(
            "POST", "/chronus/v1/predict", scope="read",
            body={"system_id": 1, "binary_hash": "abc"},
        )
        assert status == 400
        assert payload["error"] == "INVALID"
        assert stack.provider.seen == []  # refused before the provider

    def test_predict_shed_maps_to_429_with_retry_after(self, stack):
        stack.provider.answer = ErrorResponse(
            "SHED", "queue full", retryable=True
        )
        status, headers, payload = stack.call(
            "POST", "/chronus/v1/predict", scope="read",
            body={"proto": "chronus/2", "system_id": 1, "binary_hash": "abc"},
        )
        assert status == 429
        assert headers["Retry-After"] == "0.25"
        assert payload["error"] == "SHED"

    def test_predict_without_provider_503(self, stack):
        stack.gateway.predict_provider = None
        status, _, payload = stack.call(
            "POST", "/chronus/v1/predict", scope="read", body={}
        )
        assert status == 503
        assert payload["error"] == "NOT_CONFIGURED"

    def test_list_models_with_stage_filter(self, stack):
        status, _, payload = stack.call("GET", "/chronus/v1/models")
        assert status == 200
        assert [m["model_id"] for m in payload["models"]] == [1, 2]
        _, _, active = stack.call("GET", "/chronus/v1/models?stage=active")
        assert [m["model_id"] for m in active["models"]] == [2]

    def test_promote_shadow_rollback(self, stack):
        status, _, m = stack.call("POST", "/chronus/v1/models/1/promote")
        assert (status, m["stage"]) == (200, "active")
        status, _, m = stack.call("POST", "/chronus/v1/models/2/shadow")
        assert (status, m["stage"]) == (200, "shadow")
        status, _, m = stack.call(
            "POST", "/chronus/v1/models/rollback",
            body={"system_id": 1, "application": "hpcg"},
        )
        assert status == 200
        assert ("rollback", 1, "hpcg") in stack.registry.calls

    def test_promote_unknown_model_404(self, stack):
        status, _, _ = stack.call("POST", "/chronus/v1/models/42/promote")
        assert status == 404

    def test_rollback_needs_system_id(self, stack):
        status, _, payload = stack.call(
            "POST", "/chronus/v1/models/rollback", body={"system_id": True}
        )
        assert status == 400

    def test_models_without_registry_503(self, stack):
        stack.gateway.registry = None
        status, _, payload = stack.call("GET", "/chronus/v1/models")
        assert status == 503
        assert payload["retryable"] is True

    def test_metrics_json_and_prometheus(self, stack):
        stack.call("GET", "/slurm/v1/diag")
        status, headers, _ = stack.call("GET", "/chronus/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        conn = http.client.HTTPConnection(*stack.server.address, timeout=10.0)
        try:
            conn.request(
                "GET", "/chronus/v1/metrics?format=prometheus",
                headers={"Authorization": f"Bearer {stack.token('read')}"},
            )
            answer = conn.getresponse()
            text = answer.read().decode()
        finally:
            conn.close()
        assert answer.status == 200
        assert "restd_requests_total" in text

    def test_metrics_unknown_format_400(self, stack):
        status, _, _ = stack.call("GET", "/chronus/v1/metrics?format=xml")
        assert status == 400


class TestFailover:
    def test_dead_leader_answers_503_with_retry_after(self, stack):
        with stack.gateway.lock:
            stack.drill.leader_peer().kill()
        status, headers, payload = stack.call("GET", "/slurm/v1/diag")
        assert status == 503
        assert payload["error"] in ("NO_LEADER", "CTLD_DOWN")
        assert payload["retryable"] is True
        assert headers["Retry-After"] == "0.25"

    def test_takeover_then_submit_retry_dedups(self, stack):
        _, _, before = stack.submit("survivor")
        with stack.gateway.lock:
            stack.drill.leader_peer().kill()
        status, _, _ = stack.submit("late-arrival")
        assert status == 503

        # lease expiry + heartbeat: the backup performs a fenced takeover
        stack.advance(3 * stack.drill.lease_s)
        status, _, diag = stack.call("GET", "/slurm/v1/diag")
        assert status == 200
        assert diag["leader"] == "ctld-b"
        assert diag["epoch"] == 1

        # the pre-kill job survived; a retried submit dedups onto it
        status, _, after = stack.submit("survivor")
        assert (status, after["deduplicated"]) == (200, True)
        assert after["job_id"] == before["job_id"]
        # and the failed submit finally lands as a fresh job
        status, _, late = stack.submit("late-arrival")
        assert status == 201

    def test_array_retry_after_snapshot_takeover_answers_the_master(self, stack):
        for i in range(8):
            stack.submit(f"single-{i}")
        _, _, first = stack.submit("arr", array=[0, 1, 2])
        assert first["job_id"] == 9
        with stack.gateway.lock:
            leader = stack.drill.plane.leader()
            stack.drill.statesave.write_snapshot(
                leader.capture_state(), epoch=leader.epoch,
                time=stack.drill.sim.now,
            )
            stack.drill.leader_peer().kill()
        stack.advance(3 * stack.drill.lease_s)

        # the new leader's job table came back from the snapshot in
        # key-string order (1, 10, 11, 2, ...): the retry must still get
        # the array's master id, not a task's
        status, _, again = stack.submit("arr", array=[0, 1, 2])
        assert (status, again["deduplicated"]) == (200, True)
        assert again["job_id"] == first["job_id"]
        assert again["task_ids"] == first["task_ids"]
