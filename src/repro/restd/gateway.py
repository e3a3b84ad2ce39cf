"""The REST gateway: versioned routes over the controller, fleet, registry.

URL namespace (mirroring real slurmrestd's ``/slurm/v<N>/...`` plus a
chronus-native tree):

====== ================================================== ======
method path                                               scope
====== ================================================== ======
GET    /slurm/v1/jobs                                     read
POST   /slurm/v1/jobs                                     submit
GET    /slurm/v1/jobs/{job_id}                            read
DELETE /slurm/v1/jobs/{job_id}                            submit
GET    /slurm/v1/nodes                                    read
POST   /slurm/v1/nodes/{hostname}/drain                   admin
POST   /slurm/v1/nodes/{hostname}/resume                  admin
GET    /slurm/v1/diag                                     read
GET    /slurm/v1/workflows                                read
GET    /slurm/v1/workflows/{workflow_id}                  read
POST   /chronus/v1/predict                                read
GET    /chronus/v1/models                                 read
POST   /chronus/v1/models/{model_id}/promote              admin
POST   /chronus/v1/models/{model_id}/shadow               admin
POST   /chronus/v1/models/rollback                        admin
GET    /chronus/v1/metrics                                read
====== ================================================== ======

Design points:

* **Leader-aware writes**: every controller operation resolves the
  leader through the injected ``leader()`` callable (an
  :class:`~repro.slurm.ha.HaControlPlane` in production).  During a
  fenced takeover the resulting ``NoLeaderError`` /
  ``ControllerCrashError`` / ``StaleEpochError`` becomes a 503 carrying
  ``Retry-After`` — clients retry, exactly like sbatch against a
  mid-failover pair.
* **Idempotent submits**: ``dedup`` (default on) answers an existing
  job with the same name instead of creating a second one, so a client
  retrying across an epoch bump can never double-submit.
* **Stable pagination**: list cursors are base64url JSON keyed by the
  last ``job_id`` served, read from the ``slurmdbd`` journal tail —
  job ids are totally ordered and survive journal compaction (the dbd
  re-bootstraps from the snapshot), so a cursor taken before a
  compaction still resumes exactly after the row it named.
* **One error shape**: every failure resolves through
  :func:`repro.api.errors.envelope_for` — the same envelope the socket
  daemons and the CLI print.

The gateway is transport-free: :meth:`handle` maps an
:class:`~repro.restd.http.HttpRequest` to a :class:`RestResponse`, which
is what makes the whole route table unit-testable without sockets.
"""

from __future__ import annotations

import base64
import binascii
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro import faults, telemetry
from repro.api.auth import TokenAuthority
from repro.api.errors import ErrorEnvelope, envelope_for, http_status_for
from repro.api.types import (
    DiagInfo,
    JobInfo,
    JobList,
    JobSubmitRequest,
    JobSubmitResult,
    ModelInfo,
    ModelList,
    NodeInfo,
    NodeList,
    WorkflowInfo,
    WorkflowList,
)
from repro.core.domain.errors import (
    ChronusError,
    ProtocolError,
    UnauthenticatedError,
)
from repro.restd.http import HttpError, HttpRequest
from repro.serving.protocol import ErrorResponse, decode_request_dict
from repro.slurm.workflow import workflow_rollup

__all__ = ["Route", "ROUTES", "RestResponse", "RestGateway", "DEFAULT_PAGE_LIMIT"]

DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

#: statuses that carry a Retry-After header (transient: retry later)
_RETRY_STATUSES = (429, 503, 504)


@dataclass(frozen=True)
class Route:
    """One endpoint: method + pattern + handler + required scope."""

    method: str
    pattern: str  # /slurm/v1/jobs/{job_id}
    handler: str  # RestGateway method name
    scope: str
    summary: str
    success_status: int = 200
    request_model: Optional[type] = None
    response_model: Optional[type] = None

    def segments(self) -> list[str]:
        return self.pattern.strip("/").split("/")

    def path_params(self) -> list[str]:
        return [s[1:-1] for s in self.segments() if s.startswith("{")]

    def openapi_path(self) -> str:
        return self.pattern

    def match(self, method: str, path: str) -> "dict | None":
        """Bound path params on a match, ``None`` otherwise (method aside)."""
        got = path.strip("/").split("/")
        want = self.segments()
        if len(got) != len(want):
            return None
        params = {}
        for w, g in zip(want, got):
            if w.startswith("{") and w.endswith("}"):
                if not g:
                    return None
                params[w[1:-1]] = g
            elif w != g:
                return None
        return params


ROUTES: tuple[Route, ...] = (
    Route("GET", "/slurm/v1/jobs", "list_jobs", "read",
          "list jobs (paginated over the slurmdbd tail)",
          response_model=JobList),
    Route("POST", "/slurm/v1/jobs", "submit_job", "submit",
          "submit a job (sbatch)", success_status=201,
          request_model=JobSubmitRequest, response_model=JobSubmitResult),
    Route("GET", "/slurm/v1/jobs/{job_id}", "get_job", "read",
          "one job's state (squeue/sacct row)", response_model=JobInfo),
    Route("DELETE", "/slurm/v1/jobs/{job_id}", "cancel_job", "submit",
          "cancel a job (scancel)", response_model=JobInfo),
    Route("GET", "/slurm/v1/nodes", "list_nodes", "read",
          "node inventory (sinfo)", response_model=NodeList),
    Route("POST", "/slurm/v1/nodes/{hostname}/drain", "drain_node", "admin",
          "drain a node", response_model=NodeInfo),
    Route("POST", "/slurm/v1/nodes/{hostname}/resume", "resume_node", "admin",
          "resume a drained node", response_model=NodeInfo),
    Route("GET", "/slurm/v1/diag", "diag", "read",
          "controller diagnostics (sdiag)", response_model=DiagInfo),
    Route("GET", "/slurm/v1/workflows", "list_workflows", "read",
          "per-workflow provenance rollups (paginated)",
          response_model=WorkflowList),
    Route("GET", "/slurm/v1/workflows/{workflow_id}", "get_workflow", "read",
          "one workflow's rollup (joules, attempts, model lineage)",
          response_model=WorkflowInfo),
    Route("POST", "/chronus/v1/predict", "predict", "read",
          "energy-efficient configuration prediction"),
    Route("GET", "/chronus/v1/models", "list_models", "read",
          "model registry records", response_model=ModelList),
    Route("POST", "/chronus/v1/models/{model_id}/promote", "promote_model",
          "admin", "promote a model to active", response_model=ModelInfo),
    Route("POST", "/chronus/v1/models/{model_id}/shadow", "shadow_model",
          "admin", "run a model as its scope's shadow",
          response_model=ModelInfo),
    Route("POST", "/chronus/v1/models/rollback", "rollback_model", "admin",
          "restore the previously active model", response_model=ModelInfo),
    Route("GET", "/chronus/v1/metrics", "metrics", "read",
          "telemetry snapshot (json or prometheus)"),
)


@dataclass
class RestResponse:
    """What a handler produces; the server renders it onto the socket."""

    status: int = 200
    body: Any = None  # dict | str | bytes
    headers: dict = field(default_factory=dict)
    content_type: str = "application/json"

    def encoded_body(self) -> bytes:
        if isinstance(self.body, bytes):
            return self.body
        if isinstance(self.body, str):
            return self.body.encode("utf-8")
        return json.dumps(self.body).encode("utf-8")


def _encode_cursor(after: "int | str") -> str:
    """Opaque cursor keyed by the last row served (job id or workflow id)."""
    raw = json.dumps({"v": 1, "after": after}).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii")


def _decode_cursor(cursor: str, expect: type = int) -> "int | str":
    try:
        data = json.loads(base64.urlsafe_b64decode(cursor.encode("ascii")))
        if data.get("v") != 1:
            raise ValueError(f"unknown cursor version {data.get('v')!r}")
        after = data["after"]
        if isinstance(after, bool) or not isinstance(after, expect):
            raise ValueError(f"cursor 'after' must be {expect.__name__}")
        return after
    except (ValueError, KeyError, binascii.Error, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed pagination cursor: {exc}") from exc


class RestGateway:
    """Routes HTTP requests onto the control plane, fleet and registry."""

    def __init__(
        self,
        *,
        authority: TokenAuthority,
        leader: Callable[[], Any],
        dbd: Any = None,
        predict_provider: Any = None,
        registry: Any = None,
        retry_after_s: float = 1.0,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.authority = authority
        self._leader = leader
        self.dbd = dbd
        #: anything with ``.predict(PredictRequest)``: a ChronusServer or
        #: a transport to one
        self.predict_provider = predict_provider
        #: a ModelRegistryService (or None to 503 the model routes)
        self.registry = registry
        self.retry_after_s = retry_after_s
        self._log = log or (lambda msg: None)
        #: serializes handler access to the (thread-unsafe) simulated
        #: control plane; the sim pump thread takes the same lock
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, request: HttpRequest) -> RestResponse:
        """One request -> one response; never raises."""
        telemetry.counter("restd_requests_total").inc()
        try:
            return self._dispatch(request)
        except HttpError as exc:
            kind = "transient" if exc.status in (408, *_RETRY_STATUSES) else "user"
            return self._error_response(
                ErrorEnvelope(exc.code, exc.message, exc.status, kind)
            )
        except ChronusError as exc:
            return self._error_response(envelope_for(exc))
        except KeyError as exc:
            return self._error_response(
                ErrorEnvelope("NOT_FOUND", str(exc).strip("'\""), 404, "user")
            )
        except ValueError as exc:
            return self._error_response(
                ErrorEnvelope("INVALID", str(exc), 400, "user")
            )
        except Exception as exc:  # a handler bug must still answer
            telemetry.counter("restd_internal_errors_total").inc()
            return self._error_response(
                envelope_for(exc)  # non-Chronus -> INTERNAL/500 (or extras)
            )

    def _dispatch(self, request: HttpRequest) -> RestResponse:
        route, params = self._match(request)
        self._authenticate(request, route.scope)
        handler = getattr(self, "_" + route.handler)
        with self.lock:
            return handler(request, params)

    def _match(self, request: HttpRequest) -> "tuple[Route, dict]":
        path_exists = False
        for route in ROUTES:
            params = route.match(request.method, request.path)
            if params is None:
                continue
            path_exists = True
            if route.method == request.method:
                return route, params
        if path_exists:
            raise HttpError(
                405, "METHOD_NOT_ALLOWED",
                f"{request.method} is not served at {request.path}",
            )
        raise HttpError(404, "NOT_FOUND", f"no route for {request.path}")

    def _authenticate(self, request: HttpRequest, scope: str) -> None:
        if faults.fire("restd.bad_auth"):
            # injected auth outage: the verifier rejects everything
            telemetry.counter("restd_bad_auth_total").inc()
            raise UnauthenticatedError(
                "token verification unavailable (injected fault)"
            )
        header = request.headers.get("authorization", "")
        scheme, _, token = header.partition(" ")
        if not header or scheme.lower() != "bearer":
            raise UnauthenticatedError(
                "missing Authorization: Bearer <token> header"
            )
        self.authority.require(token.strip(), scope)

    def _error_response(self, envelope: ErrorEnvelope) -> RestResponse:
        if envelope.http_status == 401:
            telemetry.counter("restd_unauthorized_total").inc()
        headers = {}
        if envelope.http_status in _RETRY_STATUSES:
            headers["Retry-After"] = f"{self.retry_after_s:g}"
        return RestResponse(
            status=envelope.http_status,
            body=envelope.to_dict(),
            headers=headers,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _json_body(request: HttpRequest) -> Any:
        if not request.body:
            return {}
        try:
            return json.loads(request.body)
        except ValueError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc

    @staticmethod
    def _int_param(params: dict, name: str) -> int:
        try:
            return int(params[name])
        except ValueError:
            raise ProtocolError(
                f"path parameter {name!r} must be an integer, "
                f"got {params[name]!r}"
            ) from None

    def _job_table(self) -> "dict[int, Any]":
        """The job table list endpoints read: the slurmdbd shadow table
        when a dbd is wired (it survives the leader), else the leader's."""
        if self.dbd is not None:
            self.dbd.pump()
            return self.dbd.jobs()
        return self._leader().jobs

    def _workflow_table(self) -> "dict[str, dict]":
        """Per-workflow rollups, preferring the leader-surviving dbd."""
        if self.dbd is not None:
            self.dbd.pump()
            return self.dbd.workflows()
        return workflow_rollup(self._leader().jobs.values())

    @staticmethod
    def _page_limit(request: HttpRequest) -> int:
        try:
            limit = int(request.query.get("limit", DEFAULT_PAGE_LIMIT))
        except ValueError:
            raise ProtocolError("query parameter 'limit' must be an integer") from None
        if not 1 <= limit <= MAX_PAGE_LIMIT:
            raise ProtocolError(
                f"query parameter 'limit' must be in [1, {MAX_PAGE_LIMIT}]"
            )
        return limit

    # ------------------------------------------------------------------
    # /slurm/v1 handlers
    # ------------------------------------------------------------------
    def _list_jobs(self, request: HttpRequest, params: dict) -> RestResponse:
        limit = self._page_limit(request)
        after = 0
        cursor = request.query.get("cursor")
        if cursor:
            after = _decode_cursor(cursor)
        table = self._job_table()
        ids = sorted(jid for jid in table if jid > after)
        page, rest = ids[:limit], ids[limit:]
        jobs = tuple(JobInfo.from_job(table[jid]) for jid in page)
        next_cursor = _encode_cursor(page[-1]) if rest else None
        return RestResponse(
            body=JobList(jobs=jobs, next_cursor=next_cursor).to_dict()
        )

    def _submit_job(self, request: HttpRequest, params: dict) -> RestResponse:
        req = JobSubmitRequest.from_dict(self._json_body(request))
        ctld = self._leader()
        existing = ctld.job_by_name(req.name) if req.dedup and req.name else None
        if existing is not None:
            # a retry whose first attempt's journal record was durable
            # (ack lost): answer the existing job
            telemetry.counter("restd_dedup_hits_total").inc()
            return RestResponse(
                status=200,
                body=JobSubmitResult(
                    job_id=existing,
                    name=req.name,
                    deduplicated=True,
                    task_ids=self._task_ids(ctld, ctld.jobs[existing]),
                ).to_dict(),
            )
        job_id = ctld.submit(req.to_descriptor(), submit_uid=req.uid)
        task_ids: tuple[int, ...] = ()
        if req.array:
            task_ids = tuple(t.job_id for t in ctld.array_tasks(job_id))
        return RestResponse(
            status=201,
            body=JobSubmitResult(
                job_id=job_id, name=req.name, task_ids=task_ids
            ).to_dict(),
        )

    @staticmethod
    def _task_ids(ctld, job) -> tuple[int, ...]:
        master = job.array_job_id if job.array_job_id is not None else job.job_id
        try:
            return tuple(t.job_id for t in ctld.array_tasks(master))
        except KeyError:
            return ()

    def _get_job(self, request: HttpRequest, params: dict) -> RestResponse:
        job_id = self._int_param(params, "job_id")
        job = self._job_table().get(job_id)
        if job is None:
            raise HttpError(404, "NOT_FOUND", f"unknown job {job_id}")
        return RestResponse(body=JobInfo.from_job(job).to_dict())

    def _cancel_job(self, request: HttpRequest, params: dict) -> RestResponse:
        job_id = self._int_param(params, "job_id")
        ctld = self._leader()
        ctld.cancel(job_id)  # KeyError -> 404
        return RestResponse(body=JobInfo.from_job(ctld.get_job(job_id)).to_dict())

    def _node_info(self, ctld, slurmd) -> NodeInfo:
        drained = slurmd.hostname in getattr(ctld, "_drained", set())
        free = slurmd.node.free_cores()
        total = slurmd.node.total_cores
        state = "drained" if drained else ("idle" if free == total else "allocated")
        return NodeInfo(
            hostname=slurmd.hostname,
            total_cores=total,
            free_cores=free,
            state=state,
        )

    def _list_nodes(self, request: HttpRequest, params: dict) -> RestResponse:
        ctld = self._leader()
        nodes = tuple(self._node_info(ctld, s) for s in ctld.nodes)
        return RestResponse(body=NodeList(nodes=nodes).to_dict())

    def _find_slurmd(self, ctld, hostname: str):
        for slurmd in ctld.nodes:
            if slurmd.hostname == hostname:
                return slurmd
        raise HttpError(404, "NOT_FOUND", f"unknown node {hostname!r}")

    def _drain_node(self, request: HttpRequest, params: dict) -> RestResponse:
        ctld = self._leader()
        slurmd = self._find_slurmd(ctld, params["hostname"])
        ctld.drain_node(params["hostname"])
        return RestResponse(body=self._node_info(ctld, slurmd).to_dict())

    def _resume_node(self, request: HttpRequest, params: dict) -> RestResponse:
        ctld = self._leader()
        slurmd = self._find_slurmd(ctld, params["hostname"])
        ctld.resume_node(params["hostname"])
        return RestResponse(body=self._node_info(ctld, slurmd).to_dict())

    def _diag(self, request: HttpRequest, params: dict) -> RestResponse:
        ctld = self._leader()
        return RestResponse(
            body=DiagInfo(
                leader=ctld.name,
                epoch=ctld.epoch,
                sim_time=ctld.sim.now,
                jobs_total=len(ctld.jobs),
                jobs_pending=len(ctld.pending_jobs()),
                jobs_running=len(ctld.running_jobs()),
            ).to_dict()
        )

    def _list_workflows(self, request: HttpRequest, params: dict) -> RestResponse:
        limit = self._page_limit(request)
        after = ""
        cursor = request.query.get("cursor")
        if cursor:
            after = _decode_cursor(cursor, expect=str)
        table = self._workflow_table()
        names = sorted(n for n in table if n > after)
        page, rest = names[:limit], names[limit:]
        workflows = tuple(WorkflowInfo.from_rollup(table[n]) for n in page)
        next_cursor = _encode_cursor(page[-1]) if rest else None
        return RestResponse(
            body=WorkflowList(
                workflows=workflows, next_cursor=next_cursor
            ).to_dict()
        )

    def _get_workflow(self, request: HttpRequest, params: dict) -> RestResponse:
        roll = self._workflow_table().get(params["workflow_id"])
        if roll is None:
            raise HttpError(
                404, "NOT_FOUND", f"unknown workflow {params['workflow_id']!r}"
            )
        return RestResponse(body=WorkflowInfo.from_rollup(roll).to_dict())

    # ------------------------------------------------------------------
    # /chronus/v1 handlers
    # ------------------------------------------------------------------
    def _predict(self, request: HttpRequest, params: dict) -> RestResponse:
        if self.predict_provider is None:
            raise HttpError(
                503, "NOT_CONFIGURED", "no prediction fleet behind this gateway"
            )
        data = self._json_body(request)
        answer = self.predict_provider.predict(decode_request_dict(data))
        if isinstance(answer, ErrorResponse):
            status = http_status_for(answer.code)
            headers = {}
            if status in _RETRY_STATUSES:
                headers["Retry-After"] = f"{self.retry_after_s:g}"
            return RestResponse(
                status=status, body=answer.to_dict(), headers=headers
            )
        return RestResponse(body=answer.to_dict())

    def _require_registry(self):
        if self.registry is None:
            raise HttpError(
                503, "NOT_CONFIGURED", "no model registry behind this gateway"
            )
        return self.registry

    def _list_models(self, request: HttpRequest, params: dict) -> RestResponse:
        registry = self._require_registry()
        stage = request.query.get("stage") or None
        records = registry.list(stage=stage)
        return RestResponse(
            body=ModelList(
                models=tuple(ModelInfo.from_record(r) for r in records)
            ).to_dict()
        )

    def _promote_model(self, request: HttpRequest, params: dict) -> RestResponse:
        registry = self._require_registry()
        record = registry.promote(self._int_param(params, "model_id"))
        return RestResponse(body=ModelInfo.from_record(record).to_dict())

    def _shadow_model(self, request: HttpRequest, params: dict) -> RestResponse:
        registry = self._require_registry()
        record = registry.shadow(self._int_param(params, "model_id"))
        return RestResponse(body=ModelInfo.from_record(record).to_dict())

    def _rollback_model(self, request: HttpRequest, params: dict) -> RestResponse:
        registry = self._require_registry()
        body = self._json_body(request)
        system_id = body.get("system_id")
        if isinstance(system_id, bool) or not isinstance(system_id, int):
            raise ProtocolError("rollback body needs an integer 'system_id'")
        application = body.get("application", "hpcg")
        if not isinstance(application, str):
            raise ProtocolError("rollback field 'application' must be a string")
        record = registry.rollback(system_id, application)
        return RestResponse(body=ModelInfo.from_record(record).to_dict())

    def _metrics(self, request: HttpRequest, params: dict) -> RestResponse:
        fmt = request.query.get("format", "json")
        snap = telemetry.snapshot()
        if fmt == "prometheus":
            return RestResponse(
                body=telemetry.snapshot_to_prometheus(snap),
                content_type="text/plain; version=0.0.4",
            )
        if fmt != "json":
            raise ProtocolError(
                f"unknown metrics format {fmt!r} (json or prometheus)"
            )
        return RestResponse(
            body=telemetry.snapshot_to_json(snap), content_type="application/json"
        )
