#!/usr/bin/env python
"""Drive the REST gateway end-to-end over real HTTP and record the outcome.

The session a real client would have against slurmrestd, against a live
:class:`~repro.restd.server.RestdServer` backed by a two-peer journaled
slurmctld control plane (the HA drill plane):

1. **submit storm** — POST /slurm/v1/jobs for every job, new connection
   per request, each call's wall latency recorded;
2. **leader SIGKILL mid-storm** — the sim pump is paused (freezing
   leases so no takeover can happen yet), the primary is killed, and the
   client deterministically observes 503 + ``Retry-After`` answers; the
   pump then resumes, the backup performs its fenced takeover, and the
   client's retries — dedup on by default — land on the new leader;
3. **poll to completion** — paginated GET /slurm/v1/jobs walks (small
   pages, cursor-chained) until every submitted job is terminal;
4. **cancel** — one extra job is submitted and DELETEd;
5. **inventory** — nodes, diag, and a second full pagination walk whose
   union must equal the unpaginated table.

The companion ``check_restd_gate.py`` asserts the invariants (zero
lost/duplicated, every 503 carried Retry-After, p95 under budget); this
script only runs and records, so a failing session still leaves an
artifact to inspect.

Usage::

    PYTHONPATH=src python scripts/run_restd_smoke.py --output restd.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import tempfile
import time

from repro.api.auth import TokenAuthority
from repro.restd.gateway import RestGateway
from repro.restd.server import RestdServer, SimPump
from repro.slurm.ha import DRILL_BINARY, build_drill_plane

SCHEMA = "chronus-restd-smoke/1"

POLL_WALL_BUDGET_S = 120.0


class Client:
    """Minimal stdlib HTTP client recording latency per call."""

    def __init__(self, address: "tuple[str, int]", token: str) -> None:
        self.address = address
        self.token = token
        self.latencies_ms: list[float] = []
        self.requests = 0

    def call(self, method: str, target: str, body: "dict | None" = None):
        """One request; returns ``(status, headers, payload)``."""
        conn = http.client.HTTPConnection(*self.address, timeout=15.0)
        started = time.perf_counter()
        try:
            conn.request(
                method,
                target,
                body=json.dumps(body) if body is not None else None,
                headers={"Authorization": f"Bearer {self.token}"},
            )
            answer = conn.getresponse()
            raw = answer.read()
        finally:
            conn.close()
        self.latencies_ms.append((time.perf_counter() - started) * 1e3)
        self.requests += 1
        payload = json.loads(raw) if raw else {}
        return answer.status, dict(answer.getheaders()), payload


def percentile(values: "list[float]", q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def walk_pages(client: Client, limit: int) -> "tuple[list[dict], int]":
    """Cursor-chained pagination walk; returns (rows, pages)."""
    rows: list[dict] = []
    cursor = None
    pages = 0
    while True:
        target = f"/slurm/v1/jobs?limit={limit}"
        if cursor:
            target += f"&cursor={cursor}"
        status, _, payload = client.call("GET", target)
        if status != 200:
            raise RuntimeError(f"pagination walk answered {status}: {payload}")
        rows.extend(payload["jobs"])
        pages += 1
        cursor = payload.get("next_cursor")
        if not cursor:
            return rows, pages


def run_session(jobs: int, seed: int, statesave_path: str) -> dict:
    drill = build_drill_plane(statesave_path, snapshot_interval=40)
    authority = TokenAuthority("restd-smoke-secret")
    gateway = RestGateway(
        authority=authority, leader=drill.plane.leader, dbd=drill.dbd,
        retry_after_s=0.05,
    )
    server = RestdServer(gateway).start()
    pump = SimPump(drill.sim, gateway.lock, step_s=0.5, interval_s=0.002)
    client = Client(server.address, authority.issue("smoke", "admin"))

    stats = {
        "jobs_total": jobs,
        "submitted": 0,
        "retries_503": 0,
        "outage_503_observed": 0,
        "retry_after_missing": 0,
        "dedup_answers": 0,
        "leader_killed": False,
        "cancel_ok": False,
        "failures": [],
    }
    job_ids: dict[str, int] = {}

    def submit(i: int) -> None:
        name = f"smoke-{i:05d}"
        body = {
            "name": name,
            "binary": DRILL_BINARY,
            "num_tasks": 1 + i % 4,
            "time_limit_s": 300,
        }
        for _attempt in range(200):
            status, headers, payload = client.call("POST", "/slurm/v1/jobs", body)
            if status in (200, 201):
                job_ids[name] = payload["job_id"]
                if payload.get("deduplicated"):
                    stats["dedup_answers"] += 1
                return
            if status == 503:
                stats["retries_503"] += 1
                retry_after = headers.get("Retry-After")
                if retry_after is None:
                    stats["retry_after_missing"] += 1
                    time.sleep(0.05)
                else:
                    time.sleep(float(retry_after))
                continue
            stats["failures"].append(
                f"submit {name} answered {status}: {payload}"
            )
            return
        stats["failures"].append(f"submit {name} never landed (200 retries)")

    try:
        pump.start()
        kill_at = jobs // 2
        for i in range(jobs):
            if i == kill_at:
                # freeze simulated time: the lease cannot expire, so no
                # takeover can happen while we observe the outage
                pump.pause()
                with gateway.lock:
                    drill.leader_peer().kill()
                stats["leader_killed"] = True
                for _ in range(3):
                    status, headers, payload = client.call("GET", "/slurm/v1/diag")
                    if status == 503:
                        stats["outage_503_observed"] += 1
                        if "Retry-After" not in headers:
                            stats["retry_after_missing"] += 1
                        if payload.get("error") not in ("NO_LEADER", "CTLD_DOWN"):
                            stats["failures"].append(
                                f"outage answered code {payload.get('error')!r}"
                            )
                    else:
                        stats["failures"].append(
                            f"diag during outage answered {status}, expected 503"
                        )
                # unfreeze: the backup's lease watch expires and takes over
                pump.resume()
            submit(i)
        stats["submitted"] = len(job_ids)

        # cancel: one extra job, then DELETE it
        status, _, payload = client.call(
            "POST",
            "/slurm/v1/jobs",
            {
                "name": "smoke-cancel-me",
                "binary": DRILL_BINARY,
                "num_tasks": 1,
                "time_limit_s": 300,
            },
        )
        if status == 201:
            cancel_id = payload["job_id"]
            status, _, payload = client.call(
                "DELETE", f"/slurm/v1/jobs/{cancel_id}"
            )
            stats["cancel_ok"] = (
                status == 200 and payload.get("state") == "CANCELLED"
            )
            if not stats["cancel_ok"]:
                stats["failures"].append(
                    f"cancel answered {status}: {payload}"
                )
        else:
            stats["failures"].append(f"cancel-submit answered {status}")

        # poll (paginated) until every submitted job is terminal
        terminal_states = {"COMPLETED", "FAILED", "CANCELLED", "TIMEOUT"}
        deadline = time.monotonic() + POLL_WALL_BUDGET_S
        while True:
            rows, pages = walk_pages(client, limit=7)
            by_id = {row["job_id"]: row for row in rows}
            done = sum(
                1
                for jid in job_ids.values()
                if by_id.get(jid, {}).get("state") in terminal_states
            )
            if done == len(job_ids):
                stats["pagination_pages"] = pages
                break
            if time.monotonic() > deadline:
                stats["failures"].append(
                    f"poll budget exhausted: {done}/{len(job_ids)} terminal"
                )
                stats["pagination_pages"] = pages
                break
            time.sleep(0.05)

        # the paginated union must equal the unpaginated table
        status, _, full = client.call("GET", "/slurm/v1/jobs?limit=1000")
        if status != 200:
            stats["failures"].append(f"full listing answered {status}")
            full = {"jobs": []}
        full_ids = [row["job_id"] for row in full["jobs"]]
        walk_ids = [row["job_id"] for row in rows]
        if sorted(full_ids) != sorted(walk_ids):
            stats["failures"].append(
                f"pagination walk saw {len(walk_ids)} rows, "
                f"full listing has {len(full_ids)}"
            )
        names = [row["name"] for row in full["jobs"]]
        stats["duplicated"] = len(names) - len(set(names))
        stats["lost"] = sum(
            1
            for jid in job_ids.values()
            if {r["job_id"]: r for r in full["jobs"]}
            .get(jid, {})
            .get("state")
            not in terminal_states
        )

        # inventory endpoints
        status, _, nodes = client.call("GET", "/slurm/v1/nodes")
        stats["nodes_listed"] = len(nodes.get("nodes", [])) if status == 200 else -1
        status, _, diag = client.call("GET", "/slurm/v1/diag")
        stats["final_leader"] = diag.get("leader") if status == 200 else None
        stats["final_epoch"] = diag.get("epoch") if status == 200 else None
    finally:
        pump.stop()
        server.stop()

    stats["takeovers"] = sum(p.takeovers for p in drill.peers)
    stats["dbd_rows"] = len(drill.dbd.jobs())
    stats["requests_total"] = client.requests
    stats["p50_ms"] = percentile(client.latencies_ms, 0.50)
    stats["p95_ms"] = percentile(client.latencies_ms, 0.95)
    stats["max_ms"] = max(client.latencies_ms, default=0.0)
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="restd-smoke.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=40,
        help="submit-storm size [default: 40]",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="restd-smoke-") as path:
        stats = run_session(args.jobs, args.seed, path)

    payload = {"schema": SCHEMA, "seed": args.seed, **stats}
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)

    print(
        f"restd smoke: {stats['submitted']}/{stats['jobs_total']} submitted, "
        f"{stats.get('lost', '?')} lost, {stats.get('duplicated', '?')} duplicated, "
        f"{stats['takeovers']} takeover(s), {stats['retries_503']} retried 503s, "
        f"p95 {stats['p95_ms']:.1f} ms over {stats['requests_total']} requests"
    )
    if stats["failures"]:
        print("FAILURES: " + "; ".join(stats["failures"]))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
