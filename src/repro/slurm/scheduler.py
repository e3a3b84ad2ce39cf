"""Job scheduling: FIFO (sched/builtin) and EASY backfill (sched/backfill).

The paper's cluster is a single node; the multi-node extension (paper
section 6.2.3) generalizes placement: a job requesting ``--nodes=k`` needs
``k`` distinct nodes with ``tasks_per_node`` free cores each.

Backfill follows the EASY rule: the head job reserves the earliest time
enough cores will be free (its *shadow time*); a later job may jump the
queue only if it fits right now AND either (a) it will finish before the
shadow time, or (b) — for single-node head jobs — it only uses cores the
head will not need then.  This guarantees the head job is never delayed by
backfilling, the invariant the property tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro import telemetry
from repro.slurm.job import Job

__all__ = ["NodeView", "Placement", "fifo_schedule", "backfill_schedule"]


@dataclass
class NodeView:
    """Scheduler-facing snapshot of one node."""

    name: str
    total_cores: int
    free_cores: int
    #: (expected_end_time, cores) of each running job step on this node
    running: list[tuple[float, int]]


@dataclass(frozen=True)
class Placement:
    """A scheduling decision: start this job on those nodes now."""

    job: Job
    node_names: tuple[str, ...]


def _find_nodes(job: Job, free: dict[str, int], order: Sequence[str]) -> Optional[tuple[str, ...]]:
    """Pick ``job.descriptor.nodes`` distinct nodes with room, or None."""
    need_nodes = job.descriptor.nodes
    per_node = job.descriptor.tasks_per_node
    chosen = [name for name in order if free[name] >= per_node][:need_nodes]
    if len(chosen) < need_nodes:
        return None
    return tuple(chosen)


def _commit(placements: list[Placement], job: Job, nodes: tuple[str, ...],
            free: dict[str, int]) -> None:
    placements.append(Placement(job, nodes))
    for name in nodes:
        free[name] -= job.descriptor.tasks_per_node


def fifo_schedule(pending: Sequence[Job], nodes: Sequence[NodeView]) -> list[Placement]:
    """Strict FIFO: stop at the first job that does not fit anywhere."""
    placements: list[Placement] = []
    free = {n.name: n.free_cores for n in nodes}
    order = [n.name for n in nodes]
    for job in pending:
        chosen = _find_nodes(job, free, order)
        if chosen is None:
            job.pending_reason = "Resources"
            telemetry.counter("sched_blocked_total", {"policy": "fifo"}).inc()
            break
        _commit(placements, job, chosen, free)
    return placements


def _node_shadow_time(per_node: int, node: NodeView, now: float) -> Optional[float]:
    """Earliest time ``node`` has ``per_node`` free cores."""
    if per_node <= node.free_cores:
        return now
    freed = node.free_cores
    for end, cores in sorted(node.running):
        freed += cores
        if freed >= per_node:
            return end
    return None


def _job_shadow(job: Job, views: Sequence[NodeView], now: float) -> Optional[tuple[float, tuple[str, ...]]]:
    """Earliest start for ``job`` across the cluster + the nodes involved.

    For a k-node job: per-node shadow times, sorted; the job can start when
    the k-th node becomes available.
    """
    per_node = job.descriptor.tasks_per_node
    candidates = []
    for v in views:
        t = _node_shadow_time(per_node, v, now)
        if t is not None:
            candidates.append((t, v.name))
    if len(candidates) < job.descriptor.nodes:
        return None
    candidates.sort()
    chosen = candidates[: job.descriptor.nodes]
    return chosen[-1][0], tuple(name for _, name in chosen)


def backfill_schedule(
    pending: Sequence[Job],
    nodes: Sequence[NodeView],
    now: float,
    *,
    default_limit_s: float,
) -> list[Placement]:
    """EASY backfill over the pending queue (see module docstring)."""
    placements: list[Placement] = []
    free = {n.name: n.free_cores for n in nodes}
    views = {n.name: n for n in nodes}
    order = [n.name for n in nodes]

    def limit(job: Job) -> float:
        return job.descriptor.time_limit_s or default_limit_s

    def record_running(job: Job, chosen: tuple[str, ...]) -> None:
        for name in chosen:
            views[name].running.append(
                (now + limit(job), job.descriptor.tasks_per_node)
            )

    remaining = list(pending)
    # Greedily start jobs in FIFO order while they fit.
    while remaining:
        job = remaining[0]
        chosen = _find_nodes(job, free, order)
        if chosen is None:
            break
        _commit(placements, job, chosen, free)
        record_running(job, chosen)
        remaining.pop(0)
    if not remaining:
        return placements

    # Head job blocked: compute its shadow reservation.
    head = remaining[0]
    head.pending_reason = "Resources"
    fresh_views = [
        NodeView(n.name, n.total_cores, free[n.name], list(views[n.name].running))
        for n in nodes
    ]
    shadow = _job_shadow(head, fresh_views, now)
    if shadow is None:
        # head can never run (validation should have caught this); do not
        # let it wedge the scheduler
        return placements
    shadow_t, shadow_nodes = shadow

    # Cores the head leaves over at its start time, per shadow node — only
    # meaningful (and only used for rule (b)) for single-node head jobs.
    extra_at_shadow: dict[str, int] = {}
    if head.descriptor.nodes == 1:
        name = shadow_nodes[0]
        freed_by_shadow = free[name] + sum(
            c for end, c in views[name].running if end <= shadow_t
        )
        extra_at_shadow[name] = max(0, freed_by_shadow - head.descriptor.tasks_per_node)

    # Backfill pass over the rest of the queue (single- and multi-node
    # candidates alike; a candidate must fit *now*).
    backfilled = telemetry.counter("sched_backfilled_total")
    blocked = telemetry.counter("sched_blocked_total", {"policy": "backfill"})
    for job in remaining[1:]:
        chosen = _find_nodes(job, free, order)
        if chosen is None:
            job.pending_reason = "Priority"
            blocked.inc()
            continue
        finishes_in_time = now + limit(job) <= shadow_t
        touches_shadow = any(name in shadow_nodes for name in chosen)
        if not finishes_in_time and touches_shadow:
            # rule (b): only a single-node candidate on a single-node
            # head's shadow node may use the head's leftover cores
            per_node = job.descriptor.tasks_per_node
            ok = (
                head.descriptor.nodes == 1
                and job.descriptor.nodes == 1
                and chosen[0] in extra_at_shadow
                and per_node <= extra_at_shadow[chosen[0]]
            )
            if not ok:
                job.pending_reason = "Priority"
                blocked.inc()
                continue
            extra_at_shadow[chosen[0]] -= per_node
        _commit(placements, job, chosen, free)
        record_running(job, chosen)
        backfilled.inc()
    return placements
