#!/usr/bin/env python
"""Run the HA failover drill and write the outcome as JSON.

The drill (see ``repro.slurm.ha.run_failover_drill``): a two-peer
slurmctld control plane shares one StateSaveLocation and serves a
submit storm; at half the storm the leader is SIGKILL'd.  Clients
re-resolve the new leader and retry with a by-name dedup recheck, the
backup performs a fenced takeover (epoch bump + snapshot/journal
replay), and an independent slurmdbd tails the shared journal.

Three variants run, matching the failure-mode matrix in the README:

* ``kill`` — clean SIGKILL mid-storm, no extra faults;
* ``kill+faults`` — the SIGKILL plus the ``ctld-failover`` chaos
  profile (crash/torn-write faults at journal appends, partition-missed
  heartbeats), with periodic snapshots;
* ``snapshots`` — SIGKILL with snapshot+compaction enabled, so the
  takeover replays snapshot + suffix instead of the full journal.

The companion ``check_ha_gate.py`` asserts the invariants; this script
only runs and records, so a failing drill still leaves an artifact to
inspect.

Usage::

    PYTHONPATH=src python scripts/run_ha_smoke.py --output ha.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile

from repro.faults.profiles import PROFILES
from repro.slurm.ha import run_failover_drill

SCHEMA = "chronus-bench-pr8/1"


def _drill(name: str, **kwargs) -> dict:
    with tempfile.TemporaryDirectory(prefix=f"ha-smoke-{name}-") as path:
        report = run_failover_drill(statesave_path=path, **kwargs)
    print(f"--- {name} ---")
    print(report.render())
    payload = dataclasses.asdict(report)
    payload["variant"] = name
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="ha-smoke.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1000,
        help="storm size for the headline kill drill [default: 1000]",
    )
    args = parser.parse_args(argv)

    results = [
        _drill(
            "kill",
            jobs=args.jobs,
            seed=args.seed,
            kill_at_fraction=0.5,
        ),
        _drill(
            "kill+faults",
            jobs=max(50, args.jobs // 10),
            seed=args.seed,
            kill_at_fraction=0.5,
            fault_profile=PROFILES["ctld-failover"],
            snapshot_interval=100,
        ),
        _drill(
            "snapshots",
            jobs=max(50, args.jobs // 5),
            seed=args.seed,
            kill_at_fraction=0.5,
            snapshot_interval=50,
        ),
    ]

    payload = {"schema": SCHEMA, "seed": args.seed, "results": results}
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
