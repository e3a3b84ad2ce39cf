#!/usr/bin/env python3
"""One benchmark through the real submit path, with a traced per-layer ledger.

Three workloads drive ``Slurmctld.submit`` -> eco plugin chain -> chronus/2
predict -> ``StateSave`` journal -> deferred scheduler pass -> DES engine ->
``SlurmDbd`` (see ``workloads.py`` for why each exists and what it loads):

* ``ctld_storm``    every layer of the paper's path once per job;
* ``rest_mixed``    reads beside writes through the REST front;
* ``sched_backlog`` the scheduler and engine under a deep queue.

``BENCHMARK.json`` gates the first two.  ``sched_backlog`` runs the same
way but is left out of it: its sub-millisecond, memory-bound submit
latency spread by up to 0.38 (quartile distance over median) across ten
seeds on a shared 2-vCPU host, beyond any bound the gate allows.

Usage (from the root of a checkout; the program is imported from ``src/``)::

    python3 perfbench/run.py --workload ctld_storm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload rest_mixed --seed 1 --seconds 1 --trace 0 --tiny

``--trace 0`` measures the shipped program untouched and reports the
end-to-end metrics: rounds repeat (each with a fresh set-up) until at least
three rounds, ``--seconds`` of timed phase and 1,000 submits are done.  The
gated tail is the 95th percentile; the 99th (printed, with at least ten
samples beyond it) swung by 2x between identical runs on a shared 2-vCPU
host, while the 95th held within a few percent.  ``--trace 1``
runs one untraced round and then the same round with every layer wrapped,
and reports per-layer self times, waste ratios and the ledger.  ``--tiny``
shrinks every workload to a smoke run of a few seconds.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  A
broken invariant prints ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_ROUNDS = 3
#: so that at least ten submit latencies fall beyond the printed 99th percentile
MIN_SUBMITS = 1000
#: stop adding rounds past this much wall time, whatever else is unmet
MAX_WALL_S = 120.0
#: the traced run fails when the ledger leaves more of its wall unexplained
MAX_UNATTRIBUTED = 0.05


def _import_program():
    """Put this checkout's sources first on the path and import them."""
    # the shipped configuration: no injected faults, default telemetry
    os.environ.pop("CHRONUS_FAULTS", None)
    os.environ.pop("CHRONUS_TELEMETRY", None)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import repro

    source = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != source:
        raise SystemExit(f"repro imported from {repro.__file__}, not {source}")
    import ledger
    import workloads

    return ledger, workloads


def _rounds(workload, tmp: str, seconds: float, tiny: bool) -> list:
    started = time.perf_counter()
    results = []
    while True:
        results.append(
            workload.run_round(os.path.join(tmp, f"round{len(results)}"), None)
        )
        if tiny or time.perf_counter() - started > MAX_WALL_S:
            return results
        if (
            len(results) >= MIN_ROUNDS
            and sum(r.timed_s for r in results) >= seconds
            and sum(len(r.submit_s) for r in results) >= MIN_SUBMITS
        ):
            return results


def _end_to_end(results, percentile) -> dict:
    """Medians over rounds, so one round slowed by a busy host moves
    nothing; latency percentiles pool every submit of the run."""
    submits = [s for r in results for s in r.submit_s]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(r.setup_s for r in results), "s"),
        "jobs_per_s": (
            statistics.median(r.jobs_billed / r.timed_s for r in results), "jobs/s"
        ),
        "submit_p50_ms": (percentile(submits, 0.50) * 1e3, "ms"),
        "submit_p95_ms": (percentile(submits, 0.95) * 1e3, "ms"),
        "requests_per_s": (
            statistics.median(r.ops / r.timed_s for r in results), "req/s"
        ),
        "rss_peak_mb": (rss_mb, "MB"),
    }


def _per_layer(led, baseline, traced) -> dict:
    c = led.counters
    metrics = led.layer_metrics()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics.update(
        {
            "statesave.fsync_s": (c["statesave.fsync_s"], "s"),
            "statesave.bytes": (c["statesave.bytes"], "bytes"),
            "dbd.records_decoded": (c["dbd.records_decoded"], "count"),
            "dbd.records_applied": (c["dbd.records_applied"], "count"),
            "dbd.useful_ratio": (
                ratio(c["dbd.records_applied"], c["dbd.records_decoded"]), "ratio"
            ),
            "predict.batch_size_mean": (
                ratio(c["predict.requests"], c["predict.batches"]), "requests"
            ),
            "predict.coalesced_ratio": (
                ratio(c["predict.distinct"], c["predict.requests"]), "ratio"
            ),
            "sched.window_yield": (ratio(c["sched.placed"], c["sched.window"]), "ratio"),
            "engine.events": (c["engine.events"], "count"),
            "engine.compactions": (c["engine.compactions"], "count"),
            "ledger.wall_s": (led.timed_wall_s, "s"),
            "ledger.generator_s": (led.generator_s(), "s"),
            "ledger.unattributed_s": (led.unattributed_s(), "s"),
            "ledger.tracing_overhead": (ratio(traced.timed_s, baseline.timed_s), "ratio"),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-sized inputs")
    args = parser.parse_args(argv)

    ledger_mod, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    led = ledger_mod.Ledger() if args.trace else None
    try:
        if led is not None:
            results = [
                workload.run_round(os.path.join(tmp, "untraced"), None),
                workload.run_round(os.path.join(tmp, "traced"), led),
            ]
        else:
            results = _rounds(workload, tmp, args.seconds, args.tiny)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    problems = [p for r in results for p in r.problems]
    digests = sorted({r.digest for r in results})
    if len(digests) != 1:
        problems.append(f"rounds placed jobs differently: {digests}")
    if led is not None:
        metrics = _per_layer(led, *results)
        problems.extend(led.errors)
        wall = led.timed_wall_s
        if abs(led.unattributed_s()) > MAX_UNATTRIBUTED * wall:
            problems.append(
                f"ledger leaves {led.unattributed_s():.3f} s of {wall:.3f} s unattributed"
            )
    else:
        metrics = _end_to_end(results, ledger_mod.percentile)

    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    fallbacks = sum(r.fallbacks for r in results)
    pct = ledger_mod.percentile
    pooled = [s for r in results for s in r.submit_s]
    print(
        f"{args.workload} seed={args.seed} rounds={len(results)} ops={attempted} "
        f"submits={len(pooled)} failed={failed} "
        f"failed_ratio={failed / max(1, attempted):.4g} fallbacks={fallbacks}"
    )
    print(f"placement digest {digests[0]}")
    print(
        "submit ms: "
        + " ".join(f"p{q}={pct(pooled, q / 100) * 1e3:.4f}" for q in (50, 90, 95, 99))
    )
    for k, r in enumerate(results):
        print(
            f"round {k}: setup_s={r.setup_s:.4f} timed_s={r.timed_s:.4f} "
            f"jobs_per_s={r.jobs_billed / r.timed_s:.2f} "
            f"submit_p50_ms={pct(r.submit_s, 0.5) * 1e3:.4f} "
            f"submit_p95_ms={pct(r.submit_s, 0.95) * 1e3:.4f}"
        )
    reads = [s for r in results for s in r.read_s]
    if reads:
        print(
            f"reads={len(reads)} read_p50_ms={pct(reads, 0.5) * 1e3:.4f} "
            f"read_p99_ms={pct(reads, 0.99) * 1e3:.4f}"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for problem in problems[:20]:
        print(f"PROBLEM: {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
