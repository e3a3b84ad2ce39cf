"""The failure functions of ``scripts/gate.py``, fed healthy and broken records.

A gate is a drill plus a pure ``failures(record) -> list[str]``.  These
tests build records by hand: a healthy one must give ``[]``, and each
broken one flips exactly one invariant and must give a failure.  A gate
that cannot tell a healthy record from a broken one is worse than no gate.
The drills themselves run under ``python scripts/gate.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from repro.faults.scenarios import ScenarioResult
from repro.slurm.ha import FailoverReport

ROOT = Path(__file__).resolve().parent.parent


def load_gate():
    spec = importlib.util.spec_from_file_location("gate", ROOT / "scripts" / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = load_gate()


# ----------------------------------------------------------------------
# healthy records, one function per gate, mutated per test
# ----------------------------------------------------------------------

def healthy_telemetry() -> dict:
    counters = [n for kind, n in gate.TELEMETRY_REQUIRED if kind == "counters"]
    histograms = [n for kind, n in gate.TELEMETRY_REQUIRED if kind == "histograms"]
    return {
        "pytest_exit": 0,
        "snapshot": {
            "counters": [{"name": n, "labels": {}, "value": 3.0} for n in counters],
            "gauges": [],
            "histograms": [
                {"name": n, "labels": {}, "count": 5, "p95": 0.0003} for n in histograms
            ],
        },
    }


def metric(record: dict, kind: str, name: str) -> dict:
    return next(e for e in record["snapshot"][kind] if e["name"] == name)


def healthy_chaos() -> dict:
    return {
        "sweep": ScenarioResult(
            "sweep", "flaky-ipmi", total=8, completed=7, quarantined=1,
            faults_fired={"ipmi.read": 12}, metrics={"ipmi_retries_total": 12.0},
        ),
        "storm": ScenarioResult(
            "storm", "chronus-timeout", total=50, completed=50,
            faults_fired={"predict.timeout": 3},
            metrics={
                "provider_calls": 0.0,
                "eco_fallback_total": 50.0,
                "eco_short_circuits_total": 47.0,
            },
        ),
    }


def healthy_storm(jobs: int = 200) -> dict:
    return {
        "jobs": jobs,
        "unanswered": 0,
        "mismatches": 0,
        "error_responses_seen": 0,
        "shed_responses_seen": 0,
        "latency_s": {"p50": 0.02, "p95": 0.05, "max": 0.09},
        "batches": {"count": 7, "mean": 28.6, "max": 32},
        "metrics": {
            "serve_requests_total": jobs,
            "serve_shed_total": 0,
            "serve_handler_errors_total": 0,
        },
    }


def healthy_serving() -> dict:
    def run(jobs: int) -> dict:
        return {
            "storm": healthy_storm(jobs),
            "throughput": {
                "jobs": jobs,
                "scalar": {"rps": 20000.0, "p50_ms": 0.04, "p95_ms": 0.09},
                "batched": [
                    {"batch_size": 4, "rps": 18000.0, "mismatches": 0},
                    {"batch_size": 16, "rps": 50000.0, "mismatches": 0},
                    {"batch_size": 64, "rps": 95000.0, "mismatches": 0},
                ],
            },
        }

    return {200: run(200), 1000: run(1000)}


def healthy_registry() -> dict:
    return {
        "requests": gate.REGISTRY_WORKERS * gate.REGISTRY_REQUESTS,
        "errors": [],
        "shed_total": 0.0,
        "versions_seen": [1, 2],
        "per_worker_monotonic": True,
        "promoted_mid_storm": True,
        "after_promote": 2,
        "after_rollback": 1,
        "alive_at_end": True,
        "counters": {
            "model_promotions_total": 2.0,
            "model_rollbacks_total": 1.0,
            "model_cache_stale_total": 3.0,
            "model_shadow_checks_total": 18.0,
        },
    }


def healthy_fleet_storm() -> dict:
    def run(jobs: int, passes: int, mean_ms: float, p95_ms: float, jobs_per_s: float, digest: str) -> dict:
        return {
            "jobs": jobs,
            "terminal": jobs,
            "passes": passes,
            "pass_mean_ms": mean_ms,
            "pass_p95_ms": p95_ms,
            "jobs_per_s": jobs_per_s,
            "digest": digest,
        }

    return {
        "nodes": 1000,
        "incremental": run(2000, 49, 9.0, 13.0, 1350.0, "a1b2"),
        "reference": run(2000, 49, 120.0, 190.0, 160.0, "a1b2"),
        "small": run(500, 17, 7.0, 10.0, 1700.0, "c3d4"),
    }


def healthy_failover(jobs: int) -> FailoverReport:
    return FailoverReport(
        jobs_total=jobs, submitted=jobs, completed=jobs, lost=0, duplicated=0,
        retries=2, crashes_observed=1, takeovers=1, fenced_writes=0,
        replayed_records=1487, journal_appends=3 * jobs, torn_tails=0,
        recovery_wall_s=0.09, outage_sim_s=4.0, accounting_rows=jobs,
        dbd_rows=jobs, dbd_duplicates_dropped=0, dbd_bootstraps=0,
        final_leader="ctld-b", final_epoch=1, sim_time=1000.0,
    )


def healthy_ha() -> dict:
    return {
        "kill": healthy_failover(1000),
        "kill+faults": healthy_failover(100),
        "snapshots": healthy_failover(200),
    }


def healthy_dag_storm(diamonds: int, replayed: int) -> dict:
    jobs = 4 * diamonds
    return {
        "diamonds": diamonds,
        "jobs_total": jobs,
        "submitted": jobs,
        "terminal": jobs,
        "stuck": 0,
        "duplicated": 0,
        "timeouts": jobs // 6,
        "cancelled_never": diamonds // 4,
        "dep_releases": 2 * jobs,
        "reschedule_attempts": 161,
        "reschedules_with_model": 161,
        "model_versions_served": [1, 2],
        "workflows": diamonds,
        "dbd_workflows": diamonds,
        "workflow_mismatches": 0,
        "energy_ctld_j": 1.5e6,
        "energy_dbd_j": 1.5e6,
        "energy_diff_j": 0.0,
        "takeovers": 1,
        "replayed_records": replayed,
    }


def healthy_workflow() -> dict:
    return {
        "kill": healthy_dag_storm(250, replayed=2400),
        "kill+chaos": healthy_dag_storm(50, replayed=30),
        # a snapshot may have compacted everything the takeover needed
        "compaction": healthy_dag_storm(50, replayed=0),
    }


def healthy_restd() -> dict:
    return {
        "jobs_total": 40,
        "submitted": 40,
        "lost": 0,
        "duplicated": 0,
        "leader_killed": True,
        "takeovers": 1,
        "outage_503_observed": 3,
        "retry_after_missing": 0,
        "retries_503": 1,
        "cancel_ok": True,
        "dbd_rows": 41,
        "p95_ms": 4.2,
        "requests_total": 77,
        "failures": [],
    }


def healthy_bench(speedup: float = 10.0) -> dict:
    return {
        "kernels": {"diagonal": {"speedup": speedup}},
        "hpcg": {"nx": 24, "total_flops": 85184912, "converged": True},
        "sweep": {
            "points": 138,
            "workers": 2,
            "serial_s": 5.4,
            "pool_s": 3.1,
            "identical_results": True,
            "spearman_rho": 0.958,
            "problem_shared": True,
        },
        "baseline": {
            "kernels": {
                "diagonal": {"speedup": 10.0},
                "problem": {"nx": 24, "nrows": 13824, "nnz": 343000},
            },
            "hpcg": {"nx": 24, "total_flops": 85184912, "converged": True},
        },
    }


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------

class TestTelemetryGate:
    def test_healthy_record_passes(self):
        assert gate.telemetry_failures(healthy_telemetry()) == []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.update(pytest_exit=1),
            lambda r: r["snapshot"]["counters"].pop(),
            lambda r: metric(r, "counters", "eco_applied_total").update(value=0.0),
            lambda r: metric(r, "histograms", "sched_cycle_seconds").update(count=0),
            lambda r: metric(r, "histograms", "eco_predict_seconds").update(p95=0.2),
        ],
        ids=[
            "benchmarks-failed",
            "missing-metric",
            "idle-counter",
            "empty-histogram",
            "predict-p95-over-window",
        ],
    )
    def test_broken_record_fails(self, mutate):
        record = healthy_telemetry()
        mutate(record)
        assert gate.telemetry_failures(record)


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------

class TestChaosGate:
    def test_healthy_record_passes(self):
        assert gate.chaos_failures(healthy_chaos()) == []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: setattr(r["sweep"], "unhandled_error", "OSError: boom"),
            lambda r: setattr(r["sweep"], "completed", 6),
            lambda r: r["sweep"].faults_fired.clear(),
            lambda r: r["sweep"].metrics.update(ipmi_retries_total=0.0),
            lambda r: setattr(r["storm"], "completed", 49) or setattr(r["storm"], "skipped", 1),
            lambda r: setattr(r["storm"], "modified_jobs", 2),
            lambda r: r["storm"].metrics.update(eco_fallback_total=49.0),
            lambda r: r["storm"].metrics.update(eco_short_circuits_total=0.0),
            lambda r: r["storm"].faults_fired.update({"predict.timeout": 7}),
        ],
        ids=[
            "unhandled-exception",
            "silent-drop",
            "no-ipmi-faults",
            "retry-path-idle",
            "storm-jobs-unsubmitted",
            "jobs-modified",
            "fallback-skipped",
            "breaker-never-opened",
            "too-many-predict-attempts",
        ],
    )
    def test_broken_record_fails(self, mutate):
        record = healthy_chaos()
        mutate(record)
        assert gate.chaos_failures(record)


# ----------------------------------------------------------------------
# serving: the storm checks, then the whole gate at both sizes
# ----------------------------------------------------------------------

class TestServingGate:
    def test_healthy_report_passes(self):
        assert gate.serving_storm_failures(healthy_storm()) == []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(mismatches=3),
            lambda d: d.update(unanswered=1),
            lambda d: d.update(error_responses_seen=2),
            lambda d: d["latency_s"].update(p95=0.5),
            lambda d: d["batches"].update(max=1),
            lambda d: d["metrics"].update(serve_handler_errors_total=1),
            lambda d: d["metrics"].update(serve_requests_total=150),
            # a shed counted but never answered = silently dropped request
            lambda d: d["metrics"].update(serve_shed_total=1),
        ],
        ids=[
            "mismatches",
            "unanswered",
            "error-responses",
            "p95-over-budget",
            "no-batching",
            "handler-errors",
            "requests-bypassed-admission",
            "silent-shed",
        ],
    )
    def test_broken_report_fails(self, mutate):
        storm = healthy_storm()
        mutate(storm)
        assert gate.serving_storm_failures(storm)

    def test_explicit_sheds_are_allowed(self):
        # every shed reached its caller; the whole gate still wants none
        # at its storm sizes (TestPredictThroughputGate)
        storm = healthy_storm()
        storm["shed_responses_seen"] = 5
        storm["metrics"]["serve_shed_total"] = 5
        assert gate.serving_storm_failures(storm) == []


class TestPredictThroughputGate:
    def test_healthy_report_passes(self):
        assert gate.serving_failures(healthy_serving()) == []

    def test_batched_slower_than_scalar_fails(self):
        record = healthy_serving()
        throughput = record[1000]["throughput"]
        for row in throughput["batched"]:
            row["rps"] = throughput["scalar"]["rps"] * 0.5
        assert gate.serving_failures(record)

    def test_one_slow_batch_size_is_fine(self):
        # only the *best* batched rps is gated: tiny batches may lose to
        # scalar on dispatch overhead, the knee of the curve must not
        record = healthy_serving()
        record[200]["throughput"]["batched"][0]["rps"] = 1000.0
        assert gate.serving_failures(record) == []

    def test_batched_mismatch_fails(self):
        record = healthy_serving()
        record[200]["throughput"]["batched"][1]["mismatches"] = 1
        assert gate.serving_failures(record)

    def test_no_batched_measurement_fails(self):
        record = healthy_serving()
        record[200]["throughput"]["batched"] = []
        assert gate.serving_failures(record)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(shed_responses_seen=1),
            lambda d: d["metrics"].update(serve_shed_total=2),
            lambda d: d.update(unanswered=1),
            lambda d: d.update(mismatches=1),
        ],
        ids=["shed-seen", "shed-counted", "unanswered", "storm-mismatch"],
    )
    def test_storm_violations_fail(self, mutate):
        record = healthy_serving()
        mutate(record[1000]["storm"])
        failures = gate.serving_failures(record)
        assert failures and all(f.startswith("1000 jobs: ") for f in failures)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

class TestRegistryGate:
    def test_healthy_record_passes(self):
        assert gate.registry_failures(healthy_registry()) == []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.update(errors=["TIMEOUT: no answer"]),
            lambda r: r.update(shed_total=1.0),
            lambda r: r.update(requests=119),
            lambda r: r.update(promoted_mid_storm=False),
            lambda r: r.update(alive_at_end=False),
            lambda r: r.update(versions_seen=[1, 2, 3]),
            lambda r: r.update(versions_seen=[1]),
            lambda r: r.update(per_worker_monotonic=False),
            lambda r: r.update(after_promote=1),
            lambda r: r.update(after_rollback=2),
            lambda r: r["counters"].update(model_promotions_total=1.0),
            lambda r: r["counters"].update(model_rollbacks_total=0.0),
            lambda r: r["counters"].update(model_cache_stale_total=0.0),
            lambda r: r["counters"].update(model_shadow_checks_total=0.0),
        ],
        ids=[
            "storm-errors",
            "shed",
            "unanswered",
            "no-mid-storm-promotion",
            "daemon-died",
            "unexpected-version",
            "promoted-version-never-served",
            "version-flipped-back",
            "stale-after-promote",
            "rollback-ignored",
            "promotions-counter",
            "rollbacks-counter",
            "stale-cache-counter",
            "shadow-checks-counter",
        ],
    )
    def test_broken_record_fails(self, mutate):
        record = healthy_registry()
        mutate(record)
        assert gate.registry_failures(record)


# ----------------------------------------------------------------------
# storm
# ----------------------------------------------------------------------

class TestStormGate:
    def test_healthy_report_passes(self):
        assert gate.storm_failures(healthy_fleet_storm()) == []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["reference"].update(digest="e5f6"),
            lambda d: d.update(nodes=200),
            lambda d: d["reference"].update(pass_mean_ms=12.0),
            lambda d: d["incremental"].update(pass_p95_ms=500.0),
            lambda d: d["reference"].update(terminal=1997),
            lambda d: d["small"].update(jobs_per_s=3000.0),
        ],
        ids=[
            "placement-mismatch",
            "undersized-fleet",
            "speedup-regressed",
            "pass-over-budget",
            "stranded-jobs",
            "superlinear-cost",
        ],
    )
    def test_broken_report_fails(self, mutate):
        doc = healthy_fleet_storm()
        mutate(doc)
        assert len(gate.storm_failures(doc)) == 1


# ----------------------------------------------------------------------
# ha
# ----------------------------------------------------------------------

class TestHaGate:
    def test_healthy_record_passes(self):
        assert gate.ha_failures(healthy_ha()) == []

    @pytest.mark.parametrize(
        "change",
        [
            # the drill's own checks: submissions, lost and duplicated
            # jobs, takeovers, slurmdbd rows and joules
            {"failures": ["3 job(s) lost"]},
            {"replayed_records": 0},
            {"accounting_rows": 999},
            {"recovery_wall_s": 2.5},
        ],
        ids=["drill-failures", "nothing-replayed", "accounting-rows", "recovery-over-budget"],
    )
    def test_broken_record_fails(self, change):
        record = healthy_ha()
        record["kill"] = dataclasses.replace(record["kill"], **change)
        assert gate.ha_failures(record)

    def test_failures_name_their_variant(self):
        record = healthy_ha()
        record["snapshots"] = dataclasses.replace(record["snapshots"], replayed_records=0)
        [failure] = gate.ha_failures(record)
        assert failure.startswith("snapshots: ")


# ----------------------------------------------------------------------
# workflow
# ----------------------------------------------------------------------

class TestWorkflowGate:
    def test_healthy_record_passes(self):
        assert gate.workflow_failures(healthy_workflow()) == []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(submitted=999),
            lambda d: d.update(stuck=2),
            lambda d: d.update(duplicated=1),
            lambda d: d.update(takeovers=0),
            lambda d: d.update(replayed_records=0),
            lambda d: d.update(timeouts=0),
            lambda d: d.update(reschedule_attempts=0, reschedules_with_model=0),
            lambda d: d.update(reschedules_with_model=160),
            lambda d: d.update(model_versions_served=[1]),
            lambda d: d.update(cancelled_never=0),
            lambda d: d.update(dep_releases=0),
            lambda d: d.update(workflows=249, dbd_workflows=249),
            lambda d: d.update(dbd_workflows=249),
            lambda d: d.update(workflow_mismatches=1),
            lambda d: d.update(energy_dbd_j=1.5e6 + 1.0, energy_diff_j=1.0),
        ],
        ids=[
            "submissions-lost",
            "stuck-jobs",
            "duplicated-jobs",
            "no-takeover",
            "nothing-replayed",
            "no-timeouts",
            "retry-policy-idle",
            "reschedule-not-repredicted",
            "promotion-missed",
            "no-never-satisfied",
            "no-dep-release",
            "workflow-count",
            "dbd-workflow-count",
            "workflow-mismatch",
            "joules-double-counted",
        ],
    )
    def test_broken_record_fails(self, mutate):
        record = healthy_workflow()
        mutate(record["kill"])
        assert gate.workflow_failures(record)


# ----------------------------------------------------------------------
# restd
# ----------------------------------------------------------------------

class TestRestdGate:
    def test_healthy_record_passes(self):
        assert gate.restd_failures(healthy_restd()) == []

    @pytest.mark.parametrize(
        "change",
        [
            {"failures": ["cancel answered 500: {}"]},
            {"submitted": 39},
            {"lost": 1},
            {"duplicated": 1},
            {"leader_killed": False},
            {"takeovers": 0},
            {"outage_503_observed": 0},
            {"retry_after_missing": 1},
            {"cancel_ok": False},
            {"dbd_rows": 40},
            {"p95_ms": 300.0},
        ],
        ids=[
            "session-failures",
            "submissions-lost",
            "lost-jobs",
            "duplicated-jobs",
            "leader-never-killed",
            "no-takeover",
            "outage-unseen",
            "retry-after-missing",
            "cancel-failed",
            "dbd-rows",
            "p95-over-budget",
        ],
    )
    def test_broken_record_fails(self, change):
        record = healthy_restd()
        record.update(change)
        assert gate.restd_failures(record)


# ----------------------------------------------------------------------
# kernels: speedups against BENCH_PR2.json, HPCG flops, the pool sweep
# ----------------------------------------------------------------------

class TestBenchRegressionGate:
    def test_identical_runs_pass(self):
        assert gate.kernels_failures(healthy_bench()) == []

    def test_speedup_regression_fails(self):
        # floor: 20% under the baseline's 10x
        assert gate.kernels_failures(healthy_bench(speedup=5.0))

    def test_tolerance_absorbs_small_drift(self):
        assert gate.kernels_failures(healthy_bench(speedup=9.0)) == []

    def test_flop_total_drift_fails(self):
        record = healthy_bench()
        record["hpcg"]["total_flops"] += 1
        assert gate.kernels_failures(record)

    def test_sweep_divergence_fails(self):
        # one broken condition yields exactly one failure line that names it
        record = healthy_bench()
        record["sweep"]["identical_results"] = False
        assert gate.kernels_failures(record) == [
            "the pool sweep's rows differ from the serial sweep's"
        ]

    def test_missing_kernel_fails(self):
        record = healthy_bench()
        del record["kernels"]["diagonal"]
        assert gate.kernels_failures(record)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r["hpcg"].update(converged=False),
            lambda r: r["sweep"].update(workers=1),
            lambda r: r["sweep"].update(identical_results=False),
            lambda r: r["sweep"].update(spearman_rho=0.91),
            lambda r: r["sweep"].update(problem_shared=False),
        ],
        ids=[
            "hpcg-diverged",
            "serial-sweep",
            "sweep-divergence",
            "rho-below-floor",
            "cache-not-shared",
        ],
    )
    def test_broken_record_fails(self, mutate):
        record = healthy_bench()
        mutate(record)
        assert gate.kernels_failures(record)

    def test_capped_speedups_compare_equal(self):
        # a cache-hit path's raw ratio swings by orders of magnitude
        record = healthy_bench(speedup=60.0)
        record["baseline"]["kernels"]["diagonal"]["speedup"] = 2000.0
        assert gate.kernels_failures(record) == []


class TestCommittedArtifacts:
    """The one baseline a gate still reads must stay loadable."""

    def test_bench_pr2_holds_what_the_kernels_gate_reads(self):
        doc = json.loads((ROOT / "BENCH_PR2.json").read_text())
        speedups = {name for name, k in doc["kernels"].items() if "speedup" in k}
        assert speedups == {"diagonal", "subset_matvec", "todense", "multicolor_setup"}
        assert doc["hpcg"]["nx"] == 24 and doc["hpcg"]["total_flops"] > 0

    def test_fixture_mutations_are_isolated(self):
        # paranoia: healthy_* functions must return fresh documents, or one
        # test's mutation would leak into the next
        a, b = healthy_serving(), healthy_serving()
        a[200]["storm"]["mismatches"] = 99
        assert b[200]["storm"]["mismatches"] == 0
        assert copy.deepcopy(a) == a
        c, d = healthy_chaos(), healthy_chaos()
        c["sweep"].faults_fired.clear()
        assert d["sweep"].faults_fired


class TestRunner:
    def test_nine_gates(self):
        assert list(gate.GATES) == [
            "telemetry", "chaos", "serving", "registry", "storm",
            "ha", "workflow", "restd", "kernels",
        ]

    def test_unknown_gate_name_exits_2(self, capsys):
        assert gate.main(["nope"]) == 2
        assert "unknown gate 'nope'" in capsys.readouterr().err
