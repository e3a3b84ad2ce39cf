"""Chaos suite: the resilience invariants under active fault profiles.

The two CI-gated drills (flaky-ipmi mini-sweep, chronus-timeout submit
storm) plus the remaining profiles.  The common invariant: chaos changes
*outcomes* (degraded samples, quarantined points, fallback submissions)
but never the *accounting* — nothing is silently dropped and no exception
escapes a drill.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults, telemetry
from repro.faults.scenarios import run_storm_scenario, run_sweep_scenario


@pytest.fixture(autouse=True)
def _clean_slate():
    faults.reset()
    telemetry.set_registry(telemetry.MetricsRegistry())
    yield
    faults.reset()
    telemetry.set_registry(telemetry.MetricsRegistry())


SWEEP_KW = dict(points=4, seed=0, duration_s=30.0)
GATE_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "gate.py"


class TestFlakyIpmiSweep:
    def test_every_point_measured_or_quarantined(self):
        result = run_sweep_scenario("flaky-ipmi", **SWEEP_KW)
        assert result.unhandled_error is None
        assert result.accounted
        assert result.ok

    def test_retry_path_exercised(self):
        result = run_sweep_scenario("flaky-ipmi", **SWEEP_KW)
        assert result.faults_fired.get("ipmi.read", 0) > 0
        assert result.metrics["ipmi_retries_total"] > 0
        assert result.metrics["retry_attempts_total"] > 0

    def test_reproducible_from_seed(self):
        a = run_sweep_scenario("flaky-ipmi", **SWEEP_KW)
        b = run_sweep_scenario("flaky-ipmi", **SWEEP_KW)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
        c = run_sweep_scenario("flaky-ipmi", points=4, seed=1, duration_s=30.0)
        assert c.faults_fired != a.faults_fired

    def test_faults_disabled_after_scenario(self):
        run_sweep_scenario("flaky-ipmi", **SWEEP_KW)
        assert not faults.enabled()


class TestNoiseAndCrashSweeps:
    def test_ipmi_noise_never_reaches_results(self):
        """NaN/spike readings are rejected by validation, not persisted."""
        result = run_sweep_scenario("ipmi-noise", **SWEEP_KW)
        assert result.ok
        fired = result.faults_fired
        assert fired.get("ipmi.nan", 0) + fired.get("ipmi.spike", 0) > 0

    def test_worker_crash_quarantines_explicitly(self):
        # every attempt of every point crashes: all points quarantined
        result = run_sweep_scenario("sweep.crash=1", **SWEEP_KW)
        assert result.unhandled_error is None
        assert result.accounted
        assert result.quarantined == result.total
        assert result.metrics["sweep_points_quarantined_total"] == result.total

    def test_occasional_crash_retried_to_success(self):
        result = run_sweep_scenario("sweep.crash=0.3,seed=2", **SWEEP_KW)
        assert result.unhandled_error is None
        assert result.accounted
        assert result.completed > 0
        assert result.metrics["sweep_point_retries_total"] > 0

    def test_clean_profile_measures_everything(self):
        result = run_sweep_scenario("", **SWEEP_KW)
        assert result.ok
        assert result.completed == result.total
        assert result.quarantined == 0
        assert result.faults_fired == {}


class TestChronusTimeoutStorm:
    def test_all_jobs_submitted_unchanged(self):
        result = run_storm_scenario("chronus-timeout", jobs=50, seed=0)
        assert result.ok
        assert result.completed == 50
        assert result.modified_jobs == 0
        assert result.metrics["eco_fallback_total"] == 50

    def test_breaker_opens_and_bounds_overhead(self):
        result = run_storm_scenario(
            "chronus-timeout", jobs=50, seed=0, failure_threshold=3
        )
        # after 3 timeouts the breaker opens: every later submission is a
        # cheap short-circuit, not another timeout
        assert result.faults_fired["predict.timeout"] == 3
        assert result.metrics["eco_short_circuits_total"] == 47
        assert result.metrics["breaker_short_circuits_total"] == 47

    def test_garbage_storm_submits_unchanged(self):
        result = run_storm_scenario("chronus-garbage", jobs=20, seed=0)
        assert result.ok
        assert result.completed == 20
        assert result.modified_jobs == 0
        assert result.metrics["eco_fallback_total"] == 20

    def test_healthy_storm_modifies_every_job(self):
        result = run_storm_scenario("", jobs=10, seed=0)
        assert result.ok
        assert result.modified_jobs == 10
        assert result.metrics["eco_applied_total"] == 10
        assert result.metrics["eco_fallback_total"] == 0

    def test_limited_timeouts_recover_within_storm(self):
        # 2 timeouts < threshold 3: the breaker never opens and the rest
        # of the storm is optimized normally
        result = run_storm_scenario("predict.timeout=1:2", jobs=10, seed=0)
        assert result.ok
        assert result.modified_jobs == 8
        assert result.metrics["eco_short_circuits_total"] == 0


class TestCliFaults:
    def test_faults_list(self, capsys):
        from repro.core.cli.main import main

        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "ipmi.read" in out
        assert "flaky-ipmi" in out

    def test_faults_run_sweep(self, capsys, tmp_path):
        from repro.core.cli.main import main

        rc = main(
            ["--workspace", str(tmp_path), "faults", "run", "flaky-ipmi",
             "--points", "2"]
        )
        assert rc == 0
        assert "chaos sweep [flaky-ipmi]: OK" in capsys.readouterr().out

    def test_faults_run_storm(self, capsys, tmp_path):
        from repro.core.cli.main import main

        rc = main(
            ["--workspace", str(tmp_path), "faults", "run", "chronus-timeout",
             "--scenario", "storm", "--jobs", "10"]
        )
        assert rc == 0
        assert "chaos storm [chronus-timeout]: OK" in capsys.readouterr().out

    def test_faults_run_bad_spec_errors(self, capsys, tmp_path):
        from repro.core.cli.main import main

        rc = main(["--workspace", str(tmp_path), "faults", "run", "warp.core=1"])
        # a bad spec is a user error: exit 2 with the envelope code
        assert rc == 2
        assert "error[FAULT_SPEC]:" in capsys.readouterr().err


class TestChaosScripts:
    def test_smoke_and_gate_pass(self):
        # the chaos gate as CI runs it, in an interpreter of its own
        done = subprocess.run(
            [sys.executable, str(GATE_SCRIPT), "chaos"],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.startswith("chaos: OK")
