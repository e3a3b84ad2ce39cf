"""Tests for the Chronus CLI (section 3.3's five commands)."""

import json
import os
import threading
import time

import pytest

from repro import telemetry
from repro.core.cli.main import build_parser, main
from repro.serving.protocol import PredictRequest, PredictResponse
from repro.serving.transport import UnixSocketTransport


@pytest.fixture
def workspace(tmp_path):
    return str(tmp_path / "ws")


def run_cli(capsys, workspace, *argv) -> tuple[int, str]:
    rc = main(["--workspace", workspace, *argv])
    out = capsys.readouterr()
    return rc, out.out + out.err


@pytest.fixture
def configs_file(tmp_path):
    path = tmp_path / "configs.json"
    configs = [
        {"cores": c, "threads_per_core": t, "frequency": f}
        for c in (16, 32)
        for f in (2_200_000, 2_500_000)
        for t in (1,)
    ]
    path.write_text(json.dumps(configs))
    return str(path)


@pytest.fixture
def benchmarked(capsys, workspace, configs_file):
    rc, _ = run_cli(
        capsys, workspace, "benchmark",
        "--configurations", configs_file, "--duration", "300",
    )
    assert rc == 0
    return workspace


class TestParser:
    def test_all_five_commands_exist(self):
        parser = build_parser()
        for argv in (
            ["benchmark"],
            ["init-model"],
            ["load-model"],
            ["slurm-config", "1"],
            ["set", "state", "user"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    def test_model_choices(self):
        parser = build_parser()
        args = parser.parse_args(["init-model", "--model", "random-forest"])
        assert args.model == "random-forest"
        with pytest.raises(SystemExit):
            parser.parse_args(["init-model", "--model", "svm"])

    def test_set_state_choices(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["set", "state", "on"])
        with pytest.raises(SystemExit):
            parser.parse_args(["set", "telemetry", "off"])


class TestBenchmarkCommand:
    def test_produces_rows_and_log(self, capsys, workspace, configs_file):
        rc, out = run_cli(
            capsys, workspace, "benchmark",
            "--configurations", configs_file, "--duration", "300",
        )
        assert rc == 0
        assert "GFLOP/s rating found" in out
        assert "GFLOPS/W" in out
        assert os.path.exists(os.path.join(workspace, "chronus.log"))

    def test_database_created(self, benchmarked):
        assert os.path.exists(os.path.join(benchmarked, "chronus.db"))


class TestInitModelCommand:
    def test_lists_systems_without_id(self, capsys, benchmarked):
        rc, out = run_cli(capsys, benchmarked, "init-model")
        assert rc == 0
        assert "Available Systems" in out
        assert "AMD EPYC 7502P" in out

    def test_builds_model(self, capsys, benchmarked):
        rc, out = run_cli(
            capsys, benchmarked, "init-model", "--model", "brute-force", "--system", "1"
        )
        assert rc == 0
        assert "trained on 4 benchmarks" in out

    def test_error_without_benchmarks(self, capsys, workspace):
        rc, out = run_cli(capsys, workspace, "init-model", "--system", "1")
        # a user error: exit 2, with the stable envelope code in the message
        assert rc == 2
        assert "error[SYSTEM_NOT_FOUND]:" in out


class TestLoadModelAndSlurmConfig:
    def test_full_chain(self, capsys, benchmarked):
        run_cli(capsys, benchmarked, "init-model", "--model", "brute-force", "--system", "1")
        rc, out = run_cli(capsys, benchmarked, "load-model")
        assert "Available Models" in out
        rc, out = run_cli(capsys, benchmarked, "load-model", "--model", "1")
        assert rc == 0
        assert "loaded to" in out
        rc, out = run_cli(capsys, benchmarked, "slurm-config", "1", "12345")
        assert rc == 0
        cfg = json.loads(out.strip().splitlines()[-1])
        assert set(cfg) == {"cores", "threads_per_core", "frequency"}
        # within the benchmarked grid the winner is 32 cores @ 2.2 GHz
        assert cfg["cores"] == 32
        assert cfg["frequency"] == 2_200_000

    def test_slurm_config_without_model_errors(self, capsys, workspace):
        rc, out = run_cli(capsys, workspace, "slurm-config", "1")
        assert rc == 2
        assert "error[MODEL_NOT_FOUND]:" in out
        assert "load-model" in out


class TestServeCommand:
    def test_serve_answers_chronus2_lines_only(self, capsys, benchmarked):
        rc, _ = run_cli(
            capsys, benchmarked, "init-model", "--model", "brute-force", "--system", "1"
        )
        assert rc == 0
        exit_codes = []
        daemon = threading.Thread(
            target=lambda: exit_codes.append(main([
                "--workspace", benchmarked,
                "serve", "--preload", "1", "--max-requests", "3",
            ])),
            daemon=True,
        )
        daemon.start()
        client = UnixSocketTransport(
            os.path.join(benchmarked, "chronus.sock"), timeout_s=5.0
        )
        request = PredictRequest(system_id=1, binary_hash=12345)
        deadline = time.monotonic() + 30.0
        while True:  # the socket appears once the model is preloaded
            try:
                answer = client.predict(request)
                break
            except OSError:
                assert time.monotonic() < deadline, "serve never bound its socket"
                time.sleep(0.05)
        assert isinstance(answer, PredictResponse)
        assert (answer.cores, answer.frequency) == (32, 2_200_000)
        refused = json.loads(
            client.request_raw('{"system_id": 1, "binary_hash": 12345}')
        )
        assert refused["error"] == "INVALID"
        assert client.shutdown()["ok"]
        daemon.join(timeout=10.0)
        assert not daemon.is_alive()
        assert exit_codes == [0]
        out = capsys.readouterr().out
        assert "listening on" in out and "chronus/2" in out
        assert "plain-dict" not in out
        assert "exiting after 3 requests" in out


class TestSetCommand:
    def test_set_state_persists(self, capsys, workspace):
        rc, _ = run_cli(capsys, workspace, "set", "state", "deactivated")
        assert rc == 0
        settings = json.loads(
            open(os.path.join(workspace, "etc", "chronus", "settings.json")).read()
        )
        assert settings["plugin_state"] == "deactivated"

    def test_set_database_and_blob(self, capsys, workspace):
        run_cli(capsys, workspace, "set", "database", "other.db")
        run_cli(capsys, workspace, "set", "blob-storage", "blobs2")
        settings = json.loads(
            open(os.path.join(workspace, "etc", "chronus", "settings.json")).read()
        )
        assert settings["database_path"] == "other.db"
        assert settings["blob_storage_path"] == "blobs2"


class TestMetricsCommand:
    @pytest.fixture
    def fresh_registry(self):
        previous = telemetry.get_registry()
        telemetry.set_registry(telemetry.MetricsRegistry())
        yield
        telemetry.set_registry(previous)

    def test_from_file_prints_the_persisted_snapshot(
        self, capsys, workspace, tmp_path, fresh_registry
    ):
        configs = tmp_path / "one.json"
        configs.write_text(
            json.dumps([{"cores": 32, "threads_per_core": 1, "frequency": 2_200_000}])
        )
        rc, _ = run_cli(
            capsys, workspace, "benchmark",
            "--configurations", str(configs), "--duration", "60",
        )
        assert rc == 0
        with open(os.path.join(workspace, "telemetry.json")) as fh:
            persisted = telemetry.snapshot_from_json(fh.read())
        samples = telemetry.find_metric(persisted, "counters", "power_samples_total")
        assert samples["value"] > 0
        # an empty registry: whatever is printed next comes from the file
        telemetry.set_registry(telemetry.MetricsRegistry())
        rc, out = run_cli(
            capsys, workspace, "metrics", "--from-file", "--format", "prometheus"
        )
        assert rc == 0
        assert "# TYPE power_samples_total counter" in out
        assert f"power_samples_total {samples['value']}" in out.splitlines()
