"""Tests for simple_hash, the plugin chain, and job_submit_eco."""

import json
import time

import pytest
from hypothesis import given, strategies as st

from repro.slurm.job import JobDescriptor
from repro.slurm.plugins.base import (
    SLURM_ERROR,
    SLURM_SUCCESS,
    JobSubmitPlugin,
    PluginChain,
)
from repro.core.domain.chash import simple_hash
from repro.core.domain.errors import ProtocolError
from repro.serving.protocol import decode_response
from repro.slurm.plugins.eco import JobSubmitEco, PluginState, system_hash_from_node


class TestSimpleHash:
    def test_known_value(self):
        # djb2 with seed 53871: hash("a") = 53871*33 + 97
        assert simple_hash("a") == 53871 * 33 + 97

    def test_empty_string_is_seed(self):
        assert simple_hash("") == 53871

    def test_deterministic(self):
        assert simple_hash("chronus") == simple_hash("chronus")

    def test_different_inputs_differ(self):
        assert simple_hash("/bin/a") != simple_hash("/bin/b")

    def test_nul_terminates(self):
        assert simple_hash("abc\x00def") == simple_hash("abc")

    def test_bytes_accepted(self):
        assert simple_hash(b"abc") == simple_hash("abc")

    @given(st.text(max_size=200))
    def test_fits_in_64_bits(self, text):
        assert 0 <= simple_hash(text) < 2**64

    @given(st.text(min_size=1, max_size=50))
    def test_prefix_changes_hash(self, text):
        assert simple_hash("x" + text) != simple_hash(text)


class _Recorder(JobSubmitPlugin):
    name = "recorder"

    def __init__(self):
        self.calls = 0

    def job_submit(self, job_desc, submit_uid):
        self.calls += 1
        return SLURM_SUCCESS


class _Rejector(JobSubmitPlugin):
    name = "rejector"

    def job_submit(self, job_desc, submit_uid):
        return SLURM_ERROR


class _Crasher(JobSubmitPlugin):
    name = "crasher"

    def job_submit(self, job_desc, submit_uid):
        raise RuntimeError("plugin bug")


class _Sleeper(JobSubmitPlugin):
    name = "sleeper"

    def job_submit(self, job_desc, submit_uid):
        time.sleep(0.02)
        return SLURM_SUCCESS


class TestPluginChain:
    def test_success_path(self):
        chain = PluginChain()
        rec = _Recorder()
        chain.register(rec)
        rc, msg = chain.run(JobDescriptor(), 1000)
        assert rc == SLURM_SUCCESS
        assert rec.calls == 1

    def test_rejection_aborts_chain(self):
        chain = PluginChain()
        rec = _Recorder()
        chain.register(_Rejector())
        chain.register(rec)
        rc, msg = chain.run(JobDescriptor(), 1000)
        assert rc == SLURM_ERROR
        assert rec.calls == 0

    def test_exception_treated_as_rejection(self):
        chain = PluginChain()
        chain.register(_Crasher())
        rc, msg = chain.run(JobDescriptor(), 1000)
        assert rc == SLURM_ERROR
        assert "plugin bug" in msg

    def test_duplicate_registration_rejected(self):
        chain = PluginChain()
        chain.register(_Recorder())
        with pytest.raises(ValueError):
            chain.register(_Recorder())

    def test_time_budget_warning(self):
        chain = PluginChain(time_budget_s=0.001)
        chain.register(_Sleeper())
        rc, _ = chain.run(JobDescriptor(), 1000)
        assert rc == SLURM_SUCCESS  # slow, not fatal
        assert chain.invocations[-1].over_budget
        assert any("stalled" in line for line in chain.log)

    def test_invocations_recorded(self):
        chain = PluginChain()
        chain.register(_Recorder())
        chain.run(JobDescriptor(name="abc"), 1000)
        inv = chain.invocations[0]
        assert inv.plugin == "recorder"
        assert inv.job_name == "abc"
        assert inv.wall_seconds >= 0


class _StubProvider:
    """PredictionProvider stub: answers with its JSON payload, decoded."""

    def __init__(self, payload):
        self.payload = payload
        self.calls = []

    def predict(self, request):
        self.calls.append(
            (request.system_id, request.binary_hash, request.min_perf)
        )
        if isinstance(self.payload, Exception):
            raise self.payload
        return decode_response(self.payload)


GOOD = json.dumps({"cores": 32, "threads_per_core": 1, "frequency": 2_200_000})


class TestParseChronusComment:

    @staticmethod
    def parse(comment):
        from repro.slurm.plugins.eco import parse_chronus_comment

        return parse_chronus_comment(comment)

    def test_plain_opt_in(self):
        assert self.parse("chronus") == (True, None)
        assert self.parse("  ChRoNuS  ") == (True, None)

    def test_perf_floor(self):
        assert self.parse("chronus perf=0.95") == (True, 0.95)

    def test_not_opted_in(self):
        assert self.parse("") == (False, None)
        assert self.parse("my job") == (False, None)
        assert self.parse("perf=0.9") == (False, None)

    def test_malformed_perf_still_opts_in(self):
        assert self.parse("chronus perf=fast") == (True, None)
        assert self.parse("chronus perf=2.0") == (True, None)
        assert self.parse("chronus perf=0") == (True, None)

    def test_unknown_tokens_ignored(self):
        assert self.parse("chronus deadline=soon perf=0.9") == (True, 0.9)

    def test_perf_zero_opts_in_without_floor(self):
        # perf=0 would mean "no performance at all"; treat as absent
        assert self.parse("chronus perf=0") == (True, None)

    def test_perf_above_one_rejected_as_floor(self):
        assert self.parse("chronus perf=1.5") == (True, None)

    def test_perf_exactly_one_accepted(self):
        assert self.parse("chronus perf=1.0") == (True, 1.0)

    def test_mixed_case_tokens(self):
        assert self.parse("ChRoNuS PeRf=0.9") == (True, 0.9)

    def test_duplicate_perf_tokens_last_wins(self):
        assert self.parse("chronus perf=0.8 perf=0.9") == (True, 0.9)

    def test_duplicate_with_trailing_malformed_keeps_valid(self):
        # a later malformed token must not wipe an earlier valid floor
        assert self.parse("chronus perf=0.8 perf=oops") == (True, 0.8)


class TestJobSubmitEco:
    def test_opt_in_via_comment(self, node):
        plugin = JobSubmitEco(node, _StubProvider(GOOD))
        desc = JobDescriptor(comment="chronus", binary="/opt/hpcg/xhpcg")
        assert plugin.job_submit(desc, 1000) == SLURM_SUCCESS
        assert desc.num_tasks == 32
        assert desc.threads_per_core == 1
        assert desc.cpu_freq_min == desc.cpu_freq_max == 2_200_000

    def test_no_comment_means_untouched(self, node):
        provider = _StubProvider(GOOD)
        plugin = JobSubmitEco(node, provider)
        desc = JobDescriptor(num_tasks=4, binary="/opt/hpcg/xhpcg")
        plugin.job_submit(desc, 1000)
        assert desc.num_tasks == 4
        assert provider.calls == []

    def test_activated_state_applies_to_all(self, node):
        plugin = JobSubmitEco(node, _StubProvider(GOOD), PluginState("activated"))
        desc = JobDescriptor(num_tasks=4, binary="/x")
        plugin.job_submit(desc, 1000)
        assert desc.num_tasks == 32

    def test_deactivated_state_blocks_even_opted_in(self, node):
        plugin = JobSubmitEco(node, _StubProvider(GOOD), PluginState("deactivated"))
        desc = JobDescriptor(num_tasks=4, comment="chronus", binary="/x")
        plugin.job_submit(desc, 1000)
        assert desc.num_tasks == 4

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            PluginState("sometimes")

    def test_provider_failure_leaves_job_unmodified(self, node):
        logs = []
        plugin = JobSubmitEco(
            node, _StubProvider(RuntimeError("chronus down")), log=logs.append
        )
        desc = JobDescriptor(num_tasks=4, comment="chronus", binary="/x")
        assert plugin.job_submit(desc, 1000) == SLURM_SUCCESS
        assert desc.num_tasks == 4
        assert any("unmodified" in line for line in logs)

    def test_implausible_config_rejected(self, node):
        bad = json.dumps({"cores": 0, "threads_per_core": 1, "frequency": 2_200_000})
        plugin = JobSubmitEco(node, _StubProvider(bad))
        desc = JobDescriptor(num_tasks=4, comment="chronus", binary="/x")
        plugin.job_submit(desc, 1000)
        assert desc.num_tasks == 4

    def test_system_hash_from_proc_files(self, node):
        h = system_hash_from_node(node)
        expected = simple_hash(
            node.read_file("/proc/cpuinfo") + node.read_file("/proc/meminfo")
        )
        assert h == expected

    def test_system_hash_cached(self, node):
        plugin = JobSubmitEco(node, _StubProvider(GOOD))
        assert plugin.system_hash() == plugin.system_hash()

    def test_perf_floor_forwarded_to_provider(self, node):
        provider = _StubProvider(GOOD)
        plugin = JobSubmitEco(node, provider)
        desc = JobDescriptor(comment="chronus perf=0.97", binary="/x")
        plugin.job_submit(desc, 1000)
        assert provider.calls[0][2] == 0.97

    def test_provider_receives_hashes(self, node):
        provider = _StubProvider(GOOD)
        plugin = JobSubmitEco(node, provider)
        desc = JobDescriptor(comment="chronus", binary="/opt/hpcg/xhpcg")
        plugin.job_submit(desc, 1000)
        system_id, binary_hash, min_perf = provider.calls[0]
        assert system_id == system_hash_from_node(node)
        assert binary_hash == simple_hash("/opt/hpcg/xhpcg")
        assert min_perf is None


class TestValidateChronusConfig:
    """Validation of a JSON answer: the wire decode, then node bounds."""

    @staticmethod
    def validate(raw, node):
        from repro.slurm.plugins.eco import validate_chronus_config

        return validate_chronus_config(decode_response(raw), node)

    def errors(self):
        from repro.core.domain.errors import ConfigValidationError

        return ConfigValidationError

    def test_good_config_passes(self, node):
        assert self.validate(GOOD, node) == (32, 1, 2_200_000)

    def test_negative_cores_rejected(self, node):
        bad = json.dumps({"cores": -1, "threads_per_core": 1, "frequency": 2_200_000})
        with pytest.raises(self.errors(), match="cores=-1"):
            self.validate(bad, node)

    def test_cores_above_node_rejected(self, node):
        bad = json.dumps({"cores": 64, "threads_per_core": 1, "frequency": 2_200_000})
        with pytest.raises(self.errors(), match="cores=64"):
            self.validate(bad, node)

    @pytest.mark.parametrize("missing", ["cores", "threads_per_core", "frequency"])
    def test_missing_key_rejected(self, node, missing):
        config = {"cores": 32, "threads_per_core": 1, "frequency": 2_200_000}
        del config[missing]
        with pytest.raises(self.errors(), match=missing):
            self.validate(json.dumps(config), node)

    def test_non_dict_json_rejected(self, node):
        with pytest.raises(ProtocolError, match="JSON object"):
            self.validate(json.dumps([32, 1, 2_200_000]), node)

    def test_invalid_json_rejected(self, node):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            self.validate('{"cores": "all of them"', node)

    def test_boolean_value_rejected(self, node):
        bad = json.dumps({"cores": True, "threads_per_core": 1, "frequency": 2_200_000})
        with pytest.raises(self.errors(), match="must be a number"):
            self.validate(bad, node)

    def test_fractional_value_rejected(self, node):
        bad = json.dumps(
            {"cores": 1.5, "threads_per_core": 1, "frequency": 2_200_000}
        )
        with pytest.raises(self.errors(), match="integer"):
            self.validate(bad, node)

    def test_string_value_rejected(self, node):
        bad = json.dumps(
            {"cores": "32", "threads_per_core": 1, "frequency": 2_200_000}
        )
        with pytest.raises(self.errors(), match="number"):
            self.validate(bad, node)

    def test_smt_depth_beyond_cpu_rejected(self, node):
        bad = json.dumps({"cores": 32, "threads_per_core": 4, "frequency": 2_200_000})
        with pytest.raises(self.errors(), match="threads_per_core=4"):
            self.validate(bad, node)

    def test_frequency_outside_window_rejected(self, node):
        for freq in (999, 9_999_999):
            bad = json.dumps({"cores": 32, "threads_per_core": 1, "frequency": freq})
            with pytest.raises(self.errors(), match="frequency"):
                self.validate(bad, node)

    def test_negative_cores_leaves_job_unmodified(self, node):
        bad = json.dumps({"cores": -1, "threads_per_core": 1, "frequency": 2_200_000})
        plugin = JobSubmitEco(node, _StubProvider(bad))
        desc = JobDescriptor(num_tasks=4, comment="chronus", binary="/x")
        assert plugin.job_submit(desc, 1000) == SLURM_SUCCESS
        assert desc.num_tasks == 4


class TestEcoResilience:
    """Deadline + breaker wiring on the predict path."""

    def test_slow_provider_hits_deadline_and_falls_back(self, node):
        clock = {"now": 0.0}

        class _SlowProvider:
            def predict(self, request):
                clock["now"] += 1.0  # predict takes 1s of plugin time
                return decode_response(GOOD)

        plugin = JobSubmitEco(
            node, _SlowProvider(), predict_budget_s=0.1,
            clock=lambda: clock["now"],
        )
        desc = JobDescriptor(num_tasks=4, comment="chronus", binary="/x")
        assert plugin.job_submit(desc, 1000) == SLURM_SUCCESS
        assert desc.num_tasks == 4  # too-late answer discarded

    def test_breaker_opens_after_consecutive_failures(self, node):
        provider = _StubProvider(RuntimeError("chronus down"))
        plugin = JobSubmitEco(node, provider)
        for i in range(10):
            desc = JobDescriptor(num_tasks=4, comment="chronus", binary="/x")
            assert plugin.job_submit(desc, 1000) == SLURM_SUCCESS
            assert desc.num_tasks == 4
        # threshold is 3: later submissions stop calling the provider
        assert len(provider.calls) == 3

    def test_breaker_recovers_after_timeout(self, node):
        from repro.resilience import CircuitBreaker

        now = {"t": 0.0}
        breaker = CircuitBreaker(
            "eco_predict", failure_threshold=1, recovery_timeout_s=5.0,
            clock=lambda: now["t"],
        )
        provider = _StubProvider(RuntimeError("down"))
        plugin = JobSubmitEco(node, provider, breaker=breaker)
        desc = JobDescriptor(num_tasks=4, comment="chronus", binary="/x")
        plugin.job_submit(desc, 1000)  # fails, breaker opens
        plugin.job_submit(desc, 1000)  # short-circuit
        assert len(provider.calls) == 1
        provider.payload = GOOD  # chronus comes back
        now["t"] = 6.0  # past recovery timeout: half-open probe
        desc2 = JobDescriptor(num_tasks=4, comment="chronus", binary="/x")
        plugin.job_submit(desc2, 1000)
        assert desc2.num_tasks == 32
        assert len(provider.calls) == 2


class TestPluginStateConcurrency:
    def test_concurrent_set_state_always_valid(self, node):
        import threading

        state = PluginState("user")
        plugin = JobSubmitEco(node, _StubProvider(GOOD), state)
        stop = threading.Event()
        seen = []
        errors = []

        def flipper(value):
            while not stop.is_set():
                state.set(value)

        def submitter():
            try:
                for i in range(200):
                    desc = JobDescriptor(
                        num_tasks=4, comment="chronus", binary="/x"
                    )
                    rc = plugin.job_submit(desc, 1000)
                    assert rc == SLURM_SUCCESS
                    seen.append(state.state)
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=flipper, args=("activated",)),
            threading.Thread(target=flipper, args=("deactivated",)),
            threading.Thread(target=submitter),
        ]
        for t in threads:
            t.start()
        threads[2].join()
        stop.set()
        for t in threads[:2]:
            t.join()
        assert not errors
        assert set(seen) <= {"user", "activated", "deactivated"}
