"""Unit tests for cpufreq policies and governors."""

import math

import pytest

from repro.hardware.cpu import AMD_EPYC_7502P
from repro.hardware.dvfs import CpufreqPolicy, Governor


@pytest.fixture
def policy() -> CpufreqPolicy:
    return CpufreqPolicy(AMD_EPYC_7502P)


class TestGovernorParsing:
    def test_parse_known(self):
        assert Governor.parse("performance") is Governor.PERFORMANCE
        assert Governor.parse("  OnDemand ") is Governor.ONDEMAND

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown governor"):
            Governor.parse("turbo")


class TestPerformanceGovernor:
    def test_default_is_max(self, policy):
        assert policy.governor is Governor.PERFORMANCE
        assert policy.current_freq_khz == 2_500_000

    def test_respects_max_bound(self, policy):
        policy.set_bounds(max_khz=2_200_000)
        assert policy.update(1.0) == 2_200_000


class TestPowersaveGovernor:
    def test_picks_min(self, policy):
        policy.set_governor(Governor.POWERSAVE)
        assert policy.update(1.0) == 1_500_000

    def test_respects_min_bound(self, policy):
        policy.set_governor(Governor.POWERSAVE)
        policy.set_bounds(min_khz=2_200_000)
        assert policy.update(1.0) == 2_200_000


class TestUserspaceGovernor:
    def test_setpoint(self, policy):
        policy.set_userspace(2_200_000)
        assert policy.current_freq_khz == 2_200_000

    def test_setpoint_snaps_to_pstate(self, policy):
        policy.set_userspace(2_000_000)
        assert policy.current_freq_khz == 2_200_000

    def test_setpoint_clamped_to_window(self, policy):
        policy.set_bounds(max_khz=2_200_000)
        policy.set_userspace(2_500_000)
        assert policy.current_freq_khz == 2_200_000


class TestOndemandGovernor:
    def test_steps_to_max_on_high_util(self, policy):
        policy.set_governor(Governor.ONDEMAND)
        policy.set_bounds(min_khz=1_500_000)
        assert policy.update(0.95) == 2_500_000

    def test_steps_down_on_low_util(self, policy):
        policy.set_governor(Governor.ONDEMAND)
        policy.update(0.95)  # at max
        assert policy.update(0.1) == 2_200_000
        assert policy.update(0.1) == 1_500_000
        assert policy.update(0.1) == 1_500_000  # floor

    def test_holds_in_between(self, policy):
        policy.set_governor(Governor.ONDEMAND)
        policy.update(0.95)
        assert policy.update(0.6) == 2_500_000  # between thresholds: hold

    def test_rejects_bad_utilization(self, policy):
        policy.set_governor(Governor.ONDEMAND)
        with pytest.raises(ValueError):
            policy.update(1.5)
        with pytest.raises(ValueError):
            policy.update(-0.1)


class TestBounds:
    def test_cpu_freq_window(self, policy):
        policy.set_bounds(min_khz=2_200_000, max_khz=2_200_000)
        assert policy.allowed_freqs() == [2_200_000]

    def test_window_snaps_requested_values(self, policy):
        policy.set_bounds(min_khz=2_100_000, max_khz=2_300_000)
        assert policy.allowed_freqs() == [2_200_000]

    def test_invalid_window_rejected(self, policy):
        with pytest.raises(ValueError):
            policy.set_bounds(min_khz=2_500_000, max_khz=1_500_000)

    def test_reset_restores_defaults(self, policy):
        policy.set_bounds(min_khz=1_500_000, max_khz=1_500_000)
        policy.set_governor(Governor.POWERSAVE)
        policy.reset()
        assert policy.governor is Governor.PERFORMANCE
        assert policy.current_freq_khz == 2_500_000
        assert policy.allowed_freqs() == [1_500_000, 2_200_000, 2_500_000]

    def test_current_clamped_when_window_shrinks(self, policy):
        assert policy.current_freq_khz == 2_500_000
        policy.set_bounds(max_khz=1_500_000)
        assert policy.current_freq_khz == 1_500_000

    def test_window_equals_the_filter_reference(self, policy):
        """The cached window is what filtering the P-states gives, for any
        bounds written straight into the fields, NaN and infinities too."""

        def reference(lo, hi):
            freqs = [f for f in AMD_EPYC_7502P.frequencies_khz if lo <= f <= hi]
            return freqs or [AMD_EPYC_7502P.nearest_frequency(hi)]

        values = [0, 1_000_000, 1_500_000, 1_850_000, 2_200_000, 2_300_000, 2_500_000, 3_000_000, math.inf, math.nan]
        for lo in values:
            for hi in values:
                policy.scaling_min_freq, policy.scaling_max_freq = lo, hi
                assert policy.allowed_freqs() == reference(lo, hi), (lo, hi)
