"""Unit tests for CPU specs and the voltage curve."""

import math
import random

import numpy as np
import pytest

from repro.hardware.cpu import (
    AMD_EPYC_7502P,
    CpuSpec,
    VoltageCurve,
    ghz_to_khz,
    khz_to_ghz,
)


class TestConversions:
    def test_khz_to_ghz(self):
        assert khz_to_ghz(2_500_000) == 2.5

    def test_ghz_to_khz(self):
        assert ghz_to_khz(2.2) == 2_200_000

    def test_roundtrip(self):
        assert khz_to_ghz(ghz_to_khz(1.5)) == 1.5


class TestVoltageCurve:
    def test_interpolates_between_points(self):
        curve = VoltageCurve((1e6, 2e6), (0.8, 1.2))
        assert curve.voltage(1.5e6) == pytest.approx(1.0)

    def test_clamps_at_ends(self):
        curve = VoltageCurve((1e6, 2e6), (0.8, 1.2))
        assert curve.voltage(0.5e6) == 0.8
        assert curve.voltage(3e6) == 1.2

    def test_exact_points(self):
        curve = AMD_EPYC_7502P.voltage_curve
        assert curve.voltage(1_500_000) == pytest.approx(0.70)
        assert curve.voltage(2_500_000) == pytest.approx(1.45)

    def test_validation(self):
        with pytest.raises(ValueError):
            VoltageCurve((1e6,), (0.8,))  # too few points
        with pytest.raises(ValueError):
            VoltageCurve((2e6, 1e6), (0.8, 1.2))  # not ascending
        with pytest.raises(ValueError):
            VoltageCurve((1e6, 2e6), (0.8,))  # length mismatch
        with pytest.raises(ValueError):
            VoltageCurve((1e6, 2e6), (0.0, 1.2))  # non-positive voltage


class TestCpuSpec:
    def test_epyc_topology(self):
        spec = AMD_EPYC_7502P
        assert spec.total_cores == 32
        assert spec.total_threads == 64
        assert spec.min_freq_khz == 1_500_000
        assert spec.max_freq_khz == 2_500_000

    def test_validate_frequency_accepts_pstates(self):
        assert AMD_EPYC_7502P.validate_frequency(2_200_000) == 2_200_000

    def test_validate_frequency_rejects_others(self):
        with pytest.raises(ValueError):
            AMD_EPYC_7502P.validate_frequency(1_999_999)

    def test_nearest_frequency(self):
        assert AMD_EPYC_7502P.nearest_frequency(2_000_000) == 2_200_000
        assert AMD_EPYC_7502P.nearest_frequency(1_000_000) == 1_500_000
        assert AMD_EPYC_7502P.nearest_frequency(9_999_999) == 2_500_000

    def test_nearest_frequency_equals_the_numpy_reference(self):
        """The pure-Python snap returns the P-state (and the int type) the
        numpy ``argmin`` it replaced returned, ties to the lower P-state."""
        spec = AMD_EPYC_7502P

        def reference(freq_khz):
            freqs = np.asarray(spec.frequencies_khz, dtype=float)
            return int(spec.frequencies_khz[int(np.argmin(np.abs(freqs - freq_khz)))])

        rng = random.Random(22)
        values = [rng.uniform(0.0, 4e6) for _ in range(20_000)]
        values += [rng.randrange(1_000_000, 3_000_000) for _ in range(5_000)]
        values += list(spec.frequencies_khz) + [1_850_000, 2_350_000, 1_850_000.0, 2_350_000.0]
        values += [0, 0.0, -1.0, -2_200_000, 1e12, -1e12, 1e30, math.inf, -math.inf, math.nan]
        for value in values:
            got = spec.nearest_frequency(value)
            assert got == reference(value), value
            assert type(got) is int
        assert spec.nearest_frequency(1_850_000) == 1_500_000
        assert spec.nearest_frequency(2_350_000) == 2_200_000

    def test_core_ids(self):
        assert list(AMD_EPYC_7502P.core_ids()) == list(range(32))

    def test_spec_validation(self):
        curve = AMD_EPYC_7502P.voltage_curve
        with pytest.raises(ValueError):
            CpuSpec("x", 0, 1, 1, (1_500_000,), curve, 100.0)
        with pytest.raises(ValueError):
            CpuSpec("x", 1, 1, 3, (1_500_000,), curve, 100.0)
        with pytest.raises(ValueError):
            CpuSpec("x", 1, 1, 1, (), curve, 100.0)
        with pytest.raises(ValueError):
            CpuSpec("x", 1, 1, 1, (2_000_000, 1_000_000), curve, 100.0)
