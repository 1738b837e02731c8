import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsslink.core import (
    TWO_PI,
    PhysicalParams,
    SuperpositionState,
    derive,
    rad_per_s,
    to_mhz,
    validate_regime,
)

from conftest import mhz_params

T1 = 0.3e-6


def test_unit_convention_roundtrip():
    assert rad_per_s(12.0) == pytest.approx(TWO_PI * 12e6)
    assert to_mhz(rad_per_s(3.5)) == pytest.approx(3.5)


class TestDerive:
    def test_stock_values(self, stock_params, stock_derived):
        # Exact arithmetic: 4*12^2 / (3*5.87) in the common 2*pi*MHz units.
        assert stock_derived.r_sn == pytest.approx(576.0 / 17.61, rel=1e-12)
        assert stock_derived.r_sn == pytest.approx(32.7087, abs=1e-3)
        assert stock_derived.G1 == pytest.approx(rad_per_s(1.2), rel=1e-12)
        assert stock_derived.alpha1 == pytest.approx(
            4.0 * stock_derived.G1**2 / stock_params.k, rel=1e-12
        )

    def test_recoil_frequency(self, stock_derived):
        # Rb-87 at 780 nm: about 2*pi * 3.77 kHz.
        assert stock_derived.omega_rec == pytest.approx(TWO_PI * 3.77e3, rel=0.01)

    def test_zero_drive(self, stock_params):
        params = mhz_params(
            g=12.0, k=3.0, gamma_sp=5.87, omega1=0.0, omega2=10.0, delta=100.0,
            delta_b_ground=15.0, delta_b_excited=15.0,
        )
        derived = derive(params)
        assert derived.G1 == 0.0
        assert derived.alpha1 == 0.0

    def test_pure_function(self, stock_params):
        a = derive(stock_params)
        b = derive(stock_params)
        assert a == b

    @given(factor=st.floats(0.1, 10.0))
    @settings(deadline=None, max_examples=30)
    def test_scaling_leaves_g1_fixed(self, factor):
        base = mhz_params(
            g=12.0, k=3.0, gamma_sp=5.87, omega1=10.0, omega2=10.0, delta=100.0,
            delta_b_ground=15.0, delta_b_excited=15.0,
        )
        scaled = mhz_params(
            g=12.0, k=3.0, gamma_sp=5.87, omega1=10.0 * factor, omega2=10.0,
            delta=100.0 * factor, delta_b_ground=15.0, delta_b_excited=15.0,
        )
        assert derive(scaled).G1 == pytest.approx(derive(base).G1, rel=1e-12)

    @given(omega1=st.floats(0.5, 50.0), delta=st.floats(20.0, 500.0))
    @settings(deadline=None, max_examples=30)
    def test_rsn_independent_of_drive(self, omega1, delta):
        params = mhz_params(
            g=12.0, k=3.0, gamma_sp=5.87, omega1=omega1, omega2=10.0, delta=delta,
            delta_b_ground=15.0, delta_b_excited=15.0,
        )
        assert derive(params).r_sn == pytest.approx(576.0 / 17.61, rel=1e-12)

    def test_signed_delta_uses_magnitude(self):
        params = mhz_params(
            g=12.0, k=3.0, gamma_sp=5.87, omega1=10.0, omega2=10.0, delta=-100.0,
            delta_b_ground=15.0, delta_b_excited=15.0,
        )
        assert derive(params).G1 == pytest.approx(rad_per_s(1.2), rel=1e-12)


class TestParamValidation:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="k"):
            mhz_params(
                g=12.0, k=0.0, gamma_sp=5.87, omega1=10.0, omega2=10.0, delta=100.0,
                delta_b_ground=15.0, delta_b_excited=15.0,
            )

    def test_rejects_zero_detuning(self):
        with pytest.raises(ValueError, match="delta"):
            mhz_params(
                g=12.0, k=3.0, gamma_sp=5.87, omega1=10.0, omega2=10.0, delta=0.0,
                delta_b_ground=15.0, delta_b_excited=15.0,
            )


class TestSuperpositionState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            SuperpositionState(0.9, 0.9)

    def test_normalized_helper(self):
        s = SuperpositionState.normalized(3.0, 4.0j)
        assert s.populations == pytest.approx((0.36, 0.64, 0.0))

    @given(chi=st.floats(0.0, TWO_PI))
    @settings(deadline=None, max_examples=30)
    def test_global_phase_leaves_populations(self, chi):
        s = SuperpositionState(math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))
        phase = complex(math.cos(chi), math.sin(chi))
        rotated = SuperpositionState(phase * s.c_m1, phase * s.c_0, phase * s.c_p1)
        assert rotated.populations == pytest.approx(s.populations, abs=1e-12)
        overlap = (s.c_m1.conjugate() * rotated.c_m1 + s.c_0.conjugate() * rotated.c_0
                   + s.c_p1.conjugate() * rotated.c_p1)
        assert abs(overlap) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestValidateRegime:
    def test_each_inequality_once(self, stock_params, stock_derived):
        report = validate_regime(stock_params, stock_derived, T1)
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names)) == 9

    def test_adiabatic_check_value(self, stock_params, stock_derived):
        report = validate_regime(stock_params, stock_derived, T1)
        check = next(c for c in report.checks if c.name == "adiabatic_k_T1")
        assert check.left == pytest.approx(5.655, abs=2e-3)
        assert check.passed

    def test_signal_to_noise_passes(self, stock_params, stock_derived):
        report = validate_regime(stock_params, stock_derived, T1)
        check = next(c for c in report.checks if c.name == "signal_to_noise")
        assert check.ratio == pytest.approx(32.71, abs=0.01)
        assert check.passed

    def test_zeeman_equal_to_decay_fails(self, stock_derived):
        params = mhz_params(
            g=12.0, k=3.0, gamma_sp=5.87, omega1=10.0, omega2=10.0, delta=100.0,
            delta_b_ground=3.0, delta_b_excited=15.0,
        )
        report = validate_regime(params, derive(params), T1)
        check = next(c for c in report.checks if c.name == "zeeman_ground_vs_cavity_decay")
        assert not check.passed

    def test_failures_do_not_raise(self, stock_params, stock_derived):
        report = validate_regime(stock_params, stock_derived, T1, min_ratio=1000.0)
        assert not report.passed
        assert sum(not c.passed for c in report.checks) == 9
