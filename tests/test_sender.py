import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsslink.core import SuperpositionState
from pnsslink.numerics import SampledFunction, TimeGrid
from pnsslink.sender import PulseShape, amplitudes_beta, atomic_moments, pump_exposure

from conftest import T1, make_grid
from oracles import MOMENTS, initial_moments, simulate_sender_ode


def _theta(stock_derived, grid, pulse1):
    return pump_exposure(pulse1, stock_derived.alpha1, grid)


class TestPulseShape:
    def test_gaussian_profile(self, pulse1):
        assert pulse1.evaluate(0.0) == pytest.approx(1.0)
        assert pulse1.evaluate(T1) == pytest.approx(math.exp(-1.0))

    def test_tabulated_bounds_checked(self):
        grid = TimeGrid(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            PulseShape(kind="tabulated", duration=1.0, table=SampledFunction(grid, np.full(11, 1.5)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PulseShape(kind="square", duration=1.0)


class TestPumpExposure:
    def test_zero_rate(self, pulse1, grid):
        theta = pump_exposure(pulse1, 0.0, grid)
        assert np.all(theta.samples == 0.0)

    def test_stock_total(self, stock_derived, grid, pulse1):
        # Analytic oracle: alpha1 * sqrt(pi) * T1 for a gaussian profile.
        theta = _theta(stock_derived, grid, pulse1)
        expected = stock_derived.alpha1 * math.sqrt(math.pi) * T1
        assert theta.final == pytest.approx(expected, rel=1e-8)
        assert theta.final == pytest.approx(6.41471, abs=2e-4)

    def test_energy_linearity(self, stock_derived):
        twice = PulseShape(kind="gaussian", duration=2 * T1, center=0.0)
        grid = TimeGrid(-12 * T1, 12 * T1, 8001)
        base = pump_exposure(PulseShape(kind="gaussian", duration=T1, center=0.0), stock_derived.alpha1, grid)
        doubled = pump_exposure(twice, stock_derived.alpha1, grid)
        assert doubled.final == pytest.approx(2.0 * base.final, rel=1e-6)

    def test_monotone(self, stock_derived, grid, pulse1):
        theta = _theta(stock_derived, grid, pulse1)
        assert np.all(np.diff(theta.samples) >= 0.0)


class TestPopulationsAnalytic:
    def test_initial_values_at_zero_exposure(self, qutrit_state):
        traj = atomic_moments(np.zeros(5), qutrit_state)
        p = qutrit_state.populations
        assert traj.sigma_m1[0] == pytest.approx(p[0], abs=1e-15)
        assert traj.sigma_0[0] == pytest.approx(p[1], abs=1e-15)
        assert traj.sigma_p1[0] == pytest.approx(p[2], abs=1e-15)
        assert traj.coh_m1_0[0] == pytest.approx(
            np.conj(qutrit_state.c_m1) * qutrit_state.c_0, abs=1e-15
        )
        assert traj.coh_0_p1[0] == pytest.approx(
            np.conj(qutrit_state.c_0) * qutrit_state.c_p1, abs=1e-15
        )

    def test_terminal_population_transfer(self, stock_derived, grid, pulse1, qubit_state):
        traj = atomic_moments(_theta(stock_derived, grid, pulse1).samples, qubit_state)
        assert traj.sigma_p1[-1] == pytest.approx(1.0, abs=1e-2)
        assert np.all(np.diff(traj.sigma_m1) <= 1e-15)

    def test_conservation(self, stock_derived, grid, pulse1, qutrit_state):
        traj = atomic_moments(_theta(stock_derived, grid, pulse1).samples, qutrit_state)
        total = traj.sigma_m1 + traj.sigma_0 + traj.sigma_p1
        assert np.max(np.abs(total - 1.0)) <= 1e-10

    def test_coherence_bound(self, stock_derived, grid, pulse1, qubit_state):
        # |<m|rho|m'>|^2 <= population product, saturated by the lowest
        # coherence at zero exposure.
        traj = atomic_moments(_theta(stock_derived, grid, pulse1).samples, qubit_state)
        pairs = [
            (traj.coh_m1_0, traj.sigma_m1, traj.sigma_0),
            (traj.coh_0_p1, traj.sigma_0, traj.sigma_p1),
            (traj.coh_m1_p1, traj.sigma_m1, traj.sigma_p1),
        ]
        for coh, pa, pb in pairs:
            assert np.all(np.abs(coh) ** 2 <= pa * pb + 1e-12)

    def test_pulse_shape_enters_only_through_exposure(self, stock_derived, grid, qubit_state):
        gaussian = PulseShape(kind="gaussian", duration=T1, center=0.0)
        table = SampledFunction(grid, np.asarray(gaussian.evaluate(grid.values)))
        tabulated = PulseShape(kind="tabulated", duration=T1, table=table)
        theta_a = pump_exposure(gaussian, stock_derived.alpha1, grid)
        theta_b = pump_exposure(tabulated, stock_derived.alpha1, grid)
        a = atomic_moments(theta_a.samples, qubit_state)
        b = atomic_moments(theta_b.samples, qubit_state)
        assert np.max(np.abs(a.sigma_0 - b.sigma_0)) <= 1e-12


class TestAmplitudesBeta:
    def test_terminal_amplitudes(self, stock_derived, grid, pulse1, qubit_state):
        traj = amplitudes_beta(_theta(stock_derived, grid, pulse1).samples, qubit_state)
        assert abs(traj.beta_p1_1[-1]) ** 2 == pytest.approx(0.3, abs=1.5e-2)
        assert abs(traj.beta_p1_2[-1]) ** 2 == pytest.approx(0.7, abs=1.5e-2)

    def test_no_two_photon_branch_without_cm1(self, stock_derived, grid, pulse1):
        state = SuperpositionState(0.0, 1.0)
        traj = amplitudes_beta(_theta(stock_derived, grid, pulse1).samples, state)
        assert np.all(traj.beta_0_1 == 0.0)
        assert np.all(traj.beta_p1_2 == 0.0)

    def test_qutrit_normalization(self, stock_derived, grid, pulse1, qutrit_state):
        traj = amplitudes_beta(_theta(stock_derived, grid, pulse1).samples, qutrit_state)
        total = sum(
            np.abs(b) ** 2
            for b in (
                traj.beta_m1_0,
                traj.beta_0_0,
                traj.beta_0_1,
                traj.beta_p1_0,
                traj.beta_p1_1,
                traj.beta_p1_2,
            )
        )
        assert np.max(np.abs(total - 1.0)) <= 1e-10

    def test_population_reconstruction(self, stock_derived, grid, pulse1, qutrit_state):
        theta = _theta(stock_derived, grid, pulse1).samples
        traj, moments = amplitudes_beta(theta, qutrit_state), atomic_moments(theta, qutrit_state)
        assert np.max(np.abs(np.abs(traj.beta_m1_0) ** 2 - moments.sigma_m1)) <= 1e-10
        rec_0 = np.abs(traj.beta_0_0) ** 2 + np.abs(traj.beta_0_1) ** 2
        assert np.max(np.abs(rec_0 - moments.sigma_0)) <= 1e-10
        rec_1 = (
            np.abs(traj.beta_p1_0) ** 2
            + np.abs(traj.beta_p1_1) ** 2
            + np.abs(traj.beta_p1_2) ** 2
        )
        assert np.max(np.abs(rec_1 - moments.sigma_p1)) <= 1e-10


class TestSenderOde:
    def test_matches_closed_forms(self, stock_derived, pulse1, qubit_state):
        grid = make_grid(16001)
        ode = simulate_sender_ode(pulse1, stock_derived.alpha1, qubit_state, grid)
        ana = atomic_moments(pump_exposure(pulse1, stock_derived.alpha1, grid).samples, qubit_state)
        for field in MOMENTS:
            dev = np.max(np.abs(ode[field] - getattr(ana, field)))
            assert dev <= 1e-6, field

    def test_qutrit_matches_closed_forms(self, stock_derived, pulse1, qutrit_state):
        grid = make_grid(16001)
        ode = simulate_sender_ode(pulse1, stock_derived.alpha1, qutrit_state, grid)
        ana = atomic_moments(pump_exposure(pulse1, stock_derived.alpha1, grid).samples, qutrit_state)
        for field in MOMENTS:
            dev = np.max(np.abs(ode[field] - getattr(ana, field)))
            assert dev <= 1e-6, field

    def test_zero_pulse_is_constant(self, stock_derived, qutrit_state):
        grid = TimeGrid(0.0, 1e-6, 101)
        off = PulseShape(
            kind="tabulated", duration=1.0, table=SampledFunction(grid, np.zeros(101))
        )
        traj = simulate_sender_ode(off, stock_derived.alpha1, qutrit_state, grid)
        assert traj["sigma_m1"][-1] == pytest.approx(traj["sigma_m1"][0], abs=1e-15)
        assert traj["coh_0_p1"][-1] == pytest.approx(traj["coh_0_p1"][0], abs=1e-15)

    def test_stretched_coherence_stays_zero(self, stock_derived, pulse1, qubit_state):
        grid = make_grid(8001)
        traj = simulate_sender_ode(pulse1, stock_derived.alpha1, qubit_state, grid)
        assert np.max(np.abs(traj["coh_m1_p1"])) <= 1e-9

    def test_batch_input(self, stock_derived, pulse1, qubit_state, qutrit_state):
        grid = make_grid(2001)
        batch = np.stack([initial_moments(qubit_state), initial_moments(qutrit_state)])
        traj = simulate_sender_ode(pulse1, stock_derived.alpha1, batch, grid)
        assert traj.shape == (2001, 2, 6)
        single = simulate_sender_ode(pulse1, stock_derived.alpha1, qubit_state, grid)
        np.testing.assert_allclose(traj[:, 0, 0].real, single["sigma_m1"], atol=1e-14)


@given(chi=st.floats(0.0, 2.0 * math.pi))
@settings(deadline=None, max_examples=10)
def test_global_phase_invariance(stock_derived, chi):
    grid = make_grid(2001)
    pulse = PulseShape(kind="gaussian", duration=T1, center=0.0)
    theta = pump_exposure(pulse, stock_derived.alpha1, grid).samples
    base = SuperpositionState(math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))
    phase = complex(math.cos(chi), math.sin(chi))
    rotated = SuperpositionState(phase * base.c_m1, phase * base.c_0, phase * base.c_p1)
    a = amplitudes_beta(theta, base)
    b = amplitudes_beta(theta, rotated)
    assert np.max(np.abs(atomic_moments(theta, base).sigma_0 - atomic_moments(theta, rotated).sigma_0)) <= 1e-12
    assert np.max(np.abs(np.abs(a.beta_p1_2) - np.abs(b.beta_p1_2))) <= 1e-12
