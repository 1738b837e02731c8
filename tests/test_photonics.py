import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsslink.core import SuperpositionState
from pnsslink.numerics import SampledFunction, TimeGrid
from pnsslink.photonics import (
    emission_modes,
    g2_zero_delay,
    mean_photon_number,
    mode_overlap,
    photon_distribution,
    photon_fluxes,
    photon_observables,
)
from pnsslink.sender import PulseShape, amplitudes_beta, pump_exposure

from conftest import make_grid


@pytest.fixture(scope="module")
def scenario(stock_derived, grid, pulse1, qubit_state):
    theta = pump_exposure(pulse1, stock_derived.alpha1, grid)
    modes = emission_modes(theta, pulse1, stock_derived.alpha1)
    return theta, modes, _observables(theta, modes, qubit_state)


def _observables(theta, modes, c):
    """``photon_observables`` of ``c`` with its n_out and total flux on the grid."""
    return photon_observables(modes, c, amplitudes_beta(theta.samples, c),
                              mean_photon_number(theta.samples, c), photon_fluxes(theta, modes, c))


class TestPhotonDistribution:
    def test_initial_vacuum(self, scenario):
        _, _, obs = scenario
        assert obs.p0[0] == pytest.approx(1.0, abs=1e-12)

    def test_endpoints(self, scenario):
        # Frozen from the closed forms at the quadrature exposure total
        # (6.41471): P2 -> 0.7*(1-(1+x)e^-x), P1 -> 0.3(1-e^-x)+0.7xe^-x.
        _, _, obs = scenario
        assert obs.p2[-1] == pytest.approx(0.691502, abs=2e-5)
        assert obs.p1[-1] == pytest.approx(0.306861, abs=2e-5)

    def test_sum_to_one(self, scenario):
        _, _, obs = scenario
        total = obs.p0 + obs.p1 + obs.p2
        assert np.max(np.abs(total - 1.0)) <= 1e-10

    def test_qutrit_sum_includes_vacuum_branch(self, stock_derived, grid, pulse1, qutrit_state):
        theta = pump_exposure(pulse1, stock_derived.alpha1, grid)
        traj = amplitudes_beta(theta.samples, qutrit_state)
        p0, p1, p2 = photon_distribution(traj)
        assert np.max(np.abs(p0 + p1 + p2 - 1.0)) <= 1e-10
        assert p0[-1] >= 0.2  # vacuum branch never emits

    def test_no_two_photon_without_cm1(self, stock_derived, grid, pulse1):
        theta = pump_exposure(pulse1, stock_derived.alpha1, grid)
        traj = amplitudes_beta(theta.samples, SuperpositionState(0.0, 1.0))
        _, _, p2 = photon_distribution(traj)
        assert np.all(p2 == 0.0)

    def test_p2_nondecreasing(self, scenario):
        _, _, obs = scenario
        assert np.all(np.diff(obs.p2) >= -1e-15)


class TestFluxesAndModes:
    def test_first_mode_norm(self, scenario, stock_derived):
        # Quadrature oracle: the first-photon envelope integrates to
        # 1 - exp(-theta_inf).
        theta, modes, _ = scenario
        norm = np.trapezoid(modes.phi1**2, dx=theta.grid.dt)
        assert norm == pytest.approx(1.0 - math.exp(-theta.final), rel=1e-6)

    def test_zero_pulse_zero_flux(self, stock_derived, qubit_state):
        grid = TimeGrid(0.0, 1e-6, 51)
        off = PulseShape(kind="tabulated", duration=1.0, table=SampledFunction(grid, np.zeros(51)))
        theta = pump_exposure(off, stock_derived.alpha1, grid)
        modes = emission_modes(theta, off, stock_derived.alpha1)
        obs = _observables(theta, modes, qubit_state)
        for arr in (obs.flux_total, obs.flux_one, obs.flux_two, modes.phi1, modes.phi2):
            assert np.all(arr == 0.0)

    def test_second_photon_lags_first(self, scenario):
        _, _, obs = scenario
        assert np.argmax(obs.flux_two) > np.argmax(obs.flux_one)

    def test_flux_partition(self, scenario):
        _, _, obs = scenario
        assert np.max(np.abs(obs.flux_total - obs.flux_one - obs.flux_two)) <= 1e-10 * np.max(
            obs.flux_total
        )

    def test_mode_decomposition_identity(self, scenario, qubit_state):
        # Two-sublevel input: flux = phi1^2 + |c_m1|^2 phi2^2 exactly.
        _, modes, obs = scenario
        x = abs(qubit_state.c_m1) ** 2
        recomposed = modes.phi1**2 + x * modes.phi2**2
        assert np.max(np.abs(obs.flux_total - recomposed)) <= 1e-10 * np.max(obs.flux_total)

    def test_everything_nonnegative(self, scenario):
        _, _, obs = scenario
        for arr in (obs.p0, obs.p1, obs.p2, obs.flux_total, obs.flux_one, obs.flux_two):
            assert np.all(arr >= -1e-15)


class TestMeanPhotonNumber:
    def test_endpoint(self, scenario):
        _, _, obs = scenario
        assert obs.n_out[-1] == pytest.approx(1.689865, abs=2e-5)

    def test_counts_identity(self, scenario):
        _, _, obs = scenario
        assert np.max(np.abs(obs.n_out - obs.p1 - 2.0 * obs.p2)) <= 1e-8

    def test_qutrit_counts_identity(self, stock_derived, grid, pulse1, qutrit_state):
        theta = pump_exposure(pulse1, stock_derived.alpha1, grid)
        obs = _observables(theta, emission_modes(theta, pulse1, stock_derived.alpha1), qutrit_state)
        assert np.max(np.abs(obs.n_out - obs.p1 - 2.0 * obs.p2)) <= 1e-8

    def test_small_exposure_linear(self, stock_derived, pulse1, qubit_state):
        # n_out tracks the exposure itself while it stays below 0.1.
        grid = make_grid(4001)
        theta = pump_exposure(pulse1, stock_derived.alpha1 * 0.01, grid)
        n_out = mean_photon_number(theta.samples, qubit_state)
        sel = (theta.samples > 1e-4) & (theta.samples <= 0.1)
        assert np.all(np.abs(n_out[sel] / theta.samples[sel] - 1.0) <= 0.05)

    def test_single_photon_branch(self, stock_derived, grid, pulse1):
        theta = pump_exposure(pulse1, stock_derived.alpha1, grid)
        n_out = mean_photon_number(theta.samples, SuperpositionState(0.0, 1.0))
        assert n_out[-1] == pytest.approx(1.0 - math.exp(-theta.final), rel=1e-10)

    def test_flux_is_derivative(self, scenario):
        theta, _, obs = scenario
        dt = theta.grid.dt
        deriv = np.gradient(obs.n_out, dt)
        scale = np.max(obs.flux_total)
        assert np.max(np.abs(deriv - obs.flux_total)) <= 1e-6 * scale


class TestG2:
    def test_bounded_by_one(self, scenario):
        _, _, obs = scenario
        assert np.max(obs.g2) <= 1.0 + 1e-9
        assert np.min(obs.g2) >= 0.0

    def test_zero_without_two_photon_component(self, scenario, stock_derived, grid, pulse1):
        theta = pump_exposure(pulse1, stock_derived.alpha1, grid)
        modes = emission_modes(theta, pulse1, stock_derived.alpha1)
        g2 = g2_zero_delay(modes.phi1, modes.phi2, SuperpositionState(0.0, 1.0))
        assert np.all(g2 == 0.0)

    def test_equality_case(self):
        # With phi1^2 = |c_m1|^2 phi2^2 the value is exactly 1.
        state = SuperpositionState.normalized(math.sqrt(0.4), math.sqrt(0.6))
        phi2 = np.linspace(0.5, 2.0, 20)
        phi1 = abs(state.c_m1) * phi2
        g2 = g2_zero_delay(phi1, phi2, state)
        np.testing.assert_allclose(g2, 1.0, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_undefined_points_masked(self, qubit_state):
        # Where both modes vanish there is no flux, and g2 reads 0.
        g2 = g2_zero_delay(np.array([0.0, 1.0]), np.array([0.0, 1.0]), qubit_state)
        assert g2[0] == 0.0 and g2[1] > 0.0

    @given(weight=st.floats(0.05, 0.95))
    @settings(deadline=None, max_examples=20)
    def test_bounded_for_any_weight(self, weight):
        t = np.linspace(0.0, 1.0, 200)
        phi1 = np.exp(-((t - 0.3) ** 2) / 0.02)
        phi2 = np.exp(-((t - 0.6) ** 2) / 0.03)
        state = SuperpositionState.normalized(math.sqrt(weight), math.sqrt(1.0 - weight))
        g2 = g2_zero_delay(phi1, phi2, state)
        assert np.all(g2 <= 1.0 + 1e-12)
        assert np.all(g2 >= 0.0)


class TestModeOverlap:
    def test_disjoint_supports(self):
        grid = TimeGrid(0.0, 1.0, 100)
        phi1 = np.where(grid.values < 0.4, 1.0, 0.0)
        phi2 = np.where(grid.values > 0.6, 1.0, 0.0)
        assert mode_overlap(phi1, phi2, grid) == pytest.approx(0.0, abs=1e-12)

    def test_identical_modes(self):
        grid = TimeGrid(0.0, 1.0, 100)
        phi = np.exp(-((grid.values - 0.5) ** 2) / 0.01)
        assert mode_overlap(phi, phi, grid) == pytest.approx(1.0, rel=1e-12)

    def test_zero_mode_rejected(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            mode_overlap(np.zeros(10), np.ones(10), grid)

    def test_stock_scenario_value(self, scenario):
        theta, modes, _ = scenario
        assert mode_overlap(modes.phi1, modes.phi2, theta.grid) == pytest.approx(0.8879, abs=5e-4)

    def test_high_energy_limit(self, stock_derived, pulse1, qubit_state):
        # At large total exposure the overlap approaches
        # gamma(3/2) = sqrt(pi)/2 (substitution u = exposure).
        grid = make_grid(32001)
        theta = pump_exposure(pulse1, stock_derived.alpha1 * 10.0, grid)
        modes = emission_modes(theta, pulse1, stock_derived.alpha1 * 10.0)
        limit = math.gamma(1.5)
        assert mode_overlap(modes.phi1, modes.phi2, grid) == pytest.approx(limit, abs=2e-3)
