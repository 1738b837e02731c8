import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnsslink
from pnsslink.config import parse_config
from pnsslink.core import SuperpositionState
from pnsslink.numerics import SampledFunction, TimeGrid, trapezoid
from pnsslink.photonics import emission_modes, mean_photon_number, photon_fluxes
from pnsslink.pipeline import build_link, run_transfer
from pnsslink.receiver import (
    PulseSolveError,
    ReceiverTrajectory,
    conservation_check,
    final_state,
    gamma_analytic,
    pulse_areas,
    solve_pulse_shape,
)
from pnsslink.sender import PulseShape, pump_exposure

import oracles
from conftest import T1, random_states, stock_doc
from oracles import initial_amplitudes, simulate_receiver_ode


@pytest.fixture(scope="module")
def modes(stock_derived, grid, pulse1):
    theta = pump_exposure(pulse1, stock_derived.alpha1, grid)
    emitted = emission_modes(theta, pulse1, stock_derived.alpha1)
    return theta, emitted.phi1, emitted.phi2


@pytest.fixture(scope="module")
def solved(modes, grid, stock_params):
    _, phi1, phi2 = modes
    return solve_pulse_shape(
        phi1, phi2, grid, stock_params, mode="duration_amplitude", center=0.5 * T1
    )


def _ramp(grid: TimeGrid, final: float) -> SampledFunction:
    return SampledFunction(grid, np.linspace(0.0, final, grid.n_points))


class TestPulseAreas:
    def test_zero_coupling(self, modes, grid):
        _, phi1, phi2 = modes
        pulse = PulseShape(kind="gaussian", duration=1e-6, center=0.0)
        eta, zeta = pulse_areas(pulse, phi1, phi2, 0.0, 1.0, grid)
        assert np.all(eta.samples == 0.0)
        assert np.all(zeta.samples == 0.0)

    def test_flat_pulse_against_quadrature(self, modes, grid, stock_params, stock_derived):
        # Independent oracle: plain quadrature of the mode envelopes.
        _, phi1, phi2 = modes
        flat = PulseShape(
            kind="tabulated", duration=1.0, table=SampledFunction(grid, np.ones(grid.n_points))
        )
        eta, zeta = pulse_areas(flat, phi1, phi2, stock_derived.G2, stock_params.k, grid)
        pref = stock_derived.G2 / math.sqrt(stock_params.k)
        assert eta.final == pytest.approx(2.0 * pref * trapezoid(phi1, grid.dt), rel=1e-12)
        assert zeta.final == pytest.approx(
            pref * trapezoid(phi1 + phi2, grid.dt), rel=1e-12
        )

    def test_monotone(self, modes, grid, stock_params, stock_derived, solved):
        _, phi1, phi2 = modes
        eta, zeta = pulse_areas(
            solved.pulse, phi1, phi2, stock_derived.G2, stock_params.k, grid
        )
        assert np.all(np.diff(eta.samples) >= 0.0)
        assert np.all(np.diff(zeta.samples) >= 0.0)


class TestGammaAnalytic:
    def test_initial_conditions(self, qubit_state):
        grid = TimeGrid(0.0, 1.0, 11)
        traj = gamma_analytic(_ramp(grid, 0.0), _ramp(grid, 0.0), qubit_state)
        assert traj.g_1_1[0] == pytest.approx(qubit_state.c_0)
        assert traj.g_1_2[0] == pytest.approx(qubit_state.c_m1)
        for field in (traj.g_0_0, traj.g_m1_0, traj.g_0_1):
            assert np.all(field == 0.0)

    def test_full_transfer_at_pi(self, qubit_state):
        grid = TimeGrid(0.0, 1.0, 101)
        traj = gamma_analytic(_ramp(grid, math.pi), _ramp(grid, math.pi), qubit_state)
        assert traj.g_m1_0[-1] == pytest.approx(qubit_state.c_m1, abs=1e-12)
        assert traj.g_0_0[-1] == pytest.approx(qubit_state.c_0, abs=1e-12)
        assert abs(traj.g_1_2[-1]) <= 1e-12
        assert abs(traj.g_0_1[-1]) <= 1e-12

    def test_half_pi_ladder_populations(self, qubit_state):
        grid = TimeGrid(0.0, 1.0, 101)
        traj = gamma_analytic(_ramp(grid, 0.0), _ramp(grid, math.pi / 2), qubit_state)
        x = abs(qubit_state.c_m1) ** 2
        assert abs(traj.g_1_2[-1]) ** 2 == pytest.approx(0.25 * x, rel=1e-12)
        assert abs(traj.g_0_1[-1]) ** 2 == pytest.approx(0.5 * x, rel=1e-12)
        assert abs(traj.g_m1_0[-1]) ** 2 == pytest.approx(0.25 * x, rel=1e-12)

    @pytest.mark.parametrize("phase", [0.3, math.pi])
    def test_matches_ode_off_phase(self, modes, grid, stock_params, solved, qutrit_state, phase):
        _, phi1, phi2 = modes
        g2c = stock_params.g * solved.omega2 / abs(stock_params.delta)
        ode = simulate_receiver_ode(
            solved.pulse, phi1, phi2, g2c, stock_params.k, phase, qutrit_state, grid
        )
        eta, zeta = pulse_areas(solved.pulse, phi1, phi2, g2c, stock_params.k, grid)
        ana = gamma_analytic(eta, zeta, qutrit_state, phi2=phase)
        for field in ("g_0_0", "g_1_1", "g_m1_0", "g_0_1", "g_1_2", "g_1_0"):
            dev = np.max(np.abs(getattr(ode, field) - getattr(ana, field)))
            assert dev <= 1e-6, field

    def test_accepts_phase_mod_two_pi(self, qubit_state):
        grid = TimeGrid(0.0, 1.0, 11)
        gamma_analytic(
            _ramp(grid, 1.0), _ramp(grid, 1.0), qubit_state, phi2=math.pi / 2 + 2 * math.pi
        )

    def test_block_unitarity_random_states(self):
        grid = TimeGrid(0.0, 1.0, 301)
        eta = _ramp(grid, 2.2)
        zeta = _ramp(grid, 2.9)
        for state in random_states(12, seed=7):
            traj = gamma_analytic(eta, zeta, state)
            two = np.abs(traj.g_0_0) ** 2 + np.abs(traj.g_1_1) ** 2
            three = (
                np.abs(traj.g_1_2) ** 2 + np.abs(traj.g_0_1) ** 2 + np.abs(traj.g_m1_0) ** 2
            )
            assert np.max(np.abs(two - abs(state.c_0) ** 2)) <= 1e-9
            assert np.max(np.abs(three - abs(state.c_m1) ** 2)) <= 1e-9


class TestReceiverOde:
    def test_matches_closed_forms(self, modes, grid, stock_params, stock_derived, solved, qubit_state):
        _, phi1, phi2 = modes
        ode = simulate_receiver_ode(
            solved.pulse, phi1, phi2,
            stock_params.g * solved.omega2 / abs(stock_params.delta),
            stock_params.k, math.pi / 2, qubit_state, grid,
        )
        eta, zeta = pulse_areas(
            solved.pulse, phi1, phi2,
            stock_params.g * solved.omega2 / abs(stock_params.delta),
            stock_params.k, grid,
        )
        ana = gamma_analytic(eta, zeta, qubit_state)
        for field in ("g_0_0", "g_1_1", "g_m1_0", "g_0_1", "g_1_2"):
            dev = np.max(np.abs(getattr(ode, field) - getattr(ana, field)))
            assert dev <= 1e-6, field

    def test_fourth_order_on_the_stock_link(self):
        # Doubling the grid of the stock qubit transfer must cut the
        # oracle's distance from the closed forms by ~16x (fourth order);
        # linearly interpolated mode functions at the RK4 midpoints give 4x.
        def worst(points):
            doc = stock_doc()
            doc["grid"]["points"] = points
            outcome = run_transfer(parse_config(doc))
            send, params = outcome.send, outcome.send.config.params
            g2c = params.g * outcome.omega2 / abs(params.delta)
            obs = send.observables
            state = send.config.initial_state
            args = (outcome.pulse2, obs.phi1, obs.phi2, g2c, params.k)
            grid = send.sender.grid
            ode = simulate_receiver_ode(*args, math.pi / 2, state, grid)
            ana = gamma_analytic(*pulse_areas(*args, grid), state)
            return max(
                float(np.max(np.abs(getattr(ode, f) - getattr(ana, f))))
                for f in ("g_0_0", "g_1_1", "g_m1_0", "g_0_1", "g_1_2")
            )

        assert worst(751) >= 12.0 * worst(1501)

    def test_zero_modes_constant(self, grid, stock_params, qubit_state):
        zeros = np.zeros(grid.n_points)
        pulse = PulseShape(kind="gaussian", duration=1e-6, center=0.0)
        traj = simulate_receiver_ode(
            pulse, zeros, zeros, 1e6, stock_params.k, math.pi / 2, qubit_state, grid
        )
        assert np.all(traj.g_1_1 == traj.g_1_1[0])
        assert np.all(traj.g_1_2 == traj.g_1_2[0])

    def test_phase_periodicity(self, modes, grid, stock_params, solved, qubit_state):
        _, phi1, phi2 = modes
        g2c = stock_params.g * solved.omega2 / abs(stock_params.delta)
        a = simulate_receiver_ode(
            solved.pulse, phi1, phi2, g2c, stock_params.k, math.pi / 2, qubit_state, grid
        )
        b = simulate_receiver_ode(
            solved.pulse, phi1, phi2, g2c, stock_params.k, math.pi / 2 + 2 * math.pi,
            qubit_state, grid,
        )
        assert np.max(np.abs(a.g_m1_0 - b.g_m1_0)) <= 1e-12

    def test_general_phase_keeps_block_norms(self, modes, grid, stock_params, solved, qutrit_state):
        _, phi1, phi2 = modes
        g2c = stock_params.g * solved.omega2 / abs(stock_params.delta)
        traj = simulate_receiver_ode(
            solved.pulse, phi1, phi2, g2c, stock_params.k, 0.3, qutrit_state, grid
        )
        two = np.abs(traj.g_0_0) ** 2 + np.abs(traj.g_1_1) ** 2
        three = np.abs(traj.g_1_2) ** 2 + np.abs(traj.g_0_1) ** 2 + np.abs(traj.g_m1_0) ** 2
        assert np.max(np.abs(two - abs(qutrit_state.c_0) ** 2)) <= 1e-9
        assert np.max(np.abs(three - abs(qutrit_state.c_m1) ** 2)) <= 1e-9

    def test_batch_matches_single(self, modes, grid, stock_params, solved, qubit_state, qutrit_state):
        _, phi1, phi2 = modes
        g2c = stock_params.g * solved.omega2 / abs(stock_params.delta)
        batch = np.stack([initial_amplitudes(qubit_state), initial_amplitudes(qutrit_state)])
        traj = simulate_receiver_ode(
            solved.pulse, phi1, phi2, g2c, stock_params.k, math.pi / 2, batch, grid
        )
        single = simulate_receiver_ode(
            solved.pulse, phi1, phi2, g2c, stock_params.k, math.pi / 2, qubit_state, grid
        )
        assert traj.shape == (grid.n_points, 2, 6)
        np.testing.assert_allclose(traj[:, 0, 2], single.g_m1_0, atol=1e-13)


class TestSolvePulseShape:
    def test_fixed_center_solution(self, solved, stock_params):
        assert solved.converged
        assert abs(solved.eta_residual) <= 1e-6
        assert abs(solved.zeta_residual) <= 1e-6
        assert solved.pulse.duration == pytest.approx(0.995187e-6, abs=2e-9)
        assert solved.omega2 / stock_params.omega1 == pytest.approx(1.128900, abs=1e-4)

    def test_amplitude_seed_invariance(self, modes, grid, stock_params):
        # The areas are linear in amplitude * envelope, so the solved
        # product cannot depend on the seed amplitude.
        import dataclasses

        _, phi1, phi2 = modes
        doubled = dataclasses.replace(stock_params, omega2=2.0 * stock_params.omega2)
        a = solve_pulse_shape(
            phi1, phi2, grid, stock_params, mode="duration_amplitude", center=0.5 * T1
        )
        b = solve_pulse_shape(
            phi1, phi2, grid, doubled, mode="duration_amplitude", center=0.5 * T1
        )
        assert b.omega2 == pytest.approx(a.omega2, rel=1e-9)
        assert b.pulse.duration == pytest.approx(a.pulse.duration, rel=1e-9)

    def test_free_center_mode_on_feasible_amplitude(self, modes, grid, stock_params):
        import dataclasses

        _, phi1, phi2 = modes
        strong = dataclasses.replace(stock_params, omega2=1.3 * stock_params.omega2)
        res = solve_pulse_shape(phi1, phi2, grid, strong, mode="duration_center", tol=1e-6)
        assert res.converged
        assert abs(res.eta_residual) <= 1e-6
        assert abs(res.zeta_residual) <= 1e-6
        assert 0.05e-6 <= res.pulse.duration <= 5e-6

    def test_equal_amplitudes_not_reachable_here(self, modes, grid, stock_params):
        # With the sender's own amplitude the flat-pulse ceilings of both
        # areas sit a few percent below pi for these parameters, so the
        # fixed-amplitude mode must report failure rather than converge.
        _, phi1, phi2 = modes
        with pytest.raises(PulseSolveError) as info:
            solve_pulse_shape(phi1, phi2, grid, stock_params, mode="duration_center")
        best = info.value.best
        assert best is not None
        assert not best.converged

    def test_amplitude_mode_evaluations(self, solved):
        # Newton steps on the area imbalance with its analytic slope; the
        # secant steps of the same solve took 25 evaluations.
        assert solved.iterations <= 12

    def test_center_mode_on_check_08_config(self):
        # test_acceptance.py::test_08's solve: one seed (a duration root, a
        # 61-point centre scan and a centre root) and a few Newton steps.
        doc = stock_doc()
        doc["params"]["g_mhz"] = 1.25 * doc["params"]["g_mhz"]
        doc["pulse2"]["free"] = "center"
        doc["pulse2"]["tol"] = 1e-6
        solve = build_link(parse_config(doc)).solve
        assert solve.converged
        assert solve.iterations <= 100

    def test_center_mode_on_a_long_sending_pulse(self):
        # Strong coupling, a raised control amplitude and T1 = 0.5 us: the
        # Newton steps from the seed meet both area conditions.
        doc = stock_doc()
        doc["params"].update(g_mhz=25.0, omega2_mhz=11.0)
        doc["pulse1"]["T1_us"] = 0.5
        doc["pulse2"]["free"] = "center"
        solve = build_link(parse_config(doc)).solve
        assert solve.converged
        assert max(abs(solve.eta_residual), abs(solve.zeta_residual)) <= 1e-6
        assert solve.iterations <= 100

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"mode": "duration_amplitude", "center": 0.5 * T1, "duration_bracket": (2e-8, 5e-7)},
                "cannot equalize the two areas at this center; move the control pulse later "
                "or widen the duration bracket: no sign change on bracket [2e-08, 5e-07]: "
                "f(a)=0.0282341, f(b)=0.140946",
            ),
            (
                {"mode": "duration_center"},
                "area conditions not reachable in mode 'duration_center': no sign change on "
                "bracket [2e-08, 2e-05]: f(a)=-2.859, f(b)=-0.124731",
            ),
            (
                {"mode": "duration_amplitude", "center": -10 * T1},
                "control pulse does not overlap the photon modes",
            ),
        ],
        ids=["imbalance-bracket", "zeta-bracket", "no-overlap"],
    )
    def test_unreachable_messages(self, modes, grid, stock_params, kwargs, message):
        _, phi1, phi2 = modes
        with pytest.raises(PulseSolveError) as info:
            solve_pulse_shape(phi1, phi2, grid, stock_params, **kwargs)
        assert str(info.value) == message

    def test_bad_center_raises(self, modes, grid, stock_params):
        _, phi1, phi2 = modes
        with pytest.raises(PulseSolveError):
            # Control centered far before the photons: the late photon
            # envelope can never outweigh the early one.
            solve_pulse_shape(
                phi1, phi2, grid, stock_params, mode="duration_amplitude", center=-10 * T1
            )

    def test_unknown_mode(self, modes, grid, stock_params):
        _, phi1, phi2 = modes
        with pytest.raises(ValueError):
            solve_pulse_shape(phi1, phi2, grid, stock_params, mode="bogus")


class TestConservationCheck:
    def test_formula_on_synthetic_data(self):
        grid = TimeGrid(0.0, 1.0, 4)
        half = math.sqrt(0.5)
        traj = ReceiverTrajectory(
            grid=grid,
            eta=np.zeros(4),
            zeta=np.zeros(4),
            g_0_0=np.full(4, 0.5 + 0j),
            g_1_1=np.zeros(4, complex),
            g_m1_0=np.full(4, half + 0j),
            g_0_1=np.zeros(4, complex),
            g_1_2=np.zeros(4, complex),
            g_1_0=np.zeros(4, complex),
        )
        n_out = np.full(4, 1.0)
        flux = np.full(4, 0.5)
        residual = conservation_check(traj, n_out, flux, k=2.0)
        np.testing.assert_allclose(residual, 0.25 + 1.0 - 1.0 + 0.25)

    def test_starts_at_zero(self, modes, grid, stock_params, stock_derived, solved, qubit_state, pulse1):
        theta, phi1, phi2 = modes
        g2c = stock_params.g * solved.omega2 / abs(stock_params.delta)
        eta, zeta = pulse_areas(solved.pulse, phi1, phi2, g2c, stock_params.k, grid)
        traj = gamma_analytic(eta, zeta, qubit_state)
        emitted = emission_modes(theta, pulse1, stock_derived.alpha1)
        flux, _, _ = photon_fluxes(theta, emitted, qubit_state)
        n_out = mean_photon_number(theta, qubit_state)
        residual = conservation_check(traj, n_out, flux, stock_params.k)
        assert abs(residual[0]) <= 1e-12

    def test_terminal_mismatch_is_emission_deficit(self, modes, grid, stock_params, stock_derived, solved, qubit_state, pulse1):
        # With both areas exactly pi the atom holds the full input
        # weights while the emitted photon number is short of its
        # infinite-energy value, so the terminal residual equals that
        # deficit rather than zero.
        theta, phi1, phi2 = modes
        g2c = stock_params.g * solved.omega2 / abs(stock_params.delta)
        eta, zeta = pulse_areas(solved.pulse, phi1, phi2, g2c, stock_params.k, grid)
        traj = gamma_analytic(eta, zeta, qubit_state)
        emitted = emission_modes(theta, pulse1, stock_derived.alpha1)
        flux, _, _ = photon_fluxes(theta, emitted, qubit_state)
        n_out = mean_photon_number(theta, qubit_state)
        residual = conservation_check(traj, n_out, flux, stock_params.k)
        deficit = 1.7 - n_out[-1]
        assert residual[-1] == pytest.approx(deficit, abs=1e-9)


class TestFinalState:
    def test_solved_transfer_is_faithful(self, modes, grid, stock_params, solved, qubit_state):
        _, phi1, phi2 = modes
        g2c = stock_params.g * solved.omega2 / abs(stock_params.delta)
        eta, zeta = pulse_areas(solved.pulse, phi1, phi2, g2c, stock_params.k, grid)
        out = final_state(gamma_analytic(eta, zeta, qubit_state), qubit_state)
        assert out.fidelity >= 0.999
        assert out.leakage <= 1e-9
        assert not out.leakage_warning

    def test_qutrit_transfer(self, modes, grid, stock_params, solved, qutrit_state):
        _, phi1, phi2 = modes
        g2c = stock_params.g * solved.omega2 / abs(stock_params.delta)
        eta, zeta = pulse_areas(solved.pulse, phi1, phi2, g2c, stock_params.k, grid)
        out = final_state(gamma_analytic(eta, zeta, qutrit_state), qutrit_state)
        assert out.fidelity >= 0.999

    def test_incomplete_transfer_flagged(self, qubit_state):
        grid = TimeGrid(0.0, 1.0, 51)
        traj = gamma_analytic(_ramp(grid, math.pi / 2), _ramp(grid, math.pi / 2), qubit_state)
        out = final_state(traj, qubit_state)
        assert out.fidelity < 1.0
        assert out.leakage > 0.0
        assert out.leakage_warning

    @given(chi=st.floats(0.0, 2.0 * math.pi))
    @settings(deadline=None, max_examples=15)
    def test_fidelity_ignores_global_phase(self, chi):
        grid = TimeGrid(0.0, 1.0, 51)
        eta = _ramp(grid, 2.3)
        zeta = _ramp(grid, 2.8)
        base = SuperpositionState(math.sqrt(0.6), math.sqrt(0.4))
        phase = complex(math.cos(chi), math.sin(chi))
        rotated = SuperpositionState(phase * base.c_m1, phase * base.c_0)
        f_base = final_state(gamma_analytic(eta, zeta, base), base).fidelity
        f_rot = final_state(gamma_analytic(eta, zeta, rotated), rotated).fidelity
        assert f_rot == pytest.approx(f_base, abs=1e-12)


@given(eta_f=st.floats(0.0, 2.0 * math.pi), zeta_f=st.floats(0.0, 2.0 * math.pi))
@settings(deadline=None, max_examples=25)
def test_unitarity_for_any_areas(eta_f, zeta_f):
    grid = TimeGrid(0.0, 1.0, 64)
    state = SuperpositionState(math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))
    traj = gamma_analytic(_ramp(grid, eta_f), _ramp(grid, zeta_f), state)
    total = traj.rho_m1 + traj.rho_0 + traj.rho_p1
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def _block_propagator(hamiltonian: np.ndarray, area: float) -> np.ndarray:
    """exp(i * area * H) for Hermitian H, by eigendecomposition."""
    w, v = np.linalg.eigh(hamiltonian)
    return (v * np.exp(1j * area * w)) @ v.conj().T


def test_no_module_ships_an_ode_oracle():
    # The time integrations are test oracles (tests/oracles.py), not a
    # second production path beside the closed forms.
    oracle_names = {"integrate_ode", "simulate_sender_ode", "simulate_receiver_ode"}
    for info in pkgutil.walk_packages(pnsslink.__path__, "pnsslink."):
        module = importlib.import_module(info.name)
        assert not oracle_names & set(vars(module)), info.name
    assert not oracle_names & set(vars(pnsslink))


def test_off_phase_transfer_never_integrates(monkeypatch):
    def no_ode(*args, **kwargs):
        raise AssertionError("run_transfer reached the ODE integrator")

    monkeypatch.setattr(oracles, "integrate_ode", no_ode)
    phase = 0.7
    doc = stock_doc(qutrit=True)
    doc["params"]["phi2_rad"] = phase
    doc["grid"] = {"span_in_T1": 12.0, "points": 4001}
    config = parse_config(doc)
    result = run_transfer(config)

    # Independent propagator: the eta generator couples (g_0_0, g_1_1) and
    # the zeta generator the ladder (g_m1_0, g_0_1, g_1_2), each as
    # i * area * H with H Hermitian and the control phase on its couplings.
    ep = np.exp(1j * phase)
    h_a = 0.5 * np.array([[0.0, np.conj(ep)], [ep, 0.0]])
    s2 = 1.0 / math.sqrt(2.0)
    h_b = s2 * np.array(
        [[0.0, np.conj(ep), 0.0], [ep, 0.0, np.conj(ep)], [0.0, ep, 0.0]]
    )
    c = config.initial_state
    a_0 = (_block_propagator(h_a, result.receiver.eta[-1]) @ [0.0, c.c_0])[0]
    a_m1 = (_block_propagator(h_b, result.receiver.zeta[-1]) @ [0.0, 0.0, c.c_m1])[0]
    stored = np.array([a_m1, a_0, c.c_p1])
    stored /= np.linalg.norm(stored)
    expected = abs(np.vdot([c.c_m1, c.c_0, c.c_p1], stored)) ** 2
    assert abs(result.report.final.fidelity - expected) <= 1e-9
    assert result.report.final.fidelity < 0.99
