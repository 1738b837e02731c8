import importlib
import json
import math
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnsslink
from pnsslink.config import parse_config
from pnsslink.core import SuperpositionState
from pnsslink.numerics import BracketError, TimeGrid, quadrature_weights
from pnsslink.photonics import emission_modes, mean_photon_number, photon_distribution, photon_fluxes
from pnsslink.pipeline import build_link, build_sender, report_document, run_transfer, write_report_json
from pnsslink.receiver import (
    LEAKAGE_WARN_THRESHOLD,
    ReceiverTrajectory,
    conservation_check,
    final_state,
    gamma_analytic,
    pulse_areas,
    solve_pulse_shape,
)
from pnsslink.sender import PulseShape, amplitudes_beta, pump_exposure

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


def _summed_residuals(solve, phi1, phi2, grid, params) -> tuple[float, float]:
    """eta(inf) - pi and zeta(inf) - pi of ``solve``'s pulse, summed with the quadrature weights."""
    w = quadrature_weights(grid)
    u = (grid.values - solve.pulse.center) / solve.pulse.duration
    sqrt_f2 = np.exp(-0.5 * u * u)
    pref = solve.omega2 * (params.g / abs(params.delta) / math.sqrt(params.k))
    a1, a2 = pref * float(sqrt_f2 @ (w * phi1)), pref * float(sqrt_f2 @ (w * phi2))
    return 2.0 * a1 - math.pi, a1 + a2 - math.pi


def _ramp(grid: TimeGrid, final: float) -> np.ndarray:
    return np.linspace(0.0, final, grid.n_points)


class TestPulseAreas:
    def test_zero_coupling(self, modes, grid):
        _, phi1, phi2 = modes
        pulse = PulseShape(duration=1e-6, center=0.0)
        eta, zeta = pulse_areas(pulse, phi1, phi2, 0.0, 1.0, grid)
        assert np.all(eta.samples == 0.0)
        assert np.all(zeta.samples == 0.0)

    def test_flat_pulse_against_quadrature(self, modes, grid, stock_params):
        # Independent oracle: plain quadrature of the mode envelopes.
        _, phi1, phi2 = modes
        flat = SimpleNamespace(evaluate=np.ones_like)
        G2 = stock_params.g * stock_params.omega2 / abs(stock_params.delta)
        eta, zeta = pulse_areas(flat, phi1, phi2, G2, stock_params.k, grid)
        pref = G2 / math.sqrt(stock_params.k)
        assert eta.final == pytest.approx(2.0 * pref * np.trapezoid(phi1, dx=grid.dt), rel=1e-12)
        assert zeta.final == pytest.approx(
            pref * np.trapezoid(phi1 + phi2, dx=grid.dt), rel=1e-12
        )

    def test_monotone(self, modes, grid, stock_params, solved):
        _, phi1, phi2 = modes
        G2 = stock_params.g * solved.omega2 / abs(stock_params.delta)
        eta, zeta = pulse_areas(solved.pulse, phi1, phi2, G2, stock_params.k, grid)
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
        ana = gamma_analytic(eta.samples, zeta.samples, qutrit_state, phi2=phase)
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
        ana = gamma_analytic(eta.samples, zeta.samples, qubit_state)
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
            modes = send.sender.modes
            state = send.config.initial_state
            args = (outcome.pulse2, modes.phi1, modes.phi2, g2c, params.k)
            grid = send.sender.grid
            ode = simulate_receiver_ode(*args, math.pi / 2, state, grid)
            ana = gamma_analytic(*(area.samples for area in pulse_areas(*args, grid)), state)
            return max(
                float(np.max(np.abs(getattr(ode, f) - getattr(ana, f))))
                for f in ("g_0_0", "g_1_1", "g_m1_0", "g_0_1", "g_1_2")
            )

        assert worst(751) >= 12.0 * worst(1501)

    def test_zero_modes_constant(self, grid, stock_params, qubit_state):
        zeros = np.zeros(grid.n_points)
        pulse = PulseShape(duration=1e-6, center=0.0)
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
        _, phi1, phi2 = modes
        doubled = stock_params._replace(omega2=2.0 * stock_params.omega2)
        a = solve_pulse_shape(
            phi1, phi2, grid, stock_params, mode="duration_amplitude", center=0.5 * T1
        )
        b = solve_pulse_shape(
            phi1, phi2, grid, doubled, mode="duration_amplitude", center=0.5 * T1
        )
        assert b.omega2 == pytest.approx(a.omega2, rel=1e-9)
        assert b.pulse.duration == pytest.approx(a.pulse.duration, rel=1e-9)

    def test_free_center_mode_on_feasible_amplitude(self, modes, grid, stock_params):
        _, phi1, phi2 = modes
        strong = stock_params._replace(omega2=1.3 * stock_params.omega2)
        res = solve_pulse_shape(phi1, phi2, grid, strong, mode="duration_center", tol=1e-6)
        assert res.converged
        assert abs(res.eta_residual) <= 1e-6
        assert abs(res.zeta_residual) <= 1e-6
        assert 0.05e-6 <= res.pulse.duration <= 5e-6

    def test_equal_amplitudes_not_reachable_here(self, modes, grid, stock_params):
        # With the sender's own amplitude the flat-pulse ceilings of both
        # areas sit a few percent below pi for these parameters, so the
        # fixed-amplitude mode returns its best effort unconverged, short of pi.
        _, phi1, phi2 = modes
        best = solve_pulse_shape(phi1, phi2, grid, stock_params, mode="duration_center")
        assert best.converged is False
        assert best.eta_residual < -1e-6 and best.zeta_residual < -1e-6

    def test_amplitude_mode_evaluations(self, solved):
        # Newton steps on the area imbalance with its analytic slope; the
        # secant steps of the same solve took 25 evaluations.
        assert solved.iterations <= 12

    def test_center_mode_on_check_08_config(self):
        # test_acceptance.py::test_08's solve: one seed (a duration root at the
        # photons' centroid, then a centre root late of it) and a few Newton steps.
        doc = stock_doc()
        doc["params"]["g_mhz"] = 1.25 * doc["params"]["g_mhz"]
        doc["pulse2"]["free"] = "center"
        doc["pulse2"]["tol"] = 1e-6
        solve = build_link(parse_config(doc)).control
        assert solve.converged
        assert solve.iterations <= 30
        assert solve.pulse.duration == pytest.approx(0.510232e-6, rel=1e-5)
        assert solve.pulse.center == pytest.approx(-0.129833e-6, rel=1e-5)

    def test_center_mode_on_a_long_sending_pulse(self):
        # Strong coupling, a raised control amplitude and T1 = 0.5 us: the
        # Newton steps from the seed meet both area conditions.
        doc = stock_doc()
        doc["params"].update(g_mhz=25.0, omega2_mhz=11.0)
        doc["pulse1"]["T1_us"] = 0.5
        doc["pulse2"]["free"] = "center"
        solve = build_link(parse_config(doc)).control
        assert solve.converged
        assert max(abs(solve.eta_residual), abs(solve.zeta_residual)) <= 1e-6
        assert solve.iterations <= 100

    def test_center_mode_best_effort_far_from_the_start(self):
        # A scripts/solve_scan.py scenario that no pulse of this amplitude
        # solves (g 40 MHz, omega2 x 4, T1 0.3 us): the best pulse evaluated is
        # the duration bracket's short end, 1.68 rad off, where the pulse it
        # started from was 27.9 off.
        doc = stock_doc()
        doc["params"].update(g_mhz=40.0, omega2_mhz=40.0)
        doc["pulse2"] = {"mode": "solve", "free": "center", "tol": 1e-6}
        config = parse_config(doc)
        link = build_link(config)
        solve, modes = link.control, link.sender.modes
        assert solve.converged is False
        assert solve.pulse.duration == 0.02e-6
        assert max(abs(solve.eta_residual), abs(solve.zeta_residual)) == pytest.approx(1.68359, abs=1e-5)
        assert _summed_residuals(solve, modes.phi1, modes.phi2, link.sender.grid, config.params) == (
            solve.eta_residual, solve.zeta_residual
        )

    def test_center_mode_stays_in_center_range(self):
        # Check 08's physics with a centre range around its solution at
        # -0.1298 us: every pulse the solve evaluates lies in the range, and
        # the clamped seed converges to the solution.
        doc = stock_doc()
        doc["params"]["g_mhz"] = 15.0
        doc["pulse2"] = {"mode": "solve", "free": "center", "tol": 1e-6,
                         "center_range_us": [-0.135, -0.125]}
        config = parse_config(doc)
        sender = build_sender(config)
        centers = []

        class Times(np.ndarray):
            # The grid's times, recording each centre an evaluation subtracts.
            def __sub__(self, center):
                centers.append(center)
                return np.asarray(self) - center

        grid = TimeGrid(*sender.grid)
        grid.values = grid.values.view(Times)
        solve = solve_pulse_shape(
            sender.modes.phi1, sender.modes.phi2, grid, config.params, tol=1e-6,
            # The brackets as the pipeline converts them from microseconds.
            duration_bracket=(0.02 * 1e-6, 20.0 * 1e-6), center_bracket=(-0.135 * 1e-6, -0.125 * 1e-6),
        )
        assert solve.converged
        assert len(centers) == solve.iterations
        assert all(-0.135e-6 <= c <= -0.125e-6 for c in centers)
        assert solve.pulse.center == pytest.approx(-0.129833e-6, rel=1e-5)
        link = build_link(config)
        assert link.control.converged
        assert link.control.pulse == solve.pulse

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"mode": "duration_amplitude", "center": 0.5 * T1, "duration_bracket": (2e-8, 5e-7)},
                "no sign change on bracket [2e-08, 5e-07]: f(a)=0.0282341, f(b)=0.140946",
            ),
            # zeta(inf) - pi stays below 0 over the duration bracket, so the
            # seed's duration root fails after evaluating the bracket's ends.
            ({"mode": "duration_center"}, None),
            (
                {"mode": "duration_amplitude", "center": -10 * T1},
                "control pulse does not overlap the photon modes",
            ),
        ],
        ids=["imbalance-bracket", "zeta-bracket", "no-overlap"],
    )
    def test_unreachable_messages(self, modes, grid, stock_params, kwargs, message):
        # A fixed center with no pulse to return raises, and the pipeline names
        # the keys; a free center returns the best pulse it evaluated: the
        # bracket's long end at the centroid, (-0.0453, -0.1247), not the
        # pulse it started from, the bracket's geometric mean (-0.263, -0.323).
        _, phi1, phi2 = modes
        if message is None:
            best = solve_pulse_shape(phi1, phi2, grid, stock_params, **kwargs)
            assert best.converged is False
            assert best.pulse.duration == 20e-6
            assert best.eta_residual == pytest.approx(-0.045290, abs=1e-6)
            assert best.zeta_residual == pytest.approx(-0.124731, abs=1e-6)
            assert _summed_residuals(best, phi1, phi2, grid, stock_params) == (
                best.eta_residual, best.zeta_residual
            )
            # The bracket's two ends, the start, and one Newton step inside the brackets.
            assert best.iterations == 4
            return
        with pytest.raises(BracketError) as info:
            solve_pulse_shape(phi1, phi2, grid, stock_params, **kwargs)
        assert str(info.value) == message

    def test_bad_center_raises(self, modes, grid, stock_params):
        _, phi1, phi2 = modes
        with pytest.raises(BracketError):
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
        half = math.sqrt(0.5)
        traj = ReceiverTrajectory(
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
        traj = gamma_analytic(eta.samples, zeta.samples, qubit_state)
        emitted = emission_modes(theta, pulse1, stock_derived.alpha1)
        flux = photon_fluxes(theta, emitted, qubit_state)
        n_out = mean_photon_number(theta.samples, qubit_state)
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
        traj = gamma_analytic(eta.samples, zeta.samples, qubit_state)
        emitted = emission_modes(theta, pulse1, stock_derived.alpha1)
        flux = photon_fluxes(theta, emitted, qubit_state)
        n_out = mean_photon_number(theta.samples, qubit_state)
        residual = conservation_check(traj, n_out, flux, stock_params.k)
        deficit = 1.7 - n_out[-1]
        assert residual[-1] == pytest.approx(deficit, abs=1e-9)


class TestFinalState:
    def test_solved_transfer_is_faithful(self, modes, grid, stock_params, solved, qubit_state):
        _, phi1, phi2 = modes
        g2c = stock_params.g * solved.omega2 / abs(stock_params.delta)
        eta, zeta = pulse_areas(solved.pulse, phi1, phi2, g2c, stock_params.k, grid)
        out = final_state(gamma_analytic(eta.final, zeta.final, qubit_state), qubit_state)
        assert out.fidelity >= 0.999
        assert out.leakage <= 1e-9

    def test_qutrit_transfer(self, modes, grid, stock_params, solved, qutrit_state):
        _, phi1, phi2 = modes
        g2c = stock_params.g * solved.omega2 / abs(stock_params.delta)
        eta, zeta = pulse_areas(solved.pulse, phi1, phi2, g2c, stock_params.k, grid)
        out = final_state(gamma_analytic(eta.final, zeta.final, qutrit_state), qutrit_state)
        assert out.fidelity >= 0.999

    def test_incomplete_transfer_flagged(self, qubit_state):
        out = final_state(gamma_analytic(math.pi / 2, math.pi / 2, qubit_state), qubit_state)
        assert out.fidelity < 1.0
        assert out.leakage > LEAKAGE_WARN_THRESHOLD  # the report flags it

    @pytest.mark.parametrize(
        "pulse2, flagged", [(None, False), ({"mode": "explicit", "T2_us": 0.3, "center_us": 0.15}, True)]
    )
    def test_report_flags_leakage_above_the_threshold(self, pulse2, flagged):
        doc = stock_doc()
        doc["grid"] = {"span_in_T1": 12.0, "points": 1201}
        if pulse2 is not None:
            doc["pulse2"] = pulse2
        body = report_document(run_transfer(parse_config(doc)))
        assert bool(body["diagnostics"]["leakage"] > LEAKAGE_WARN_THRESHOLD) is flagged
        assert body["leakage_warning"] is flagged

    def test_explicit_pulse_reads_the_areas_it_is_judged_by(self, tmp_path):
        # The readout takes eta(inf) and zeta(inf) as pi plus the reported
        # residuals, the sums the pulse is judged by, not the cumulative
        # areas' last samples; at this pulse the two readouts differ.
        doc = stock_doc()
        doc["pulse2"] = {"mode": "explicit", "T2_us": 0.3, "center_us": 0.15}
        config = parse_config(doc)
        result = run_transfer(config)
        body = json.loads(write_report_json(result, tmp_path / "report.json").read_text())
        c, phi2 = config.initial_state, config.params.phi2
        diag = body["diagnostics"]
        areas = math.pi + diag["eta_residual"], math.pi + diag["zeta_residual"]
        expected = final_state(gamma_analytic(*areas, c, phi2), c)
        assert body["fidelity"] == expected.fidelity
        assert body["state_out"] == {
            key: [complex(z).real, complex(z).imag] for key, z in zip(("c_m1", "c_0", "c_p1"), expected.state)
        }
        cumulative = final_state(gamma_analytic(result.receiver.eta[-1], result.receiver.zeta[-1], c, phi2), c)
        assert cumulative.fidelity != expected.fidelity

    @given(chi=st.floats(0.0, 2.0 * math.pi))
    @settings(deadline=None, max_examples=15)
    def test_fidelity_ignores_global_phase(self, chi):
        grid = TimeGrid(0.0, 1.0, 51)
        eta = _ramp(grid, 2.3)
        zeta = _ramp(grid, 2.8)
        base = SuperpositionState(math.sqrt(0.6), math.sqrt(0.4))
        phase = complex(math.cos(chi), math.sin(chi))
        rotated = SuperpositionState(phase * base.c_m1, phase * base.c_0)
        f_base = final_state(gamma_analytic(eta[-1], zeta[-1], base), base).fidelity
        f_rot = final_state(gamma_analytic(eta[-1], zeta[-1], rotated), rotated).fidelity
        assert f_rot == pytest.approx(f_base, abs=1e-12)


@given(eta_f=st.floats(0.0, 2.0 * math.pi), zeta_f=st.floats(0.0, 2.0 * math.pi))
@settings(deadline=None, max_examples=25)
def test_unitarity_for_any_areas(eta_f, zeta_f):
    grid = TimeGrid(0.0, 1.0, 64)
    state = SuperpositionState(math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))
    traj = gamma_analytic(_ramp(grid, eta_f), _ramp(grid, zeta_f), state)
    total = traj.rho_m1 + traj.rho_0 + traj.rho_p1
    assert np.max(np.abs(total - 1.0)) <= 1e-12


@pytest.mark.parametrize("phi2", [math.pi / 2, 0.7])
def test_column_entries_read_as_their_states_alone(phi2):
    # At the grid end a sweep reads a column of states through the closed
    # forms a transfer reads one state through: each entry gets the floats
    # of its state read alone (squares as products, moduli as hypot, the
    # phases through numpy's array product).
    theta, eta, zeta = 6.4147, 3.1, 3.2
    states = random_states(1000, seed=5)
    column = SuperpositionState(*map(np.array, zip(*states)))

    def readout(c):
        final = final_state(gamma_analytic(eta, zeta, c, phi2), c)
        return (*photon_distribution(amplitudes_beta(theta, c)), mean_photon_number(theta, c),
                final.fidelity, final.leakage, *final.state)

    columns = readout(column)
    for i, state in enumerate(states):
        assert [entry[i] for entry in columns] == list(readout(state))


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
