"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each check prints one PASS/FAIL line so the suite doubles as a readable
verification report (run with ``pytest tests/test_acceptance.py -v -s``).

One check fails by design for the stock parameter set and is kept
faithful rather than loosened; the physics is documented inline and in
the README:

* pointwise photon bookkeeping (09b): the adiabatically eliminated
  receiving cavity leaves a photon number F/k of order 4 (G1/k)^2 out of
  the balance, so the residual peaks at 0.139 mid-transfer (the stock
  k/G1 = 2.5 fails the model's own cavity_decay_vs_raman_coupling
  check), and late in the transfer the receiver holds up to 1.05e-2 more
  excitations than the finite-energy emission ever supplied.

The equal-amplitude pulse solve (08) runs with the Raman coupling raised
by 25 percent (g 12 -> 15 MHz), where the README places its solution:
for the stock parameters both absorption areas have flat-pulse ceilings
below pi, and tests/test_receiver.py requires the solver to report that.
"""

import math

import numpy as np
import pytest

from pnsslink.channel import attenuation_length
from pnsslink.cli import main
from pnsslink.config import parse_config
from pnsslink.core import SuperpositionState, derive
from pnsslink.photonics import emission_modes, mean_photon_number, photon_fluxes, photon_observables
from pnsslink.pipeline import run_transfer, write_photonics_csv
from pnsslink.receiver import ReceiverTrajectory, final_state, gamma_analytic, pulse_areas
from pnsslink.sender import amplitudes_beta, atomic_moments

from conftest import CONFIGS, load_csv, random_states, stock_doc
from oracles import (
    MOMENTS,
    initial_amplitudes,
    initial_moments,
    simulate_receiver_ode,
    simulate_sender_ode,
)


def check(label: str, ok: bool, detail: str) -> None:
    print(f"[{label}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def qubit_outcome():
    return run_transfer(parse_config(stock_doc()))


@pytest.fixture(scope="module")
def qutrit_outcome():
    return run_transfer(parse_config(stock_doc(qutrit=True)))


@pytest.fixture(scope="module")
def sender_ode_qubit(qubit_outcome):
    send = qubit_outcome.send
    sender = send.sender
    return simulate_sender_ode(
        sender.pulse1, sender.derived.alpha1, send.config.initial_state, sender.grid
    )


def test_01_population_conservation(qubit_outcome, sender_ode_qubit):
    send = qubit_outcome.send
    traj = atomic_moments(send.sender.theta.samples, send.config.initial_state)
    analytic_dev = float(np.max(np.abs(traj.sigma_m1 + traj.sigma_0 + traj.sigma_p1 - 1.0)))
    ode = sender_ode_qubit
    ode_dev = float(np.max(np.abs(ode["sigma_m1"] + ode["sigma_0"] + ode["sigma_p1"] - 1.0)))
    check(
        "01 population conservation",
        analytic_dev <= 1e-10 and ode_dev <= 1e-6,
        f"closed-form dev {analytic_dev:.2e} (tol 1e-10), ode dev {ode_dev:.2e} (tol 1e-6)",
    )


def test_02_sender_oracle_equivalence(qubit_outcome, sender_ode_qubit):
    send = qubit_outcome.send
    sender = send.sender
    theta = sender.theta.samples

    def closed_form_dev(ode_traj, state):
        ana = atomic_moments(theta, state)
        return max(float(np.max(np.abs(ode_traj[f] - getattr(ana, f)))) for f in MOMENTS)

    worst = closed_form_dev(sender_ode_qubit, send.config.initial_state)

    states = random_states(20, seed=20240817)
    batch = np.stack([initial_moments(s) for s in states])
    traj = simulate_sender_ode(sender.pulse1, sender.derived.alpha1, batch, sender.grid)
    for i, state in enumerate(states):
        ana = atomic_moments(theta, state)
        stacked = np.stack(
            [
                ana.sigma_m1.astype(complex),
                ana.sigma_0.astype(complex),
                ana.sigma_p1.astype(complex),
                ana.coh_m1_0,
                ana.coh_0_p1,
                ana.coh_m1_p1,
            ],
            axis=1,
        )
        worst = max(worst, float(np.max(np.abs(traj[:, i, :] - stacked))))
    check(
        "02 sender oracle equivalence",
        worst <= 1e-6,
        f"max |ode - closed form| {worst:.2e} over stock scenario + 20 random states (tol 1e-6)",
    )


def test_03_photon_distribution_endpoints(qubit_outcome, tmp_path):
    path = write_photonics_csv(qubit_outcome.send, tmp_path / "photonics.csv")
    rows = load_csv(path)
    theta_inf = qubit_outcome.link.sender.theta.final
    e = math.exp(-theta_inf)
    p2_formula = 0.7 * (1.0 - (1.0 + theta_inf) * e)
    p1_formula = 0.3 * (1.0 - e) + 0.7 * theta_inf * e
    dev2 = abs(rows["P2"][-1] - p2_formula)
    dev1 = abs(rows["P1"][-1] - p1_formula)
    asym2 = abs(rows["P2"][-1] - 0.7)
    asym1 = abs(rows["P1"][-1] - 0.3)
    check(
        "03 photon distribution endpoints",
        dev2 <= 1e-8 and dev1 <= 1e-8 and asym2 <= 0.015 and asym1 <= 0.015,
        f"CSV vs formulas: dP2 {dev2:.2e}, dP1 {dev1:.2e} (tol 1e-8); "
        f"vs asymptotes: {asym2:.3f}/{asym1:.3f} (tol 0.015)",
    )


def test_04_photon_number_identity(qubit_outcome, qutrit_outcome):
    worst = 0.0
    for outcome in (qubit_outcome, qutrit_outcome):
        obs = outcome.send.observables
        worst = max(worst, float(np.max(np.abs(obs.n_out - obs.p1 - 2.0 * obs.p2))))
    check(
        "04 photon number identity",
        worst <= 1e-8,
        f"max |n_out - P1 - 2 P2| {worst:.2e} (tol 1e-8)",
    )


def test_05_antibunching(qubit_outcome):
    obs = qubit_outcome.send.observables
    peak = float(np.max(obs.g2))
    send = qubit_outcome.send
    sender = send.sender
    single = SuperpositionState(0.0, 1.0)
    single_traj = amplitudes_beta(sender.theta.samples, single)
    single_modes = emission_modes(sender.theta, sender.pulse1, sender.derived.alpha1)
    single_obs = photon_observables(single_modes, single, single_traj,
                                    mean_photon_number(sender.theta.samples, single),
                                    photon_fluxes(sender.theta, single_modes, single))
    all_zero = bool(np.all(single_obs.g2 == 0.0))
    check(
        "05 antibunching",
        peak <= 1.0 + 1e-9 and all_zero,
        f"max g2 {peak:.12f} (tol 1+1e-9); one-photon input g2 identically zero: {all_zero}",
    )


def test_06_receiver_unitarity_blocks(qubit_outcome):
    send = qubit_outcome.send
    sender = send.sender
    params = send.config.params
    g2c = params.g * qubit_outcome.omega2 / abs(params.delta)
    modes = sender.modes
    eta, zeta = pulse_areas(
        qubit_outcome.pulse2, modes.phi1, modes.phi2, g2c, params.k, sender.grid
    )
    states = random_states(20, seed=777)
    worst_analytic = 0.0
    for state in states:
        traj = gamma_analytic(eta.samples, zeta.samples, state)
        two = np.abs(traj.g_0_0) ** 2 + np.abs(traj.g_1_1) ** 2 - abs(state.c_0) ** 2
        three = (
            np.abs(traj.g_1_2) ** 2
            + np.abs(traj.g_0_1) ** 2
            + np.abs(traj.g_m1_0) ** 2
            - abs(state.c_m1) ** 2
        )
        worst_analytic = max(worst_analytic, float(np.max(np.abs(two))), float(np.max(np.abs(three))))

    batch = np.stack([initial_amplitudes(s) for s in states])
    traj_ode = simulate_receiver_ode(
        qubit_outcome.pulse2, modes.phi1, modes.phi2, g2c, params.k, math.pi / 2, batch, sender.grid
    )
    worst_ode = 0.0
    for i, state in enumerate(states):
        amp = traj_ode[:, i, :]
        two = np.abs(amp[:, 0]) ** 2 + np.abs(amp[:, 1]) ** 2 - abs(state.c_0) ** 2
        three = (
            np.abs(amp[:, 2]) ** 2
            + np.abs(amp[:, 3]) ** 2
            + np.abs(amp[:, 4]) ** 2
            - abs(state.c_m1) ** 2
        )
        worst_ode = max(worst_ode, float(np.max(np.abs(two))), float(np.max(np.abs(three))))
    check(
        "06 receiver unitarity blocks",
        worst_analytic <= 1e-9 and worst_ode <= 1e-9,
        f"block-norm dev: closed form {worst_analytic:.2e}, ode {worst_ode:.2e} "
        "(tol 1e-9, 20 random states)",
    )


def test_07_receiver_oracle_equivalence(qubit_outcome):
    send = qubit_outcome.send
    sender = send.sender
    params = send.config.params
    g2c = params.g * qubit_outcome.omega2 / abs(params.delta)
    modes = sender.modes
    state = send.config.initial_state
    ode = simulate_receiver_ode(
        qubit_outcome.pulse2, modes.phi1, modes.phi2, g2c, params.k, math.pi / 2, state, sender.grid
    )
    eta, zeta = pulse_areas(
        qubit_outcome.pulse2, modes.phi1, modes.phi2, g2c, params.k, sender.grid
    )
    ana = gamma_analytic(eta.samples, zeta.samples, state)
    worst = max(
        float(np.max(np.abs(getattr(ode, f) - getattr(ana, f))))
        for f in ("g_0_0", "g_1_1", "g_m1_0", "g_0_1", "g_1_2")
    )
    check(
        "07 receiver oracle equivalence",
        worst <= 1e-9,
        f"max |ode - closed form| {worst:.2e} (tol 1e-9)",
    )


def test_08_pulse_solve_with_equal_amplitudes():
    # Shipped guarantee: a gaussian receiving control with the sender's
    # own peak amplitude (omega2 == omega1), free duration and free
    # center ("free": "center"), meets both pi-area conditions at 1e-6
    # and stores the input state.  With the stock parameters no such
    # pulse exists (both flat-pulse area ceilings are below pi, and
    # test_receiver.py::test_equal_amplitudes_not_reachable_here requires
    # the solver to say so), so the check runs where the README puts the
    # solution: the Raman coupling raised by 25 percent (g 12 -> 15 MHz).
    # Either root of the eta = zeta condition is a correct answer, so the
    # duration is not pinned.  The areas are the ones run_transfer
    # integrates with pulse_areas, and the stored state comes from the
    # order-4 ODE oracle, not from the solver's residuals.  Both areas
    # within tol of pi bound the weight left in the field by
    # 0.3 (tol/2)^2 + 0.7 tol^2 / 2 < tol^2.
    tol = 1e-6
    doc = stock_doc()
    doc["params"]["g_mhz"] = 1.25 * doc["params"]["g_mhz"]
    doc["pulse2"]["free"] = "center"
    doc["pulse2"]["tol"] = tol
    outcome = run_transfer(parse_config(doc))
    send = outcome.send
    sender = send.sender
    params = send.config.params
    modes = sender.modes
    state = send.config.initial_state
    eta_err = abs(outcome.receiver.eta[-1] - math.pi)
    zeta_err = abs(outcome.receiver.zeta[-1] - math.pi)
    g2c = params.g * outcome.omega2 / abs(params.delta)
    ode = simulate_receiver_ode(
        outcome.pulse2, modes.phi1, modes.phi2, g2c, params.k, math.pi / 2, state, sender.grid
    )
    stored = final_state(ReceiverTrajectory._make(field[-1] for field in ode), state)
    ok = (
        outcome.link.control.converged
        and outcome.omega2 == params.omega1
        and eta_err <= tol
        and zeta_err <= tol
        and stored.fidelity >= 0.999
        and stored.leakage <= tol * tol
    )
    check(
        "08 equal-amplitude pulse solve",
        ok,
        f"g {params.g / (2e6 * math.pi):.1f} MHz, omega2 == omega1: "
        f"{outcome.omega2 == params.omega1}, converged {outcome.link.control.converged}, "
        f"T2 {outcome.pulse2.duration * 1e6:.3f} us, center "
        f"{outcome.pulse2.center * 1e6:.3f} us, |eta-pi| {eta_err:.1e}, "
        f"|zeta-pi| {zeta_err:.1e} (tol {tol:g}); ODE oracle: fidelity "
        f"{stored.fidelity:.9f} (tol 0.999), leakage {stored.leakage:.1e} "
        f"(tol {tol * tol:g})",
    )


def test_09a_end_to_end_fidelity(qubit_outcome, qutrit_outcome):
    f_qubit = qubit_outcome.report.final.fidelity
    f_qutrit = qutrit_outcome.report.final.fidelity
    check(
        "09a end-to-end fidelity",
        f_qubit >= 0.999 and f_qutrit >= 0.999,
        f"qubit {f_qubit:.6f}, qutrit {f_qutrit:.6f} (tol 0.999)",
    )


def test_09b_conservation_law_residual(qubit_outcome):
    # Faithful statement: the photon bookkeeping residual
    # rho_0 + 2 rho_-1 - n_out + F/k stays below 1e-3 at every grid
    # point.  The effective model misses this in two ways.  The cavity
    # term: at the 0.139 peak (t = -0.151 us) absorbed is 1.015, emitted
    # 1.099 and F/k 0.223, so the peak is the second-cavity photon number
    # that adiabatic elimination bounds only by ~4 (G1/k)^2; the stock
    # k/G1 = 2.5 fails the model's own cavity_decay_vs_raman_coupling
    # check (minimum 5), and late absorption would lower the residual,
    # not raise it.  The emission deficit: late in the transfer the atom
    # holds up to 1.05e-2 more excitations than were emitted, ending at
    # 1.7 - n_out(inf) = 1.014e-2, weight stored but never emitted by the
    # finite exposure theta(inf) = 6.41.
    worst = float(np.max(np.abs(qubit_outcome.residual)))
    terminal = float(qubit_outcome.residual[-1])
    check(
        "09b conservation-law residual",
        worst <= 1e-3,
        f"max |residual| {worst:.3e} (tol 1e-3), terminal {terminal:.3e}",
    )


def test_10_channel_budget(qubit_outcome):
    l_att = attenuation_length(2.0)
    eta1, eta2 = (math.exp(-j * 0.06 / l_att) for j in (1, 2))
    reported = qubit_outcome.report.transmission
    weighted = qubit_outcome.report.weighted_success
    ok = (
        abs(l_att - 2.171) <= 1e-3
        and reported == (eta1, eta1 * eta1)
        and abs(reported[1] - eta2) <= 1e-15
        and abs(weighted - 0.954) <= 1e-3
    )
    check(
        "10 channel budget",
        ok,
        f"L_att {l_att:.4f} km, 60 m eta (exp(-L0/L_att), its exact square) {reported}, "
        f"exp(-2 L0/L_att) {eta2!r}, weighted success {weighted:.4f} (target 0.954 +- 0.001)",
    )


def test_11_signal_to_noise(qubit_outcome):
    r_sn = qubit_outcome.link.sender.derived.r_sn
    check("11 signal-to-noise ratio", abs(r_sn - 32.7) <= 0.1, f"r_sn {r_sn:.4f} (32.7 +- 0.1)")


def test_12_determinism(tmp_path):
    config_path = CONFIGS / "qubit.json"
    assert main(["transfer", "--config", str(config_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["transfer", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
    names = ("sender.csv", "photonics.csv", "receiver.csv", "report.json")
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes() for n in names
    )
    check("12 determinism", identical, "consecutive runs byte-identical: " + str(identical))
