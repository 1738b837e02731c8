"""Scenario execution: send, transfer and sweep runs plus their outputs.

A transfer runs in two stages.  The link stage (``build_link``) holds
everything that depends only on the physics: derived rates, regime
checks, the grid, the sending pulse, its exposure theta(t), the two
photon mode functions and their overlap, the receiving control pulse
(solved or explicit) and its areas eta(t), zeta(t).  The pi-area
conditions involve only the mode functions, so one solved link serves
every input state and every fiber channel.  The per-state stage
(``summarize``) reads input states at the link's end values, through its
diagonal end map (``Link.stored``): one state for a transfer's report, a
column of them for a sweep.  ``run_transfer`` adds one state's absorption
amplitudes and bookkeeping residual on the grid.  Each value has one
home: a link's in ``Link`` or ``SenderLink``, a state's in ``Summary``.
``SendResult`` builds the sender's emission amplitudes and photon
statistics only when a CSV writer reads them.  ``run_send`` never solves
a pulse.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import channel as channel_mod
from .channel import ChannelModel
from .config import ConfigError, ScenarioConfig, axis_sampler
from .core import DerivedQuantities, RegimeReport, derive, rad_per_s, to_mhz, validate_regime
from .csvio import write_csv
from .numerics import BracketError, SampledFunction, TimeGrid
from .photonics import (
    EmissionModes,
    PhotonObservables,
    emission_modes,
    mean_photon_number,
    mode_overlap,
    photon_fluxes,
    photon_observables,
)
from .receiver import (
    LEAKAGE_WARN_THRESHOLD,
    FinalAreas,
    FinalState,
    PulseSolveResult,
    ReceiverTrajectory,
    conservation_check,
    final_state,
    gamma_analytic,
    phase_factors,
    pulse_areas,
    solve_pulse_shape,
)
from .sender import PulseShape, SenderTrajectory, amplitudes_beta, pump_exposure

US = 1e-6


class RegimeFailure(Exception):
    """A strict run's sender fails a regime check; raised before any pulse solve."""

    def __init__(self, regime: RegimeReport):
        super().__init__("regime check failed")
        self.regime = regime


class SenderLink(namedtuple("SenderLink", "derived regime grid pulse1 theta modes overlap")):
    """The sending node's half of a link: no input state enters."""

    __slots__ = ()


class Link(namedtuple("Link", "sender pulse2 omega2 solve eta zeta eta_residual zeta_residual "
                              "converged")):
    """A sender half plus the receiving control pulse and its areas.

    ``solve`` is the :class:`PulseSolveResult`, None for an explicit
    pulse.  ``eta_residual`` and ``zeta_residual`` are eta(inf) - pi and
    zeta(inf) - pi as ``FinalAreas`` sums them (not the areas' last
    samples).  ``converged`` says both residuals are within
    ``pulse2.tol``; it is None for an explicit pulse.
    """

    __slots__ = ()

    @property
    def ends(self) -> tuple[float, float, float]:
        """theta, eta and zeta at the grid end: all that reading out a state takes."""
        return self.sender.theta.samples[-1], self.eta.samples[-1], self.zeta.samples[-1]

    def stored(self, c: np.ndarray, phi2) -> np.ndarray:
        """D(phi2) c = diag(u**2 (1 - cos zeta)/2, u sin(eta/2), 1) c at the grid end.

        ``c`` holds c_m1, c_0, c_p1 in its last axis, ``phi2`` is a phase or
        a column.  As in ``gamma_analytic``, whose last sample this is, the
        real factors multiply c before the phases u = exp(i(pi/2 - phi2)).
        """
        _, eta, zeta = self.ends
        u, u2 = phase_factors(phi2)
        phases = np.empty(np.shape(u) + (3,), dtype=complex)
        phases[..., 0], phases[..., 1], phases[..., 2] = u2, u, 1.0
        return c * np.array([0.5 * (1.0 - np.cos(zeta)), np.sin(0.5 * eta), 1.0]) * phases


class SendResult(namedtuple("SendResult", "config sender")):
    """``config``'s input state sent over ``sender``; figure arrays are built on first read.

    No ``__slots__``: each ``cached_property`` keeps its value in the instance dict.
    """

    @cached_property
    def emission(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """n_out and the photon fluxes on the grid: a transfer's residual reads them too."""
        c = self.config.initial_state
        theta = self.sender.theta
        return mean_photon_number(theta, c), photon_fluxes(theta, self.sender.modes, c)

    @cached_property
    def trajectory(self) -> SenderTrajectory:
        return amplitudes_beta(self.sender.theta, self.config.initial_state)

    @cached_property
    def observables(self) -> PhotonObservables:
        c, sender = self.config.initial_state, self.sender
        return photon_observables(sender.theta, sender.modes, c, self.trajectory, *self.emission)


class Summary(namedtuple("Summary", "final transmission n_out_final success_one_photon "
                                    "success_two_photon weighted_success phase_drift_rad "
                                    "conservation_residual_max", defaults=(None,))):
    """End values of input states sent over one link, as ``summarize`` reads them.

    A field holds a scalar for one state (a transfer's report) or a column
    for a sweep's samples; ``transmission`` is the pair (eta_1, eta_2).
    ``conservation_residual_max`` is taken over the full grid, so only a
    transfer has it (None otherwise).  The link's values are in ``Link``.
    """

    __slots__ = ()


class TransferResult(namedtuple("TransferResult", "send link receiver residual report")):
    """One transfer of the input state.

    ``residual`` is the bookkeeping residual on the grid, and ``report``
    the state's :class:`Summary` with the full-grid residual maximum.
    """

    __slots__ = ()

    # perfbench/make_reference.py reads these two.
    pulse2 = property(lambda self: self.link.pulse2)
    omega2 = property(lambda self: self.link.omega2)


def build_grid(config: ScenarioConfig) -> TimeGrid:
    """Uniform grid spanning the sending pulse, in seconds.

    The span covers +-(span_in_T1/2) pulse durations around the pulse
    center; at the default 12 durations the gaussian tails are below
    1e-15, which stands in for the infinite integration limits.  A span
    that overflows is a ``ConfigError``, and so is a span of more than
    2**512 pulse durations (((t - center)/T1)**2 can overflow) and a center
    (either pulse's, or an end of ``pulse2.center_range_us``) that leaves
    the step below 2**26 units in the last place of the larger of it and
    the grid's largest time: beyond it the rounded samples move the solved
    T2 by more than the default grid's own error.
    """
    t1 = config.pulse1.t1_us * US
    center = config.pulse1.center_us * US
    span = config.grid.span_in_t1 * t1
    if not math.isfinite(span):
        raise ConfigError(
            f"the grid's span of pulse1.T1_us {config.pulse1.t1_us:g} times grid.span_in_T1 "
            f"{config.grid.span_in_t1:g} overflows: lower one of them"
        )
    if config.grid.span_in_t1 > 2.0**512:
        raise ConfigError(
            f"grid.span_in_T1 {config.grid.span_in_t1:g} is too wide for float64 to carry the "
            f"sending pulse over the grid: lower it below {2.0**512:.3g}"
        )
    half = 0.5 * span
    n = config.grid.n_points()
    dt = 2.0 * half / (n - 1)
    p2 = config.pulse2
    centers = [("pulse1.center_us", config.pulse1.center_us), ("pulse2.center_us", p2.center_us),
               *(("pulse2.center_range_us", c) for c in p2.center_range_us or ())]
    for key, center_us in centers:
        if center_us is not None and math.ulp(max(abs(center_us * US), abs(center) + half)) > dt * 2.0**-26:
            raise ConfigError(
                f"{key} {center_us:g} is too far from 0 for float64 to resolve the {n}-point "
                f"grid's step of {dt / US:.3g} us: move both pulses' centers nearer 0, or widen "
                "the step (pulse1.T1_us, grid.span_in_T1, grid.points)"
            )
    return TimeGrid(center - half, center + half, n)


_LOG_MAX = math.log(sys.float_info.max)
# The params keys of each DerivedQuantities rate.
_RATE_KEYS = {
    "G1": ("g_mhz", "omega1_mhz", "delta_mhz"),
    "alpha1": ("g_mhz", "omega1_mhz", "delta_mhz", "k_mhz"),
    "r_sn": ("g_mhz", "k_mhz", "gamma_sp_mhz"),
    "omega_rec": ("wavelength_nm", "atom_mass_kg"),
}


def _overflow(what: str, rates: list[str], *keys: str) -> ConfigError:
    """The error for ``what`` overflowing, naming the params keys of ``rates``, then ``keys``."""
    names = dict.fromkeys([*(f"params.{key}" for rate in rates for key in _RATE_KEYS[rate]), *keys])
    return ConfigError(f"{what} overflow: check {', '.join(names)}")


def build_sender(config: ScenarioConfig) -> SenderLink:
    """Regime checks, grid, exposure and photon modes of the sending node.

    With ``config.strict``, a failed regime check raises ``RegimeFailure``.
    A ``ConfigError`` is raised, before any output exists, for a derived
    rate, exposure or photon mode that overflows, for a sending pulse that
    emits no photon in floating point (exp(-theta) stays 1), for a grid so
    much coarser than the pulse that the exposure dips too far below 0 for
    alpha1 (1 + |theta|) exp(-theta) to stay finite, and for a pulse that
    emits within one grid step (a photon mode vanishes on the grid), then
    for a receiving pulse duration (``pulse2.T2_us``,
    ``pulse2.T2_range_us``) so short that ((t - center)/T2)**2 can overflow
    on the grid.
    """
    params = config.params
    derived = derive(params)
    overflow = [name for name, value in derived._asdict().items() if not math.isfinite(value)]
    if overflow:
        raise _overflow(f"derived rates {', '.join(overflow)}", overflow)
    # The regime report divides the Raman coupling by the recoil frequency.
    if not (derived.omega_rec >= sys.float_info.min and math.isfinite(derived.G1 / derived.omega_rec)):
        raise ConfigError(
            f"the recoil frequency {derived.omega_rec:.3g} rad/s is too small for float64 to "
            "compare with the Raman coupling: check params.atom_mass_kg, params.wavelength_nm"
        )
    t1 = config.pulse1.t1_us * US
    regime = validate_regime(params, derived, t1, min_ratio=config.regime_min_ratio)
    if config.strict and not regime.passed:
        raise RegimeFailure(regime)
    grid = build_grid(config)
    pulse1 = PulseShape(kind="gaussian", duration=t1, center=config.pulse1.center_us * US)
    try:
        theta = pump_exposure(pulse1, derived.alpha1, grid)
    except OverflowError as exc:
        raise _overflow("the sending pulse's exposure", ["alpha1"], "pulse1.T1_us") from exc
    if np.exp(-theta.final) == 1.0:
        raise ConfigError(
            f"the sending pulse emits no photon (exposure {theta.final:.3g}): "
            "raise params.omega1_mhz or pulse1.T1_us"
        )
    if not math.isfinite(derived.alpha1 * float(theta.final)):  # bounds alpha1 * f1 * theta
        raise _overflow(f"the photon modes (exposure {theta.final:.3g})", ["alpha1"], "pulse1.T1_us")
    # The fourth-order rule dips below 0 before a sample it cannot resolve;
    # (1 + |theta|) exp(-theta) peaks at the lowest dip.
    low = float(theta.samples.min())
    if math.log((1.0 + derived.alpha1) * (1.0 - low)) - low > _LOG_MAX:
        raise ConfigError(
            f"the {grid.n_points}-point grid's step of {grid.dt / US:.3g} us is too coarse for the "
            f"sending pulse (its exposure dips to {low:.3g}): raise grid.points or lower "
            "grid.span_in_T1"
        )
    modes = emission_modes(theta, pulse1, derived.alpha1)
    try:
        overlap = mode_overlap(modes.phi1, modes.phi2, grid)
    except ValueError as exc:  # a mode with no weight on the grid
        raise ConfigError(
            f"the sending pulse emits within one step of the {grid.n_points}-point grid "
            f"(exposure {theta.final:.3g}): lower pulse1.T1_us or params.omega1_mhz, "
            "or raise grid.points"
        ) from exc
    p2 = config.pulse2
    centers = [abs(c) * US for c in (p2.center_us, *(p2.center_range_us or ())) if c is not None]
    far = 2.0 * max(-grid.t_start, grid.t_end, *centers) / US
    for key, t2_us in (("pulse2.T2_us", p2.t2_us), ("pulse2.T2_range_us", p2.t2_range_us[0])):
        if t2_us is not None and far / t2_us > 2.0**511:
            raise ConfigError(
                f"{key} {t2_us:g} is too short for float64 to carry the receiving pulse over "
                f"the grid: raise it above {far * 2.0**-511:.3g} us"
            )
    return SenderLink(derived, regime, grid, pulse1, theta, modes, overlap)


def run_send(config: ScenarioConfig) -> SendResult:
    """Emit the photon state: regime checks, atomic dynamics, observables."""
    return SendResult(config, build_sender(config))


def _resolve_pulse2(
    config: ScenarioConfig, sender: SenderLink
) -> tuple[PulseShape, float, Optional[PulseSolveResult]]:
    p2 = config.pulse2
    if p2.mode == "explicit":
        omega2 = config.params.omega2 if p2.omega2_mhz is None else rad_per_s(p2.omega2_mhz)
        center = (p2.center_us if p2.center_us is not None else 0.0) * US
        pulse = PulseShape(kind="gaussian", duration=p2.t2_us * US, center=center)
        return pulse, omega2, None
    center_bracket = None if p2.center_range_us is None else tuple(c * US for c in p2.center_range_us)
    try:
        solve = solve_pulse_shape(
            sender.modes.phi1,
            sender.modes.phi2,
            sender.grid,
            config.params,
            mode="duration_amplitude" if p2.free == "amplitude" else "duration_center",
            center=(p2.center_us * US if p2.center_us is not None else None),
            tol=p2.tol,
            duration_bracket=(p2.t2_range_us[0] * US, p2.t2_range_us[1] * US),
            center_bracket=center_bracket,
            max_iterations=p2.max_iterations,
        )
    except BracketError as exc:  # a fixed center with no pulse to return
        raise ConfigError(
            f"no control pulse at pulse2.center_us {p2.center_us:g} with a duration in "
            f"pulse2.T2_range_us absorbs the photons of pulse1.T1_us {config.pulse1.t1_us:g} "
            f"at pulse1.center_us {config.pulse1.center_us:g} on the {sender.grid.n_points}-point "
            f"grid ({exc}): move pulse2.center_us to where they arrive, widen pulse2.T2_range_us, "
            "or change pulse1.T1_us, grid.span_in_T1 or grid.points"
        ) from exc
    return solve.pulse, solve.omega2, solve


def build_link(config: ScenarioConfig) -> Link:
    """The state-free stage of a transfer: sender half, receiving pulse, areas."""
    sender = build_sender(config)
    pulse2, omega2, solve = _resolve_pulse2(config, sender)
    params = config.params
    g2_coupling = params.g * omega2 / abs(params.delta)
    modes = sender.modes
    eta, zeta = pulse_areas(pulse2, modes.phi1, modes.phi2, g2_coupling, params.k, sender.grid)
    if solve is None:  # an explicit pulse, summed as the solver sums the pulses it judges
        ends = FinalAreas(modes.phi1, modes.phi2, sender.grid, params)
        eta_inf, zeta_inf = ends(pulse2.duration, pulse2.center, omega2)
        eta_residual, zeta_residual = eta_inf - math.pi, zeta_inf - math.pi
    else:  # the solver's own sums at the pulse it returned
        eta_residual, zeta_residual = solve.eta_residual, solve.zeta_residual
    return Link(
        sender=sender,
        pulse2=pulse2,
        omega2=omega2,
        solve=solve,
        eta=eta,
        zeta=zeta,
        eta_residual=eta_residual,
        zeta_residual=zeta_residual,
        converged=None if solve is None else solve.converged,
    )


def run_transfer(config: ScenarioConfig) -> TransferResult:
    """Full pipeline: send, shape the receiving control, absorb, budget."""
    link = build_link(config)
    send = SendResult(config, link.sender)
    c = config.initial_state
    receiver = gamma_analytic(link.eta, link.zeta, c, phi2=config.params.phi2)
    n_out, (flux_total, _, _) = send.emission
    residual = conservation_check(receiver, n_out, flux_total, config.params.k)
    residual_max = float(np.max(np.abs(residual)))
    report = summarize(link, config, residual_max)
    return TransferResult(send=send, link=link, receiver=receiver, residual=residual, report=report)


def summarize(link: Link, config: ScenarioConfig, residual_max=None) -> Summary:
    """The end values of ``config``'s input state sent over ``link``.

    A sweep's config may hold a column (``config.axis_sampler``).  Each
    value is elementwise arithmetic on ``Link.ends``, spelled as the
    full-grid closed forms spell it, so a sweep row holds exactly a
    transfer's report values.
    """
    c = np.asarray(config.initial_state)
    try:
        final = final_state(link.stored(c, config.params.phi2), c)
    except ValueError as exc:  # the zero state
        raise ConfigError(
            f"the receiving pulse (T2 {link.pulse2.duration / US:.3g} us at "
            f"{link.pulse2.center / US:.3g} us) stores none of the input state: move "
            "pulse2.center_us to where the photons arrive or change pulse2.T2_us"
        ) from exc
    moduli = np.hypot(c.real, c.imag)
    p_m1, p_0, p_p1 = (moduli * moduli).T
    eta_1, eta_2, success_one, success_two, drift = _budget(config.channel)
    weighted = channel_mod.weighted_success((p_m1, p_0, p_p1), success_one, success_two)
    theta = link.ends[0]
    e_full = np.exp(-theta)  # mean_photon_number at theta(inf)
    n_out = (p_0 + 2.0 * p_m1) * (1.0 - e_full) - p_m1 * theta * e_full
    return Summary(final, (eta_1, eta_2), n_out, success_one, success_two, weighted, drift,
                   residual_max)


def _budget(ch: ChannelModel) -> tuple:
    """``ch.budget()``, or for a channel column the columns of each entry's budget.

    An entry's budget takes ``math.exp``, which numpy's ``exp`` does not
    round alike, so a column entry holds its sample's values.
    """
    if isinstance(ch.length_km, np.ndarray):
        entries = (ChannelModel._make(entry).budget() for entry in zip(*(field.tolist() for field in ch)))
        return tuple(map(np.array, zip(*entries)))
    return ch.budget()


# ---------------------------------------------------------------------------
# output files


def _write_table(path: str | Path, table: dict[str, np.ndarray], config: ScenarioConfig) -> Path:
    return write_csv(path, list(table), list(table.values()), config.config_hash())


def write_sender_csv(send: SendResult, path: str | Path) -> Path:
    traj = send.trajectory
    t = send.sender.grid.values
    table = {"t_s": t, "kt": send.config.params.k * t, "theta": traj.theta,
             "sigma_m1": traj.sigma_m1, "sigma_0": traj.sigma_0, "sigma_p1": traj.sigma_p1}
    for pair in ("m1_0", "0_p1", "m1_p1"):
        coh = getattr(traj, f"coh_{pair}")
        table[f"re_coh_{pair}"], table[f"im_coh_{pair}"] = coh.real, coh.imag
    for pair in ("m1_0", "0_0", "0_1", "p1_0", "p1_1", "p1_2"):
        table[f"beta2_{pair}"] = np.abs(getattr(traj, f"beta_{pair}")) ** 2
    return _write_table(path, table, send.config)


def write_photonics_csv(send: SendResult, path: str | Path) -> Path:
    obs = send.observables
    table = {
        "kt": send.config.params.k * send.sender.grid.values,
        "P0": obs.p0,
        "P1": obs.p1,
        "P2": obs.p2,
        "flux_total": obs.flux_total,
        "flux_I": obs.flux_one,
        "flux_II": obs.flux_two,
        "n_out": obs.n_out,
        "g2": obs.g2,
    }
    return _write_table(path, table, send.config)


def write_receiver_csv(result: TransferResult, path: str | Path) -> Path:
    rec = result.receiver
    table = {"kt": result.send.config.params.k * result.link.sender.grid.values,
             "eta": rec.eta, "zeta": rec.zeta}
    for pair in ("0_0", "1_1", "m1_0", "0_1", "1_2", "1_0"):
        table[f"gamma2_{pair}"] = np.abs(getattr(rec, f"g_{pair}")) ** 2
    table.update(rho_m1=rec.rho_m1, rho_0=rec.rho_0, rho_p1=rec.rho_p1, residual=result.residual)
    return _write_table(path, table, result.send.config)


def report_document(result: TransferResult) -> dict:
    """The ``report.json`` document of one transfer."""
    rep, link = result.report, result.link
    final, solve = rep.final, link.solve  # solve: None for an explicit receiving pulse
    c_m1, c_0, c_p1 = ([z.real, z.imag] for z in final.state.tolist())
    return {
        "config_hash": result.send.config.config_hash(),
        "regime": link.sender.regime.to_dict(),
        "fidelity": final.fidelity,
        "success": {
            "one_photon": rep.success_one_photon,
            "two_photon": rep.success_two_photon,
            "weighted": rep.weighted_success,
            "end_to_end": final.fidelity * rep.weighted_success,
        },
        "phase_drift_rad": rep.phase_drift_rad,
        "phase_warning": bool(abs(rep.phase_drift_rad) > channel_mod.PHASE_WARN_THRESHOLD),
        "diagnostics": {
            "r_sn": link.sender.derived.r_sn,
            "mode_overlap": link.sender.overlap,
            "eta_residual": link.eta_residual,
            "zeta_residual": link.zeta_residual,
            "leakage": final.leakage,
            "conservation_residual_max": rep.conservation_residual_max,
            "n_out_final": rep.n_out_final,
        },
        "solved_pulse": {
            "duration_s": link.pulse2.duration,
            "center_s": link.pulse2.center,
            "omega2_rad_per_s": link.omega2,
            "iterations": solve.iterations if solve else None,
            "mode": solve.mode if solve else "explicit",
            "converged": link.converged,
            "T2_us": link.pulse2.duration / US,
            "center_us": link.pulse2.center / US,
            "omega2_mhz": to_mhz(link.omega2),
        },
        "state_out": {"c_m1": c_m1, "c_0": c_0, "c_p1": c_p1},
        "leakage_warning": bool(final.leakage > LEAKAGE_WARN_THRESHOLD),
    }


def _write_json(path: str | Path, doc: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Refuses NaN and infinity, which are not JSON (RFC 8259).
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
    return path


def write_report_json(result: TransferResult, path: str | Path) -> Path:
    return _write_json(path, report_document(result))


def write_regime_json(send: SendResult, path: str | Path) -> Path:
    doc = send.sender.regime.to_dict()
    doc["config_hash"] = send.config.config_hash()
    return _write_json(path, doc)


# ---------------------------------------------------------------------------
# sweeps


# The sweep.csv columns after the axis's.
_SWEEP_COLUMNS = ("eta1", "eta2", "weighted_success", "phase_rad", "fidelity", "n_out_inf", "P1_inf",
                  "P2_inf", "T2_us", "center2_us", "omega2_mhz", "eta_residual", "zeta_residual")


def _sweep_columns(link: Link, samples: ScenarioConfig) -> tuple:
    """The ``_SWEEP_COLUMNS`` of ``samples`` sent over ``link``: columns, or one value for all.

    P1 and P2 at theta(inf) come from ``amplitudes_beta``'s one- and
    two-photon amplitudes there, squared as products like
    ``photon_distribution``'s array squares.
    """
    summary = summarize(link, samples)
    theta = link.ends[0]
    e_full = np.exp(-theta)
    c = np.asarray(samples.initial_state)
    m_0_1 = np.abs(c[..., 0] * np.sqrt(np.maximum(theta * e_full, 0.0)))
    m_p1_1 = np.abs(c[..., 1] * np.sqrt(np.maximum(1.0 - e_full, 0.0)))
    m_p1_2 = np.abs(c[..., 0] * np.sqrt(np.maximum(1.0 - (1.0 + theta) * e_full, 0.0)))
    return (*summary.transmission, summary.weighted_success, summary.phase_drift_rad,
            summary.final.fidelity, summary.n_out_final, m_0_1 * m_0_1 + m_p1_1 * m_p1_1,
            m_p1_2 * m_p1_2, link.pulse2.duration / US, link.pulse2.center / US,
            to_mhz(link.omega2), link.eta_residual, link.zeta_residual)


def run_sweep(config: ScenarioConfig, axis: str, values: np.ndarray) -> tuple[np.ndarray, int]:
    """The ``sweep.csv`` table and the number of its links whose pulse solve did not converge.

    The table has one row per axis sample, in order, and one named column
    per field.  Every sample is checked (``axis_sampler``) before the first
    link, so a bad value fails before any pulse solve.  An
    ``initial_state.p_m1``, ``channel.*`` or ``params.phi2_rad`` sweep
    builds one link and reads every sample from it as columns; any other
    axis builds a link per sample.  With ``config.strict`` each link's
    regime is checked as it is built (``RegimeFailure``).
    """
    values = np.asarray(values, dtype=float)
    leaf = axis.split(".")[-1]
    # A summary column named like the axis's leaf (T2_us, omega2_mhz) takes its place.
    names = [leaf, *(name for name in _SWEEP_COLUMNS if name != leaf)]
    table = np.empty(len(values), dtype=[(name, float) for name in names])
    table[leaf] = values
    samples = axis_sampler(config, axis)(values) if len(values) else []
    size = len(values) // max(len(samples), 1)  # every row on one link, or one row each
    unconverged = 0
    for i, sample in enumerate(samples):  # one link alive at a time
        link = build_link(sample)
        for name, column in zip(_SWEEP_COLUMNS, _sweep_columns(link, sample)):
            table[name][i * size:(i + 1) * size] = column
        unconverged += link.converged is False
    return table, unconverged


def write_sweep_csv(table: np.ndarray, config: ScenarioConfig, path: str | Path) -> Path:
    if not len(table):
        raise ValueError("empty sweep")
    return _write_table(path, {name: table[name] for name in table.dtype.names}, config)
