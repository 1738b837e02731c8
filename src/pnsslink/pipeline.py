"""Scenario execution: send, transfer and sweep runs plus their outputs.

A transfer runs in two stages.  The link stage (``build_link``) holds
everything that depends only on the physics: derived rates, regime
checks, the grid, the sending pulse, its exposure theta(t), the two
photon mode functions and their overlap, and the receiving control
pulse (solved or explicit) with the end areas eta(inf), zeta(inf) it is
judged by (``ControlPulse``).  The pi-area conditions involve only the
mode functions, so one solved link serves every input state and every
fiber channel.  The per-state stage (``summarize``) reads input states
at the link's end values (``Link.ends``) through the closed forms that
give the grid arrays: one state for a transfer's report, a column of
them for a sweep.  Only ``run_transfer`` builds the areas eta(t),
zeta(t) on the grid, for one state's absorption amplitudes and
bookkeeping residual.  Each value has one home: a link's in
``SenderLink`` or ``ControlPulse``, a state's in ``Summary``.
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

import numpy as np

from . import channel as channel_mod
from .channel import ChannelModel
from .config import ConfigError, ScenarioConfig, axis_sampler, written
from .core import RegimeReport, derive, rad_per_s, to_mhz, validate_regime
from .csvio import write_csv
from .numerics import BracketError, TimeGrid
from .photonics import (
    PhotonObservables,
    emission_modes,
    mean_photon_number,
    mode_overlap,
    photon_distribution,
    photon_fluxes,
    photon_observables,
)
from .receiver import (
    LEAKAGE_WARN_THRESHOLD,
    ControlPulse,
    FinalAreas,
    ZeroStateError,
    conservation_check,
    final_state,
    gamma_analytic,
    pulse_areas,
    solve_pulse_shape,
)
from .sender import PulseShape, SenderTrajectory, amplitudes_beta, atomic_moments, pump_exposure

US = 1e-6


class RegimeFailure(Exception):
    """A strict run's sender fails a regime check; raised before any pulse solve."""

    def __init__(self, regime: RegimeReport):
        super().__init__("regime check failed")
        self.regime = regime


class SenderLink(namedtuple("SenderLink", "derived regime grid pulse1 theta modes overlap")):
    """The sending node's half of a link: no input state enters."""

    __slots__ = ()


class Link(namedtuple("Link", "sender control")):
    """A sender half plus the receiving :class:`ControlPulse` (solved or explicit)."""

    __slots__ = ()

    @property
    def ends(self) -> tuple[float, float, float]:
        """theta, eta and zeta at the grid end: all that reading out a state takes.

        eta and zeta are the sums the pulse was judged by, pi plus each
        residual, so the readout, the verdict and the report read one pair.
        """
        control = self.control
        return (self.sender.theta.samples[-1], math.pi + control.eta_residual,
                math.pi + control.zeta_residual)


class SendResult(namedtuple("SendResult", "config sender")):
    """``config``'s input state sent over ``sender``; figure arrays are built on first read.

    No ``__slots__``: each ``cached_property`` keeps its value in the instance dict.
    """

    @cached_property
    def emission(self) -> tuple[np.ndarray, np.ndarray]:
        """n_out and the total photon flux on the grid: a transfer's residual reads them too."""
        c = self.config.initial_state
        theta = self.sender.theta
        return mean_photon_number(theta.samples, c), photon_fluxes(theta, self.sender.modes, c)

    @cached_property
    def trajectory(self) -> SenderTrajectory:
        return amplitudes_beta(self.sender.theta.samples, self.config.initial_state)

    @cached_property
    def observables(self) -> PhotonObservables:
        return photon_observables(self.sender.modes, self.config.initial_state, self.trajectory,
                                  *self.emission)


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
    pulse2 = property(lambda self: self.link.control.pulse)
    omega2 = property(lambda self: self.link.control.omega2)


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
            f"the grid's span of {written(config, 'pulse1.T1_us')} times "
            f"{written(config, 'grid.span_in_T1')} overflows: lower one of them"
        )
    if config.grid.span_in_t1 > 2.0**512:
        raise ConfigError(
            f"{written(config, 'grid.span_in_T1')} is too wide for float64 to carry the "
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
                f"{key} {center_us!r} is too far from 0 for float64 to resolve the {n}-point "
                f"grid's step of {dt / US:.3g} us: move both pulses' centers nearer 0, or widen "
                f"the step ({_rate_keys(config, [], *_GRID_KEYS)})"
            )
    return TimeGrid(center - half, center + half, n)


_LOG_MAX = math.log(sys.float_info.max)
# The keys that set the grid's step.
_GRID_KEYS = ("pulse1.T1_us", "grid.span_in_T1", "grid.points")
# The keys of each DerivedQuantities rate and of each regime check's ratio.
_RATE_KEYS = {
    "G1": "params.g_mhz params.omega1_mhz params.delta_mhz",
    "alpha1": "params.g_mhz params.omega1_mhz params.delta_mhz params.k_mhz",
    "r_sn": "params.g_mhz params.k_mhz params.gamma_sp_mhz",
    "omega_rec": "params.wavelength_nm params.atom_mass_kg",
    "detuning_vs_cavity_decay": "params.delta_mhz params.k_mhz",
    "detuning_vs_spontaneous_decay": "params.delta_mhz params.gamma_sp_mhz",
    "detuning_vs_rabi": "params.delta_mhz params.omega1_mhz",
    "detuning_vs_zeeman": "params.delta_mhz params.delta_b_ground_mhz params.delta_b_excited_mhz",
    "cavity_decay_vs_raman_coupling": "params.k_mhz params.g_mhz params.omega1_mhz params.delta_mhz",
    "zeeman_ground_vs_cavity_decay": "params.delta_b_ground_mhz params.k_mhz",
    "adiabatic_k_T1": "params.k_mhz pulse1.T1_us",
    "signal_to_noise": "params.g_mhz params.k_mhz params.gamma_sp_mhz",
    "raman_coupling_vs_recoil": "params.g_mhz params.omega1_mhz params.delta_mhz params.wavelength_nm "
                                "params.atom_mass_kg",
}


def _rate_keys(config: ScenarioConfig, rates: list[str], *keys: str) -> str:
    """The keys of ``rates``, then ``keys``, each once and with its value as written."""
    named = (key for rate in rates for key in _RATE_KEYS[rate].split())
    return ", ".join(written(config, key) for key in dict.fromkeys([*named, *keys]))


def _overflow(config: ScenarioConfig, what: str, rates: list[str], *keys: str) -> ConfigError:
    """The error for ``what`` overflowing, naming the keys of ``rates``, then ``keys``."""
    return ConfigError(f"{what} overflow: check {_rate_keys(config, rates, *keys)}")


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
    on the grid, and last for a regime ratio that overflows.
    """
    params = config.params
    derived = derive(params)
    overflow = [name for name, value in derived._asdict().items() if not math.isfinite(value)]
    if overflow:
        raise _overflow(config, f"derived rates {', '.join(overflow)}", overflow)
    t1 = config.pulse1.t1_us * US
    regime = validate_regime(params, derived, t1, min_ratio=config.regime_min_ratio)
    if config.strict and not regime.passed:
        raise RegimeFailure(regime)
    grid = build_grid(config)
    pulse1 = PulseShape(kind="gaussian", duration=t1, center=config.pulse1.center_us * US)
    try:
        theta = pump_exposure(pulse1, derived.alpha1, grid)
    except OverflowError as exc:
        raise _overflow(config, "the sending pulse's exposure", ["alpha1"], "pulse1.T1_us") from exc
    if np.exp(-theta.final) == 1.0:
        raise ConfigError(
            f"the sending pulse emits no photon (exposure {theta.final:.3g}): raise "
            f"{written(config, 'pulse1.T1_us')} or the rate alpha1 of {_rate_keys(config, ['alpha1'])}, or "
            f"resolve the pulse on the grid (raise {written(config, 'grid.points')} or lower "
            f"{written(config, 'grid.span_in_T1')})"
        )
    if not math.isfinite(derived.alpha1 * float(theta.final)):  # bounds alpha1 * f1 * theta
        raise _overflow(config, f"the photon modes (exposure {theta.final:.3g})", ["alpha1"],
                        "pulse1.T1_us")
    # The fourth-order rule dips below 0 before a sample it cannot resolve;
    # (1 + |theta|) exp(-theta) peaks at the lowest dip.
    low = float(theta.samples.min())
    if math.log((1.0 + derived.alpha1) * (1.0 - low)) - low > _LOG_MAX:
        raise ConfigError(
            f"the {grid.n_points}-point grid's step of {grid.dt / US:.3g} us is too coarse for the "
            f"sending pulse (its exposure dips to {low:.3g}): raise {written(config, 'grid.points')} "
            f"or lower {written(config, 'grid.span_in_T1')}"
        )
    modes = emission_modes(theta, pulse1, derived.alpha1)
    try:
        overlap = mode_overlap(modes.phi1, modes.phi2, grid)
    except ValueError as exc:  # a mode with no weight on the grid
        raise ConfigError(
            f"the sending pulse emits within one step of the {grid.n_points}-point grid "
            f"(exposure {theta.final:.3g}): lower {written(config, 'pulse1.T1_us')} or the rate "
            f"alpha1 of {_rate_keys(config, ['alpha1'])}, or raise {written(config, 'grid.points')}"
        ) from exc
    p2 = config.pulse2
    centers = [abs(c) * US for c in (p2.center_us, *(p2.center_range_us or ())) if c is not None]
    far = 2.0 * max(-grid.t_start, grid.t_end, *centers) / US
    for key, t2_us in (("pulse2.T2_us", p2.t2_us), ("pulse2.T2_range_us", p2.t2_range_us[0])):
        if t2_us is not None and far / t2_us > 2.0**511:
            raise ConfigError(
                f"{key} {t2_us!r} is too short for float64 to carry the receiving pulse over "
                f"the grid: raise it above {far * 2.0**-511:.3g} us, or narrow the grid "
                f"({written(config, 'pulse1.T1_us')}, {written(config, 'grid.span_in_T1')})"
            )
    # regime.json and report.json hold every ratio, and JSON has no infinity.
    overflow = [check.name for check in regime.checks if not math.isfinite(check.ratio)]
    if overflow:
        raise _overflow(config, f"the regime ratios {', '.join(overflow)}", overflow)
    return SenderLink(derived, regime, grid, pulse1, theta, modes, overlap)


def run_send(config: ScenarioConfig) -> SendResult:
    """Emit the photon state: regime checks, atomic dynamics, observables."""
    return SendResult(config, build_sender(config))


def _resolve_pulse2(config: ScenarioConfig, sender: SenderLink) -> ControlPulse:
    """The receiving pulse: an explicit one with its ``FinalAreas`` sums, or the solved one."""
    p2 = config.pulse2
    if p2.mode == "explicit":
        omega2 = config.params.omega2 if p2.omega2_mhz is None else rad_per_s(p2.omega2_mhz)
        center = (p2.center_us if p2.center_us is not None else 0.0) * US
        pulse = PulseShape(kind="gaussian", duration=p2.t2_us * US, center=center)
        ends = FinalAreas(sender.modes.phi1, sender.modes.phi2, sender.grid, config.params)
        eta_inf, zeta_inf = ends(pulse.duration, pulse.center, omega2)
        return ControlPulse(pulse, omega2, eta_inf - math.pi, zeta_inf - math.pi, None, "explicit", None)
    center_bracket = None if p2.center_range_us is None else tuple(c * US for c in p2.center_range_us)
    try:
        return solve_pulse_shape(
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
            f"no control pulse at {written(config, 'pulse2.center_us')} with a duration in "
            f"pulse2.T2_range_us {list(p2.t2_range_us)} absorbs the photons of the sending pulse "
            f"at {written(config, 'pulse1.center_us')} on the {sender.grid.n_points}-point grid "
            f"({exc}): move the receiving pulse to where they arrive, widen its duration range, "
            f"or change one of {_rate_keys(config, ['alpha1'], *_GRID_KEYS, 'params.omega2_mhz')}"
        ) from exc


def build_link(config: ScenarioConfig) -> Link:
    """The state-free stage of a transfer: sender half and receiving pulse."""
    sender = build_sender(config)
    return Link(sender, _resolve_pulse2(config, sender))


def run_transfer(config: ScenarioConfig) -> TransferResult:
    """Full pipeline: send, shape the receiving control, absorb, budget."""
    link = build_link(config)
    send = SendResult(config, link.sender)
    params, control, sender = config.params, link.control, link.sender
    g2_coupling = params.g * control.omega2 / abs(params.delta)
    eta, zeta = pulse_areas(control.pulse, sender.modes.phi1, sender.modes.phi2, g2_coupling,
                            params.k, sender.grid)
    receiver = gamma_analytic(eta.samples, zeta.samples, config.initial_state, phi2=params.phi2)
    residual = conservation_check(receiver, *send.emission, params.k)
    residual_max = float(np.max(np.abs(residual)))
    report = summarize(link, config, residual_max)
    return TransferResult(send=send, link=link, receiver=receiver, residual=residual, report=report)


def summarize(link: Link, config: ScenarioConfig, residual_max=None) -> Summary:
    """The end values of ``config``'s input state sent over ``link``.

    A sweep's config may hold a column (``config.axis_sampler``).  Each
    value is a closed form of ``sender``, ``photonics`` or ``receiver``
    at ``Link.ends``, the functions that give the grid arrays, so a sweep
    row holds exactly a transfer's report values.
    """
    c = config.initial_state
    theta, eta, zeta = link.ends
    try:
        final = final_state(gamma_analytic(eta, zeta, c, config.params.phi2), c)
    except ZeroStateError as exc:
        pulse = link.control.pulse
        raise ConfigError(
            f"the receiving pulse (T2 {pulse.duration / US:.3g} us at "
            f"{pulse.center / US:.3g} us) stores none of the input state: move "
            f"{written(config, 'pulse2.center_us')} to where the photons arrive, or change "
            f"{written(config, 'pulse2.T2_us')} or one of "
            f"{_rate_keys(config, ['alpha1'], 'params.omega2_mhz')}"
        ) from exc
    eta_1, eta_2, success_one, success_two, drift = _budget(config.channel)
    weighted = channel_mod.weighted_success(c.populations, success_one, success_two)
    return Summary(final, (eta_1, eta_2), mean_photon_number(theta, c), success_one, success_two,
                   weighted, drift, residual_max)


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
    traj, theta = send.trajectory, send.sender.theta.samples
    moments = atomic_moments(theta, send.config.initial_state)
    t = send.sender.grid.values
    table = {"t_s": t, "kt": send.config.params.k * t, "theta": theta,
             "sigma_m1": moments.sigma_m1, "sigma_0": moments.sigma_0, "sigma_p1": moments.sigma_p1}
    for pair in ("m1_0", "0_p1", "m1_p1"):
        coh = getattr(moments, f"coh_{pair}")
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
    final, control = rep.final, link.control
    c_m1, c_0, c_p1 = ([z.real, z.imag] for z in map(complex, final.state))
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
            "eta_residual": control.eta_residual,
            "zeta_residual": control.zeta_residual,
            "leakage": final.leakage,
            "conservation_residual_max": rep.conservation_residual_max,
            "n_out_final": rep.n_out_final,
        },
        "solved_pulse": {
            "duration_s": control.pulse.duration,
            "center_s": control.pulse.center,
            "omega2_rad_per_s": control.omega2,
            "iterations": control.iterations,
            "mode": control.mode,
            "converged": control.converged,
            "T2_us": control.pulse.duration / US,
            "center_us": control.pulse.center / US,
            "omega2_mhz": to_mhz(control.omega2),
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
    """The ``_SWEEP_COLUMNS`` of ``samples`` sent over ``link``: columns, or one value for all."""
    summary, control = summarize(link, samples), link.control
    _, p1, p2 = photon_distribution(amplitudes_beta(link.ends[0], samples.initial_state))
    return (*summary.transmission, summary.weighted_success, summary.phase_drift_rad,
            summary.final.fidelity, summary.n_out_final, p1, p2, control.pulse.duration / US,
            control.pulse.center / US, to_mhz(control.omega2), control.eta_residual,
            control.zeta_residual)


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
        unconverged += link.control.converged is False
    return table, unconverged


def write_sweep_csv(table: np.ndarray, config: ScenarioConfig, path: str | Path) -> Path:
    if not len(table):
        raise ValueError("empty sweep")
    return _write_table(path, {name: table[name] for name in table.dtype.names}, config)
