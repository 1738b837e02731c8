"""Scenario execution: send, transfer and sweep runs plus their outputs.

A transfer runs in two stages.  The link stage (``build_link``) holds
everything that depends only on the physics: derived rates, regime
checks, the grid, the sending pulse, its exposure theta(t), the two
photon mode functions and their overlap, the receiving control pulse
(solved or explicit) and its areas eta(t), zeta(t).  The pi-area
conditions involve only the mode functions, so one solved link serves
every input state and every fiber channel.  The per-state stage
(``run_transfer_on``) sends one input state over a link: absorption
amplitudes, bookkeeping residual and the end-value ``Summary`` its
report is.  Each value has one home: a link's in ``Link`` or
``SenderLink``, a state's in ``Summary``.  ``SendResult`` builds the
sender's emission amplitudes and photon statistics only when a CSV
writer reads them.  ``run_send`` never solves a pulse.  ``run_sweep`` builds a new link only when a sample's
physics differs from the previous sample's, and writes the columns of
one ``Summary`` per link.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import channel as channel_mod
from .channel import ChannelModel
from .config import ScenarioConfig, axis_sampler
from .core import (
    DerivedQuantities,
    RegimeReport,
    StateBatch,
    derive,
    to_mhz,
    validate_regime,
)
from .csvio import write_csv
from .numerics import SampledFunction, TimeGrid
from .photonics import (
    EmissionModes,
    PhotonObservables,
    emission_modes,
    mean_photon_number,
    mode_overlap,
    photon_distribution,
    photon_fluxes,
    photon_observables,
)
from .receiver import (
    FinalState,
    PulseSolveError,
    PulseSolveResult,
    ReceiverTrajectory,
    conservation_check,
    final_state,
    gamma_analytic,
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


@dataclass(frozen=True)
class SenderLink:
    """The sending node's half of a link: no input state enters."""

    derived: DerivedQuantities
    regime: RegimeReport
    grid: TimeGrid
    pulse1: PulseShape
    theta: SampledFunction
    modes: EmissionModes
    overlap: float


def _physics(config: ScenarioConfig) -> tuple:
    """The parsed fields a link is built from; phi2 enters per state only."""
    params = {**vars(config.params), "phi2": None}
    return (params, config.pulse1, config.pulse2, config.grid, config.regime_min_ratio)


@dataclass(frozen=True)
class Link:
    """A sender half plus the receiving control pulse and its areas."""

    physics: tuple  # _physics of the config it was built from
    sender: SenderLink
    pulse2: PulseShape
    omega2: float
    solve: Optional[PulseSolveResult]
    eta: SampledFunction
    zeta: SampledFunction
    eta_residual: float  # eta(inf) - pi
    zeta_residual: float  # zeta(inf) - pi


@dataclass(frozen=True)
class SendResult:
    """``config``'s input state sent over ``sender``; figure arrays are built on first read."""

    config: ScenarioConfig
    sender: SenderLink

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


@dataclass(frozen=True)
class Summary:
    """End values of input states sent over one link, as ``summarize`` reads them.

    A field holds a scalar for one state (a transfer's report) or a column
    for a ``StateBatch`` (a sweep's).  The link's values are in ``Link``.
    """

    final: FinalState
    n_out_final: float | np.ndarray
    success_one_photon: float | np.ndarray
    success_two_photon: float | np.ndarray
    weighted_success: float | np.ndarray
    phase_drift_rad: float | np.ndarray
    conservation_residual_max: Optional[float] = None  # full grid: a transfer's only


@dataclass(frozen=True)
class TransferResult:
    send: SendResult
    link: Link
    receiver: ReceiverTrajectory
    residual: np.ndarray
    report: Summary  # of the input state, with the full-grid residual maximum

    # perfbench/make_reference.py reads these two.
    pulse2 = property(lambda self: self.link.pulse2)
    omega2 = property(lambda self: self.link.omega2)


def build_grid(config: ScenarioConfig) -> TimeGrid:
    """Uniform grid spanning the sending pulse, in seconds.

    The span covers +-(span_in_T1/2) pulse durations around the pulse
    center; at the default 12 durations the gaussian tails are below
    1e-15, which stands in for the infinite integration limits.
    """
    t1 = config.pulse1.t1_us * US
    center = config.pulse1.center_us * US
    half = 0.5 * config.grid.span_in_t1 * t1
    return TimeGrid(center - half, center + half, config.grid.n_points())


def build_sender(config: ScenarioConfig) -> SenderLink:
    """Regime checks, grid, exposure and photon modes of the sending node.

    With ``config.strict``, a failed regime check raises ``RegimeFailure``.
    """
    params = config.params
    derived = derive(params)
    t1 = config.pulse1.t1_us * US
    regime = validate_regime(params, derived, t1, min_ratio=config.regime_min_ratio)
    if config.strict and not regime.passed:
        raise RegimeFailure(regime)
    grid = build_grid(config)
    pulse1 = PulseShape(kind="gaussian", duration=t1, center=config.pulse1.center_us * US)
    theta = pump_exposure(pulse1, derived.alpha1, grid)
    modes = emission_modes(theta, pulse1, derived.alpha1)
    return SenderLink(
        derived=derived,
        regime=regime,
        grid=grid,
        pulse1=pulse1,
        theta=theta,
        modes=modes,
        overlap=mode_overlap(modes.phi1, modes.phi2, grid),
    )


def run_send(config: ScenarioConfig) -> SendResult:
    """Emit the photon state: regime checks, atomic dynamics, observables."""
    return SendResult(config, build_sender(config))


def _resolve_pulse2(
    config: ScenarioConfig, sender: SenderLink
) -> tuple[PulseShape, float, Optional[PulseSolveResult]]:
    p2 = config.pulse2
    if p2.mode == "explicit":
        omega2 = (
            config.params.omega2
            if p2.omega2_mhz is None
            else 2.0 * math.pi * 1e6 * p2.omega2_mhz
        )
        center = (p2.center_us if p2.center_us is not None else 0.0) * US
        pulse = PulseShape(kind="gaussian", duration=p2.t2_us * US, center=center)
        return pulse, omega2, None

    mode = "duration_amplitude" if p2.free == "amplitude" else "duration_center"
    center_bracket = None
    if p2.center_range_us is not None:
        center_bracket = (p2.center_range_us[0] * US, p2.center_range_us[1] * US)
    try:
        solve = solve_pulse_shape(
            sender.modes.phi1,
            sender.modes.phi2,
            sender.grid,
            config.params,
            mode=mode,
            center=(p2.center_us * US if p2.center_us is not None else None),
            tol=p2.tol,
            duration_bracket=(p2.t2_range_us[0] * US, p2.t2_range_us[1] * US),
            center_bracket=center_bracket,
            max_iterations=p2.max_iterations,
        )
    except PulseSolveError as exc:
        if exc.best is None:
            raise
        solve = exc.best
    return solve.pulse, solve.omega2, solve


def build_link(config: ScenarioConfig) -> Link:
    """The state-free stage of a transfer: sender half, receiving pulse, areas."""
    sender = build_sender(config)
    pulse2, omega2, solve = _resolve_pulse2(config, sender)
    params = config.params
    g2_coupling = params.g * omega2 / abs(params.delta)
    modes = sender.modes
    eta, zeta = pulse_areas(pulse2, modes.phi1, modes.phi2, g2_coupling, params.k, sender.grid)
    return Link(
        physics=_physics(config),
        sender=sender,
        pulse2=pulse2,
        omega2=omega2,
        solve=solve,
        eta=eta,
        zeta=zeta,
        eta_residual=float(eta.final - math.pi),
        zeta_residual=float(zeta.final - math.pi),
    )


def run_transfer_on(link: Link, config: ScenarioConfig) -> TransferResult:
    """The per-state stage: send ``config``'s input state over ``link``.

    ``config`` must have the physics ``link`` was built from.
    """
    if _physics(config) != link.physics:
        raise ValueError("config's physics differs from the link's")
    send = SendResult(config, link.sender)
    c = config.initial_state
    receiver = gamma_analytic(link.eta, link.zeta, c, phi2=config.params.phi2)
    n_out, (flux_total, _, _) = send.emission
    residual = conservation_check(receiver, n_out, flux_total, config.params.k)
    residual_max = float(np.max(np.abs(residual)))
    report = summarize(c, receiver, n_out, _budget(config.channel), residual_max)
    return TransferResult(send=send, link=link, receiver=receiver, residual=residual, report=report)


def summarize(c, receiver, n_out, budget, residual_max=None) -> Summary:
    """The end values of state ``c`` or of a ``StateBatch`` ``c`` sent over one link.

    ``receiver`` and ``n_out`` are their closed forms on a grid that ends
    where the link's does, ``budget`` their channels' ``_budget`` (columns
    for a batch).  One state and a batch run the same elementwise
    arithmetic, so a sweep column holds exactly a transfer's report values.
    """
    final = final_state(receiver, c)
    _, _, success_one, success_two, drift = budget
    populations = np.array(c.populations).reshape(3, *final.fidelity.shape)
    weighted = channel_mod.weighted_success(populations, success_one, success_two)
    last = n_out.T[-1]  # each state's last sample
    return Summary(final, last, success_one, success_two, weighted, drift, residual_max)


def _budget(ch: ChannelModel) -> tuple[float, float, float, float, float]:
    """eta_1, eta_2, the one- and two-photon branch successes and the phase drift."""
    eta = [channel_mod.transmission_efficiency(ch.length_km, ch.l_att_km, j) for j in (1, 2)]
    drift = channel_mod.phase_drift(ch.length_km, ch.phase_rate_rad_per_km)
    return (*eta, ch.branch_success(1), ch.branch_success(2), drift)


def run_transfer(config: ScenarioConfig) -> TransferResult:
    """Full pipeline: send, shape the receiving control, absorb, budget."""
    return run_transfer_on(build_link(config), config)


# ---------------------------------------------------------------------------
# output files


def _write_table(path: str | Path, table: dict[str, np.ndarray], config: ScenarioConfig) -> Path:
    return write_csv(path, list(table), list(table.values()), config.config_hash())


def write_sender_csv(send: SendResult, path: str | Path) -> Path:
    traj = send.trajectory
    t = send.sender.grid.values
    table = {
        "t_s": t,
        "kt": send.config.params.k * t,
        "theta": traj.theta,
        "sigma_m1": traj.sigma_m1,
        "sigma_0": traj.sigma_0,
        "sigma_p1": traj.sigma_p1,
        "re_coh_m1_0": traj.coh_m1_0.real,
        "im_coh_m1_0": traj.coh_m1_0.imag,
        "re_coh_0_p1": traj.coh_0_p1.real,
        "im_coh_0_p1": traj.coh_0_p1.imag,
        "re_coh_m1_p1": traj.coh_m1_p1.real,
        "im_coh_m1_p1": traj.coh_m1_p1.imag,
        "beta2_m1_0": np.abs(traj.beta_m1_0) ** 2,
        "beta2_0_0": np.abs(traj.beta_0_0) ** 2,
        "beta2_0_1": np.abs(traj.beta_0_1) ** 2,
        "beta2_p1_0": np.abs(traj.beta_p1_0) ** 2,
        "beta2_p1_1": np.abs(traj.beta_p1_1) ** 2,
        "beta2_p1_2": np.abs(traj.beta_p1_2) ** 2,
    }
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
    table = {
        "kt": result.send.config.params.k * result.link.sender.grid.values,
        "eta": rec.eta,
        "zeta": rec.zeta,
        "gamma2_0_0": np.abs(rec.g_0_0) ** 2,
        "gamma2_1_1": np.abs(rec.g_1_1) ** 2,
        "gamma2_m1_0": np.abs(rec.g_m1_0) ** 2,
        "gamma2_0_1": np.abs(rec.g_0_1) ** 2,
        "gamma2_1_2": np.abs(rec.g_1_2) ** 2,
        "gamma2_1_0": np.abs(rec.g_1_0) ** 2,
        "rho_m1": rec.rho_m1,
        "rho_0": rec.rho_0,
        "rho_p1": rec.rho_p1,
        "residual": result.residual,
    }
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
        "phase_warning": rep.phase_drift_rad > channel_mod.PHASE_WARN_THRESHOLD,
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
            "converged": solve.converged if solve else None,
            "T2_us": link.pulse2.duration / US,
            "center_us": link.pulse2.center / US,
            "omega2_mhz": to_mhz(link.omega2),
        },
        "state_out": {"c_m1": c_m1, "c_0": c_0, "c_p1": c_p1},
        "leakage_warning": bool(final.leakage_warning),
    }


def _write_json(path: str | Path, doc: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_report_json(result: TransferResult, path: str | Path) -> Path:
    return _write_json(path, report_document(result))


def write_regime_json(send: SendResult, path: str | Path) -> Path:
    doc = send.sender.regime.to_dict()
    doc["config_hash"] = send.config.config_hash()
    return _write_json(path, doc)


# ---------------------------------------------------------------------------
# sweeps


def _sweep_columns(link: Link, configs: list[ScenarioConfig]) -> dict[str, np.ndarray]:
    """The ``sweep.csv`` columns after the axis's for ``configs`` sent over ``link``.

    The closed forms are pointwise in theta, eta and zeta, so they run once
    for all the samples (a ``StateBatch``) on the link's last two grid
    samples, and give the floats of a full-grid transfer per sample.
    """
    end = TimeGrid(link.sender.grid.values[-2], link.sender.grid.values[-1], 2)
    ends = (link.sender.theta, link.eta, link.zeta)
    theta, eta, zeta = (SampledFunction(end, f.samples[-2:]) for f in ends)
    states = StateBatch([cfg.initial_state for cfg in configs])
    receiver = gamma_analytic(eta, zeta, states, phi2=[cfg.params.phi2 for cfg in configs])
    budgets = {ch: _budget(ch) for ch in {cfg.channel for cfg in configs}}  # once per channel
    budget = np.array([budgets[cfg.channel] for cfg in configs]).T
    summary = summarize(states, receiver, mean_photon_number(theta, states), budget)
    _, p1, p2 = photon_distribution(amplitudes_beta(theta, states))
    n = len(configs)
    return {
        "eta1": budget[0],
        "eta2": budget[1],
        "weighted_success": summary.weighted_success,
        "phase_rad": summary.phase_drift_rad,
        "fidelity": summary.final.fidelity,
        "n_out_inf": summary.n_out_final,
        "P1_inf": p1[:, -1],
        "P2_inf": p2[:, -1],
        "T2_us": np.full(n, link.pulse2.duration / US),
        "center2_us": np.full(n, link.pulse2.center / US),
        "omega2_mhz": np.full(n, to_mhz(link.omega2)),
        "eta_residual": np.full(n, link.eta_residual),
        "zeta_residual": np.full(n, link.zeta_residual),
    }


def run_sweep(config: ScenarioConfig, axis: str, values: np.ndarray) -> tuple[np.ndarray, int]:
    """The ``sweep.csv`` table and the number of its links whose pulse solve did not converge.

    The table has one row per axis sample, in order, and one named column
    per field.  Every sample is built (``axis_sampler``) before the first
    link, so a bad value fails before any pulse solve.  Consecutive samples
    with the same physics share one link and one ``summarize`` pass: an
    ``initial_state.*``, ``channel.*`` or ``params.phi2_rad`` sweep costs
    one link.  With ``config.strict`` each new link's regime is checked as
    it is built (``RegimeFailure``).
    """
    sample = axis_sampler(config, axis)
    samples = [sample(float(v)) for v in values]
    groups = [list(group) for _, group in itertools.groupby(samples, key=_physics)]
    parts, unconverged = [], 0
    for group in groups:  # one link alive at a time
        link = build_link(group[0])
        parts.append(_sweep_columns(link, group))
        unconverged += link.solve is not None and not link.solve.converged
    # A summary column named like the axis's leaf (T2_us, omega2_mhz) takes its place.
    columns = {axis.split(".")[-1]: values}
    for name in parts[0] if parts else ():
        columns[name] = np.concatenate([part[name] for part in parts])
    table = np.empty(len(samples), dtype=[(name, float) for name in columns])
    for name, column in columns.items():
        table[name] = column
    return table, unconverged


def write_sweep_csv(table: np.ndarray, config: ScenarioConfig, path: str | Path) -> Path:
    if not len(table):
        raise ValueError("empty sweep")
    return _write_table(path, {name: table[name] for name in table.dtype.names}, config)
