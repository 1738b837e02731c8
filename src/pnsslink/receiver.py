"""Receiving-node dynamics: pulse areas, absorption amplitudes, control solve.

Absorption is governed by two accumulated areas: eta(t) drives the
two-level block fed by the one-photon component and zeta(t) drives the
three-level ladder fed by the two-photon component.  Both reaching pi
at late times means every incoming photon is mapped onto the atom and
nothing leaks back out of the second cavity.  The amplitudes are closed
forms in (eta, zeta) at every control phase (:func:`gamma_analytic`);
the tests check them against a time integration of the amplitude
equations.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

import numpy as np

from .core import PhysicalParams, SuperpositionState
from .numerics import (
    BracketError,
    SampledFunction,
    TimeGrid,
    cumulative_integral,
    find_root,
    quadrature_weights,
)
from .sender import PulseShape

LEAKAGE_WARN_THRESHOLD = 1e-3  # reporting policy only


class ReceiverTrajectory(namedtuple("ReceiverTrajectory",
                                    "eta zeta g_0_0 g_1_1 g_m1_0 g_0_1 g_1_2 g_1_0")):
    """Areas, absorption amplitudes and populations of the second atom, arrays on the grid.

    Amplitudes ``g_m_j`` carry (atom sublevel m, photons still in the
    field j); ``rho_*`` are the resulting sublevel populations.
    """

    __slots__ = ()

    @property
    def rho_m1(self) -> np.ndarray:
        return np.abs(self.g_m1_0) ** 2

    @property
    def rho_0(self) -> np.ndarray:
        return np.abs(self.g_0_0) ** 2 + np.abs(self.g_0_1) ** 2

    @property
    def rho_p1(self) -> np.ndarray:
        return np.abs(self.g_1_0) ** 2 + np.abs(self.g_1_1) ** 2 + np.abs(self.g_1_2) ** 2


class ControlPulse(namedtuple("ControlPulse", "pulse omega2 eta_residual zeta_residual "
                                              "iterations mode converged")):
    """A receiving control pulse and the end areas it is judged by.

    ``eta_residual`` and ``zeta_residual`` are eta(inf) - pi and
    zeta(inf) - pi as :class:`FinalAreas` sums them; pi plus each is the
    sum itself whenever it lies in [pi/2, 2 pi] (Sterbenz).
    :func:`solve_pulse_shape` returns one with its evaluation count, its
    mode and whether both residuals are within its ``tol``; an explicit
    pulse has ``iterations`` and ``converged`` None and ``mode`` "explicit".
    """

    __slots__ = ()


class FinalState(namedtuple("FinalState", "state fidelity leakage")):
    """Retained state at the end of a receiver run, a :class:`SuperpositionState`.

    One state gives scalars, many states (a sweep's rows) a column per
    field, one entry per state.
    """

    __slots__ = ()


class ZeroStateError(ValueError):
    """The receiver retains none of the input state, so there is no state to normalize."""


def pulse_areas(
    pulse2: PulseShape,
    phi1: np.ndarray,
    phi2: np.ndarray,
    G2: float,
    k: float,
    grid: TimeGrid,
) -> tuple[SampledFunction, SampledFunction]:
    """Cumulative areas eta(t) and zeta(t) for a given control pulse.

    eta = 2(|G2|/sqrt(k)) * integral of sqrt(f2)*phi1,
    zeta =  (|G2|/sqrt(k)) * integral of sqrt(f2)*(phi1 + phi2).
    Propagation delay between the nodes is taken as zero throughout
    (cascaded-source convention), so the sender grid is shared.
    """
    sqrt_f2 = np.sqrt(pulse2.evaluate(grid.values))
    pref = abs(G2) / math.sqrt(k)
    eta = cumulative_integral(SampledFunction(grid, 2.0 * pref * sqrt_f2 * phi1))
    zeta = cumulative_integral(SampledFunction(grid, pref * sqrt_f2 * (phi1 + phi2)))
    return eta, zeta


def gamma_analytic(
    eta: np.ndarray,
    zeta: np.ndarray,
    c: SuperpositionState,
    phi2: float | np.ndarray = math.pi / 2,
) -> ReceiverTrajectory:
    """Closed-form absorption amplitudes at the areas ``eta``, ``zeta`` and control phase ``phi2``.

    The areas are their samples on the grid or their end values alone;
    ``c``'s fields and ``phi2`` may be columns, one entry per state.
    At pi/2, two-level block: g_0_0 = c_0 sin(eta/2), g_1_1 = c_0 cos(eta/2).
    Three-level block: g_1_2 = c_m1 (1+cos zeta)/2,
    g_0_1 = c_m1 sin(zeta)/sqrt(2), g_m1_0 = c_m1 (1-cos zeta)/2.
    The vacuum branch of a qutrit input is inert: g_1_0 = c_p1.
    Other phases are a diagonal similarity transform of this, the end map
    D(phi2) = diag(u**2 (1 - cos zeta)/2, u sin(eta/2), 1) on the
    no-photon amplitudes: with u = exp(i(pi/2 - phi2)), g_0_0 and g_0_1
    gain a factor u, g_m1_0 u**2.  The real factors multiply c before
    the phases.  u**2 is spelled in real parts, and the phases multiply
    through ``np.multiply``, numpy's array product (its loop can fuse a
    multiply-add), as its scalar complex product rounds otherwise and a
    state read alone must get the floats of its entry in a column.
    """
    u = np.exp(1j * (math.pi / 2 - np.asarray(phi2)))
    re, im = u.real, u.imag
    u2 = re * re - im * im + 2j * re * im
    half_e = 0.5 * eta
    cos_z = np.cos(zeta)
    g_0_0 = np.multiply(c.c_0 * np.sin(half_e), u)
    return ReceiverTrajectory(
        eta=eta,
        zeta=zeta,
        g_0_0=g_0_0,
        g_1_1=c.c_0 * np.cos(half_e),
        g_m1_0=np.multiply(c.c_m1 * (0.5 * (1.0 - cos_z)), u2),
        g_0_1=np.multiply(c.c_m1 * np.sin(zeta) / math.sqrt(2.0), u),
        g_1_2=0.5 * c.c_m1 * (1.0 + cos_z),
        g_1_0=np.full(np.shape(g_0_0), c.c_p1, dtype=complex),
    )


class FinalAreas:
    """eta and zeta at the grid end of gaussian control pulses, summed with the quadrature weights.

    The pulse solver and ``pipeline``, for an explicit pulse, both judge a
    control pulse by these sums.  ``rows`` holds how eta, zeta and zeta - eta weight the
    control envelope exp(-u**2/2), times the weights; ``evals`` counts the calls.
    """

    def __init__(self, phi1: np.ndarray, phi2: np.ndarray, grid: TimeGrid, params: PhysicalParams):
        self.t = grid.values
        self.pref_per_omega = params.g / abs(params.delta) / math.sqrt(params.k)
        w = quadrature_weights(grid)
        w_phi1, w_phi2 = w * phi1, w * phi2
        self.w_phi1, self.w_phi2 = w_phi1, w_phi2
        self.rows = {"eta": 2.0 * w_phi1, "zeta": w_phi1 + w_phi2, "zeta-eta": w_phi2 - w_phi1}
        self.evals = 0

    def __call__(self, duration: float, t_center: float, omega2: float, *slopes) -> tuple:
        """eta and zeta at the grid end, then one partial derivative per
        ``(area, variable)`` pair in ``slopes``: an area of ``rows`` in
        "duration" or "center", all from the same exp pass."""
        self.evals += 1
        u = (self.t - t_center) / duration
        uu = u * u
        sqrt_f2 = np.exp(-0.5 * uu)
        pref = omega2 * self.pref_per_omega
        a1 = pref * float(sqrt_f2 @ self.w_phi1)
        a2 = pref * float(sqrt_f2 @ self.w_phi2)
        # d sqrt_f2 / d duration = sqrt_f2 u**2 / T, d sqrt_f2 / d center = sqrt_f2 u / T.
        partial = {"duration": uu, "center": u}
        return 2.0 * a1, a1 + a2, *(
            pref / duration * float((sqrt_f2 * partial[v]) @ self.rows[a]) for a, v in slopes
        )


def solve_pulse_shape(
    phi1: np.ndarray,
    phi2: np.ndarray,
    grid: TimeGrid,
    params: PhysicalParams,
    *,
    mode: str = "duration_center",
    center: Optional[float] = None,
    tol: float = 1e-6,
    duration_bracket: tuple[float, float] = (0.02e-6, 20e-6),
    center_bracket: Optional[tuple[float, float]] = None,
    max_iterations: int = 80,
) -> ControlPulse:
    """Shape the receiving control pulse so both areas reach pi.

    Two solve modes over a gaussian family:

    ``duration_center``
        Amplitude fixed at ``params.omega2``; duration and center free.
        The seed is a duration solve on zeta(inf) = pi at the photons'
        centroid (clamped into the center bracket), then a center solve on
        eta(inf) = pi at that duration between the centroid and the
        bracket's late end, since the control should switch on around
        photon arrival.  Newton steps on both conditions follow, at most
        ``max_iterations``, while they stay inside both brackets.  The
        result is the pulse with the smallest worse residual of all those
        evaluated.
    ``duration_amplitude``
        Center fixed (``center`` argument); duration and amplitude free.
        The ratio of the two areas is amplitude-independent, so the
        duration is solved to equalize them and the amplitude then
        scales both onto pi exactly.

    Either mode returns its best effort, with ``converged`` False when it
    misses ``tol``.

    Raises
    ------
    BracketError
        In ``duration_amplitude`` mode, when there is no pulse to return:
        no duration in the bracket equalizes the two areas, or the control
        pulse does not overlap the photon modes.
    """
    final_areas = FinalAreas(phi1, phi2, grid, params)
    omega2 = params.omega2
    if mode == "duration_amplitude":
        if center is None:
            raise ValueError("duration_amplitude mode needs a fixed center")
        areas_at = {}

        def imbalance(duration: float) -> tuple[float, float]:
            eta_inf, zeta_inf, slope = final_areas(duration, center, omega2, ("zeta-eta", "duration"))
            areas_at[duration] = eta_inf, zeta_inf
            # zeta - eta is proportional to the overlap difference of the two
            # photon envelopes with the control window; its zero equalizes
            # the two areas independently of the amplitude.
            return zeta_inf - eta_inf, slope

        t_center, duration = center, find_root(imbalance, duration_bracket, tol=1e-14)
        eta_inf, _ = areas_at.get(duration) or final_areas(duration, center, omega2)
        if eta_inf <= 0.0:
            raise BracketError("control pulse does not overlap the photon modes")
        omega2 = omega2 * math.pi / eta_inf
        eta_inf, zeta_inf = final_areas(duration, center, omega2)
    elif mode == "duration_center":
        lo, hi = center_bracket or (grid.t_start, grid.t_end)
        best = None  # (worse residual, duration, center, eta, zeta) of the best pulse evaluated

        def areas(duration: float, t_center: float, *slopes) -> tuple:
            nonlocal best
            out = final_areas(duration, t_center, omega2, *slopes)
            worse = max(abs(out[0] - math.pi), abs(out[1] - math.pi))
            if best is None or worse < best[0]:
                best = worse, duration, t_center, out[0], out[1]
            return out

        # Seed: the zeta root at the photons' centroid, then the eta root late of it.
        zeta_row = final_areas.rows["zeta"]
        t_center = min(max(float(grid.values @ zeta_row / np.sum(zeta_row)), lo), hi)
        duration = math.sqrt(duration_bracket[0] * duration_bracket[1])

        def zeta_minus_pi(d: float) -> tuple[float, float]:
            _, zeta_inf, slope = areas(d, t_center, ("zeta", "duration"))
            return zeta_inf - math.pi, slope

        def eta_minus_pi(x: float) -> tuple[float, float]:
            eta_inf, _, slope = areas(duration, x, ("eta", "center"))
            return eta_inf - math.pi, slope

        try:
            duration = find_root(zeta_minus_pi, duration_bracket, tol=1e-12)
            t_center = find_root(eta_minus_pi, (t_center, hi), tol=1e-12)
        except BracketError:
            pass  # Newton steps from the seed reached so far
        for _ in range(max_iterations):
            step = _newton_step(areas(duration, t_center, *_JACOBIAN), duration, t_center)
            if best[0] <= tol:
                break
            if step is None or not (
                duration_bracket[0] <= step[0] <= duration_bracket[1] and lo <= step[1] <= hi
            ):
                break
            duration, t_center = step
        _, duration, t_center, eta_inf, zeta_inf = best
    else:
        raise ValueError(f"unknown solve mode {mode!r}")
    return ControlPulse(
        pulse=PulseShape(duration=duration, center=t_center),
        omega2=omega2,
        eta_residual=eta_inf - math.pi,
        zeta_residual=zeta_inf - math.pi,
        iterations=final_areas.evals,
        mode=mode,
        converged=(abs(eta_inf - math.pi) <= tol and abs(zeta_inf - math.pi) <= tol),
    )


_JACOBIAN = (("eta", "duration"), ("eta", "center"), ("zeta", "duration"), ("zeta", "center"))


def _newton_step(areas: tuple, duration: float, t_center: float) -> Optional[tuple[float, float]]:
    """One Newton step on (eta, zeta) = (pi, pi) over (duration, center).

    ``areas`` is ``final_areas`` at (duration, t_center) with the ``_JACOBIAN``
    slopes; returns None when the Jacobian is singular.
    """
    eta_inf, zeta_inf, *jac = areas
    try:
        d_duration, d_center = np.linalg.solve(
            np.reshape(jac, (2, 2)), (math.pi - eta_inf, math.pi - zeta_inf)
        )
    except np.linalg.LinAlgError:
        return None
    return duration + float(d_duration), t_center + float(d_center)


def conservation_check(
    traj: ReceiverTrajectory,
    n_out: np.ndarray,
    flux_total: np.ndarray,
    k: float,
) -> np.ndarray:
    """Photon-bookkeeping residual along the transfer.

    residual(t) = N_0 + 2*N_-1 - n_out + F/k, where the first two terms
    count photons absorbed by the receiving atom, n_out counts photons
    emitted by the sender and F/k is the instantaneous second-cavity
    photon number.  Exact balance assumes that no field ever leaves the
    second cavity; deviations measure how far the chosen control pulse
    is from that ideal at each instant.
    """
    return traj.rho_0 + 2.0 * traj.rho_m1 - n_out + flux_total / k


def final_state(traj: ReceiverTrajectory, c_in: SuperpositionState) -> FinalState:
    """Read out the stored state of ``traj`` and compare with the input ``c_in``.

    ``traj`` holds the amplitudes at the grid end (``gamma_analytic`` at
    the end areas); the stored state is its no-photon amplitudes g_m1_0,
    g_0_0 and g_1_0.  Either may hold columns, one entry per state.
    Fidelity is computed against the renormalized retained state; the
    discarded weight is reported as leakage, which the report flags above
    ``LEAKAGE_WARN_THRESHOLD``.  A state with nothing retained raises
    ``ZeroStateError``.  Every step is real and elementwise, so a column
    entry gets the floats of its state read out alone: moduli are
    hypot(re, im), as ``SuperpositionState.populations`` takes them,
    products are spelled out in real parts and squares are products.
    """
    stored = SuperpositionState(traj.g_m1_0, traj.g_0_0, traj.g_1_0)
    p_m1, p_0, p_p1 = stored.populations
    retained = p_m1 + p_0 + p_p1
    if not retained.min() > 0.0:  # NaN too
        raise ZeroStateError("cannot normalize the zero state")
    norm = np.sqrt(retained)
    state, re, im = [], 0.0, 0.0
    for z, c in zip(stored, c_in):  # <c_in|state>: conj(c) * state per sublevel, summed
        z_re, z_im = z.real / norm, z.imag / norm
        state.append(np.empty(np.shape(z_re), dtype=complex))
        state[-1].real, state[-1].imag = z_re, z_im
        re, im = re + (c.real * z_re + c.imag * z_im), im + (c.real * z_im - c.imag * z_re)
    overlap = np.hypot(re, im)
    return FinalState(SuperpositionState(*state), overlap * overlap, 1.0 - retained)
