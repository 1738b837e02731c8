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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import PhysicalParams, StateBatch, SuperpositionState
from .numerics import (
    BracketError,
    SampledFunction,
    TimeGrid,
    cumulative_integral,
    find_root,
    trapezoid,
)
from .sender import PulseShape


@dataclass(frozen=True)
class ReceiverTrajectory:
    """Areas, absorption amplitudes and populations of the second atom.

    Amplitudes ``g_m_j`` carry (atom sublevel m, photons still in the
    field j); ``rho_*`` are the resulting sublevel populations.
    """

    grid: TimeGrid
    eta: np.ndarray
    zeta: np.ndarray
    g_0_0: np.ndarray
    g_1_1: np.ndarray
    g_m1_0: np.ndarray
    g_0_1: np.ndarray
    g_1_2: np.ndarray
    g_1_0: np.ndarray

    @property
    def rho_m1(self) -> np.ndarray:
        return np.abs(self.g_m1_0) ** 2

    @property
    def rho_0(self) -> np.ndarray:
        return np.abs(self.g_0_0) ** 2 + np.abs(self.g_0_1) ** 2

    @property
    def rho_p1(self) -> np.ndarray:
        return np.abs(self.g_1_0) ** 2 + np.abs(self.g_1_1) ** 2 + np.abs(self.g_1_2) ** 2


@dataclass(frozen=True)
class PulseSolveResult:
    """Control pulse returned by :func:`solve_pulse_shape`."""

    pulse: PulseShape
    omega2: float
    eta_residual: float
    zeta_residual: float
    iterations: int
    mode: str
    converged: bool


class PulseSolveError(RuntimeError):
    """Raised when the area conditions cannot be met; carries best effort."""

    def __init__(self, message: str, best: Optional[PulseSolveResult] = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class FinalState:
    """Retained state at the end of a receiver run: c_m1, c_0, c_p1 in ``state``'s rows.

    A ``StateBatch`` gives a column per field, one entry per state.
    """

    state: np.ndarray
    fidelity: float | np.ndarray
    leakage: float | np.ndarray
    leakage_warning: bool | np.ndarray


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
    sqrt_f2 = np.sqrt(np.asarray(pulse2.evaluate(grid.values), dtype=float))
    pref = abs(G2) / math.sqrt(k)
    eta = cumulative_integral(SampledFunction(grid, 2.0 * pref * sqrt_f2 * phi1))
    zeta = cumulative_integral(SampledFunction(grid, pref * sqrt_f2 * (phi1 + phi2)))
    return eta, zeta


def _phase(phi2: float) -> tuple[complex, complex]:
    # u = exp(i(pi/2 - phi2)) and u**2, exactly 1+0j at phi2 = pi/2.  A batch
    # forms them per state with these same scalar operations, because numpy's
    # complex array product can round differently from the scalar one.
    u = np.exp(1j * (math.pi / 2 - phi2))
    return complex(u), complex(u * u)


def gamma_analytic(
    eta: SampledFunction,
    zeta: SampledFunction,
    c: SuperpositionState | StateBatch,
    phi2: float | list[float] = math.pi / 2,
) -> ReceiverTrajectory:
    """Closed-form absorption amplitudes at control phase ``phi2``.

    At pi/2, two-level block: g_0_0 = c_0 sin(eta/2), g_1_1 = c_0 cos(eta/2).
    Three-level block: g_1_2 = c_m1 (1+cos zeta)/2,
    g_0_1 = c_m1 sin(zeta)/sqrt(2), g_m1_0 = c_m1 (1-cos zeta)/2.
    The vacuum branch of a qutrit input is inert: g_1_0 = c_p1.
    Other phases are a diagonal similarity transform of this: with
    u = exp(i(pi/2 - phi2)), g_0_0 and g_0_1 gain a factor u, g_m1_0 u**2.

    A ``StateBatch`` takes one phase per state in ``phi2`` and gives every
    amplitude a leading axis, one row per state.
    """
    e = eta.samples
    z = zeta.samples
    if isinstance(phi2, list):
        phases = {p: _phase(p) for p in set(phi2)}  # a state sweep has a single phase
        u, u2 = (np.array(f)[:, None] for f in zip(*map(phases.__getitem__, phi2)))
    else:
        u, u2 = _phase(phi2)
    half_e = 0.5 * e
    cos_z = np.cos(z)
    g_1_1 = c.c_0 * np.cos(half_e)  # complex, as the amplitudes are
    return ReceiverTrajectory(
        grid=eta.grid,
        eta=e,
        zeta=z,
        g_0_0=c.c_0 * np.sin(half_e) * u,
        g_1_1=g_1_1,
        g_m1_0=0.5 * c.c_m1 * (1.0 - cos_z) * u2,
        g_0_1=c.c_m1 * np.sin(z) / math.sqrt(2.0) * u,
        g_1_2=0.5 * c.c_m1 * (1.0 + cos_z),
        g_1_0=np.full(g_1_1.shape, c.c_p1, dtype=complex),
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
) -> PulseSolveResult:
    """Shape the receiving control pulse so both areas reach pi.

    Two solve modes over a gaussian family:

    ``duration_center``
        Amplitude fixed at ``params.omega2``; duration and center free.
        The seed is a duration solve on zeta(inf) = pi at the photons'
        centroid, then a center solve on eta(inf) = pi at that duration
        (taken on the late flank, since the control should switch on
        around photon arrival).  Newton steps on both conditions follow,
        at most ``max_iterations``, each kept only while it stays inside
        both brackets and lowers the worse residual.
    ``duration_amplitude``
        Center fixed (``center`` argument); duration and amplitude free.
        The ratio of the two areas is amplitude-independent, so the
        duration is solved to equalize them and the amplitude then
        scales both onto pi exactly.

    Raises
    ------
    PulseSolveError
        On non-convergence, carrying the best residuals found.
    """
    pref_per_omega = params.g / abs(params.delta) / math.sqrt(params.k)
    dt = grid.dt
    t = grid.values
    evals = 0

    # How eta, zeta and zeta - eta weight the control envelope.
    rows = {"eta": 2.0 * phi1, "zeta": phi1 + phi2, "zeta-eta": phi2 - phi1}

    def final_areas(duration: float, t_center: float, omega2: float, *slopes) -> tuple:
        """eta and zeta at the grid end, then one partial derivative per
        ``(area, variable)`` pair in ``slopes``: an area of ``rows`` in
        "duration" or "center", all from the same exp pass."""
        nonlocal evals
        evals += 1
        u = (t - t_center) / duration
        uu = u * u
        sqrt_f2 = np.exp(-0.5 * uu)
        pref = omega2 * pref_per_omega
        a1 = pref * trapezoid(sqrt_f2 * phi1, dt)
        a2 = pref * trapezoid(sqrt_f2 * phi2, dt)
        # d sqrt_f2 / d duration = sqrt_f2 u**2 / T, d sqrt_f2 / d center = sqrt_f2 u / T.
        partial = {"duration": uu, "center": u}
        return 2.0 * a1, a1 + a2, *(
            pref / duration * trapezoid(sqrt_f2 * partial[v] * rows[a], dt) for a, v in slopes
        )

    def result(duration: float, t_center: float, omega2: float) -> PulseSolveResult:
        eta_inf, zeta_inf = final_areas(duration, t_center, omega2)
        pulse = PulseShape(kind="gaussian", duration=duration, center=t_center)
        return PulseSolveResult(
            pulse=pulse,
            omega2=omega2,
            eta_residual=eta_inf - math.pi,
            zeta_residual=zeta_inf - math.pi,
            iterations=evals,
            mode=mode,
            converged=(abs(eta_inf - math.pi) <= tol and abs(zeta_inf - math.pi) <= tol),
        )

    if mode == "duration_amplitude":
        if center is None:
            raise ValueError("duration_amplitude mode needs a fixed center")
        return _solve_duration_amplitude(
            final_areas, result, center, params.omega2, duration_bracket, tol
        )
    if mode != "duration_center":
        raise ValueError(f"unknown solve mode {mode!r}")

    omega2 = params.omega2
    if center_bracket is None:
        center_bracket = (grid.t_start, grid.t_end)

    # Initial center: centroid of the incoming photon envelope.
    weight = phi1 + phi2
    t_center = float(trapezoid(weight * t, dt) / trapezoid(weight, dt))
    duration = math.sqrt(duration_bracket[0] * duration_bracket[1])

    def zeta_minus_pi(d: float) -> tuple[float, float]:
        _, zeta_inf, slope = final_areas(d, t_center, omega2, ("zeta", "duration"))
        return zeta_inf - math.pi, slope

    def eta_minus_pi(x: float) -> tuple[float, float]:
        eta_inf, _, slope = final_areas(duration, x, omega2, ("eta", "center"))
        return eta_inf - math.pi, slope

    try:
        duration = find_root(zeta_minus_pi, duration_bracket, tol=1e-12, slope=True)
        t_center = _late_flank_root(
            lambda x: final_areas(duration, x, omega2)[0] - math.pi,
            eta_minus_pi,
            center_bracket,
        )
    except BracketError as exc:
        raise PulseSolveError(
            f"area conditions not reachable in mode {mode!r}: {exc}",
            best=result(duration, t_center, omega2),
        ) from exc
    best = result(duration, t_center, omega2)
    for _ in range(max_iterations):
        if best.converged:
            break
        step = _newton_step(final_areas(duration, t_center, omega2, *_JACOBIAN), duration, t_center)
        if step is None or not (
            duration_bracket[0] <= step[0] <= duration_bracket[1]
            and center_bracket[0] <= step[1] <= center_bracket[1]
        ):
            break
        trial = result(step[0], step[1], omega2)
        if _worse(trial) >= _worse(best):
            break
        (duration, t_center), best = step, trial
    if best.converged:
        return best
    raise PulseSolveError(
        f"no joint convergence after {evals} evaluations "
        f"(best residuals {best.eta_residual:.3e}, {best.zeta_residual:.3e})",
        best=best,
    )


def _worse(r: PulseSolveResult) -> float:
    return max(abs(r.eta_residual), abs(r.zeta_residual))


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


def _late_flank_root(f, f_slope, bracket: tuple[float, float], n_scan: int = 61) -> float:
    """Root of f on the descending (late) side of its single maximum; f_slope gives (f, f')."""
    xs = np.linspace(bracket[0], bracket[1], n_scan)
    vals = np.array([f(x) for x in xs])
    i_peak = int(np.argmax(vals))
    if vals[i_peak] < 0.0:
        raise BracketError(
            f"peak value {vals[i_peak] + math.pi:.6f} stays below pi; "
            "the fixed amplitude cannot reach the required area"
        )
    return find_root(f_slope, (xs[i_peak], bracket[1]), tol=1e-12, slope=True)


def _solve_duration_amplitude(
    final_areas,
    result,
    center: float,
    omega2_seed: float,
    duration_bracket: tuple[float, float],
    tol: float,
) -> PulseSolveResult:
    areas_at = {}

    def imbalance(duration: float) -> tuple[float, float]:
        eta_inf, zeta_inf, slope = final_areas(
            duration, center, omega2_seed, ("zeta-eta", "duration")
        )
        areas_at[duration] = eta_inf, zeta_inf
        # zeta - eta is proportional to the overlap difference of the two
        # photon envelopes with the control window; its zero equalizes
        # the two areas independently of the amplitude.
        return zeta_inf - eta_inf, slope

    try:
        duration = find_root(imbalance, duration_bracket, tol=1e-14, slope=True)
    except BracketError as exc:
        raise PulseSolveError(
            "cannot equalize the two areas at this center; move the control "
            f"pulse later or widen the duration bracket: {exc}",
            best=None,
        ) from exc
    eta_inf, _ = areas_at.get(duration) or final_areas(duration, center, omega2_seed)
    if eta_inf <= 0.0:
        raise PulseSolveError("control pulse does not overlap the photon modes")
    omega2 = omega2_seed * math.pi / eta_inf
    res = result(duration, center, omega2)
    if not res.converged:
        raise PulseSolveError(
            f"amplitude scaling left residuals above {tol:g} "
            f"({res.eta_residual:.3e}, {res.zeta_residual:.3e})",
            best=res,
        )
    return res


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


def final_state(
    traj: ReceiverTrajectory,
    c_in: SuperpositionState | StateBatch,
    leakage_threshold: float = 1e-3,
) -> FinalState:
    """Read out the stored state and compare with the input.

    The retained amplitudes are those with no photons left in the field.
    Fidelity is computed against the renormalized retained state; the
    discarded weight is reported as leakage and flagged when it exceeds
    the threshold.  A ``StateBatch`` is read out in one pass, to the floats
    of one state at a time: moduli are hypot(re, im), products are spelled
    out in real parts (numpy's complex abs and product round otherwise)
    and squares are products (numpy's scalar power rounds otherwise).
    """
    ends = np.array([traj.g_m1_0[..., -1], traj.g_0_0[..., -1], traj.g_1_0[..., -1]])
    m_m1, m_0, m_p1 = np.hypot(ends.real, ends.imag)  # scalars for one state
    retained = m_m1 * m_m1 + m_0 * m_0 + m_p1 * m_p1
    if not (retained > 0.0).all():
        raise ValueError("cannot normalize the zero state")
    norm = np.sqrt(retained)
    state = np.empty(ends.shape, dtype=complex)
    state.real, state.imag = ends.real / norm, ends.imag / norm
    c = np.array([c_in.c_m1, c_in.c_0, c_in.c_p1]).reshape(ends.shape)
    # conj(c) * state per sublevel, summed: <c_in|state>.
    re = c.real * state.real + c.imag * state.imag
    im = c.real * state.imag - c.imag * state.real
    overlap = np.hypot(re[0] + re[1] + re[2], im[0] + im[1] + im[2])
    leakage = 1.0 - retained
    return FinalState(
        state=state,
        fidelity=overlap * overlap,
        leakage=leakage,
        leakage_warning=leakage > leakage_threshold,
    )
