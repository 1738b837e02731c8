"""Fixed-step ODE oracles for the package's closed forms.

No command runs these.  They integrate the sender's moment equations and
the receiver's amplitude equations in time with classical order-4
stepping, so the tests can check ``sender.amplitudes_beta`` and
``receiver.gamma_analytic`` against something other than themselves.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from pnsslink.core import SuperpositionState
from pnsslink.numerics import TimeGrid
from pnsslink.receiver import ReceiverTrajectory, pulse_areas
from pnsslink.sender import PulseShape


class IntegrationError(RuntimeError):
    """Raised when an ODE right-hand side stops being finite."""


def refined(grid: TimeGrid) -> TimeGrid:
    """``grid`` with an extra sample at every midpoint (for RK4 stages)."""
    return TimeGrid(grid.t_start, grid.t_end, 2 * grid.n_points - 1)


def integrate_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    init: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """Classical fixed-step order-4 integration on the grid.

    ``rhs(t, y)`` may return any array broadcastable to ``y``; the state
    can be a single vector or a batch (extra leading axes).  Returns the
    trajectory with shape ``(grid.n_points,) + init.shape``.

    Raises
    ------
    IntegrationError
        If the state stops being finite, with the offending step index
        and time in the message.
    """
    y = np.array(init, dtype=complex)
    t = grid.values
    h = grid.dt
    traj = np.empty((grid.n_points,) + y.shape, dtype=complex)
    traj[0] = y
    for i in range(grid.n_points - 1):
        t0 = t[i]
        k1 = rhs(t0, y)
        k2 = rhs(t0 + 0.5 * h, y + (0.5 * h) * k1)
        k3 = rhs(t0 + 0.5 * h, y + (0.5 * h) * k2)
        k4 = rhs(t0 + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y.view(float))):
            raise IntegrationError(
                f"non-finite state after step {i + 1} (t = {t[i + 1]:.6e} s)"
            )
        traj[i + 1] = y
    return traj


# ---------------------------------------------------------------------------
# sender

# Order of the moment vector.
MOMENTS = ("sigma_m1", "sigma_0", "sigma_p1", "coh_m1_0", "coh_0_p1", "coh_m1_p1")

# Generator of the moment equations in the exposure variable,
# d/dtheta moments = M @ moments.  Population flows one step up the
# sublevel ladder; the step function at the stationary m=0 argument must
# count as 1 (right-continuous convention), otherwise the m=0 population
# would neither fill nor empty and the closed forms could not be
# reproduced.
_MOMENT_GENERATOR = np.array(
    [
        [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, -0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.5],
    ],
    dtype=complex,
)


def initial_moments(c: SuperpositionState) -> np.ndarray:
    """Moment vector of the pure input state, in ``MOMENTS`` order."""
    p_m1, p_0, p_p1 = c.populations
    return np.array(
        [
            p_m1,
            p_0,
            p_p1,
            np.conj(c.c_m1) * c.c_0,
            np.conj(c.c_0) * c.c_p1,
            np.conj(c.c_m1) * c.c_p1,
        ],
        dtype=complex,
    )


def simulate_sender_ode(
    pulse: PulseShape,
    alpha1: float,
    c: SuperpositionState | np.ndarray,
    grid: TimeGrid,
) -> dict[str, np.ndarray] | np.ndarray:
    """Integrate the sender's moment equations in time.

    Accepts either a single input state (returns a dict of the moment
    curves keyed by ``MOMENTS`` name, populations real) or a batch of
    initial moment vectors with shape (m, 6) (returns the raw trajectory
    array of shape (n_points, m, 6)).
    """
    mt = _MOMENT_GENERATOR.T

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return (alpha1 * pulse.evaluate(t)) * (y @ mt)

    if not isinstance(c, SuperpositionState):
        return integrate_ode(rhs, np.asarray(c, dtype=complex), grid)
    traj = integrate_ode(rhs, initial_moments(c), grid)
    out = {name: traj[:, i] for i, name in enumerate(MOMENTS)}
    for name in MOMENTS[:3]:
        out[name] = out[name].real
    return out


# ---------------------------------------------------------------------------
# receiver


def initial_amplitudes(c: SuperpositionState) -> np.ndarray:
    """Receiver amplitude vector before any photon arrives.

    Order: [g_0_0, g_1_1, g_m1_0, g_0_1, g_1_2, g_1_0].
    """
    return np.array([0.0, c.c_0, 0.0, 0.0, c.c_m1, c.c_p1], dtype=complex)


def _with_midpoints(samples: np.ndarray) -> np.ndarray:
    """Interleave midpoint values between consecutive samples.

    Interior intervals take the four-point cubic midpoint
    (-1, 9, 9, -1)/16, so the RK4 stages see the mode functions to
    fourth order; the two end intervals keep the linear midpoint.
    """
    out = np.empty(2 * len(samples) - 1, dtype=samples.dtype)
    out[0::2] = samples
    out[1::2] = 0.5 * (samples[1:] + samples[:-1])
    if len(samples) >= 4:
        out[3:-2:2] = (9.0 * (samples[1:-2] + samples[2:-1]) - (samples[:-3] + samples[3:])) / 16.0
    return out


def simulate_receiver_ode(
    pulse2: PulseShape,
    phi1: np.ndarray,
    phi2: np.ndarray,
    G2: float,
    k: float,
    control_phase: float,
    c: SuperpositionState | np.ndarray,
    grid: TimeGrid,
) -> ReceiverTrajectory | np.ndarray:
    """Integrate the receiver's amplitude equations in time.

    The two blocks evolve in their own area variables; here both are
    re-parameterized to t through the area rates and integrated jointly,
    for any control phase.  The one-photon amplitude g_0_1 addresses the
    symmetric superposition of the two single-photon modes, which is
    where the sqrt(2) couplings of the three-level ladder originate.

    Accepts either one input state (returns a
    :class:`~pnsslink.receiver.ReceiverTrajectory`) or a batch of initial
    amplitude vectors with shape (m, 6) in :func:`initial_amplitudes`
    order (returns the raw complex trajectory of shape (n_points, m, 6)).
    """
    ep = np.exp(1j * control_phase)
    em = np.conj(ep)
    s2 = 1.0 / math.sqrt(2.0)
    # State order: [g_0_0, g_1_1, g_m1_0, g_0_1, g_1_2, g_1_0].
    gen_eta = np.zeros((6, 6), dtype=complex)
    gen_eta[0, 1] = 0.5j * em
    gen_eta[1, 0] = 0.5j * ep
    gen_zeta = np.zeros((6, 6), dtype=complex)
    gen_zeta[2, 3] = 1j * s2 * em
    gen_zeta[3, 4] = 1j * s2 * em
    gen_zeta[3, 2] = 1j * s2 * ep
    gen_zeta[4, 3] = 1j * s2 * ep

    # Drive samples on the grid and its midpoints, so every RK4 stage
    # sees a consistently interpolated rate.
    fine = refined(grid)
    sqrt_f2 = np.sqrt(np.asarray(pulse2.evaluate(fine.values), dtype=float))
    phi1_f = _with_midpoints(phi1)
    phi2_f = _with_midpoints(phi2)
    pref = abs(G2) / math.sqrt(k)
    eta_rate = 2.0 * pref * sqrt_f2 * phi1_f
    zeta_rate = pref * sqrt_f2 * (phi1_f + phi2_f)

    t0 = fine.t_start
    half_dt = fine.dt
    gen_eta_t = gen_eta.T
    gen_zeta_t = gen_zeta.T

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        j = int(round((t - t0) / half_dt))
        return eta_rate[j] * (y @ gen_eta_t) + zeta_rate[j] * (y @ gen_zeta_t)

    if not isinstance(c, SuperpositionState):
        return integrate_ode(rhs, np.asarray(c, dtype=complex), grid)
    traj = integrate_ode(rhs, initial_amplitudes(c), grid)
    eta, zeta = pulse_areas(pulse2, phi1, phi2, G2, k, grid)
    return ReceiverTrajectory(
        eta=eta.samples,
        zeta=zeta.samples,
        g_0_0=traj[:, 0],
        g_1_1=traj[:, 1],
        g_m1_0=traj[:, 2],
        g_0_1=traj[:, 3],
        g_1_2=traj[:, 4],
        g_1_0=traj[:, 5],
    )
