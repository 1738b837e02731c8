"""Sending-node dynamics: pump exposure, atomic moments, emission amplitudes.

The closed forms below depend on the control pulse only through the
accumulated exposure theta(t) = alpha1 * integral of f1 up to t, so two
pulses with identical exposure histories produce identical atomic
dynamics.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .core import SuperpositionState
from .numerics import SampledFunction, TimeGrid, cumulative_integral


class PulseShape(namedtuple("PulseShape", "kind duration center table", defaults=(0.0, None))):
    """Peak-normalized intensity profile of a control pulse.

    For the gaussian kind, f(t) = exp(-((t - center)/duration)**2).
    A tabulated profile is ``table``, a :class:`SampledFunction` (None for
    the gaussian kind), linearly interpolated; it must stay in [0, 1].
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PulseShape:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("gaussian", "tabulated"):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if self.kind == "gaussian":
            if not self.duration > 0.0:
                raise ValueError("gaussian pulse needs duration > 0")
        else:
            if self.table is None:
                raise ValueError("tabulated pulse needs a table")
            samples = self.table.samples
            if np.any(samples < 0.0) or np.any(samples > 1.0):
                raise ValueError("tabulated profile must lie in [0, 1]")
        return self

    def evaluate(self, t: np.ndarray | float) -> np.ndarray | float:
        """Intensity profile f(t), in [0, 1]."""
        if self.kind == "gaussian":
            u = (np.asarray(t) - self.center) / self.duration
            return np.exp(-u * u)
        return np.interp(
            np.asarray(t), self.table.grid.values, self.table.samples, left=0.0, right=0.0
        )


class SenderTrajectory(namedtuple(
        "SenderTrajectory", "theta sigma_m1 sigma_0 sigma_p1 coh_m1_0 coh_0_p1 coh_m1_p1 beta_m1_0 "
        "beta_0_0 beta_0_1 beta_p1_0 beta_p1_1 beta_p1_2")):
    """Atomic populations, coherences and emission amplitudes on a grid.

    ``sigma_*`` are the ground-sublevel populations, ``coh_*`` the three
    independent ground-state coherences, and ``beta_m_j`` the joint
    amplitudes for (atom in sublevel m, j photons emitted).  Each field is
    an array over the grid.
    """

    __slots__ = ()


def pump_exposure(pulse: PulseShape, alpha1: float, grid: TimeGrid) -> SampledFunction:
    """Accumulated exposure theta(t) = alpha1 * cumulative integral of f1.

    theta is dimensionless, starts at 0 and its final value is
    proportional to the total pulse energy.  The integral is the
    fourth-order cumulative rule (``numerics.cumulative_integral``), one
    path for every pulse kind; on the default grid of a gaussian it is
    within ~4e-12 of the erf closed form.  It is non-decreasing wherever
    the grid resolves the pulse; a grid far coarser than the pulse width
    can give dips of the size of the unresolved tail.  An exposure that
    float64 cannot carry raises ``OverflowError`` before it is scaled.
    """
    if alpha1 < 0.0:
        raise ValueError("alpha1 must be non-negative")
    profile = SampledFunction(grid, np.asarray(pulse.evaluate(grid.values), dtype=float))
    integral = cumulative_integral(profile)
    if not math.isfinite(alpha1 * float(np.abs(integral.samples).max())):
        raise OverflowError("the exposure overflows float64")
    return SampledFunction(grid, alpha1 * integral.samples)


def amplitudes_beta(theta: SampledFunction, c: SuperpositionState) -> SenderTrajectory:
    """Closed-form atomic moments and joint atom-field amplitudes beta_{m,j}(t).

    Everything depends on the exposure history theta(t) alone.  The
    initially populated m=+1 sublevel of a qutrit input neither gains nor
    loses population, so sigma_p1 generalizes to 1 - sigma_m1 - sigma_0
    and reduces to the two-level-input expression when c_p1 = 0.  The
    coherence forms are the unique solutions of the (linear) transfer
    equations for product initial conditions; the qutrit branch is
    validated against the moment-equation oracle of the tests rather than
    asserted independently.

    The squared amplitudes reconstruct the sublevel populations exactly:
    sum_j |beta_{m,j}|^2 equals sigma_m at every grid point.  For a
    qutrit input the extra branch is beta_{+1,0}(t) = c_p1, constant,
    because that sublevel never scatters a photon.
    """
    th = theta.samples
    e_full = np.exp(-th)
    e_half = np.exp(-0.5 * th)
    p_m1, p_0, _ = c.populations

    sigma_m1 = p_m1 * e_full
    sigma_0 = (p_0 + p_m1 * th) * e_full

    q_m10 = np.conj(c.c_m1) * c.c_0
    q_0p1 = np.conj(c.c_0) * c.c_p1
    q_m1p1 = np.conj(c.c_m1) * c.c_p1
    coh_m1_0 = q_m10 * e_full
    coh_0_p1 = (q_0p1 + 2.0 * q_m10) * e_half - 2.0 * q_m10 * e_full
    coh_m1_p1 = q_m1p1 * e_half

    one_photon = np.sqrt(np.maximum(th * e_full, 0.0))
    survive_1 = np.sqrt(np.maximum(1.0 - e_full, 0.0))
    survive_2 = np.sqrt(np.maximum(1.0 - (1.0 + th) * e_full, 0.0))

    return SenderTrajectory(
        theta=th,
        sigma_m1=sigma_m1,
        sigma_0=sigma_0,
        sigma_p1=1.0 - sigma_m1 - sigma_0,
        coh_m1_0=coh_m1_0,
        coh_0_p1=coh_0_p1,
        coh_m1_p1=coh_m1_p1,
        beta_m1_0=c.c_m1 * e_half,
        beta_0_0=c.c_0 * e_half,
        beta_0_1=c.c_m1 * one_photon,
        beta_p1_0=np.full(sigma_m1.shape, c.c_p1, dtype=complex),
        beta_p1_1=c.c_0 * survive_1,
        beta_p1_2=c.c_m1 * survive_2,
    )
