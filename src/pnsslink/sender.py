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
        # A gaussian's duration is bounded where a config parses it (pulse1.T1_us, pulse2.T2_*).
        if self.kind == "tabulated":
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


class SenderTrajectory(namedtuple("SenderTrajectory", "beta_m1_0 beta_0_0 beta_0_1 beta_p1_0 beta_p1_1 "
                                                "beta_p1_2")):
    """Joint amplitudes beta_m_j for (atom in sublevel m, j photons emitted).

    Each field has the shape of the exposure and the state it is read at:
    an array over the grid, or one value (or column) at the grid end.
    """

    __slots__ = ()


class AtomicMoments(namedtuple("AtomicMoments", "sigma_m1 sigma_0 sigma_p1 coh_m1_0 coh_0_p1 coh_m1_p1")):
    """Ground-sublevel populations ``sigma_*`` and the three independent coherences ``coh_*``."""

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
    ``alpha1`` is non-negative: the params rows bound g, k and omega1.
    """
    profile = SampledFunction(grid, np.asarray(pulse.evaluate(grid.values), dtype=float))
    integral = cumulative_integral(profile)
    if not math.isfinite(alpha1 * float(np.abs(integral.samples).max())):
        raise OverflowError("the exposure overflows float64")
    return SampledFunction(grid, alpha1 * integral.samples)


def atomic_moments(theta: np.ndarray, c: SuperpositionState) -> AtomicMoments:
    """Closed-form populations and coherences of the sending atom at exposure ``theta``.

    The initially populated m=+1 sublevel of a qutrit input neither gains
    nor loses population, so sigma_p1 generalizes to
    1 - sigma_m1 - sigma_0 and reduces to the two-level-input expression
    when c_p1 = 0.  The coherence forms are the unique solutions of the
    (linear) transfer equations for product initial conditions; the
    qutrit branch is validated against the moment-equation oracle of the
    tests rather than asserted independently.
    """
    e_full = np.exp(-theta)
    e_half = np.exp(-0.5 * theta)
    p_m1, p_0, _ = c.populations
    sigma_m1 = p_m1 * e_full
    sigma_0 = (p_0 + p_m1 * theta) * e_full
    q_m10 = np.conj(c.c_m1) * c.c_0
    q_0p1 = np.conj(c.c_0) * c.c_p1
    q_m1p1 = np.conj(c.c_m1) * c.c_p1
    return AtomicMoments(
        sigma_m1=sigma_m1,
        sigma_0=sigma_0,
        sigma_p1=1.0 - sigma_m1 - sigma_0,
        coh_m1_0=q_m10 * e_full,
        coh_0_p1=(q_0p1 + 2.0 * q_m10) * e_half - 2.0 * q_m10 * e_full,
        coh_m1_p1=q_m1p1 * e_half,
    )


def amplitudes_beta(theta: np.ndarray, c: SuperpositionState) -> SenderTrajectory:
    """Closed-form joint atom-field amplitudes beta_{m,j} at exposure ``theta``.

    ``theta`` is the exposure's samples on the grid or its end value alone,
    and ``c``'s fields are amplitudes or columns of them.  The squared
    amplitudes reconstruct the sublevel populations of
    :func:`atomic_moments`: sum_j |beta_{m,j}|^2 equals sigma_m.  For a
    qutrit input the extra branch is beta_{+1,0} = c_p1, constant, because
    that sublevel never scatters a photon.
    """
    e_full = np.exp(-theta)
    e_half = np.exp(-0.5 * theta)
    beta_0_0 = c.c_0 * e_half
    return SenderTrajectory(
        beta_m1_0=c.c_m1 * e_half,
        beta_0_0=beta_0_0,
        beta_0_1=c.c_m1 * np.sqrt(np.maximum(theta * e_full, 0.0)),
        beta_p1_0=np.full(np.shape(beta_0_0), c.c_p1, dtype=complex),
        beta_p1_1=c.c_0 * np.sqrt(np.maximum(1.0 - e_full, 0.0)),
        beta_p1_2=c.c_m1 * np.sqrt(np.maximum(1.0 - (1.0 + theta) * e_full, 0.0)),
    )
