"""Output-field observables: photon statistics, fluxes, temporal modes.

The emitted field is carried in two distinct temporal modes: the first
photon occupies Phi1 and, when the input has weight on the m=-1
sublevel, a second photon follows in Phi2.  Both mode functions are
real and non-negative (they inherit the control-field phase, taken to
be zero), with units of s**-1/2.  They depend on the exposure theta(t)
alone (``emission_modes``); the input state only weights them
(``photon_fluxes``, ``photon_observables``).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

import numpy as np

from .core import SuperpositionState
from .numerics import SampledFunction, TimeGrid, quadrature_weights
from .sender import PulseShape, SenderTrajectory


class PhotonObservables(namedtuple("PhotonObservables",
                                   "p0 p1 p2 flux_total flux_one flux_two n_out g2")):
    """Photon-number probabilities, fluxes, n_out and g2 of one input state: arrays on a grid."""

    __slots__ = ()


class EmissionModes(namedtuple("EmissionModes", "pulse alpha1 phi1 phi2")):
    """The two temporal modes phi1, phi2 (arrays on the grid) of one sending pulse and its alpha1.

    The input state does not enter.
    """

    __slots__ = ()


def photon_distribution(traj: SenderTrajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_j(t): probability that j photons have been emitted, j = 0, 1, 2."""
    p0 = (
        np.abs(traj.beta_m1_0) ** 2
        + np.abs(traj.beta_0_0) ** 2
        + np.abs(traj.beta_p1_0) ** 2
    )
    p1 = np.abs(traj.beta_0_1) ** 2 + np.abs(traj.beta_p1_1) ** 2
    p2 = np.abs(traj.beta_p1_2) ** 2
    return p0, p1, p2


def emission_modes(theta: SampledFunction, pulse: PulseShape, alpha1: float) -> EmissionModes:
    """Mode functions |phi1|^2 = alpha1*f1*exp(-theta), |phi2|^2 = theta*|phi1|^2.

    The factor theta makes the second photon always peak later than the
    first.
    """
    rate, decay = _rate_and_decay(theta, pulse, alpha1)
    phi1 = np.sqrt(rate * decay)
    phi2 = np.sqrt(np.maximum(rate * theta.samples * decay, 0.0))
    return EmissionModes(pulse=pulse, alpha1=alpha1, phi1=phi1, phi2=phi2)


def _rate_and_decay(
    theta: SampledFunction, pulse: PulseShape, alpha1: float
) -> tuple[np.ndarray, np.ndarray]:
    # alpha1*f1(t) and exp(-theta).  Recomputed per call, not kept in
    # EmissionModes: a link keeps its modes while every state is sent over
    # it, and two more grid arrays would raise a transfer's peak memory.
    rate = alpha1 * np.asarray(pulse.evaluate(theta.grid.values), dtype=float)
    return rate, np.exp(-theta.samples)


def photon_fluxes(
    theta: SampledFunction, modes: EmissionModes, c: SuperpositionState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Photon fluxes ``(flux_total, flux_one, flux_two)`` of input ``c``.

    The branch weights satisfy
    flux_total = (|c_m1|^2 + |c_0|^2)*phi1^2 + |c_m1|^2*phi2^2,
    which for a two-sublevel input is the plain mode-decomposition
    identity flux_total = phi1^2 + |c_m1|^2*phi2^2.
    """
    rate, decay = _rate_and_decay(theta, modes.pulse, modes.alpha1)
    p_m1, p_0, _ = c.populations
    flux_one = (p_m1 + p_0) * modes.phi1**2
    flux_two = p_m1 * modes.phi2**2
    flux_total = rate * (p_m1 * (1.0 + theta.samples) + p_0) * decay
    return flux_total, flux_one, flux_two


def mean_photon_number(theta: SampledFunction, c: SuperpositionState) -> np.ndarray:
    """Mean emitted photon number n_out(t), the time integral of the flux.

    n_out(t) = (|c_0|^2 + 2|c_m1|^2)(1 - e**-theta) - |c_m1|^2 theta e**-theta.
    The vacuum branch of a qutrit input emits nothing, so its weight is
    absent; for a two-sublevel input the prefactor is 1 + |c_m1|^2.
    Equals P1 + 2*P2 identically.
    """
    th = theta.samples
    e_full = np.exp(-th)
    p_m1, p_0, _ = c.populations
    return (p_0 + 2.0 * p_m1) * (1.0 - e_full) - p_m1 * th * e_full


def g2_zero_delay(
    phi1: np.ndarray,
    phi2: np.ndarray,
    c: SuperpositionState,
) -> np.ndarray:
    """Zero-delay second-order correlation of the emitted field.

    Evaluated in the two-mode photon-number basis:
    g2 = 4|c_m1|^2 phi1^2 phi2^2 / (phi1^2 + |c_m1|^2 phi2^2)^2.
    By the AM-GM inequality this never exceeds 1 (equality exactly where
    phi1^2 = |c_m1|^2 phi2^2), and it vanishes identically when there is
    no two-photon component.  Where the flux is zero (both modes vanish)
    g2 is undefined and reads 0.
    """
    p_m1 = abs(c.c_m1) ** 2
    i1 = phi1**2
    i2 = phi2**2
    num = 4.0 * p_m1 * i1 * i2
    den = (i1 + p_m1 * i2) ** 2
    g2 = np.zeros_like(den)
    np.divide(num, den, out=g2, where=den > 0.0)
    return g2


def mode_overlap(phi1: np.ndarray, phi2: np.ndarray, grid: TimeGrid) -> float:
    """Normalized L2 overlap of the two temporal envelopes.

    The two photons are treated as independent emission events (distinct
    modes) throughout; this diagnostic quantifies how strongly their
    envelopes actually overlap in time.
    """
    w = quadrature_weights(grid)
    n1 = w @ (phi1 * phi1)
    n2 = w @ (phi2 * phi2)
    if not n1 * n2 > 0.0:  # a mode with no weight, or weights whose product underflows
        raise ValueError("mode_overlap needs two nonzero modes")
    return w @ (phi1 * phi2) / np.sqrt(n1 * n2)


def photon_observables(
    theta: SampledFunction,
    modes: EmissionModes,
    c: SuperpositionState,
    traj: SenderTrajectory,
    n_out: Optional[np.ndarray] = None,
    fluxes: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> PhotonObservables:
    """Every output-field observable of input ``c``; pass ``n_out`` and ``fluxes`` if computed."""
    p0, p1, p2 = photon_distribution(traj)
    flux_total, flux_one, flux_two = fluxes or photon_fluxes(theta, modes, c)
    return PhotonObservables(
        p0=p0,
        p1=p1,
        p2=p2,
        flux_total=flux_total,
        flux_one=flux_one,
        flux_two=flux_two,
        n_out=mean_photon_number(theta, c) if n_out is None else n_out,
        g2=g2_zero_delay(modes.phi1, modes.phi2, c),
    )
