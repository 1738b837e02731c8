"""Physical parameters, derived rates, and validity-regime checks.

All frequencies and rates are stored internally as angular frequencies in
rad/s.  External interfaces (configs, CLI) take values in MHz with an
implicit factor of 2*pi, i.e. an input of "12 MHz" is stored as
2*pi*12e6 rad/s.  Keeping a single convention inside the library removes
the usual silent factor-of-2*pi mistakes.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

TWO_PI = 2.0 * math.pi
HBAR = 1.054571817e-34  # J s

# Rb-87 D2-line defaults used by the stock scenarios.
RB87_MASS = 1.44316060e-25  # kg
D2_WAVELENGTH = 780.241e-9  # m


def rad_per_s(value_mhz: float) -> float:
    """Convert a frequency given in MHz (implicit 2*pi) to rad/s."""
    return TWO_PI * 1e6 * value_mhz


def to_mhz(omega: float) -> float:
    """Inverse of :func:`rad_per_s`."""
    return omega / (TWO_PI * 1e6)


class PhysicalParams(namedtuple(
        "PhysicalParams", "g k gamma_sp omega1 omega2 delta delta_b_ground delta_b_excited phi2 "
        "atom_mass wavelength", defaults=(math.pi / 2, RB87_MASS, D2_WAVELENGTH))):
    """Constants of one atom-cavity node pair, bounded where a config parses them.

    Attributes
    ----------
    g : float
        Atom-cavity coupling (rad/s).
    k : float
        Cavity field decay rate (rad/s).
    gamma_sp : float
        Atomic spontaneous decay rate (rad/s).
    omega1, omega2 : float
        Peak Rabi frequencies of the sending / receiving control fields
        (rad/s).
    delta : float
        One-photon detuning (rad/s, signed, nonzero).
    delta_b_ground, delta_b_excited : float
        Zeeman splittings of the ground and excited hyperfine manifolds
        (rad/s).
    phi2 : float
        Phase of the second control field (radians).
    atom_mass : float
        kg.
    wavelength : float
        Photon wavelength, m.
    """

    __slots__ = ()


class DerivedQuantities(namedtuple("DerivedQuantities", "G1 alpha1 r_sn omega_rec")):
    """Rates derived from :class:`PhysicalParams`.

    G1 = g*omega1/|delta| is the sender's effective two-photon coupling
    after elimination of the excited state (the receiver's uses the
    solved omega2), alpha1 = 4*G1**2/k is the cavity photon generation
    rate, and r_sn = 4*g**2/(k*gamma_sp) is the emission signal-to-noise
    ratio.
    omega_rec = hbar*(2*pi/lambda)**2/(2*m) is the photon recoil frequency.
    """

    __slots__ = ()


def derive(params: PhysicalParams) -> DerivedQuantities:
    """Compute all derived rates from validated parameters."""
    abs_delta = abs(params.delta)
    G1 = params.g * params.omega1 / abs_delta
    alpha1 = 4.0 * G1 * G1 / params.k
    k_gamma = params.k * params.gamma_sp  # 0 where the product underflows: r_sn is inf
    r_sn = 4.0 * params.g * params.g / k_gamma if k_gamma else math.inf
    k_photon = TWO_PI / params.wavelength
    omega_rec = HBAR * k_photon * k_photon / (2.0 * params.atom_mass)
    return DerivedQuantities(G1, alpha1, r_sn, omega_rec)


class SuperpositionState(namedtuple("SuperpositionState", "c_m1 c_0 c_p1", defaults=(0j,))):
    """Complex amplitudes over the three ground Zeeman sublevels.

    Each field is a ``complex``, or a numpy column of them: a sweep's
    states, one entry per sample, read by the same closed forms.  The
    qubit case has ``c_p1 == 0``; a nonzero ``c_p1`` selects the qutrit
    protocol (a vacuum branch that emits no photons).
    """

    __slots__ = ()

    @property
    def norm_sq(self) -> float:
        return sum(self.populations)

    @property
    def populations(self) -> tuple:
        """|c|**2 of each amplitude: the modulus hypot(re, im), squared as a product.

        Python's ``abs(complex)`` is hypot, numpy's complex ``abs`` is not
        (they differ on about a third of random amplitudes), so hypot
        gives a column entry the floats of its state alone.
        """
        m_m1, m_0, m_p1 = [np.hypot(c.real, c.imag) for c in self]
        return m_m1 * m_m1, m_0 * m_0, m_p1 * m_p1

    @staticmethod
    def normalized(c_m1: complex, c_0: complex, c_p1: complex = 0j) -> "SuperpositionState":
        """Construct after dividing out the norm (which must be nonzero)."""
        norm = math.sqrt(sum(abs(c) * abs(c) for c in (c_m1, c_0, c_p1)))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return SuperpositionState(c_m1 / norm, c_0 / norm, c_p1 / norm)


class RegimeCheck(namedtuple("RegimeCheck", "name left right ratio minimum passed")):
    """One check: passed when ratio = left/right (inf where right is 0) is at least minimum."""

    __slots__ = ()


class RegimeReport(namedtuple("RegimeReport", "checks")):
    """Outcome of every separation-of-scales check the model relies on: a tuple of RegimeCheck."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c._asdict() for c in self.checks]}


def validate_regime(
    params: PhysicalParams,
    derived: DerivedQuantities,
    pulse_duration: float,
    min_ratio: float = 5.0,
) -> RegimeReport:
    """Check every inequality the effective model rests on.

    Each "much greater than" relation is operationalized as a minimum
    ratio (default 5).  Failures are reported, never raised; strict-mode
    behaviour is the caller's policy.

    Parameters
    ----------
    pulse_duration : float
        Duration of the sending control pulse (s), needed for the
        adiabaticity check k*T1 >> 1.
    """
    abs_delta = abs(params.delta)
    zeeman_max = max(params.delta_b_ground, params.delta_b_excited)

    pairs = [
        ("detuning_vs_cavity_decay", abs_delta, params.k),
        ("detuning_vs_spontaneous_decay", abs_delta, params.gamma_sp),
        ("detuning_vs_rabi", abs_delta, params.omega1),
        ("detuning_vs_zeeman", abs_delta, zeeman_max),
        ("cavity_decay_vs_raman_coupling", params.k, derived.G1),
        ("zeeman_ground_vs_cavity_decay", params.delta_b_ground, params.k),
        ("adiabatic_k_T1", params.k * pulse_duration, 1.0),
        ("signal_to_noise", derived.r_sn, 1.0),
        ("raman_coupling_vs_recoil", derived.G1, derived.omega_rec),
    ]
    checks = []
    for name, left, right in pairs:
        ratio = math.inf if right == 0.0 else left / right
        checks.append(RegimeCheck(name, left, right, ratio, min_ratio, ratio >= min_ratio))
    return RegimeReport(checks=tuple(checks))
