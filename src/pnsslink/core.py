"""Physical parameters, derived rates, and validity-regime checks.

All frequencies and rates are stored internally as angular frequencies in
rad/s.  External interfaces (configs, CLI) take values in MHz with an
implicit factor of 2*pi, i.e. an input of "12 MHz" is stored as
2*pi*12e6 rad/s.  Keeping a single convention inside the library removes
the usual silent factor-of-2*pi mistakes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PhysicalParams:
    """Constants of one atom-cavity node pair.

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

    g: float
    k: float
    gamma_sp: float
    omega1: float
    omega2: float
    delta: float
    delta_b_ground: float
    delta_b_excited: float
    phi2: float = math.pi / 2
    atom_mass: float = RB87_MASS
    wavelength: float = D2_WAVELENGTH

    def __post_init__(self) -> None:
        positive = {
            "g": self.g,
            "k": self.k,
            "gamma_sp": self.gamma_sp,
            "delta_b_ground": self.delta_b_ground,
            "delta_b_excited": self.delta_b_excited,
            "atom_mass": self.atom_mass,
            "wavelength": self.wavelength,
        }
        for name, value in positive.items():
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        for name, value in (("omega1", self.omega1), ("omega2", self.omega2)):
            if value < 0.0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.delta == 0.0:
            raise ValueError("delta must be nonzero")


@dataclass(frozen=True)
class DerivedQuantities:
    """Rates derived from :class:`PhysicalParams`.

    G1 = g*omega1/|delta| and G2 = g*omega2/|delta| are the effective
    two-photon couplings after elimination of the excited state,
    alpha1 = 4*G1**2/k is the cavity photon generation rate, and
    r_sn = 4*g**2/(k*gamma_sp) is the emission signal-to-noise ratio.
    omega_rec = hbar*(2*pi/lambda)**2/(2*m) is the photon recoil frequency.
    """

    G1: float
    G2: float
    alpha1: float
    r_sn: float
    gamma1_peak: float
    omega_rec: float


def derive(params: PhysicalParams) -> DerivedQuantities:
    """Compute all derived rates from validated parameters."""
    abs_delta = abs(params.delta)
    G1 = params.g * params.omega1 / abs_delta
    G2 = params.g * params.omega2 / abs_delta
    alpha1 = 4.0 * G1 * G1 / params.k
    r_sn = 4.0 * params.g * params.g / (params.k * params.gamma_sp)
    gamma1_peak = (params.omega1 / params.delta) ** 2 * params.gamma_sp
    k_photon = TWO_PI / params.wavelength
    omega_rec = HBAR * k_photon * k_photon / (2.0 * params.atom_mass)
    return DerivedQuantities(
        G1=G1,
        G2=G2,
        alpha1=alpha1,
        r_sn=r_sn,
        gamma1_peak=gamma1_peak,
        omega_rec=omega_rec,
    )


NORM_TOL = 1e-12


@dataclass(frozen=True)
class SuperpositionState:
    """Complex amplitudes over the three ground Zeeman sublevels.

    The qubit case has ``c_p1 == 0``; a nonzero ``c_p1`` selects the
    qutrit protocol (a vacuum branch that emits no photons).
    """

    c_m1: complex
    c_0: complex
    c_p1: complex = 0j

    def __post_init__(self) -> None:
        for name in ("c_m1", "c_0", "c_p1"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.norm_sq - 1.0) > NORM_TOL:
            raise ValueError(
                f"state not normalized: |c|^2 = {self.norm_sq!r} (tol {NORM_TOL})"
            )

    @property
    def norm_sq(self) -> float:
        return abs(self.c_m1) ** 2 + abs(self.c_0) ** 2 + abs(self.c_p1) ** 2

    @property
    def populations(self) -> tuple[float, float, float]:
        return (abs(self.c_m1) ** 2, abs(self.c_0) ** 2, abs(self.c_p1) ** 2)

    @property
    def is_qutrit(self) -> bool:
        return abs(self.c_p1) > 0.0

    @staticmethod
    def normalized(c_m1: complex, c_0: complex, c_p1: complex = 0j) -> "SuperpositionState":
        """Construct after dividing out the norm (which must be nonzero)."""
        norm = math.sqrt(abs(c_m1) ** 2 + abs(c_0) ** 2 + abs(c_p1) ** 2)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return SuperpositionState(c_m1 / norm, c_0 / norm, c_p1 / norm)

    def overlap_sq(self, other: "SuperpositionState") -> float:
        """|<self|other>|^2."""
        amp = (
            self.c_m1.conjugate() * other.c_m1
            + self.c_0.conjugate() * other.c_0
            + self.c_p1.conjugate() * other.c_p1
        )
        return abs(amp) ** 2


class StateBatch:
    """Input states stacked so that a closed form evaluates them in one pass.

    ``c_m1``, ``c_0``, ``c_p1`` and ``populations`` are columns, one row per
    state, that broadcast against a grid; each entry is the state's own value.
    """

    def __init__(self, states: list[SuperpositionState]):
        rows = ((s.c_m1, s.c_0, s.c_p1, *s.populations) for s in states)
        columns = [np.array(values)[:, None] for values in zip(*rows)]
        self.c_m1, self.c_0, self.c_p1 = columns[:3]
        self.populations = tuple(columns[3:])


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    left: float
    right: float
    ratio: float
    minimum: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "left": self.left,
            "right": self.right,
            "ratio": self.ratio,
            "minimum": self.minimum,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of every separation-of-scales check the model relies on."""

    checks: tuple[RegimeCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[RegimeCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.name}: ratio {c.ratio:.3g} (minimum {c.minimum:g})"
            )
        return lines


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
        checks.append(
            RegimeCheck(
                name=name,
                left=left,
                right=right,
                ratio=ratio,
                minimum=min_ratio,
                passed=ratio >= min_ratio,
            )
        )
    return RegimeReport(checks=tuple(checks))
