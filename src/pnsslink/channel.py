"""Fiber-link budget: attenuation, per-photon-number transmission, phase drift."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

PHASE_WARN_THRESHOLD = 0.5  # rad, reporting policy only


def attenuation_length(db_per_km: float) -> float:
    """Length over which transmission drops by 1/e, from a dB/km figure."""
    if not db_per_km > 0.0:
        raise ValueError("attenuation must be positive")
    return 10.0 / (db_per_km * math.log(10.0))


def transmission_efficiency(length_km: float, l_att_km: float, j: int) -> float:
    """exp(-j*L0/L_att): every one of the j photons must survive the fiber.

    Evaluated as the j-th power of the single-photon efficiency, so
    eta_2 = eta_1**2 holds exactly in floating point as well.
    """
    if j not in (1, 2):
        raise ValueError("photon number j must be 1 or 2")
    if length_km < 0.0 or l_att_km <= 0.0:
        raise ValueError("lengths must be non-negative (attenuation length positive)")
    return math.exp(-length_km / l_att_km) ** j


def success_probability(p_emission: float, eta_trans: float, p_absorption: float) -> float:
    """Product of emission, transmission and absorption probabilities."""
    for name, p in (
        ("p_emission", p_emission),
        ("eta_trans", eta_trans),
        ("p_absorption", p_absorption),
    ):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p_emission * eta_trans * p_absorption


def phase_drift(length_km: float, rate_rad_per_km: float = 0.1) -> float:
    """Accumulated fiber phase drift, reported as a diagnostic.

    The drift is a common phase on the whole wave packet and does not
    change any population, so it is never injected into the amplitudes.
    """
    return rate_rad_per_km * length_km


@dataclass(frozen=True)
class ChannelModel:
    """Link length and loss figures, with the derived attenuation length."""

    length_km: float
    atten_db_per_km: float = 2.0
    phase_rate_rad_per_km: float = 0.1
    p_emission: float = 1.0
    p_absorption: float = 1.0
    l_att_km: float = field(init=False)

    def __post_init__(self) -> None:
        if self.length_km < 0.0:
            raise ValueError("length must be non-negative")
        object.__setattr__(self, "l_att_km", attenuation_length(self.atten_db_per_km))

    def branch_success(self, j: int) -> float:
        """Success probability of the j-photon branch over this link."""
        eta = transmission_efficiency(self.length_km, self.l_att_km, j)
        return success_probability(self.p_emission, eta, self.p_absorption)

    def weighted_success(self, populations: tuple[float, float, float]) -> float:
        """Input-state-weighted success over the photon-number branches.

        ``populations`` are (two-photon, one-photon, vacuum) weights; the
        vacuum branch carries no photons and always survives.
        """
        w2, w1, w0 = populations
        return w1 * self.branch_success(1) + w2 * self.branch_success(2) + w0 * 1.0


@dataclass(frozen=True)
class TransferReport:
    """End-to-end summary of one transfer run.

    ``solver_iterations`` and ``solver_converged`` are None, and
    ``solver_mode`` is ``"explicit"``, for an explicit receiving pulse.
    """

    fidelity: float
    success_one_photon: float
    success_two_photon: float
    weighted_success: float
    end_to_end: float
    phase_drift_rad: float
    phase_warning: bool
    r_sn: float
    mode_overlap: float
    eta_residual: float
    zeta_residual: float
    leakage: float
    conservation_residual_max: float
    n_out_final: float
    solved_duration_s: float
    solved_center_s: float
    solved_omega2: float
    solver_iterations: Optional[int]
    solver_mode: str
    solver_converged: Optional[bool]
