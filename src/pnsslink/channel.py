"""Fiber-link budget: attenuation, per-photon-number transmission, phase drift."""

from __future__ import annotations

import math
from typing import NamedTuple

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

    A common phase on the whole wave packet does not change any
    population.  For a photon-number superposition, though, the fiber
    phase is a phase per photon, not a common one: it takes
    c_m1|2> + c_0|1> + c_p1|0> to c_m1 e^(2i phi)|2> + c_0 e^(i phi)|1> + c_p1|0>,
    which changes the stored state's coherences.  The drift is reported
    but not applied to the amplitudes.
    """
    return rate_rad_per_km * length_km


class _ChannelModelFields(NamedTuple):
    length_km: float
    atten_db_per_km: float
    phase_rate_rad_per_km: float
    p_emission: float
    p_absorption: float
    l_att_km: float


class ChannelModel(_ChannelModelFields):
    """Link length and loss figures, with the derived attenuation length."""

    __slots__ = ()

    def __new__(cls, length_km: float, atten_db_per_km: float = 2.0,
                phase_rate_rad_per_km: float = 0.1, p_emission: float = 1.0,
                p_absorption: float = 1.0) -> ChannelModel:
        if length_km < 0.0:
            raise ValueError("length must be non-negative")
        return super().__new__(cls, length_km, atten_db_per_km, phase_rate_rad_per_km,
                               p_emission, p_absorption, attenuation_length(atten_db_per_km))

    def branch_success(self, j: int) -> float:
        """Success probability of the j-photon branch over this link."""
        eta = transmission_efficiency(self.length_km, self.l_att_km, j)
        return success_probability(self.p_emission, eta, self.p_absorption)


def weighted_success(populations: tuple, success_one: float, success_two: float) -> float:
    """Branch successes weighted by (two-photon, one-photon, vacuum) ``populations``.

    The vacuum branch carries no photons and always survives.
    """
    w2, w1, w0 = populations
    return w1 * success_one + w2 * success_two + w0 * 1.0
