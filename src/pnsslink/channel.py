"""Fiber-link budget: attenuation, per-photon-number transmission, phase drift."""

from __future__ import annotations

import math
from collections import namedtuple

PHASE_WARN_THRESHOLD = 0.5  # rad, reporting policy only


def attenuation_length(db_per_km: float) -> float:
    """Length over which transmission drops by 1/e, from a dB/km figure."""
    return 10.0 / (db_per_km * math.log(10.0))


class ChannelModel(namedtuple("ChannelModel", "length_km atten_db_per_km phase_rate_rad_per_km "
                                              "p_emission p_absorption l_att_km")):
    """Link length and loss figures, with the attenuation length they derive."""

    __slots__ = ()

    def budget(self) -> tuple[float, float, float, float, float]:
        """eta_1, eta_2, the one- and two-photon branch successes and the phase drift.

        eta_j = exp(-j*L0/L_att): every one of the j photons must survive
        the fiber.  eta_2 is spelled eta_1 * eta_1, so it is eta_1 squared
        exactly in floating point as well.  A branch succeeds with
        probability p_emission * eta_j * p_absorption.

        The drift is phase_rate * L0, reported as a diagnostic.  A common
        phase on the whole wave packet does not change any population.
        For a photon-number superposition, though, the fiber phase is a
        phase per photon, not a common one: it takes
        c_m1|2> + c_0|1> + c_p1|0> to c_m1 e^(2i phi)|2> + c_0 e^(i phi)|1> + c_p1|0>,
        which changes the stored state's coherences.  The drift is reported
        but not applied to the amplitudes.
        """
        eta_1 = math.exp(-self.length_km / self.l_att_km)
        eta_2 = eta_1 * eta_1
        return (eta_1, eta_2, self.p_emission * eta_1 * self.p_absorption,
                self.p_emission * eta_2 * self.p_absorption,
                self.phase_rate_rad_per_km * self.length_km)


def weighted_success(populations: tuple, success_one: float, success_two: float) -> float:
    """Branch successes weighted by (two-photon, one-photon, vacuum) ``populations``.

    The vacuum branch carries no photons and always survives.
    """
    w2, w1, w0 = populations
    return w1 * success_one + w2 * success_two + w0 * 1.0
