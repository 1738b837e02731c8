import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsslink.channel import (
    ChannelModel,
    attenuation_length,
    phase_drift,
    success_probability,
    transmission_efficiency,
)
from pnsslink.config import parse_config
from pnsslink.pipeline import report_document, run_transfer

from conftest import stock_doc


class TestAttenuationLength:
    def test_two_db_per_km(self):
        assert attenuation_length(2.0) == pytest.approx(2.171472, abs=1e-6)

    def test_definition_inversion(self):
        assert attenuation_length(10.0 / math.log(10.0)) == pytest.approx(1.0, rel=1e-12)

    def test_telecom_band(self):
        assert attenuation_length(0.2) == pytest.approx(21.71472, abs=1e-5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            attenuation_length(0.0)


class TestTransmission:
    def test_zero_length(self):
        assert transmission_efficiency(0.0, 2.171, 1) == 1.0
        assert transmission_efficiency(0.0, 2.171, 2) == 1.0

    def test_sixty_meters_two_photon(self):
        l_att = attenuation_length(2.0)
        assert transmission_efficiency(0.06, l_att, 2) == pytest.approx(0.946, abs=1e-3)

    def test_one_attenuation_length(self):
        assert transmission_efficiency(3.0, 3.0, 1) == pytest.approx(1.0 / math.e, rel=1e-12)

    def test_two_photon_is_exact_square(self):
        for length in (0.0, 0.06, 1.7, 5.3):
            one = transmission_efficiency(length, 2.171472, 1)
            two = transmission_efficiency(length, 2.171472, 2)
            assert two == one * one  # bitwise

    def test_rejects_bad_photon_number(self):
        with pytest.raises(ValueError):
            transmission_efficiency(1.0, 2.0, 3)

    @given(
        l_a=st.floats(0.0, 10.0),
        l_b=st.floats(0.0, 10.0),
    )
    @settings(deadline=None, max_examples=40)
    def test_monotone_in_length_and_photon_number(self, l_a, l_b):
        lo, hi = sorted((l_a, l_b))
        assert transmission_efficiency(hi, 2.171, 1) <= transmission_efficiency(lo, 2.171, 1)
        assert transmission_efficiency(hi, 2.171, 2) <= transmission_efficiency(hi, 2.171, 1)


class TestSuccessProbability:
    def test_all_unity(self):
        assert success_probability(1.0, 1.0, 1.0) == 1.0

    def test_emission_limited(self):
        assert success_probability(0.25, 1.0, 1.0) == 0.25

    def test_weighted_sixty_meter_link(self):
        model = ChannelModel(length_km=0.06, atten_db_per_km=2.0)
        weighted = model.weighted_success((0.7, 0.3, 0.0))
        assert weighted == pytest.approx(0.954, abs=1e-3)

    def test_vacuum_branch_always_survives(self):
        model = ChannelModel(length_km=50.0, atten_db_per_km=2.0)
        assert model.weighted_success((0.0, 0.0, 1.0)) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            success_probability(1.2, 1.0, 1.0)

    @given(
        p=st.floats(0.0, 1.0),
        eta=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0),
    )
    @settings(deadline=None, max_examples=40)
    def test_multiplicative_and_order_free(self, p, eta, q):
        a = success_probability(p, eta, q)
        b = success_probability(q, p, eta)
        assert a == pytest.approx(b, rel=1e-12)
        assert 0.0 <= a <= 1.0


class TestPhaseDrift:
    def test_reference_rate(self):
        assert phase_drift(1.0, 0.1) == pytest.approx(0.1)

    def test_zero_length(self):
        assert phase_drift(0.0, 0.1) == 0.0


# (L0_km, weighted success, phase warning)
REPORT_CASES = {
    "ideal-link-0km": (0.0, 1.0, False),
    "sixty-metres": (0.06, 0.954, False),
    "long-link-10km": (10.0, 0.00307, True),
}


class TestReport:
    @pytest.mark.parametrize(
        "length_km, weighted, warning", list(REPORT_CASES.values()), ids=list(REPORT_CASES)
    )
    def test_transfer_report(self, length_km, weighted, warning):
        doc = stock_doc()
        doc["grid"] = {"span_in_T1": 12.0, "points": 4001}
        # An off-phase control stores the state imperfectly, so the
        # end-to-end figure shows the fidelity factor.
        doc["params"]["phi2_rad"] = 0.7
        doc["channel"]["L0_km"] = length_km
        result = run_transfer(parse_config(doc))
        body = report_document(result)
        assert set(body) >= {"fidelity", "success", "diagnostics", "solved_pulse"}
        assert body["fidelity"] < 0.99
        assert body["success"]["weighted"] == pytest.approx(weighted, rel=1e-3)
        assert body["success"]["end_to_end"] == pytest.approx(
            body["fidelity"] * weighted, rel=1e-3
        )
        assert body["phase_drift_rad"] == pytest.approx(0.1 * length_km)
        assert body["phase_warning"] is warning
