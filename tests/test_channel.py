import json
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnsslink.channel import ChannelModel, attenuation_length, weighted_success
from pnsslink.cli import main
from pnsslink.config import _NUMBERS, parse_config
from pnsslink.pipeline import report_document, run_transfer

from conftest import load_csv, stock_doc


def link(length_km: float, atten_db_per_km: float = 2.0, phase_rate: float = 0.1,
         p_emission: float = 1.0, p_absorption: float = 1.0) -> ChannelModel:
    return ChannelModel(length_km, atten_db_per_km, phase_rate, p_emission, p_absorption)


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


class TestBudget:
    def test_zero_length(self):
        assert link(0.0).budget() == (1.0, 1.0, 1.0, 1.0, 0.0)

    def test_sixty_meters_two_photon(self):
        _, eta_2, _, _, _ = link(0.06).budget()
        assert eta_2 == pytest.approx(0.946, abs=1e-3)

    def test_one_attenuation_length(self):
        eta_1, _, _, _, _ = link(attenuation_length(2.0)).budget()
        assert eta_1 == pytest.approx(1.0 / math.e, rel=1e-12)

    # 8 km at 2 dB/km is one of the lengths where exp(...) ** 2 rounds
    # apart from the product.
    @example(length_km=8.0, atten_db_per_km=2.0)
    @given(length_km=st.floats(0.0, 50.0), atten_db_per_km=st.floats(1e-3, 1e3))
    @settings(deadline=None, max_examples=200)
    def test_two_photon_is_exact_square(self, length_km, atten_db_per_km):
        eta_1, eta_2, _, _, _ = link(length_km, atten_db_per_km).budget()
        assert eta_2 == eta_1 * eta_1  # bitwise

    @given(l_a=st.floats(0.0, 10.0), l_b=st.floats(0.0, 10.0))
    @settings(deadline=None, max_examples=40)
    def test_monotone_in_length_and_photon_number(self, l_a, l_b):
        lo, hi = sorted((l_a, l_b))
        (lo_1, _, _, _, _), (hi_1, hi_2, _, _, _) = link(lo).budget(), link(hi).budget()
        assert hi_1 <= lo_1
        assert hi_2 <= hi_1

    @given(length_km=st.floats(0.0, 50.0), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
    @settings(deadline=None, max_examples=40)
    def test_branch_success_is_emission_transmission_absorption(self, length_km, p, q):
        eta_1, eta_2, one, two, _ = link(length_km, p_emission=p, p_absorption=q).budget()
        assert (one, two) == (p * eta_1 * q, p * eta_2 * q)
        assert 0.0 <= two <= one <= 1.0

    def test_emission_limited(self):
        _, _, one, two, _ = link(0.0, p_emission=0.25).budget()
        assert one == two == 0.25

    def test_weighted_sixty_meter_link(self):
        _, _, one, two, _ = link(0.06).budget()
        assert weighted_success((0.7, 0.3, 0.0), one, two) == pytest.approx(0.954, abs=1e-3)

    def test_vacuum_branch_always_survives(self):
        _, _, one, two, _ = link(50.0).budget()
        assert weighted_success((0.0, 0.0, 1.0), one, two) == 1.0

    @pytest.mark.parametrize("length_km, rate, drift", [(1.0, 0.1, 0.1), (0.0, 0.1, 0.0), (10.0, -0.1, -1.0)])
    def test_phase_drift(self, length_km, rate, drift):
        assert link(length_km, phase_rate=rate).budget()[4] == pytest.approx(drift)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"p_emission": 1.2}, "p_emission"),
            ({"p_emission": -0.1}, "p_emission"),
            ({"p_absorption": 1.5}, "p_absorption"),
            ({"p_absorption": math.nan}, "p_absorption"),
            ({"length_km": -1.0}, "length"),
            ({"atten_db_per_km": 0.0}, "attenuation"),
        ],
    )
    def test_rejects_out_of_range_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            link(**{"length_km": 1.0, **fields})


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

    @pytest.mark.parametrize("rate", [0.1, -0.1])
    def test_phase_warning_reads_the_drift_magnitude(self, rate):
        doc = stock_doc()
        doc["channel"].update(L0_km=10.0, phase_rate=rate)
        body = report_document(run_transfer(parse_config(doc)))
        assert body["phase_drift_rad"] == pytest.approx(10.0 * rate)
        assert body["phase_warning"] is True


# Every channel number alone at each edge value, and each pair of them at
# each combination of the largest and smallest magnitudes.
CHANNEL_KEYS = [row.key for row in _NUMBERS["channel"]]
EDGE_VALUES = (0, -1, 1e-310, 1e-300, 1e-9, 0.5, 1, 2, 1e3, 1e200, 1e300, 1.7e308, -1e300)
PAIR_VALUES = (1e-310, 1e200, 1.7e308)
CHANNEL_EDITS = [{key: value} for key in CHANNEL_KEYS for value in EDGE_VALUES] + [
    dict(zip(keys, values))
    for keys in combinations(CHANNEL_KEYS, 2)
    for values in product(PAIR_VALUES, repeat=2)
]


def _finite_numbers(node) -> bool:
    if isinstance(node, dict):
        return all(map(_finite_numbers, node.values()))
    if isinstance(node, list):
        return all(map(_finite_numbers, node))
    return not isinstance(node, float) or math.isfinite(node)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edits", CHANNEL_EDITS, ids=lambda edits: ",".join(f"{k}={v!r}" for k, v in edits.items()))
def test_channel_edit_is_a_config_error_or_runs_finite(tmp_path, capsys, edits):
    # A transfer and a 2-sample sweep from the stock value of the first
    # edited key: each names a key it refuses, or writes finite outputs.
    doc = stock_doc()
    doc.update(grid={"span_in_T1": 12.0, "points": 401}, outputs={"which": ["report"]})
    stock = {row.key: doc["channel"].get(row.key, row.default) for row in _NUMBERS["channel"]}
    doc["channel"].update(edits)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    key, value = next(iter(edits.items()))
    sweep = ["--axis", f"channel.{key}", f"--start={stock[key]!r}", f"--stop={value!r}", "--num", "2"]
    for command, extra, output in (("transfer", [], "report.json"), ("sweep", sweep, "sweep.csv")):
        out = tmp_path / command
        code = main([command, "--config", str(path), "--out", str(out), *extra])
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("config error: ")
            assert any(f"channel.{key}" in err for key in edits)
            assert not out.exists()
            continue
        assert code == 0, err
        if output == "report.json":
            assert _finite_numbers(json.loads((out / output).read_text(encoding="utf-8")))
        else:
            table = load_csv(out / output)
            assert all(np.isfinite(table[name]).all() for name in table.dtype.names)


# The same property over every grid, pulse1, pulse2 and top-level number
# alone at each edge value, and over grids far coarser than the sending
# pulse and a sending pulse whose exposure overflows.
NUMBER_EDITS = [
    [(section, row.key, value)]
    for section in ("pulse1", "pulse2", "grid", "")
    for row in _NUMBERS[section]
    for value in EDGE_VALUES
] + [
    [("grid", "span_in_T1", span), ("grid", "points", points)]
    for span, points in ((1e5, 401), (1e7, 401), (1e10, 401), (3e154, 401), (1e6, 3001), (1e8, 20001))
] + [[("pulse1", "T1_us", 1e307)]]


def _dotted(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "edits", NUMBER_EDITS, ids=lambda edits: ",".join(f"{_dotted(s, k)}={v!r}" for s, k, v in edits))
def test_number_edit_is_a_config_error_or_runs_finite(tmp_path, capsys, edits):
    # A transfer, and a 2-sample sweep from the stock value of the first
    # edited key where the stock file has one: each names a key it refuses,
    # or writes finite outputs (exit 2 writes the solver's best effort).
    doc = stock_doc()
    doc.update(grid={"span_in_T1": 12.0, "points": 401}, outputs={"which": ["report"]})
    section, key, value = edits[0]
    row = next(row for row in _NUMBERS[section] if row.key == key)
    stock = (doc[section] if section else doc).get(key, row.default)
    for edit_section, edit_key, edit_value in edits:
        (doc[edit_section] if edit_section else doc)[edit_key] = edit_value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    runs = [("transfer", [], "report.json")]
    if isinstance(stock, (int, float)):
        sweep = ["--axis", _dotted(section, key), "--start", repr(stock), "--stop", repr(value), "--num", "2"]
        runs.append(("sweep", sweep, "sweep.csv"))
    for command, extra, output in runs:
        out = tmp_path / command
        code = main([command, "--config", str(path), "--out", str(out), *extra])
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("config error: ")
            assert any(_dotted(s, k) in err for s, k, _ in edits), err
            assert not out.exists()
            continue
        assert code in (0, 2), err
        if output == "report.json":
            assert _finite_numbers(json.loads((out / output).read_text(encoding="utf-8")))
        else:
            table = load_csv(out / output)
            assert all(np.isfinite(table[name]).all() for name in table.dtype.names)
