import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnsslink.channel import ChannelModel, attenuation_length, weighted_success
from pnsslink.cli import main
from pnsslink.config import _NUMBERS, MAX_GRID_POINTS, parse_config
from pnsslink.pipeline import report_document, run_transfer

from conftest import load_csv, stock_doc


def link(length_km: float, atten_db_per_km: float = 2.0, phase_rate: float = 0.1,
         p_emission: float = 1.0, p_absorption: float = 1.0) -> ChannelModel:
    return ChannelModel(length_km, atten_db_per_km, phase_rate, p_emission, p_absorption,
                        attenuation_length(atten_db_per_km))


class TestAttenuationLength:
    def test_two_db_per_km(self):
        assert attenuation_length(2.0) == pytest.approx(2.171472, abs=1e-6)

    def test_definition_inversion(self):
        assert attenuation_length(10.0 / math.log(10.0)) == pytest.approx(1.0, rel=1e-12)

    def test_telecom_band(self):
        assert attenuation_length(0.2) == pytest.approx(21.71472, abs=1e-5)


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


def _quotes_each_named_number(err: str, doc: dict, axis: str) -> None:
    """Assert that each number of ``doc`` that ``err`` names carries its value as written.

    The quoted number must parse to the value that ``doc``'s parses to.  A
    bound of the key itself (``<key> must ...``) ends with the value
    instead, an unset number is named alone, and an unset grid.points
    with the point count its span gives.  A sweep's ``axis`` is quoted
    at a sample's value, not the document's, and is not checked.
    """
    for section, rows in _NUMBERS.items():
        table = doc.get(section, {}) if section else doc
        for row in rows:
            key = f"{section}.{row.key}" if section else row.key
            value = table.get(row.key, row.default)
            for match in re.finditer(rf"(?<![\w.]){re.escape(key)}(?![\w\[])( \S*)?", err):
                word = (match[1] or "").strip(" ,;:)")
                if word == "must" or key == axis or not isinstance(value, (int, float)) and value is not None:
                    continue
                if value is None:
                    assert word == "(unset" and key == "grid.points", err
                else:
                    number = re.fullmatch(r"[-+]?[\d.]+(e[-+]?\d+)?", word)
                    assert number and float(word) * row.scale == float(value) * row.scale, (key, err)


def _run(out: Path, command: str, path: Path, extra: list[str], keys, which=("report",)) -> tuple[int, str]:
    """``command`` on the document at ``path``, writing to ``out``: its exit code and stderr.

    Exit 1 must be a config error that names one of ``keys``, quotes the
    value of each number it names, and writes nothing; any other exit
    must write exactly the files ``command`` writes for the outputs
    ``which``, with every CSV cell and JSON number finite.
    """
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(path), "--out", str(out), *extra])
    err = stderr.getvalue()
    if code == 1:
        assert err.startswith("config error: ") and any(key in err for key in keys), err
        axis = extra[extra.index("--axis") + 1] if "--axis" in extra else None
        _quotes_each_named_number(err, json.loads(path.read_text(encoding="utf-8")), axis)
        assert not out.exists()
        return code, err
    if command == "sweep":
        expected = {"sweep.csv"}
    else:
        names = ("sender", "photonics", *({"regime"} & set(which))) if command == "send" else which
        expected = {f"{name}.json" if name in ("report", "regime") else f"{name}.csv" for name in names}
    assert {written.name for written in out.iterdir()} == expected, err
    for written in out.iterdir():
        if written.suffix == ".json":
            assert _finite_numbers(json.loads(written.read_text(encoding="utf-8"))), written
        else:
            table = load_csv(written)
            assert all(np.isfinite(table[name]).all() for name in table.dtype.names), written
    return code, err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edits", CHANNEL_EDITS, ids=lambda edits: ",".join(f"{k}={v!r}" for k, v in edits.items()))
def test_channel_edit_is_a_config_error_or_runs_finite(tmp_path, edits):
    # A send, a transfer and a 2-sample sweep from the stock value of the
    # first edited key: each names a key it refuses, or writes finite outputs.
    doc = stock_doc()
    doc.update(grid={"span_in_T1": 12.0, "points": 401}, outputs={"which": ["report"]})
    stock = {row.key: doc["channel"].get(row.key, row.default) for row in _NUMBERS["channel"]}
    doc["channel"].update(edits)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    key, value = next(iter(edits.items()))
    sweep = ["--axis", f"channel.{key}", f"--start={stock[key]!r}", f"--stop={value!r}", "--num", "2"]
    for command, extra in (("send", []), ("transfer", []), ("sweep", sweep)):
        code, err = _run(tmp_path / command, command, path, extra, [f"channel.{key}" for key in edits])
        assert code in (0, 1), err


# The same property over every params, pulse1, pulse2, grid and top-level
# number and every initial_state amplitude entry alone at each edge value,
# and over grids far coarser than the sending pulse and a sending pulse
# whose exposure overflows.  The params and amplitude edits run on both
# stock documents, the others on the qubit's.
AMPLITUDE_ENTRIES = [f"{name}[{part}]" for name in ("c_m1", "c_0", "c_p1") for part in (0, 1)]
STATE_EDITS = [
    [("params", row.key, value)] for row in _NUMBERS["params"] for value in EDGE_VALUES
] + [[("initial_state", entry, value)] for entry in AMPLITUDE_ENTRIES for value in EDGE_VALUES]
NUMBER_EDITS = [
    [(section, row.key, value)]
    for section in ("pulse1", "pulse2", "grid", "")
    for row in _NUMBERS[section]
    for value in EDGE_VALUES
] + [
    [("grid", "span_in_T1", span), ("grid", "points", points)]
    for span, points in ((1e5, 401), (1e7, 401), (1e10, 401), (3e154, 401), (1e6, 3001), (1e8, 20001))
] + [[("pulse1", "T1_us", 1e307)]]
NUMBER_CASES = [(qutrit, edits) for edits in STATE_EDITS for qutrit in (False, True)] + [
    (False, edits) for edits in NUMBER_EDITS
]


def _dotted(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


def _edit(doc: dict, section: str, key: str, value) -> None:
    """Write ``value`` at ``key`` of ``doc``'s ``section``; a key ``c_m1[1]`` names a pair's entry."""
    table = doc[section] if section else doc
    name, _, entry = key.partition("[")
    if entry:
        table[name][int(entry[0])] = value
    else:
        table[key] = value


def _case_id(case) -> str:
    qutrit, edits = case
    return ",".join(f"{_dotted(s, k)}={v!r}" for s, k, v in edits) + ("-qutrit" if qutrit else "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("qutrit, edits", NUMBER_CASES, ids=map(_case_id, NUMBER_CASES))
def test_number_edit_is_a_config_error_or_runs_finite(tmp_path, qutrit, edits):
    # A send, a transfer and a 2-sample sweep, from the stock value of the
    # first edited number (over initial_state.p_m1 for an amplitude): each
    # names a key it refuses, or writes finite outputs (exit 2 writes the
    # solver's best effort).  A refusal quotes the value as written: in a
    # bound of the edited key, and in any message for a params number or an
    # amplitude.
    doc = stock_doc(qutrit)
    doc.update(grid={"span_in_T1": 12.0, "points": 401}, outputs={"which": ["report"]})
    section, key, value = edits[0]
    row = next((row for row in _NUMBERS.get(section, ()) if row.key == key), None)
    runs = [("send", []), ("transfer", [])]
    if row is None:
        runs.append(("sweep", ["--axis", "initial_state.p_m1", "--start", "0", "--stop", "0.5", "--num", "2"]))
    elif isinstance(stock := (doc[section] if section else doc).get(key, row.default), (int, float)):
        runs.append(("sweep", ["--axis", _dotted(section, key), "--start", repr(stock), "--stop", repr(value),
                               "--num", "2"]))
    for edit in edits:
        _edit(doc, *edit)
    quoted = None
    if section == "params":
        quoted = f"params.{key} {float(value)!r}"
    elif section == "initial_state":
        name = key.partition("[")[0]
        quoted = f"initial_state.{name} [{', '.join(repr(float(part)) for part in doc[section][name])}]"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    keys = [_dotted(s, k.partition("[")[0]) for s, k, _ in edits]
    for command, extra in runs:
        code, err = _run(tmp_path / command, command, path, extra, keys)
        assert code in (0, 1, 2), err
        if f"{_dotted(section, key)} must" in err:  # a bound: the value as written, in its units
            assert err.rstrip().endswith(f"got {float(value)!r}"), err
        elif code == 1 and quoted:  # any other refusal of a params number or an amplitude quotes it too
            assert quoted in err, err


# Several numbers at once: each at an edge value or at its stock value
# scaled.  grid.points stays at most 2 001, or is refused before any array
# exists.
NUMBER_ROWS = [(section, row) for section, rows in _NUMBERS.items() for row in rows]
GRID_POINTS = st.one_of(st.integers(2, 2001), st.sampled_from([0, -1, 2.5, 1e300, MAX_GRID_POINTS + 1]))


@st.composite
def number_draws(draw) -> list[tuple[str, str, object]]:
    edits = []
    for section, row in draw(st.lists(st.sampled_from(NUMBER_ROWS), min_size=2, max_size=4,
                                      unique_by=lambda pair: (pair[0], pair[1].key))):
        if row.key == "points":
            value = draw(GRID_POINTS)
        else:
            value = draw(st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.25, 4.0).map(lambda f: ("x", f))))
        edits.append((section, row.key, value))
    return edits


@settings(deadline=None, max_examples=60)
@given(qutrit=st.booleans(), draws=number_draws())
def test_several_number_edits_are_a_config_error_or_run_finite(qutrit, draws):
    # send, transfer and a 2-sample sweep of the first drawn number from its
    # stock value: each exits 1 naming a drawn key and writing nothing, or
    # writes finite outputs (exit 2 writes the solver's best effort).  Any
    # warning is an error; the filter is set here, not by a mark, which would
    # also turn hypothesis's own report of a failure into a pytest error.
    doc = stock_doc(qutrit)
    doc.update(grid={"span_in_T1": 12.0, "points": 401}, outputs={"which": ["report", "regime"]})
    edits = []
    for section, key, value in draws:
        row = next(row for row in _NUMBERS[section] if row.key == key)
        stock = (doc[section] if section else doc).get(key, row.default)
        if isinstance(value, tuple):  # a factor of the stock value
            value = value[1] * stock if isinstance(stock, (int, float)) else value[1]
        edits.append((section, key, stock, value))
    for section, key, _, value in edits:
        _edit(doc, section, key, value)
    section, key, stock, value = edits[0]
    runs = [("send", []), ("transfer", [])]
    if isinstance(stock, (int, float)):
        runs.append(("sweep", ["--axis", _dotted(section, key), "--start", repr(stock), "--stop", repr(value),
                               "--num", "2"]))
    with tempfile.TemporaryDirectory() as directory, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(directory) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command, extra in runs:
            code, err = _run(Path(directory) / command, command, path, extra,
                             [_dotted(s, k) for s, k, _, _ in edits], which=("report", "regime"))
            assert code in (0, 1, 2), err
