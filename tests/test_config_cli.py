import contextlib
import inspect
import io
import json
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnsslink import cli as cli_mod
from pnsslink import config as config_mod
from pnsslink import photonics as photonics_mod
from pnsslink import pipeline as pipeline_mod
from pnsslink import receiver as receiver_mod
from pnsslink.channel import attenuation_length, weighted_success
from pnsslink.cli import main
from pnsslink.config import (
    MAX_GRID_POINTS,
    ConfigError,
    load_config,
    parse_config,
    sample_config,
)
from pnsslink.core import derive, to_mhz, validate_regime
from pnsslink.pipeline import (
    US,
    build_link,
    run_sweep,
    run_transfer,
)
from pnsslink.sender import atomic_moments

from conftest import CONFIGS, load_csv, stock_doc


def small_doc(**overrides) -> dict:
    doc = stock_doc()
    doc["grid"] = {"span_in_T1": 12.0, "points": 4001}
    for key, value in overrides.items():
        doc[key] = value
    return doc


def full_grid_row(cfg, axis: str, value: float) -> dict:
    """The sweep row of one sample, read off an independent full-grid transfer."""
    result = run_transfer(cfg)
    report, link, obs = result.report, result.link, result.send.observables
    assert link.control.converged is True
    eta1 = math.exp(-cfg.channel.length_km / attenuation_length(cfg.channel.atten_db_per_km))
    return {
        axis.split(".")[-1]: float(value),
        "eta1": eta1,
        "eta2": eta1 * eta1,  # exp(-2 L0/L_att), spelled as the exact square of eta1
        "weighted_success": report.weighted_success,
        "phase_rad": report.phase_drift_rad,
        "fidelity": report.final.fidelity,
        "n_out_inf": float(obs.n_out[-1]),
        "P1_inf": float(obs.p1[-1]),
        "P2_inf": float(obs.p2[-1]),
        "T2_us": result.pulse2.duration / US,
        "center2_us": result.pulse2.center / US,
        "omega2_mhz": to_mhz(result.omega2),
        "eta_residual": link.control.eta_residual,
        "zeta_residual": link.control.zeta_residual,
    }


def _samples_cleanly(config, axis: str, value: float) -> bool:
    try:
        sample_config(config, axis, value)
    except ConfigError:
        return False
    return True


def write_doc(tmp_path: Path, doc: dict, name: str = "scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_default_parses(self):
        config = load_config(CONFIGS / "qubit.json")
        assert config.params.g == pytest.approx(2 * math.pi * 12e6)
        assert config.grid.n_points() == 3001

    def test_hash_stable(self):
        a = parse_config(stock_doc())
        b = parse_config(stock_doc())
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize(
        "section, key, value, same",
        [
            ("pulse1", "center_us", None, True),
            ("pulse2", "T2_range_us", None, True),
            ("channel", "p_em", 1.0, True),
            ("params", "g_mhz", 12, True),
            ("params", "g_mhz", 12.5, False),
            ("channel", "p_abs", 0.9, False),
            ("pulse2", "tol", 1e-9, False),
            (None, "strict", True, False),
        ],
        ids=[
            "no-center", "no-T2-range", "p_em-written", "int-g", "other-g", "other-p_abs",
            "other-tol", "strict",
        ],
    )
    def test_hash_is_that_of_the_parsed_scenario(self, section, key, value, same):
        # Documents that parse alike share a hash; a changed parsed value changes it.
        doc = small_doc()
        table = doc[section] if section else doc
        if value is None:
            del table[key]
        else:
            table[key] = value
        base, edited = parse_config(small_doc()), parse_config(doc)
        assert (edited == base) is same
        assert (edited.config_hash() == base.config_hash()) is same

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("channel", "L0km", 50),
            ("pulse1", "T1_su", 0.5),
            ("params", "g_Mhz", 15.0),
            ("pulse2", "tolerance", 1e-9),
            ("grid", "point", 2001),
            ("pulse2", "T2_range", [0.1, 5.0]),
            # Options that accepted only one value, now gone.
            ("pulse1", "shape", "gaussian"),
            ("pulse2", "family", "gaussian"),
            (None, "regime_min_raito", 3.0),
            (None, "pulsee2", {"mode": "solve", "free": "center"}),
        ],
    )
    def test_misspelt_key_is_refused(self, tmp_path, capsys, section, key, value):
        # Ignored, each would leave its field at the default unsaid.
        doc = stock_doc()
        (doc[section] if section else doc)[key] = value
        name = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=f"unknown config key {name};"):
            parse_config(doc)
        path = write_doc(tmp_path, doc)
        assert main(["send", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_params_field(self):
        doc = small_doc()
        del doc["params"]["k_mhz"]
        with pytest.raises(ConfigError, match="params.k_mhz"):
            parse_config(doc)

    def test_rejects_denormalized_state(self):
        doc = small_doc()
        doc["initial_state"]["c_m1"] = [0.9, 0.0]
        with pytest.raises(ConfigError, match="norm"):
            parse_config(doc)

    def test_renormalizes_tiny_drift(self):
        doc = small_doc()
        eps = 1e-8
        doc["initial_state"]["c_m1"] = [math.sqrt(0.7) * (1 + eps), 0.0]
        with pytest.warns(UserWarning, match="renormalized"):
            config = parse_config(doc)
        assert config.initial_state.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_unknown_output_kind(self):
        doc = small_doc()
        doc["outputs"]["which"] = ["sender", "movie"]
        with pytest.raises(ConfigError, match="movie"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "outputs, field",
        [
            ({"which": [["report"]]}, "outputs.which"),
            ({"which": ["report", 5]}, "outputs.which"),
            ({"directory": 5}, "outputs.directory"),
        ],
        ids=["nested-list", "non-string-entry", "non-string-directory"],
    )
    def test_outputs_fields_must_be_strings(self, tmp_path, capsys, monkeypatch, outputs, field):
        doc = small_doc(outputs=outputs)
        with pytest.raises(ConfigError, match=field):
            parse_config(doc)
        # No --out, so a directory of 5 would reach Path(...).
        path = write_doc(tmp_path, doc)
        monkeypatch.chdir(tmp_path)
        assert main(["transfer", "--config", str(path)]) == 1
        assert field in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_explicit_pulse_needs_duration(self):
        doc = small_doc()
        doc["pulse2"] = {"mode": "explicit"}
        with pytest.raises(ConfigError, match="T2_us"):
            parse_config(doc)

    def test_amplitude_mode_needs_center(self):
        doc = small_doc()
        doc["pulse2"] = {"mode": "solve", "free": "amplitude"}
        with pytest.raises(ConfigError, match="center_us"):
            parse_config(doc)

    def test_strict_must_be_boolean(self):
        doc = small_doc(strict="false")
        with pytest.raises(ConfigError, match="strict"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "key, value",
        [("L0_km", -0.01), ("atten_db_per_km", 0.0), ("p_em", 1.5), ("p_em", -0.1), ("p_abs", -0.1),
         ("p_abs", 1.5)],
    )
    def test_rejects_out_of_range_channel(self, key, value):
        doc = small_doc()
        doc["channel"][key] = value
        with pytest.raises(ConfigError, match=f"channel.{key}"):
            parse_config(doc)

    def test_integral_floats_are_counts(self):
        # Sweeps write every axis value as a float.
        doc = small_doc(grid={"span_in_T1": 12.0, "points": 4001.0})
        doc["pulse2"]["max_iterations"] = 40.0
        config = parse_config(doc)
        assert config.grid.n_points() == 4001 and isinstance(config.grid.points, int)
        assert config.pulse2.max_iterations == 40

    def test_invalid_json_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"params": }', encoding="utf-8")
        with pytest.raises(ConfigError, match="broken.json:1"):
            load_config(path)


# (argv, the namespace fields it reads, or the exit code).
READER_CASES = [
    *(
        (["sweep", "--config", "c.json", "--axis", "a.b", "--start", value, f"--stop={value}",
          "--tol", value, "--num", "-3"],
         {"start": float(value), "stop": float(value), "tol": float(value), "num": -3})
        for value in ("-1", "-.5", "-1e-9", "-1e3", "-1e+300", "-inf")
    ),
    (["transfer", "--config", "c.json", "--out", "-x"], {"out": "-x", "strict": False}),
    (["send", "--config=a.json", "--strict", "--out", "o", "--config", "b.json", "--out=p"],
     {"config": "b.json", "out": "p", "strict": True, "tol": None}),
    (["transfer", "--config=--"], {"config": "--"}),
    (["transfer", "--conf", "c.json"], 1),
    (["transfer", "--config", "c.json", "--"], 1),
    (["transfer", "--config", "c.json", "--", "--out", "o"], 1),
    (["transfer", "--config", "c.json", "--strict=1"], 1),
    (["transfer", "--config", "c.json", "--out"], 1),
    (["transfer", "--out", "--config", "c.json"], 1),
    (["transfer", "--config", "c.json", "--out", "--strict"], 1),
    (["sweep", "--config", "c.json", "--axis", "a.b", "--start", "0", "--stop", "1", "--num", "2.5"], 1),
    ([], 1),
    (["-h"], 0),
    (["sweep", "--help"], 0),
]


class TestCli:
    def test_transfer_writes_everything(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        code = main(["transfer", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        for name in ("sender.csv", "photonics.csv", "receiver.csv", "report.json"):
            assert (tmp_path / "out" / name).exists()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["fidelity"] >= 0.999
        assert abs(report["diagnostics"]["eta_residual"]) <= 1e-6

    def test_transfer_deterministic(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        main(["transfer", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["transfer", "--config", str(path), "--out", str(tmp_path / "b")])
        for name in ("sender.csv", "photonics.csv", "receiver.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "which, calls",
        [(["report"], 0), (["sender", "photonics", "receiver", "report"], 1)],
        ids=["report-only", "all-outputs"],
    )
    def test_figure_arrays_built_only_when_written(self, monkeypatch, tmp_path, which, calls):
        seen = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("amplitudes_beta", "photon_observables"):
            monkeypatch.setattr(pipeline_mod, name, counting(name, getattr(pipeline_mod, name)))
        doc = small_doc()
        doc["outputs"] = {"which": which}
        path = write_doc(tmp_path, doc)
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(list((tmp_path / "out").iterdir())) == len(which)
        assert seen["amplitudes_beta"] == calls
        assert seen["photon_observables"] == calls

    def test_send_regime_and_flux_columns(self, tmp_path):
        doc = small_doc()
        doc["initial_state"] = {"c_m1": [0.0, 0.0], "c_0": [1.0, 0.0], "c_p1": [0.0, 0.0]}
        path = write_doc(tmp_path, doc)
        code = main(["send", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        rows = load_csv(tmp_path / "out" / "photonics.csv")
        assert np.all(rows["flux_II"] == 0.0)

    def test_send_default_state_reaches_target_level(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        code = main(["send", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        rows = load_csv(tmp_path / "out" / "sender.csv")
        assert rows["sigma_p1"][-1] >= 0.98

    @pytest.mark.parametrize(
        "args",
        [
            ["receive", "--config", "CONFIG"],
            ["transfer"],
            ["transfer", "--config", "CONFIG", "--frobnicate"],
        ],
        ids=["receive", "no-config", "unknown-flag"],
    )
    def test_usage_error_exit_code(self, tmp_path, capsys, args):
        # A usage error is the caller's input, like a bad config: exit 1,
        # never 2, which means the pulse solve failed.  ``receive`` is gone;
        # ``transfer`` writes the same receiver.csv.
        path = write_doc(tmp_path, small_doc())
        argv = [str(path) if arg == "CONFIG" else arg for arg in args]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert "usage: pnsslink" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, expected", READER_CASES,
                             ids=[" ".join(argv) or "no-argv" for argv, _ in READER_CASES])
    def test_argv_reader_table(self, capsys, argv, expected):
        # Negative values in every float form read as values, separate or
        # after '=', and the last of a repeated flag wins.  An abbreviated
        # flag, '--', a switch given a value and a missing value are usage
        # errors: the usage on stderr, exit 1.
        if isinstance(expected, dict):
            read = vars(cli_mod._read_argv(argv))
            assert {name: read[name] for name in expected} == expected
            return
        with pytest.raises(SystemExit) as exc:
            cli_mod._read_argv(argv)
        assert exc.value.code == expected
        out, err = capsys.readouterr()
        if expected:
            assert out == "" and err.startswith("usage: pnsslink")
        else:
            command = argv[0] if argv[0] in cli_mod._COMMANDS else None
            words = cli_mod._COMMANDS if command is None else cli_mod._COMMAND_FLAGS[command]
            assert out.startswith("usage: pnsslink") and all(word in out for word in words)
            assert err == ""

    def test_negative_exponent_value_reads_as_after_equals(self, tmp_path):
        # A separate value in exponent form is the number it is after '='.
        sweep = ["sweep", "--config", str(CONFIGS / "qubit.json"), "--axis", "channel.phase_rate",
                 "--start", "0"]
        texts = []
        for stop in (["--stop", "-1e3"], ["--stop=-1e3"]):
            out = tmp_path / stop[-1]
            assert main([*sweep, *stop, "--out", str(out)]) == 0
            texts.append((out / "sweep.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        assert main(["transfer", "--config", str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["transfer", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("command", ["transfer", "sweep"])
    def test_nonconvergent_solve_exit_code(self, tmp_path, capsys, command):
        # Equal control amplitudes cannot reach the area conditions for
        # these parameters (up to g ~14.5 MHz); the run must exit 2 but
        # still write its outputs with the best residuals.
        doc = small_doc()
        doc["pulse2"] = {"mode": "solve", "free": "center", "tol": 1e-6}
        path = write_doc(tmp_path, doc)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "transfer":
            assert main(argv) == 2
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert report["solved_pulse"]["converged"] is False
            assert abs(report["diagnostics"]["zeta_residual"]) > 1e-6
            return
        # Three links: g 14 and 14.5 MHz do not converge, 15 MHz does.
        argv += ["--axis", "params.g_mhz", "--start", "14", "--stop", "15", "--num", "3"]
        assert main(argv) == 2
        assert "did not converge on 2 link(s)" in capsys.readouterr().err
        rows = load_csv(tmp_path / "out" / "sweep.csv")
        worse = np.maximum(np.abs(rows["eta_residual"]), np.abs(rows["zeta_residual"]))
        assert list(worse > 1e-6) == [True, True, False]

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("params", "phi2_rad", float("nan"), "params.phi2_rad"),
            ("params", "omega1_mhz", float("inf"), "params.omega1_mhz"),
            ("initial_state", "c_0", [float("nan"), 0.0], "initial_state.c_0"),
            ("pulse2", "T2_range_us", [0.02, float("inf")], "pulse2.T2_range_us"),
            ("channel", "p_abs", float("nan"), "channel.p_abs"),
        ],
    )
    def test_non_finite_number_exit_code(self, tmp_path, capsys, section, key, value, field):
        doc = small_doc()
        doc[section][key] = value
        path = write_doc(tmp_path, doc)
        code = main(["transfer", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("g_mhz", 1e303), ("delta_mhz", -1e303)])
    def test_number_infinite_in_internal_units_exit_code(self, tmp_path, capsys, key, value):
        # A finite MHz number can overflow: 2 pi 1e6 * 1e303 is inf rad/s.
        # It is refused like a non-finite one, before any solve.
        doc = small_doc()
        doc["params"][key] = value
        with pytest.raises(ConfigError, match=f"params.{key} must be finite in internal units"):
            parse_config(doc)
        path = write_doc(tmp_path, doc)
        code = main(["transfer", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"params.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_sample_infinite_in_internal_units_fails_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("pulse solve ran")

        monkeypatch.setattr(pipeline_mod, "solve_pulse_shape", no_solve)
        path = write_doc(tmp_path, small_doc())
        code = main([
            "sweep", "--config", str(path), "--out", str(tmp_path / "out"),
            "--axis", "params.g_mhz", "--start", "12", "--stop", "1e303", "--num", "2",
        ])
        assert code == 1
        assert "params.g_mhz must be finite in internal units" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["send", "transfer", "sweep"])
    @pytest.mark.parametrize("omega1_mhz", [0.0, 1e-150, 1e-60])
    def test_pulse_that_emits_nothing_exit_code(self, tmp_path, capsys, command, omega1_mhz):
        # exp(-theta) rounds to 1: no photon leaves, and the photon modes'
        # overlap is undefined (a traceback at 0, a division by zero at 1e-60).
        doc = small_doc()
        doc["params"]["omega1_mhz"] = omega1_mhz
        path = write_doc(tmp_path, doc)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "channel.L0_km", "--start", "0", "--stop", "1", "--num", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "params.omega1_mhz" in err and "pulse1.T1_us" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["send", "transfer", "sweep"])
    @pytest.mark.parametrize(
        "params, named",
        [
            ({"g_mhz": 1e150}, "alpha1, r_sn"),
            ({"omega1_mhz": 1e150}, "alpha1"),
            ({"delta_mhz": 1e-300}, "G1, alpha1"),
            ({"k_mhz": 1e-300, "gamma_sp_mhz": 1e-300}, "r_sn"),  # k * gamma_sp underflows
            ({"wavelength_nm": 1e-300}, "omega_rec"),
            ({"k_mhz": 1e-300}, "the photon modes"),  # alpha1 is finite, alpha1 * theta is not
        ],
    )
    def test_overflowing_rates_exit_code(self, tmp_path, capsys, command, params, named):
        # Every number is finite in internal units, but a rate derived from
        # them is not: a NaN exposure ended in "cannot normalize the zero
        # state", and k * gamma_sp = 0 in a division by zero.
        doc = small_doc()
        doc["params"].update(params)
        path = write_doc(tmp_path, doc)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "channel.L0_km", "--start", "0", "--stop", "1", "--num", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert named in err and all(f"params.{key} {float(value)!r}" in err for key, value in params.items())
        assert not (tmp_path / "out").exists()

    def test_overflow_errors_name_the_keys_of_every_rate_and_regime_check(self):
        # An overflow error lists the keys of each derived rate or regime
        # ratio that overflows, with the values as written; a name missing
        # from _RATE_KEYS, or a key no _NUMBERS row reads, would be a traceback.
        config = parse_config(small_doc())
        derived = derive(config.params)
        names = [*derived._fields, *(check.name for check in validate_regime(config.params, derived, 1e-6).checks)]
        assert sorted(pipeline_mod._RATE_KEYS) == sorted(names)
        named = pipeline_mod._rate_keys(config, names)
        assert "params.g_mhz 12.0" in named and "pulse1.T1_us 0.3" in named

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["send", "transfer", "sweep"])
    @pytest.mark.parametrize(
        "edits, named",
        [
            # The recoil frequency underflows (3.4e-321, 0) or, at 1e285 kg, is
            # normal but overflows the regime report's Raman-to-recoil ratio:
            # transfer wrote "ratio": Infinity, which is not JSON.
            ({"params": {"atom_mass_kg": 1e300}}, ("params.atom_mass_kg", "params.wavelength_nm")),
            ({"params": {"atom_mass_kg": 1e285}}, ("params.atom_mass_kg", "params.wavelength_nm")),
            ({"params": {"wavelength_nm": 1e300}}, ("params.atom_mass_kg", "params.wavelength_nm")),
            # A receiving pulse centred where float64 cannot resolve the grid:
            # two RuntimeWarnings printed before the right exit.
            ({"pulse2": {"center_us": 1e300}}, ("pulse2.center_us",)),
            ({"pulse2": {"center_us": -1e300}}, ("pulse2.center_us",)),
            ({"pulse2": {"free": "center", "center_range_us": [-1e300, 1e300]}},
             ("pulse2.center_range_us",)),
            # The exposure grows with T1 over a finite span: only params keys were named.
            ({"pulse1": {"T1_us": 1e300}, "grid": {"span_in_T1": 1e8, "points": 3001}},
             ("pulse1.T1_us", "params.k_mhz")),
            # db * ln 10 overflowed to an attenuation length of 0: a ValueError
            # traceback; 10 / (db * ln 10) overflowed to an infinite one.
            ({"channel": {"atten_db_per_km": 1e308}}, ("channel.atten_db_per_km",)),
            ({"channel": {"atten_db_per_km": 1e-310}}, ("channel.atten_db_per_km",)),
            # The phase drift overflowed: transfer wrote the three figure CSVs,
            # then failed on inf in report.json.
            ({"channel": {"L0_km": 2, "phase_rate": 1.7e308}}, ("channel.phase_rate", "channel.L0_km")),
            ({"channel": {"L0_km": 1e200, "phase_rate": 1e200}}, ("channel.phase_rate", "channel.L0_km")),
        ],
        ids=["heavy-atom", "heavy-atom-ratio", "long-wavelength", "late-center2", "early-center2",
             "wide-center-range", "long-T1-finite-span", "zero-attenuation-length",
             "infinite-attenuation-length", "drift-overflow", "drift-overflow-long-link"],
    )
    def test_values_float64_cannot_carry_exit_code(self, tmp_path, capsys, command, edits, named):
        doc = stock_doc()
        for section, fields in edits.items():
            doc[section].update(fields)
        out = tmp_path / "out"
        argv = [command, "--config", str(write_doc(tmp_path, doc)), "--out", str(out)]
        if command == "sweep":
            argv += ["--axis", "channel.L0_km", "--start", "0", "--stop", "1", "--num", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and all(key in err for key in named)
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["transfer", "sweep"])
    @pytest.mark.parametrize(
        "pulse2, named",
        [
            # Both areas are exactly 0: "cannot normalize the zero state" was uncaught.
            ({"mode": "explicit", "T2_us": 0.3, "center_us": 100}, "pulse2.center_us"),
            # (t - center)/T2 overflowed, with two RuntimeWarnings, before that
            # error or, at center 0, before an exit 0 with fidelity 0.304.
            ({"mode": "explicit", "T2_us": 1e-300, "center_us": 0.15}, "pulse2.T2_us"),
            ({"mode": "explicit", "T2_us": 1e-200, "center_us": 0.15}, "pulse2.T2_us"),
            ({"mode": "explicit", "T2_us": 1e-300, "center_us": 0.0}, "pulse2.T2_us"),
            # The solver's short bracket end overflowed, then exit 1 or 2.
            ({"T2_range_us": [1e-300, 20]}, "pulse2.T2_range_us"),
            ({"free": "center", "T2_range_us": [1e-300, 20]}, "pulse2.T2_range_us"),
        ],
        ids=["far-center", "short-T2", "shorter-T2", "short-T2-at-0", "short-range", "short-range-free"],
    )
    def test_receiving_pulse_that_stores_nothing_exit_code(self, tmp_path, capsys, command, pulse2, named):
        doc = stock_doc()
        doc["pulse2"].update(pulse2)
        if pulse2.get("free") == "center":
            del doc["pulse2"]["center_us"]
        out = tmp_path / "out"
        argv = [command, "--config", str(write_doc(tmp_path, doc)), "--out", str(out)]
        if command == "sweep":
            argv += ["--axis", "channel.L0_km", "--start", "0", "--stop", "1", "--num", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["transfer", "sweep"])
    def test_other_readout_value_error_is_a_traceback(self, monkeypatch, tmp_path, command):
        # Only the zero state is a config error: any other ValueError of the
        # readout, such as a broadcasting bug, is a programming error and
        # propagates instead of exiting 1 as "stores none of the input state".
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together with shapes (41,) (3,)")

        monkeypatch.setattr(pipeline_mod, "final_state", broken)
        argv = [command, "--config", str(write_doc(tmp_path, small_doc())), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "initial_state.p_m1", "--start", "0", "--stop", "1", "--num", "41"]
        with pytest.raises(ValueError, match="could not be broadcast") as raised:
            main(argv)
        assert not isinstance(raised.value, ConfigError)

    def test_json_outputs_refuse_non_finite_numbers(self, tmp_path):
        with pytest.raises(ValueError, match="JSON compliant"):
            pipeline_mod._write_json(tmp_path / "x.json", {"ratio": math.inf})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["send", "transfer", "sweep"])
    def test_pulse_that_emits_within_one_grid_step_exit_code(self, tmp_path, capsys, command):
        # theta passes 700 by the second grid point, so phi2 is 0 on the
        # whole grid: mode_overlap's ValueError was uncaught.
        doc = small_doc()
        doc["pulse1"]["T1_us"] = 1e30
        path = write_doc(tmp_path, doc)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "channel.L0_km", "--start", "0", "--stop", "1", "--num", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "pulse1.T1_us" in err and "4001-point grid" in err and "grid.points" in err
        assert not (tmp_path / "out").exists()

    def test_unset_grid_points_are_quoted_as_their_count(self, tmp_path, capsys):
        # An error found after the parse quotes each key it names with its
        # value; an unset grid.points with the point count its span gives.
        doc = stock_doc()
        doc["pulse1"]["T1_us"] = 1e30
        assert main(["send", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "lower pulse1.T1_us 1e+30 or" in err
        assert err.rstrip().endswith("or raise grid.points (unset: 3001 points)")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["send", "transfer", "sweep"])
    @pytest.mark.parametrize("center_us", [0.0, 1e4, 1e10, 1e15])
    def test_pulse_center_float64_cannot_resolve_exit_code(
        self, tmp_path, capsys, command, center_us
    ):
        # At 1e15 us linspace gives 31 distinct times of 4001, and every
        # command ran on them.
        doc = small_doc()
        doc["pulse1"]["center_us"] = center_us
        doc["pulse2"]["center_us"] += center_us
        path = write_doc(tmp_path, doc)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "channel.L0_km", "--start", "0", "--stop", "1", "--num", "2"]
        refused = center_us >= 1e10
        assert main(argv) == (1 if refused else 0)
        assert ("pulse1.center_us" in capsys.readouterr().err) is refused
        assert (tmp_path / "out").exists() is not refused

    @pytest.mark.parametrize("center_us, refused", [(1e4, False), (1.2e5, False), (1.3e5, True)])
    def test_far_pulse_center_bound(self, center_us, refused):
        # On the stock 3001-point grid the step is 2**26.4 units in the last
        # place of the grid's largest time at 1.2e5 us and 2**25.4 at
        # 1.3e5 us, where T2 moved by 3.5e-11; an accepted center keeps T2
        # within the default grid's own error (2.1e-11).
        doc = stock_doc()
        base = build_link(parse_config(doc))
        doc["pulse1"]["center_us"] = center_us
        doc["pulse2"]["center_us"] += center_us
        if refused:
            with pytest.raises(ConfigError, match="pulse1.center_us"):
                build_link(parse_config(doc))
            return
        moved = build_link(parse_config(doc))
        moved, base = moved.control, base.control
        assert moved.converged
        assert moved.pulse.duration == pytest.approx(base.pulse.duration, rel=2.1e-11)
        assert moved.omega2 == pytest.approx(base.omega2, rel=2.1e-11)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["transfer", "sweep"])
    @pytest.mark.parametrize("t1_us", [1e9, 1e12])
    def test_photons_the_fixed_pulse_cannot_reach_exit_code(self, tmp_path, capsys, command, t1_us):
        # The photons leave early in the leading tail of a 6 T1 half-span, far
        # from a control pulse fixed at 0.15 us and at most 20 us long: the
        # solve ended in "control pulse does not overlap the photon modes".
        doc = small_doc()
        doc["pulse1"]["T1_us"] = t1_us
        path = write_doc(tmp_path, doc)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "channel.L0_km", "--start", "0", "--stop", "1", "--num", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert all(key in err for key in ("pulse2.center_us", "pulse2.T2_range_us", "pulse1.T1_us"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["transfer", "sweep"])
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("pulse2", "center_us", -0.3),
            ("pulse2", "T2_range_us", [0.02, 0.5]),
            ("grid", "points", 5),
            ("pulse2", "center_us", 3.0),
        ],
        ids=["early-center", "short-range", "5-points", "late-center"],
    )
    def test_fixed_center_pulse_that_cannot_exist_exit_code(
        self, tmp_path, capsys, command, section, key, value
    ):
        # No duration in the bracket equalizes the two areas at the fixed
        # center, or the control misses the photons: with no pulse to return
        # the config is at fault, not the solver, and the error names its keys.
        doc = stock_doc()
        doc[section][key] = value
        path = write_doc(tmp_path, doc)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "channel.L0_km", "--start", "0", "--stop", "1", "--num", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        keys = ("pulse2.center_us", "pulse2.T2_range_us", "pulse1.T1_us", "grid.points")
        assert err.startswith("config error: ") and all(key in err for key in keys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["send", "transfer", "sweep"])
    def test_overflowing_grid_span_exit_code(self, tmp_path, capsys, command):
        # pulse1.T1_us x grid.span_in_T1 overflows float64: refused before
        # linspace warns, naming those two keys and not the params rates.
        doc = stock_doc()
        doc["pulse1"]["T1_us"] = 1e300
        doc["grid"] = {"span_in_T1": 1e300, "points": 3001}
        path = write_doc(tmp_path, doc)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "channel.L0_km", "--start", "0", "--stop", "1", "--num", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "pulse1.T1_us" in err and "grid.span_in_T1" in err and "params." not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, value, field",
        [
            ("grid", {"span_in_T1": 0.0}, "grid.span_in_T1"),
            ("grid", {"span_in_T1": -12.0, "points": 4001}, "grid.span_in_T1"),
            ("pulse1", {"T1_us": 0.0}, "pulse1.T1_us"),
            ("pulse1", {"T1_us": -0.3}, "pulse1.T1_us"),
            ("pulse2", {"tol": 0.0}, "pulse2.tol"),
            ("pulse2", {"tol": -1e-6}, "pulse2.tol"),
            ("pulse2", {"max_iterations": 0}, "pulse2.max_iterations"),
            ("pulse2", {"max_iterations": 2.5}, "pulse2.max_iterations"),
            ("grid", {"span_in_T1": 12.0, "points": 2.5}, "grid.points"),
            ("grid", {"span_in_T1": 12.0, "points": 1}, "grid.points"),
            # Validation only: both are rejected before any array exists.
            ("grid", {"span_in_T1": 12.0, "points": MAX_GRID_POINTS + 1}, "grid.points"),
            ("grid", {"span_in_T1": 1e4}, "grid.span_in_T1"),
            ("pulse2", {"T2_range_us": [0, 20]}, "pulse2.T2_range_us"),
            ("pulse2", {"T2_range_us": [-1, 20]}, "pulse2.T2_range_us"),
            ("pulse2", {"T2_range_us": [20, 0.02]}, "pulse2.T2_range_us"),
            ("pulse2", {"T2_range_us": [0.5, 0.5]}, "pulse2.T2_range_us"),
            ("pulse2", {"free": "center", "center_range_us": [1.0, -1.0]}, "pulse2.center_range_us"),
            ("pulse2", {"free": "center", "center_range_us": [0.1, 0.1]}, "pulse2.center_range_us"),
            ("pulse2", {"mode": "explicit", "T2_us": 0}, "pulse2.T2_us"),
            ("pulse2", {"mode": "explicit", "T2_us": -0.3}, "pulse2.T2_us"),
            ("params", {"k_mhz": 0.0}, "params.k_mhz must be > 0, got 0.0"),
            ("params", {"g_mhz": -1}, "params.g_mhz must be > 0, got -1.0"),
            ("params", {"omega1_mhz": -2}, "params.omega1_mhz must be >= 0, got -2.0"),
            ("params", {"delta_mhz": 0}, "params.delta_mhz must be nonzero, got 0.0"),
            ("params", {"atom_mass_kg": 0}, "params.atom_mass_kg must be > 0, got 0.0"),
            ("params", {"wavelength_nm": -1}, "params.wavelength_nm must be > 0, got -1.0"),
            # Positive, but 0 m in internal units.
            ("params", {"wavelength_nm": 5e-324}, "params.wavelength_nm must be above 0 in internal units"),
        ],
    )
    def test_out_of_range_setting_exit_code(self, tmp_path, capsys, section, value, field):
        doc = small_doc()
        if section == "grid":
            doc["grid"] = value
        else:
            doc[section].update(value)
        with pytest.raises(ConfigError, match=field):
            parse_config(doc)
        path = write_doc(tmp_path, doc)
        code = main(["transfer", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["pulse1", "pulse2", "grid", "channel", "outputs"])
    def test_section_must_be_a_table(self, tmp_path, capsys, section):
        doc = small_doc(**{section: [1]})
        with pytest.raises(ConfigError, match=f"{section} must be a table"):
            parse_config(doc)
        path = write_doc(tmp_path, doc)
        code = main(["transfer", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{section} must be a table" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol", ["0", "-1e-6", "nan"])
    def test_tol_flag_must_be_positive(self, tmp_path, capsys, tol):
        path = write_doc(tmp_path, small_doc())
        out = tmp_path / "out"
        code = main(["transfer", "--config", str(path), "--out", str(out), f"--tol={tol}"])
        assert code == 1
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    def test_tol_flag_needs_a_pulse2_table(self, tmp_path, capsys):
        path = write_doc(tmp_path, small_doc(pulse2=[1e-6]))
        out = tmp_path / "out"
        code = main(["transfer", "--config", str(path), "--out", str(out), "--tol", "1e-9"])
        assert code == 1
        assert "pulse2 must be a table" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("num", ["0", "-3"])
    def test_sweep_needs_a_sample(self, tmp_path, capsys, monkeypatch, num):
        def no_sweep(*args):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
        path = write_doc(tmp_path, small_doc())
        code = main([
            "sweep", "--config", str(path), "--out", str(tmp_path / "out"),
            "--axis", "channel.L0_km", "--start", "0", "--stop", "5", "--num", num,
        ])
        assert code == 1
        assert "--num" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "start, stop, num, flag",
        [
            ("0", "inf", "11", "--stop must be finite"),
            ("nan", "5", "11", "--start must be finite"),
            ("-inf", "5", "11", "--start must be finite"),
            ("-1e308", "1e308", "3", "--stop - --start overflows"),
            ("0", "5", str(MAX_GRID_POINTS + 1), "--num must be in [1, 1000000]"),
        ],
        ids=["stop-inf", "start-nan", "start-minus-inf", "span-overflows", "num-above-grid-cap"],
    )
    def test_sweep_flags_checked_before_parsing(self, tmp_path, capsys, monkeypatch, start, stop, num, flag):
        def unreachable(*args, **kwargs):
            raise AssertionError("ran past the flag checks")

        # Neither the config nor the sample values may be touched: a huge
        # --num would allocate before failing.
        monkeypatch.setattr(cli_mod, "load_config", unreachable)
        monkeypatch.setattr(cli_mod.np, "linspace", unreachable)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "sweep", "--config", str(tmp_path / "absent.json"), "--out", str(out),
                "--axis", "channel.L0_km", f"--start={start}", f"--stop={stop}", "--num", num,
            ])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sweep_sample_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # The qutrit input keeps 0.2 on c_p1, so p_m1 = 0.815 (sample 36
        # of 41) leaves no weight for c_0.
        def no_solve(*args, **kwargs):
            raise AssertionError("pulse solve ran")

        monkeypatch.setattr(pipeline_mod, "solve_pulse_shape", no_solve)
        doc = stock_doc(qutrit=True)
        doc["grid"] = {"span_in_T1": 12.0, "points": 4001}
        path = write_doc(tmp_path, doc)
        code = main([
            "sweep", "--config", str(path), "--out", str(tmp_path / "out"),
            "--axis", "initial_state.p_m1", "--start", "0.05", "--stop", "0.9", "--num", "41",
        ])
        assert code == 1
        assert "leaves no weight for c_0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, how",
        [
            pytest.param("sweep", "flag", id="flag"),
            pytest.param("sweep", "config", id="config"),
            pytest.param("send", "flag", id="send-flag"),
            pytest.param("transfer", "flag", id="transfer-flag"),
            pytest.param("transfer", "config", id="transfer-config"),
        ],
    )
    def test_strict_sweep_aborts_on_regime_failure(
        self, tmp_path, capsys, monkeypatch, command, how
    ):
        # Stock physics fails cavity_decay_vs_raman_coupling (2.5 < 5); every
        # command checks the sender's regime before any pulse solve.
        def no_solve(*args, **kwargs):
            raise AssertionError("pulse solve ran")

        monkeypatch.setattr(pipeline_mod, "solve_pulse_shape", no_solve)
        doc = small_doc(strict=True) if how == "config" else small_doc()
        path = write_doc(tmp_path, doc)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "initial_state.p_m1", "--start", "0.1", "--stop", "0.9", "--num", "3"]
        code = main(argv + ["--strict"] if how == "flag" else argv)
        assert code == 3
        captured = capsys.readouterr()
        assert "cavity_decay_vs_raman_coupling" in captured.out
        assert "strict mode" in captured.err
        assert not (tmp_path / "out").exists()

    def test_unexpected_error_is_not_a_solver_failure(self, tmp_path, monkeypatch):
        def broken(config):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli_mod, "run_transfer", broken)
        path = write_doc(tmp_path, small_doc())
        with pytest.raises(RuntimeError, match="bug"):
            main(["transfer", "--config", str(path), "--out", str(tmp_path / "out")])

    def test_sweep_monotone_in_length(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        code = main([
            "sweep", "--config", str(path), "--out", str(tmp_path / "out"),
            "--axis", "channel.L0_km", "--start", "0", "--stop", "5", "--num", "6",
        ])
        assert code == 0
        rows = load_csv(tmp_path / "out" / "sweep.csv")
        assert list(rows.dtype.names)[:5] == ["L0_km", "eta1", "eta2", "weighted_success", "phase_rad"]
        assert np.all(np.diff(rows["weighted_success"]) < 0.0)

    def test_sweep_rejects_non_scalar_axis(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        code = main([
            "sweep", "--config", str(path), "--out", str(tmp_path / "out"),
            "--axis", "initial_state.c_m1", "--start", "0", "--stop", "1", "--num", "2",
        ])
        assert code == 1

    @pytest.mark.parametrize("axis", ["channel.p_abs", "grid.points"])
    def test_sweep_over_a_defaulted_field(self, tmp_path, axis):
        # The stock file leaves the field at its parser default; the sweep
        # reads like one over a file with the field written in.
        section, field = axis.split(".")
        doc = stock_doc()
        assert field not in doc[section]
        default = {"p_abs": 1.0, "points": 3001}[field]
        doc[section][field] = default
        written = write_doc(tmp_path, doc)
        span = {"p_abs": ["0.5", "1"], "points": ["2001", "3001"]}[field]
        sweep = ["sweep", "--axis", axis, "--start", span[0], "--stop", span[1], "--num", "3"]
        for config, out in ((CONFIGS / "qubit.json", "stock"), (written, "written")):
            assert main([*sweep, "--config", str(config), "--out", str(tmp_path / out)]) == 0
        stock = (tmp_path / "stock" / "sweep.csv").read_text().splitlines()
        assert stock[1:] == (tmp_path / "written" / "sweep.csv").read_text().splitlines()[1:]
        columns = load_csv(tmp_path / "stock" / "sweep.csv")
        if field == "p_abs":
            assert columns["weighted_success"] == pytest.approx(
                columns["p_abs"] * columns["weighted_success"][-1], rel=1e-15
            )

    @pytest.mark.parametrize(
        "pulse2, axis, span",
        [
            (None, "params.omega2_mhz", ["9", "11"]),
            ({"mode": "explicit", "T2_us": 0.3, "center_us": 0.15}, "pulse2.T2_us", ["0.25", "0.35"]),
        ],
    )
    def test_sweep_over_a_field_named_like_a_column(self, tmp_path, pulse2, axis, span):
        # The axis's leaf names a sweep.csv column: the file has one column of
        # that name, first, holding the link's value (an explicit T2 is the axis's).
        doc = stock_doc()
        if pulse2 is not None:
            doc["pulse2"] = pulse2
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        sweep = ["sweep", "--axis", axis, "--start", span[0], "--stop", span[1], "--num", "3"]
        assert main([*sweep, "--config", str(path), "--out", str(out)]) == 0
        summary = [
            "eta1", "eta2", "weighted_success", "phase_rad", "fidelity", "n_out_inf", "P1_inf",
            "P2_inf", "T2_us", "center2_us", "omega2_mhz", "eta_residual", "zeta_residual",
        ]
        leaf = axis.split(".")[-1]
        header = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert header == [leaf, *(name for name in summary if name != leaf)]
        if pulse2 is not None:
            columns = load_csv(out / "sweep.csv")
            assert columns["T2_us"] == pytest.approx([0.25, 0.3, 0.35], rel=1e-12)

    def test_full_transfer_computes_emission_once(self, monkeypatch, tmp_path):
        # n_out and the photon fluxes on the grid feed both the residual and
        # photonics.csv; they are formed on the grid once (the report reads
        # n_out at the grid end alone).
        doc = small_doc()
        points = doc["grid"]["points"]
        seen = Counter()

        def counting(name, fn):
            def wrapper(*args):
                formed = fn(*args)
                seen[name] += np.size(formed[0] if isinstance(formed, tuple) else formed) == points
                return formed

            return wrapper

        for module in (pipeline_mod, photonics_mod):
            for name in ("mean_photon_number", "photon_fluxes"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        path = write_doc(tmp_path, doc)
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert seen == {"mean_photon_number": 1, "photon_fluxes": 1}

    @pytest.mark.parametrize("points", [601, None])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-13, 1e-14, 1e-15])
    @pytest.mark.parametrize("command", ["transfer", "sweep"])
    def test_converged_means_the_reported_residuals_are_within_tol(
        self, tmp_path, capsys, command, points, tol
    ):
        # At 601 points and tol 1e-13 the solver's own sums said converged
        # while the reported residuals were 2.1e-12 and 1.3e-12.
        doc = stock_doc()
        if points is not None:
            doc["grid"]["points"] = points
        doc["pulse2"]["tol"] = tol
        doc["outputs"]["which"] = ["report"]
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "sweep":
            argv += ["--axis", "channel.L0_km", "--start", "0", "--stop", "1", "--num", "2"]
        code = main(argv)
        printed = capsys.readouterr()
        if command == "sweep":
            rows = load_csv(out / "sweep.csv")
            residuals = float(rows["eta_residual"][0]), float(rows["zeta_residual"][0])
            converged = "did not converge on 1 link(s)" not in printed.err
        else:
            report = json.loads((out / "report.json").read_text())
            residuals = (report["diagnostics"]["eta_residual"],
                         report["diagnostics"]["zeta_residual"])
            converged = report["solved_pulse"]["converged"]
            assert f"eta {residuals[0]:.3e}, zeta {residuals[1]:.3e}" in printed.out
        assert converged is (max(map(abs, residuals)) <= tol)
        assert code == (0 if converged else 2)

    @pytest.mark.parametrize("points", [601, None])
    def test_a_solve_converged_at_a_few_ulps_is_a_converged_link(self, tmp_path, capsys, points):
        # At tol 1e-15 the solver's sums put eta(inf) 4.4e-16 from pi, while
        # the cumulative areas' last samples ended 2.2e-15 (zeta 4.0e-15) off,
        # so a converged solve exited 2.  The link reports the solver's sums.
        doc = stock_doc()
        if points is not None:
            doc["grid"]["points"] = points
        doc["pulse2"]["tol"] = 1e-15
        doc["outputs"]["which"] = ["report"]
        out = tmp_path / "out"
        assert main(["transfer", "--config", str(write_doc(tmp_path, doc)), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["solved_pulse"]["converged"] is True
        assert max(abs(report["diagnostics"]["eta_residual"]),
                   abs(report["diagnostics"]["zeta_residual"])) <= 1e-15

    def test_tol_flag_reaches_solver(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        code = main([
            "transfer", "--config", str(path), "--out", str(tmp_path / "out"),
            "--tol", "1e-9",
        ])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert abs(report["diagnostics"]["eta_residual"]) <= 1e-9

    def test_tol_flag_reaches_every_sweep_sample(self, tmp_path, monkeypatch):
        # A channel sweep reads its three samples off one link, built from
        # the config the flag set.
        linked = []
        build = pipeline_mod.build_link

        def recording_build(config):
            linked.append(config)
            return build(config)

        monkeypatch.setattr(pipeline_mod, "build_link", recording_build)
        sweep = ["sweep", "--axis", "channel.L0_km", "--start", "0", "--stop", "5", "--num", "3"]
        path = write_doc(tmp_path, small_doc())
        flag_run = ["--config", str(path), "--out", str(tmp_path / "flag"), "--tol", "1e-9"]
        assert main(sweep + flag_run) == 0
        assert [cfg.pulse2.tol for cfg in linked] == [1e-9]
        doc = small_doc()
        doc["pulse2"]["tol"] = 1e-9
        path = write_doc(tmp_path, doc, name="tol.json")
        assert main(sweep + ["--config", str(path), "--out", str(tmp_path / "file")]) == 0
        flag_csv = (tmp_path / "flag" / "sweep.csv").read_text().splitlines()
        file_csv = (tmp_path / "file" / "sweep.csv").read_text().splitlines()
        assert flag_csv[0].startswith("# config_hash: ")
        assert flag_csv[0] == file_csv[0]

    def test_csv_format(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        main(["send", "--config", str(path), "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "photonics.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash: ")
        assert lines[1].split(",")[0] == "kt"
        # 15 significant digits, plain '.' decimal separator
        value = lines[2].split(",")[0]
        assert "," not in value and float(value) < 0.0
        sig = value.lstrip("-0.").replace(".", "").rstrip("0")
        assert len(sig) <= 15


def edited_doc(doc: dict, axis: str, value: float) -> dict:
    """A deep copy of ``doc`` with the sample's edit made by hand."""
    doc = json.loads(json.dumps(doc))
    if axis == "initial_state.p_m1":
        p_p1 = sum(x * x for x in doc["initial_state"].get("c_p1", [0.0, 0.0]))
        doc["initial_state"]["c_m1"] = [math.sqrt(value), 0.0]
        doc["initial_state"]["c_0"] = [math.sqrt(max(1.0 - value - p_p1, 0.0)), 0.0]
        return doc
    *sections, leaf = axis.split(".")
    node = doc
    for part in sections:
        node = node.setdefault(part, {})
    node[leaf] = value
    return doc


def sample_doc(qutrit: bool) -> dict:
    doc = stock_doc(qutrit=qutrit)
    doc["grid"] = {"span_in_T1": 12.0, "points": 4001}
    doc["channel"]["p_em"] = 1.0
    doc["regime_min_ratio"] = 5.0
    return doc


def check_sample(qutrit: bool, axis: str, value: float):
    """``sample_config`` against ``parse_config`` of the edited document.

    Either both give the same config with the same hash (returned), or
    both raise a ``ConfigError`` with the same message (returned).  Two
    axes have their own error: an ``initial_state.p_m1`` that leaves no
    weight for c_0, and pulse2's T2_us or omega2_mhz, which the stock
    documents leave out and so are no axes there.
    """
    doc = sample_doc(qutrit)
    config = parse_config(doc)
    try:
        sample = sample_config(config, axis, value)
    except ConfigError as exc:
        sample = exc
    assert config == parse_config(doc)  # the parent is not edited
    section, _, key = axis.rpartition(".")
    if axis == "initial_state.p_m1" and isinstance(sample, ConfigError):
        p_p1 = sum(x * x for x in doc["initial_state"]["c_p1"])
        assert not (value >= 0.0 and value + p_p1 <= 1.0 + 1e-12)
        assert str(sample) == f"initial_state.p_m1 = {value} leaves no weight for c_0"
        return sample
    if axis in ("pulse2.center_us", "pulse2.T2_us", "pulse2.omega2_mhz") and key not in doc[section]:
        assert str(sample) == f"sweep axis {axis!r}: no field {key!r} with a number to sweep"
        return sample
    try:
        expected = parse_config(edited_doc(doc, axis, value))
    except ConfigError as exc:
        assert isinstance(sample, ConfigError) and str(sample) == str(exc)
        return sample
    assert sample == expected
    assert sample.config_hash() == expected.config_hash()
    return sample


# One axis in every section the sampler rebuilds, and the top-level ratio.
SAMPLE_CASES = [
    (False, "params.g_mhz", 12.5),
    (False, "params.phi2_rad", 0.7),
    (False, "initial_state.p_m1", 0.4),
    (True, "initial_state.p_m1", 0.3),
    (True, "initial_state.p_m1", 0.8),
    (False, "pulse1.T1_us", 0.35),
    (False, "pulse2.tol", 1e-8),
    (False, "grid.points", 3001.0),
    (False, "grid.span_in_T1", 10.0),
    (False, "channel.L0_km", 2.5),
    (False, "channel.p_em", 0.9),
    (False, "regime_min_ratio", 4.0),
]

# A bad value in each section: the message parse_config gives for the edited document.
BAD_SAMPLE_CASES = [
    (False, "grid.points", float(MAX_GRID_POINTS + 1)),
    (False, "grid.points", 3000.5),
    (False, "params.phi2_rad", math.nan),
    (False, "channel.L0_km", -1.0),
    (False, "channel.p_em", 1.5),
    (False, "params.g_mhz", -1.0),
    (False, "pulse1.T1_us", 0.0),
    (False, "pulse2.tol", 0.0),
    (False, "regime_min_ratio", math.inf),
    (True, "initial_state.p_m1", 0.85),
]

# Every number a parser reads, as a sweep axis, and the virtual p_m1.
AXES = [
    f"{section}.{row.key}" if section else row.key
    for section, rows in config_mod._NUMBERS.items()
    for row in rows
] + ["initial_state.p_m1"]

# In range for most axes (grid.points too), zero, negative, huge,
# non-integral and non-finite.
VALUES = st.one_of(
    st.floats(0.01, 20.0),
    st.integers(2, 5000).map(float),
    st.floats(-1e3, 0.0),
    st.sampled_from([0.0, -0.0, 0.5, 3000.5, MAX_GRID_POINTS + 1.0, 1e300, -1e300, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


_ARGV_COMMANDS = ["send", "transfer", "sweep"] * 3 + ["receive", "--strict", "-h", "x"]
_ARGV_FLAGS = ["--config", "--out", "--strict", "--tol", "--axis", "--start", "--stop", "--num",
               "--conf", "--st", "--nu", "-h", "--help", "--", "--frobnicate"]
_ARGV_VALUES = ["-1", "-.5", "-1e-9", "-1e3", "-inf", "nan", "x", "", "0", "2", "0.5", "1e-9", "-",
                "--", "-x y", "a=b", "channel.L0_km", "--config"]
# Well-formed flags and values, negative numbers too.
_PLAIN_PIECES = [["--out", "o"], ["--out=-o"], ["--strict"], ["--tol", "1e-9"], ["--tol", "-.5"],
                 ["--tol=nan"], ["--config", "-2"]]
_SWEEP_PIECES = [["--num", "-1"], ["--num=3"], ["--start", "-1"], ["--stop=-1e-9"], ["--axis", ""]]
_NOISE_PIECES = st.one_of(
    st.sampled_from(_ARGV_FLAGS).map(lambda flag: [flag]),
    st.tuples(st.sampled_from(_ARGV_FLAGS), st.sampled_from(_ARGV_VALUES)).map(list),
    st.tuples(st.sampled_from(_ARGV_FLAGS), st.sampled_from(_ARGV_VALUES)).map(lambda p: ["=".join(p)]),
    st.sampled_from(_ARGV_VALUES).map(lambda value: [value]),
)


@st.composite
def argvs(draw) -> list[str]:
    """A command word, then flags, values, '=' forms, abbreviations, -h and --."""
    command = draw(st.sampled_from(_ARGV_COMMANDS))
    plain = _PLAIN_PIECES + _SWEEP_PIECES if command == "sweep" else _PLAIN_PIECES
    pieces = draw(st.lists(st.sampled_from(plain), max_size=4))
    pieces += draw(st.lists(_NOISE_PIECES, max_size=2))
    if draw(st.booleans()):
        # The flags the command requires, so that many draws are complete.
        pieces.append(["--config", "c.json"])
        if command == "sweep":
            start = draw(st.sampled_from(_ARGV_VALUES))
            pieces += [["--axis", "a.b"], ["--start", start], ["--stop", "5"]]
    pieces = draw(st.permutations(pieces))
    return [command, *(word for piece in pieces for word in piece)]


@settings(deadline=None, max_examples=400)
@given(argvs())
@example(["send", "--config=--"])
@example(["sweep", "--axis", "a.b", "--config", "c.json", "--start", "-1e3", "--stop", "-1e+300"])
def test_argv_reader_reads_or_exits(argv):
    # Any argv reads to a namespace of the command's flags, or prints help
    # and exits 0 (only after -h/--help), or prints the usage and a reason
    # to stderr and exits 1.  Nothing else escapes the reader.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            read = cli_mod._read_argv(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            code = None
    if code == 0:
        assert "-h" in argv or "--help" in argv
        assert out.getvalue().startswith("usage: pnsslink") and not err.getvalue()
    elif code == 1:
        assert err.getvalue().startswith("usage: pnsslink") and not out.getvalue()
    else:
        assert code is None and not out.getvalue() + err.getvalue()
        flags = cli_mod._COMMAND_FLAGS[argv[0]]
        assert vars(read).keys() == {"command", *(name[2:] for name in flags)}
        assert read.command == argv[0]
        for name, flag in flags.items():
            value = getattr(read, name[2:])
            assert value is flag.default or type(value) is (flag.type or bool)


class TestSampleConfig:
    @pytest.mark.parametrize("qutrit, axis, value", SAMPLE_CASES)
    def test_sample_equals_parse_of_edited_doc(self, qutrit, axis, value):
        sample = check_sample(qutrit, axis, value)
        assert not isinstance(sample, ConfigError)
        assert sample != parse_config(sample_doc(qutrit))

    @pytest.mark.parametrize("qutrit, axis, value", BAD_SAMPLE_CASES)
    def test_bad_value_raises_the_parse_error(self, qutrit, axis, value):
        assert isinstance(check_sample(qutrit, axis, value), ConfigError)

    @given(qutrit=st.booleans(), axis=st.sampled_from(AXES), value=VALUES)
    @settings(deadline=None, max_examples=400)
    def test_every_axis_samples_like_the_edited_doc(self, qutrit, axis, value):
        check_sample(qutrit, axis, value)

    @pytest.mark.parametrize(
        "axis, message",
        [
            ("nosuch.x", "no section 'nosuch'"),
            ("params.nosuch", "no field 'nosuch'"),
            ("params.g_mhz.x", "no section 'params.g_mhz'"),
            ("initial_state.c_m1", "no section 'initial_state'"),
            ("pulse1.shape", "no field 'shape'"),
            ("strict", "no field 'strict'"),
            ("config.regime_min_ratio", "no section 'config'"),
            ("pulse2.T2_us", "no field 'T2_us'"),
        ],
    )
    def test_bad_axis(self, axis, message):
        config = parse_config(sample_doc(False))
        with pytest.raises(ConfigError, match=message) as exc:
            sample_config(config, axis, 1.0)
        assert f"sweep axis {axis!r}" in str(exc.value)

    def test_key_no_parser_reads_is_no_axis(self):
        # Written in, it is refused as a misspelt key.
        doc = sample_doc(False)
        config = parse_config(doc)
        doc["params"]["nosuch"] = 1.0
        with pytest.raises(ConfigError, match="unknown config key params.nosuch"):
            parse_config(doc)
        with pytest.raises(ConfigError, match="no field 'nosuch'"):
            sample_config(config, "params.nosuch", 2.0)

    def test_copies_only_the_axis_path(self):
        config = parse_config(sample_doc(False))
        sample = sample_config(config, "channel.L0_km", 1.0)
        assert sample.channel is not config.channel and sample.channel.length_km == 1.0
        for name in ("params", "initial_state", "pulse1", "pulse2", "grid", "outputs"):
            assert getattr(sample, name) is getattr(config, name)  # only the channel is rebuilt

    @pytest.mark.parametrize("axis", ["initial_state.p_m1", "channel.L0_km", "params.phi2_rad"])
    def test_sweep_parses_no_document(self, monkeypatch, axis):
        def no_parse(doc):
            raise AssertionError("parse_config ran")

        config = parse_config(small_doc())
        monkeypatch.setattr(config_mod, "parse_config", no_parse)
        monkeypatch.setattr(pipeline_mod, "parse_config", no_parse, raising=False)
        assert len(run_sweep(config, axis, np.linspace(0.2, 0.8, 4))[0]) == 4


@pytest.mark.parametrize(
    "axis, value",
    [
        ("channel.p_abs", 0.8),
        ("grid.points", 2001.0),
        ("pulse2.max_iterations", 40.0),
        ("params.atom_mass_kg", 1.5e-25),
        ("regime_min_ratio", 4.0),
    ],
)
@pytest.mark.parametrize("absent", ["field", "section"])
def test_defaulted_field_samples_like_a_written_one(axis, value, absent):
    doc = sample_doc(False)
    del doc["regime_min_ratio"]
    *sections, leaf = axis.split(".")
    if sections and absent == "section" and sections[0] != "params":
        del doc[sections[0]]
    elif sections:
        doc[sections[0]].pop(leaf, None)
    config = parse_config(doc)
    expected = edited_doc(doc, axis, value)
    sample = sample_config(config, axis, value)
    assert sample == parse_config(expected)
    assert sample.config_hash() == parse_config(expected).config_hash()


REUSED_ROW_CASES = [
    (False, math.pi / 2, "initial_state.p_m1", 0.0, 1.0, 1),
    (True, math.pi / 2, "initial_state.p_m1", 0.05, 0.8, 1),
    # Off-phase control: the receiver closed form's u = exp(i(pi/2 - phi2)).
    (True, 0.7, "initial_state.p_m1", 0.05, 0.8, 1),
    (False, math.pi / 2, "channel.L0_km", 0.0, 5.0, 1),
    (False, math.pi / 2, "params.g_mhz", 11.5, 12.5, 5),
    # The control phase enters per state only: one link for the whole sweep.
    (True, math.pi / 2, "params.phi2_rad", 0.3, 1.4, 1),
]


def _reused_row_id(qutrit, phi2, axis, start, stop, solves) -> str:
    # Cases at the default control phase keep the ids they had before phi2 was a column.
    phase = "" if phi2 == math.pi / 2 else f"phi2={phi2}-"
    return f"{qutrit}-{phase}{axis}-{start}-{stop}-{solves}"


class TestSweepSemantics:
    def test_single_point_matches_transfer(self):
        config = parse_config(small_doc())
        rows, _ = run_sweep(config, "channel.L0_km", np.array([0.06]))
        result = run_transfer(config)
        assert rows[0]["weighted_success"] == pytest.approx(
            result.report.weighted_success, rel=1e-12
        )
        assert rows[0]["fidelity"] == pytest.approx(result.report.final.fidelity, rel=1e-12)

    def test_population_axis_monotone_photon_number(self):
        config = parse_config(small_doc())
        rows, _ = run_sweep(config, "initial_state.p_m1", np.linspace(0.0, 1.0, 5))
        n_out = [row["n_out_inf"] for row in rows]
        assert all(b > a for a, b in zip(n_out, n_out[1:]))

    @pytest.mark.parametrize(
        "qutrit, phi2, axis, start, stop, solves",
        REUSED_ROW_CASES,
        ids=[_reused_row_id(*case) for case in REUSED_ROW_CASES],
    )
    def test_reused_rows_are_exact(self, monkeypatch, qutrit, phi2, axis, start, stop, solves):
        doc = stock_doc(qutrit=qutrit)
        doc["grid"] = {"span_in_T1": 12.0, "points": 4001}
        doc["params"]["phi2_rad"] = phi2
        config = parse_config(doc)
        values = np.linspace(start, stop, 5)
        calls = []
        summaries = []
        solve, summarize = pipeline_mod.solve_pulse_shape, pipeline_mod.summarize

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        def keeping_summary(*args, **kwargs):
            summaries.append(summarize(*args, **kwargs))
            return summaries[-1]

        monkeypatch.setattr(pipeline_mod, "solve_pulse_shape", counting_solve)
        monkeypatch.setattr(pipeline_mod, "summarize", keeping_summary)
        rows, _ = run_sweep(config, axis, values)
        assert len(calls) == solves
        assert len(summaries) == solves  # rows come from one summary per link, not per sample
        monkeypatch.undo()
        for value, row in zip(values, rows):
            cfg = sample_config(config, axis, float(value))
            assert dict(zip(rows.dtype.names, row.item())) == full_grid_row(cfg, axis, float(value))

    @pytest.mark.parametrize(
        "axis, start, stop, num, links",
        [
            ("initial_state.p_m1", 0.05, 0.9, 41, 1),
            ("params.g_mhz", 11.5, 12.5, 3, 3),
            ("channel.L0_km", 0.0, 5.0, 41, 1),
            ("params.phi2_rad", 0.3, 1.4, 41, 1),
        ],
    )
    def test_sweep_reads_only_terminal_samples(self, monkeypatch, axis, start, stop, num, links):
        # The link stage's arrays are a sweep's only full-grid arrays: outside
        # it, every closed form of sender, photonics and receiver sees end
        # values alone (one per link, or a column of the samples), in one
        # readout per link, and an axis that shares the link builds no
        # config per sample.  No sweep builds the grid areas eta(t), zeta(t);
        # a transfer builds them once.
        config = parse_config(small_doc())
        points = config.grid.n_points()
        sizes, made = Counter(), []
        in_link = []

        def size(value) -> int:  # the largest array in value, records searched field by field
            if isinstance(value, tuple):
                return max(map(size, value), default=1)
            return np.size(value) if isinstance(value, (np.ndarray, np.generic)) else 1

        def sizing(fn):
            def wrapper(*args, **kwargs):
                if not in_link:
                    sizes.update(map(size, (*args, *kwargs.values())))
                return fn(*args, **kwargs)

            return wrapper

        def link_stage(*args, **kwargs):
            in_link.append(1)
            try:
                return build(*args, **kwargs)
            finally:
                in_link.pop()

        build = pipeline_mod.build_link
        layers = {"pnsslink.sender", "pnsslink.photonics", "pnsslink.receiver"}
        for name, fn in vars(pipeline_mod).copy().items():
            if inspect.isfunction(fn) and fn.__module__ in layers:
                monkeypatch.setattr(pipeline_mod, name, sizing(fn))
        monkeypatch.setattr(pipeline_mod, "build_link", link_stage)
        areas, area_calls = pipeline_mod.pulse_areas, []

        def counting_areas(*args, **kwargs):
            area_calls.append(1)
            return areas(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "pulse_areas", counting_areas)
        readouts = Counter()
        columns = pipeline_mod._sweep_columns

        def counting_readout(link, samples):
            readouts[id(link)] += 1
            return columns(link, samples)

        monkeypatch.setattr(pipeline_mod, "_sweep_columns", counting_readout)
        make = config_mod.ScenarioConfig._make  # what _replace builds a config with

        def counting_make(cls, fields):
            made.append(1)
            return make(fields)

        monkeypatch.setattr(config_mod.ScenarioConfig, "_make", classmethod(counting_make))
        rows, _ = run_sweep(config, axis, np.linspace(start, stop, num))
        assert len(rows) == num
        assert sizes and set(sizes) <= {1, num // links} and points not in sizes
        assert sorted(readouts.values()) == [1] * links  # one readout per link
        assert len(made) == (1 if links == 1 else num)  # one column config, or one per sample
        assert not area_calls
        run_transfer(config)
        assert len(area_calls) == 1

    @pytest.mark.parametrize(
        "axis, start, stop, num, links",
        [("initial_state.p_m1", 0.05, 0.9, 41, 1), ("params.g_mhz", 11.5, 12.5, 3, 3)],
    )
    def test_one_summary_per_link(self, monkeypatch, axis, start, stop, num, links):
        config = parse_config(small_doc())
        summaries, finals = [], []
        summarize = pipeline_mod.summarize

        def counting_summarize(*args, **kwargs):
            summaries.append(summarize(*args, **kwargs))
            return summaries[-1]

        class CountingFinalState(receiver_mod.FinalState):
            def __new__(cls, *args, **kwargs):
                finals.append(1)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "summarize", counting_summarize)
        monkeypatch.setattr(receiver_mod, "FinalState", CountingFinalState)
        columns, _ = run_sweep(config, axis, np.linspace(start, stop, num))
        assert len(summaries) == links
        assert len(finals) == links  # one columnar readout per link, none per sample
        assert sum(np.size(summary.final.fidelity) for summary in summaries) == num
        fidelities = np.concatenate([np.atleast_1d(x.final.fidelity) for x in summaries])
        assert np.array_equal(fidelities, columns["fidelity"])

    @given(
        qutrit=st.booleans(),
        case=st.sampled_from(
            [("initial_state.p_m1", 0.0, 0.8), ("channel.L0_km", 0.0, 20.0), ("params.phi2_rad", 0.0, 6.3)]
        ),
        ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        num=st.integers(1, 3),
        phases=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3),
        phi2=st.floats(0.0, 2.0 * math.pi),
    )
    @settings(deadline=None, max_examples=20)
    def test_sweep_columns_equal_full_grid_reports(self, qutrit, case, ends, num, phases, phi2):
        # A phase on each amplitude and any control phase: the shared
        # readout's complex products give each row the floats of a full-grid
        # transfer of its sample.  A p_m1 sample keeps only c_p1's phase.
        axis, low, high = case
        doc = stock_doc(qutrit)
        doc["params"]["phi2_rad"] = phi2
        for (name, (modulus, _)), chi in zip(doc["initial_state"].items(), phases):
            doc["initial_state"][name] = [modulus * math.cos(chi), modulus * math.sin(chi)]
        values = np.linspace(*(low + (high - low) * end for end in ends), num)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a phase can leave the norm 1e-15 off: renormalized
            config = parse_config(doc)
            rows, _ = run_sweep(config, axis, values)
            for value, row in zip(values, rows):
                cfg = sample_config(config, axis, float(value))
                assert dict(zip(rows.dtype.names, row.item())) == full_grid_row(cfg, axis, float(value))

    def test_state_sweep_warns_once_for_its_renormalized_samples(self):
        # Past p_m1 = 1 (within 1e-12) c_0 is 0 and the norm drifts above 1:
        # four of the five samples are renormalized, under one warning, and
        # each row still holds its sample's transfer values.
        config = parse_config(small_doc())
        values = np.linspace(1.0, 1.0 + 5e-13, 5)
        with pytest.warns(UserWarning, match="renormalized") as caught:
            rows, _ = run_sweep(config, "initial_state.p_m1", values)
        assert [str(w.message) for w in caught] == [
            "initial_state renormalized in 4 of 5 sweep samples (largest norm deviation 5.00e-13)"
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sample_config warns per sample
            for value, row in zip(values, rows):
                cfg = sample_config(config, "initial_state.p_m1", float(value))
                expected = full_grid_row(cfg, "initial_state.p_m1", float(value))
                assert dict(zip(rows.dtype.names, row.item())) == expected

    @pytest.mark.parametrize(
        "axis, values, channel",
        [
            ("channel.L0_km", [1.0, 0.0, -1.0, -2.0], {}),
            ("channel.p_em", [0.5, 1.0, 1.5], {}),
            ("channel.p_abs", [0.5, -0.1], {}),
            ("channel.atten_db_per_km", [2.0, 0.0], {}),
            ("channel.phase_rate", [0.1, math.inf], {}),
            ("params.phi2_rad", [0.3, math.nan, 1.0], {}),
            # Finite entries whose attenuation length is 0 or inf, or whose
            # phase drift overflows.
            ("channel.atten_db_per_km", [2.0, 1e308, 1e-310], {}),
            ("channel.atten_db_per_km", [2.0, 1e-310], {}),
            ("channel.L0_km", [1.0, 2.0], {"phase_rate": 1.7e308}),
            ("channel.phase_rate", [0.1, 1e200], {"L0_km": 1e200}),
        ],
    )
    def test_bad_column_value_fails_like_its_sample_before_any_solve(self, monkeypatch, axis, values, channel):
        def unreachable(*args, **kwargs):
            raise AssertionError("a link was built")

        monkeypatch.setattr(pipeline_mod, "build_link", unreachable)
        doc = small_doc()
        doc["channel"].update(channel)
        config = parse_config(doc)
        bad = next(v for v in values if not _samples_cleanly(config, axis, v))
        with pytest.raises(ConfigError) as sampled:
            sample_config(config, axis, bad)
        with pytest.raises(ConfigError) as swept:
            run_sweep(config, axis, np.array(values))
        assert str(swept.value) == str(sampled.value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "axis, start, stop, channel",
        [
            ("channel.L0_km", 0.0, 30.0, {}),
            ("channel.atten_db_per_km", 0.2, 4.0, {}),
            ("channel.phase_rate", -1.0, 1.0, {}),
            ("channel.p_em", 0.0, 1.0, {}),
            ("channel.p_abs", 0.3, 1.0, {}),
            # L0 / L_att overflows to inf, and eta to 0: a transfer runs
            # silently, and numpy's frompyfunc warned on a column entry.
            ("channel.L0_km", 1.0, 1e200, {"L0_km": 1e200, "atten_db_per_km": 1e200}),
            ("channel.atten_db_per_km", 1e199, 1e200, {"L0_km": 1e200, "atten_db_per_km": 1e200}),
        ],
    )
    def test_every_channel_column_equals_full_grid_reports(self, axis, start, stop, channel):
        doc = small_doc()
        doc["channel"].update(channel)
        config = parse_config(doc)
        values = np.linspace(start, stop, 4)
        rows, _ = run_sweep(config, axis, values)
        for value, row in zip(values, rows):
            cfg = sample_config(config, axis, float(value))
            assert dict(zip(rows.dtype.names, row.item())) == full_grid_row(cfg, axis, float(value))

    def test_state_columns_square_as_a_sample_does(self):
        # On a 100 000-point p_m1 linspace, x ** 2 and x * x round apart for
        # 181 amplitudes: the columns must hold sample_config's states, and
        # their populations and weighted success those of its states.
        config = load_config(CONFIGS / "qubit.json")
        values = np.linspace(0.05, 0.9, 100_000)
        (samples,) = config_mod.axis_sampler(config, "initial_state.p_m1")(values)
        states = [sample_config(config, "initial_state.p_m1", v).initial_state for v in values.tolist()]
        for column, amplitudes in zip(samples.initial_state, zip(*states)):
            assert np.array_equal(column, amplitudes)
        summary = pipeline_mod.summarize(build_link(config), samples)
        _, _, one, two, _ = pipeline_mod._budget(config.channel)
        weighted = [weighted_success(s.populations, one, two) for s in states]
        assert np.array_equal(summary.weighted_success, weighted)

    def test_default_grid_agrees_with_4x_grid(self):
        # The default grid's discretisation error, estimated against a 4x
        # denser grid on the stock qubit scenario.
        config = load_config(CONFIGS / "qubit.json")
        dense_doc = stock_doc()
        dense_doc["grid"]["points"] = 4 * (config.grid.n_points() - 1) + 1
        assert dense_doc["grid"]["points"] == 12001
        default, dense = run_transfer(config), run_transfer(parse_config(dense_doc))
        assert default.pulse2.duration == pytest.approx(dense.pulse2.duration, rel=1e-9)
        assert default.omega2 == pytest.approx(dense.omega2, rel=1e-9)
        assert default.report.conservation_residual_max == pytest.approx(
            dense.report.conservation_residual_max, rel=0.0, abs=1e-9
        )

    def test_halved_grid_keeps_invariants(self):
        config = parse_config(small_doc())
        halved = parse_config(small_doc(grid={"span_in_T1": 12.0, "points": 2001}))
        for cfg, slack in ((config, 1.0), (halved, 4.0)):
            result = run_transfer(cfg)
            traj = atomic_moments(result.send.sender.theta.samples, cfg.initial_state)
            total = traj.sigma_m1 + traj.sigma_0 + traj.sigma_p1
            assert np.max(np.abs(total - 1.0)) <= slack * 1e-10
            obs = result.send.observables
            assert np.max(np.abs(obs.n_out - obs.p1 - 2 * obs.p2)) <= slack * 1e-8
