import contextlib
import io
import json
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsslink import cli as cli_mod
from pnsslink import config as config_mod
from pnsslink import photonics as photonics_mod
from pnsslink import pipeline as pipeline_mod
from pnsslink import receiver as receiver_mod
from pnsslink.channel import attenuation_length, transmission_efficiency
from pnsslink.cli import main
from pnsslink.config import (
    MAX_GRID_POINTS,
    ConfigError,
    load_config,
    parse_config,
    sample_config,
)
from pnsslink.core import to_mhz
from pnsslink.pipeline import (
    US,
    build_link,
    run_sweep,
    run_transfer,
    run_transfer_on,
)
from pnsslink.receiver import PulseSolveError

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
    assert link.solve.converged is True
    l_att = attenuation_length(cfg.channel.atten_db_per_km)
    return {
        axis.split(".")[-1]: float(value),
        "eta1": transmission_efficiency(cfg.channel.length_km, l_att, 1),
        "eta2": transmission_efficiency(cfg.channel.length_km, l_att, 2),
        "weighted_success": report.weighted_success,
        "phase_rad": report.phase_drift_rad,
        "fidelity": report.final.fidelity,
        "n_out_inf": float(obs.n_out[-1]),
        "P1_inf": float(obs.p1[-1]),
        "P2_inf": float(obs.p2[-1]),
        "T2_us": result.pulse2.duration / US,
        "center2_us": result.pulse2.center / US,
        "omega2_mhz": to_mhz(result.omega2),
        "eta_residual": link.eta_residual,
        "zeta_residual": link.zeta_residual,
    }


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
            ("pulse1", "shape", None, True),
            ("pulse2", "family", None, True),
            ("channel", "p_em", 1.0, True),
            ("params", "g_mhz", 12, True),
            ("params", "g_mhz", 12.5, False),
            ("channel", "p_abs", 0.9, False),
            ("pulse2", "tol", 1e-9, False),
            (None, "strict", True, False),
        ],
        ids=[
            "no-shape", "no-family", "p_em-written", "int-g", "other-g", "other-p_abs",
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
        [("L0_km", -0.01), ("atten_db_per_km", 0.0), ("p_em", 1.5), ("p_abs", -0.1)],
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["transfer", "--config", "c.json"],
            ["send", "--config=c.json", "--out", "o", "--strict", "--tol", "1e-9", "--out=p"],
            ["sweep", "--axis", "channel.L0_km", "--config", "-1", "--start", "-1", "--stop=-1e-9",
             "--num", "-3", "--tol", "-.5"],
        ],
        ids=["transfer", "send", "sweep"],
    )
    def test_plain_argv_read_without_argparse(self, argv):
        read = cli_mod._read_argv(argv)
        assert read is not None
        assert vars(read) == vars(cli_mod._build_parser().parse_args(argv))

    def test_main_builds_no_parser_for_a_plain_argv(self, tmp_path, monkeypatch):
        def unreachable():
            raise AssertionError("argparse parser built")

        monkeypatch.setattr(cli_mod, "_build_parser", unreachable)
        path = write_doc(tmp_path, small_doc(outputs={"which": ["report"]}))
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "report.json").exists()

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
            ("pulse2", {"mode": "explicit", "T2_us": 0}, "pulse2.T2_us"),
            ("pulse2", {"mode": "explicit", "T2_us": -0.3}, "pulse2.T2_us"),
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

    def test_raised_pulse_solve_error_exit_code(self, tmp_path, monkeypatch):
        def unsolvable(config):
            raise PulseSolveError("no bracket")

        monkeypatch.setattr(cli_mod, "run_transfer", unsolvable)
        path = write_doc(tmp_path, small_doc())
        assert main(["transfer", "--config", str(path)]) == 2

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
        # photonics.csv; they are computed once.
        doc = small_doc()
        points = doc["grid"]["points"]
        seen = Counter()

        def counting(name, fn):
            def wrapper(theta, *args):
                seen[name] += theta.grid.n_points == points
                return fn(theta, *args)

            return wrapper

        for module in (pipeline_mod, photonics_mod):
            for name in ("mean_photon_number", "photon_fluxes"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        path = write_doc(tmp_path, doc)
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert seen == {"mean_photon_number": 1, "photon_fluxes": 1}

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
        parsed = []
        sampler = pipeline_mod.axis_sampler

        def recording_sampler(config, axis):
            sample = sampler(config, axis)

            def recording_sample(value):
                parsed.append(sample(value))
                return parsed[-1]

            return recording_sample

        monkeypatch.setattr(pipeline_mod, "axis_sampler", recording_sampler)
        sweep = ["sweep", "--axis", "channel.L0_km", "--start", "0", "--stop", "5", "--num", "3"]
        path = write_doc(tmp_path, small_doc())
        flag_run = ["--config", str(path), "--out", str(tmp_path / "flag"), "--tol", "1e-9"]
        assert main(sweep + flag_run) == 0
        assert [cfg.pulse2.tol for cfg in parsed] == [1e-9] * 3
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
_ARGV_VALUES = ["-1", "-.5", "-1e-9", "nan", "x", "", "0", "2", "0.5", "1e-9", "-", "--",
                "-x y", "a=b", "channel.L0_km", "--config"]
# Flags of the plain grammar with values argparse takes, negative numbers too.
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
def test_argv_reader_agrees_with_argparse(argv):
    # The reader may leave any argv to argparse, but what it reads it reads
    # as argparse does, and it reads nothing argparse refuses.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(cli_mod._build_parser().parse_args(argv))
        except SystemExit:
            expected = None
    read = cli_mod._read_argv(argv)
    if expected is None:
        assert read is None
    elif read is not None:
        # repr: nan equals itself, and 1 differs from 1.0.
        assert repr(sorted(vars(read).items())) == repr(sorted(expected.items()))


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
        # Written in, it changes neither the parsed config nor its hash.
        doc = sample_doc(False)
        doc["params"]["nosuch"] = 1.0
        config = parse_config(doc)
        assert config.config_hash() == parse_config(sample_doc(False)).config_hash()
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
        [("initial_state.p_m1", 0.05, 0.9, 41, 1), ("params.g_mhz", 11.5, 12.5, 3, 3)],
    )
    def test_sweep_reads_only_terminal_samples(self, monkeypatch, axis, start, stop, num, links):
        config = parse_config(small_doc())
        seen = []

        def points(args) -> int:
            for arg in args:
                grid = getattr(arg, "grid", None)
                if grid is not None:
                    return grid.n_points
                if isinstance(arg, np.ndarray):
                    return arg.size
            raise AssertionError("no grid-valued argument")

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                seen.append((name, points(args)))
                return fn(*args, **kwargs)

            return wrapper

        closed_forms = [
            "amplitudes_beta",
            "photon_distribution",
            "mean_photon_number",
            "gamma_analytic",
            "final_state",
        ]
        full_grid_only = ["photon_observables", "conservation_check"]
        for name in ["pulse_areas", *closed_forms, *full_grid_only]:
            monkeypatch.setattr(pipeline_mod, name, recording(name, getattr(pipeline_mod, name)))
        rows, _ = run_sweep(config, axis, np.linspace(start, stop, num))
        assert len(rows) == num
        full = [name for name, n in seen if n == config.grid.n_points()]
        assert full == ["pulse_areas"] * links  # the link's areas, once per link
        assert all(n == 2 for name, n in seen if name != "pulse_areas")
        calls = Counter(name for name, _ in seen)
        assert calls == {"pulse_areas": links, **{name: links for name in closed_forms}}

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
            def __init__(self, *args, **kwargs):
                finals.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "summarize", counting_summarize)
        monkeypatch.setattr(receiver_mod, "FinalState", CountingFinalState)
        columns, _ = run_sweep(config, axis, np.linspace(start, stop, num))
        assert len(summaries) == links
        assert len(finals) == links  # one columnar readout per link, none per sample
        assert sum(len(summary.final.fidelity) for summary in summaries) == num
        fidelities = np.concatenate([x.final.fidelity for x in summaries])
        assert np.array_equal(fidelities, columns["fidelity"])

    @given(
        qutrit=st.booleans(),
        case=st.sampled_from(
            [("initial_state.p_m1", 0.0, 0.8), ("channel.L0_km", 0.0, 20.0), ("params.phi2_rad", 0.0, 6.3)]
        ),
        ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        num=st.integers(1, 3),
    )
    @settings(deadline=None, max_examples=12)
    def test_sweep_columns_equal_full_grid_reports(self, qutrit, case, ends, num):
        axis, low, high = case
        config = load_config(CONFIGS / ("qutrit.json" if qutrit else "qubit.json"))
        values = np.linspace(*(low + (high - low) * end for end in ends), num)
        rows, _ = run_sweep(config, axis, values)
        for value, row in zip(values, rows):
            cfg = sample_config(config, axis, float(value))
            assert dict(zip(rows.dtype.names, row.item())) == full_grid_row(cfg, axis, float(value))

    def test_link_refuses_other_physics(self):
        config = parse_config(small_doc())
        link = build_link(config)
        other = sample_config(config, "initial_state.p_m1", 0.4)
        assert run_transfer_on(link, other).report.final.fidelity == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError, match="physics"):
            run_transfer_on(link, sample_config(config, "params.g_mhz", 12.5))

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
            traj = result.send.trajectory
            total = traj.sigma_m1 + traj.sigma_0 + traj.sigma_p1
            assert np.max(np.abs(total - 1.0)) <= slack * 1e-10
            obs = result.send.observables
            assert np.max(np.abs(obs.n_out - obs.p1 - 2 * obs.p2)) <= slack * 1e-8
