"""Self-test of the benchmark's output checker: corrupted outputs must fail."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from workloads import WORKLOADS, base_document

from pnsslink.cli import main
from pnsslink.csvio import write_csv

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())


@pytest.fixture(scope="module")
def quarter_phase_run(tmp_path_factory):
    """A real report-only transfer at control phase pi/2."""
    tmp = tmp_path_factory.mktemp("run")
    doc = base_document()
    doc["outputs"]["which"] = ["report"]
    path = tmp / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["transfer", "--config", str(path), "--out", str(tmp / "out")]) == 0
    report = json.loads((tmp / "out" / "report.json").read_text())
    return doc, report


def test_clean_report_passes(quarter_phase_run):
    doc, report = quarter_phase_run
    assert checks.check_report(report, doc, REFERENCE) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.update(fidelity=0.5),
        lambda r: r["solved_pulse"].update(omega2_mhz=r["solved_pulse"]["omega2_mhz"] * (1 + 1e-5)),
        lambda r: r["diagnostics"].update(n_out_final=float("nan")),
    ],
    ids=["fidelity-0.5", "omega2-off-1e-5", "nan-number"],
)
def test_corrupted_report_fails(quarter_phase_run, corrupt):
    doc, report = quarter_phase_run
    bad = json.loads(json.dumps(report))
    corrupt(bad)
    assert checks.check_report(bad, doc, REFERENCE)


def test_nan_csv_cell_fails(tmp_path):
    cols = [np.linspace(0.0, 1.0, 5), np.arange(5.0)]
    good = write_csv(tmp_path / "good.csv", ["a", "b"], cols, "0" * 16)
    assert checks.check_csv(good, 5) == []
    assert checks.check_csv(good, 6)
    cols[1][3] = np.nan
    bad = write_csv(tmp_path / "bad.csv", ["a", "b"], cols, "0" * 16)
    assert checks.check_csv(bad, 5)


def test_propagator_matches_closed_form_at_quarter_phase():
    c = (math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2) * 1j)
    assert checks.propagator_fidelity(c, math.pi / 2, math.pi, math.pi) == pytest.approx(1.0, abs=1e-14)
    assert checks.propagator_fidelity(c, 0.7, math.pi, math.pi) < 0.99


def test_every_workload_draws_inputs_from_the_seed():
    from workloads import make_variants

    for workload in WORKLOADS.values():
        a = [v.doc for v in make_variants(workload, 5)]
        assert a == [v.doc for v in make_variants(workload, 5)]
        assert a != [v.doc for v in make_variants(workload, 6)]
        assert all("points" not in v.get("grid", {}) for v in a)


@pytest.fixture
def keep_program_modules():
    """The benchmark re-imports pnsslink; give later tests back the modules they imported."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "pnsslink"}
    yield
    for name in [k for k in sys.modules if k.split(".")[0] == "pnsslink"]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_the_declared_metrics(capsys, keep_program_modules, trace, section):
    import run

    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "sweep-state", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    names = {m["name"]: m["unit"] for m in declared[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    predicted = json.loads((BENCH_DIR / "predictions.json").read_text())["predictions"]
    assert {m for p in predicted for m in p["per_layer"]} <= {m["name"] for m in declared["per_layer"]}
    assert {m for p in predicted for m in p["moves"]} <= {m["name"] for m in declared["end_to_end"]}
