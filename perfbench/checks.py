"""Per-op correctness checks, independent of the program's own code.

Every check returns a list of failure messages; an op passes when the
list is empty.  Expected values come from closed forms evaluated here,
from the stored reference pulse, and from the benchmark's own
block propagator for the receiving atom.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

FIDELITY_QUARTER_PHASE_MIN = 1.0 - 1e-9
FIDELITY_PROPAGATOR_TOL = 1e-6
N_OUT_TOL = 1e-6
PULSE_REL_TOL = 1e-6
# %.15g output of finite numbers uses only these bytes; "nan" and "inf" do not.
_NUMBER_BYTES = b"0123456789.-+e"


def _rad_per_s(mhz: float) -> float:
    return 2.0 * math.pi * 1e6 * mhz


def _state(doc: dict) -> tuple[complex, complex, complex]:
    st = doc["initial_state"]
    amp = [complex(*st[key]) for key in ("c_m1", "c_0", "c_p1")]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amp))
    return tuple(a / norm for a in amp)


def theta_final(doc: dict) -> float:
    """Total sender exposure alpha1 * T1 * sqrt(pi) of the gaussian control."""
    p = doc["params"]
    g1 = _rad_per_s(p["g_mhz"]) * _rad_per_s(p["omega1_mhz"]) / abs(_rad_per_s(p["delta_mhz"]))
    alpha1 = 4.0 * g1 * g1 / _rad_per_s(p["k_mhz"])
    return alpha1 * doc["pulse1"]["T1_us"] * 1e-6 * math.sqrt(math.pi)


def n_out_closed_form(theta: float, p_m1: float, p_0: float) -> float:
    e = math.exp(-theta)
    return (p_0 + 2.0 * p_m1) * (1.0 - e) - p_m1 * theta * e


def _expm_i_hermitian(h: np.ndarray, area: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * area * w)) @ v.conj().T


def propagator_fidelity(
    c: tuple[complex, complex, complex], phase: float, eta: float, zeta: float
) -> float:
    """Stored-state fidelity from exp(eta*A) exp(zeta*B) at control phase ``phase``.

    A (on g_0_0, g_1_1) and B (on g_-1_0, g_0_1, g_1_2) act on disjoint
    blocks and each is a constant matrix times the rate of its area, so
    the propagator after the pulse is exact in the two final areas.
    """
    c_m1, c_0, c_p1 = c
    ep = np.exp(1j * phase)
    h_a = np.array([[0.0, 0.5 * np.conj(ep)], [0.5 * ep, 0.0]])
    s2 = 1.0 / math.sqrt(2.0)
    h_b = np.array(
        [
            [0.0, s2 * np.conj(ep), 0.0],
            [s2 * ep, 0.0, s2 * np.conj(ep)],
            [0.0, s2 * ep, 0.0],
        ]
    )
    a_block = _expm_i_hermitian(h_a, eta) @ np.array([0.0, c_0])
    b_block = _expm_i_hermitian(h_b, zeta) @ np.array([0.0, 0.0, c_m1])
    kept = np.array([b_block[0], a_block[0], c_p1])
    overlap = np.vdot(np.array([c_m1, c_0, c_p1]), kept)
    return float(abs(overlap) ** 2 / np.vdot(kept, kept).real)


def _non_finite_paths(node, path: str = "") -> list[str]:
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _non_finite_paths(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _non_finite_paths(v, f"{path}[{i}]")]
    if isinstance(node, float) and not math.isfinite(node):
        return [path or "."]
    return []


def check_csv(path: Path, rows: int) -> list[str]:
    """Streamed check: comment lines, a header, then ``rows`` rows of finite numbers."""
    fails = []
    seen = 0
    with open(path, "rb") as fh:
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        ncols = line.count(b",") + 1
        for line in fh:
            seen += 1
            body = line.rstrip(b"\n")
            if body.count(b",") != ncols - 1:
                fails.append(f"{path.name}: row {seen} has {body.count(b',') + 1} cells")
                break
            if body.translate(None, _NUMBER_BYTES + b",") or b",," in body or not body:
                fails.append(f"{path.name}: row {seen} has a non-finite or empty cell")
                break
    if not fails and seen != rows:
        fails.append(f"{path.name}: {seen} rows, expected {rows}")
    return fails


def _read_csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def check_pulse(t2_us: float, omega2_mhz: float, reference: dict) -> list[str]:
    fails = []
    if not _rel(t2_us, reference["T2_us"]) <= PULSE_REL_TOL:
        fails.append(f"T2_us {t2_us!r} vs reference {reference['T2_us']!r}")
    if not _rel(omega2_mhz, reference["omega2_mhz"]) <= PULSE_REL_TOL:
        fails.append(f"omega2_mhz {omega2_mhz!r} vs reference {reference['omega2_mhz']!r}")
    return fails


def check_report(report: dict, doc: dict, reference: dict) -> list[str]:
    """Checks on one transfer report against the scenario document ``doc``."""
    fails = [f"report: non-finite {p}" for p in _non_finite_paths(report)]
    if fails:
        return fails
    tol = doc["pulse2"]["tol"]
    diag = report["diagnostics"]
    pulse = report["solved_pulse"]
    if pulse.get("converged") is not True:
        fails.append("report: pulse solve not converged")
    for key in ("eta_residual", "zeta_residual"):
        if not abs(diag[key]) <= tol:
            fails.append(f"report: |{key}| = {abs(diag[key]):.3e} > tol {tol:g}")
    c = _state(doc)
    p_m1, p_0 = abs(c[0]) ** 2, abs(c[1]) ** 2
    expected = n_out_closed_form(theta_final(doc), p_m1, p_0)
    if not abs(diag["n_out_final"] - expected) <= N_OUT_TOL:
        fails.append(f"report: n_out_final {diag['n_out_final']!r} vs closed form {expected!r}")
    fails += check_pulse(pulse["T2_us"], pulse["omega2_mhz"], reference)
    fails += _check_fidelity(
        report["fidelity"],
        c,
        doc["params"]["phi2_rad"],
        math.pi + diag["eta_residual"],
        math.pi + diag["zeta_residual"],
    )
    return fails


def _check_fidelity(fidelity: float, c, phase: float, eta: float, zeta: float) -> list[str]:
    if abs(math.remainder(phase - math.pi / 2, 2.0 * math.pi)) <= 1e-12:
        if not fidelity >= FIDELITY_QUARTER_PHASE_MIN:
            return [f"fidelity {fidelity!r} < {FIDELITY_QUARTER_PHASE_MIN!r} at phase pi/2"]
        return []
    expected = propagator_fidelity(c, phase, eta, zeta)
    if not abs(fidelity - expected) <= FIDELITY_PROPAGATOR_TOL:
        return [f"fidelity {fidelity!r} vs block propagator {expected!r}"]
    return []


def check_sweep(path: Path, doc: dict, reference: dict, num: int) -> list[str]:
    fails = check_csv(path, num)
    if fails:
        return fails
    tol = doc["pulse2"]["tol"]
    theta = theta_final(doc)
    for i, row in enumerate(_read_csv_rows(path)):
        where = f"sweep row {i}"
        p_m1 = row["p_m1"]
        expected = n_out_closed_form(theta, p_m1, 1.0 - p_m1)
        if not abs(row["n_out_inf"] - expected) <= N_OUT_TOL:
            fails.append(f"{where}: n_out_inf {row['n_out_inf']!r} vs closed form {expected!r}")
        for key in ("eta_residual", "zeta_residual"):
            if not abs(row[key]) <= tol:
                fails.append(f"{where}: |{key}| = {abs(row[key]):.3e} > tol {tol:g}")
        fails += [f"{where}: {f}" for f in check_pulse(row["T2_us"], row["omega2_mhz"], reference)]
        c = (math.sqrt(p_m1), math.sqrt(1.0 - p_m1), 0.0)
        fails += [
            f"{where}: {f}"
            for f in _check_fidelity(
                row["fidelity"],
                c,
                doc["params"]["phi2_rad"],
                math.pi + row["eta_residual"],
                math.pi + row["zeta_residual"],
            )
        ]
    return fails


def check_outputs(workload, doc: dict, out_dir: Path, rows: int, reference: dict) -> list[str]:
    """All checks for one op of ``workload`` that wrote into ``out_dir``."""
    missing = [name for name in workload.outputs if not (out_dir / name).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    if workload.command == "sweep":
        return check_sweep(out_dir / "sweep.csv", doc, reference, rows)
    fails = []
    for name in workload.outputs:
        if name.endswith(".csv"):
            fails += check_csv(out_dir / name, rows)
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        fails += check_report(json.load(fh), doc, reference)
    return fails


def omega2_rel_err(workload, out_dir: Path, reference: dict) -> float:
    """Largest relative deviation of the solved omega2 from the reference, over an op's transfers."""
    if workload.command == "sweep":
        values = [row["omega2_mhz"] for row in _read_csv_rows(out_dir / "sweep.csv")]
    else:
        with open(out_dir / "report.json", encoding="utf-8") as fh:
            values = [json.load(fh)["solved_pulse"]["omega2_mhz"]]
    return max(_rel(v, reference["omega2_mhz"]) for v in values)
