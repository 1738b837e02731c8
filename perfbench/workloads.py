"""The benchmark's workloads: generated scenario documents and CLI argument lists.

Every input is drawn from the run's seed.  The program sees only the
scenario files written from these documents.  The documents never set
``grid.points`` (or any other field whose stock default is the intended
value), so a change to a default shows up in the measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hostspeed import PARTS

# Stock grid density of the program this benchmark was written against;
# used only to place the stored reference (see make_reference.py).
GRID_POINTS_DEFAULT = 48001

SWEEP_NUM = 41
# Scenario variants generated per run; ops cycle through them.
VARIANTS = 4


def base_document() -> dict:
    """Stock physics of the two-node link (configs/qubit.json without defaults)."""
    return {
        "params": {
            "g_mhz": 12.0,
            "k_mhz": 3.0,
            "gamma_sp_mhz": 5.87,
            "omega1_mhz": 10.0,
            "omega2_mhz": 10.0,
            "delta_mhz": 100.0,
            "delta_b_ground_mhz": 15.0,
            "delta_b_excited_mhz": 15.0,
            "phi2_rad": math.pi / 2,
        },
        "initial_state": {
            "c_m1": [math.sqrt(0.7), 0.0],
            "c_0": [math.sqrt(0.3), 0.0],
            "c_p1": [0.0, 0.0],
        },
        "pulse1": {"T1_us": 0.3, "center_us": 0.0},
        "pulse2": {
            "mode": "solve",
            "free": "amplitude",
            "center_us": 0.15,
            "T2_range_us": [0.02, 20.0],
            "tol": 1e-6,
        },
        "channel": {"L0_km": 0.06, "atten_db_per_km": 2.0, "phase_rate": 0.1},
        "outputs": {"which": ["sender", "photonics", "receiver", "report"]},
    }


def _amplitude(weight: float, phase: float) -> list[float]:
    r = math.sqrt(weight)
    return [r * math.cos(phase), r * math.sin(phase)]


def _qubit_state(rng: np.random.Generator) -> dict:
    p_m1 = float(rng.uniform(0.2, 0.8))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return {
        "c_m1": _amplitude(p_m1, phase),
        "c_0": [math.sqrt(1.0 - p_m1), 0.0],
        "c_p1": [0.0, 0.0],
    }


def _qutrit_state(rng: np.random.Generator) -> dict:
    # Every branch keeps at least 10 % of the weight.
    weights = 0.1 + 0.7 * rng.dirichlet(np.ones(3))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return {
        "c_m1": _amplitude(float(weights[0]), float(phases[0])),
        "c_0": [math.sqrt(float(weights[1])), 0.0],
        "c_p1": _amplitude(float(weights[2]), float(phases[1])),
    }


@dataclass(frozen=True)
class Variant:
    """One generated scenario plus the extra CLI arguments of its op."""

    doc: dict
    extra_args: tuple[str, ...] = ()


def _transfer_qubit(rng: np.random.Generator) -> Variant:
    doc = base_document()
    doc["initial_state"] = _qubit_state(rng)
    doc["channel"]["L0_km"] = float(rng.uniform(0.01, 5.0))
    return Variant(doc)


def _sweep_state(rng: np.random.Generator) -> Variant:
    doc = base_document()
    doc["initial_state"] = _qubit_state(rng)
    start = float(rng.uniform(0.0, 0.1))
    args = (
        "--axis", "initial_state.p_m1",
        "--start", repr(start),
        "--stop", repr(start + 0.85),
        "--num", str(SWEEP_NUM),
    )
    return Variant(doc, args)


def _offphase_qutrit(rng: np.random.Generator) -> Variant:
    doc = base_document()
    doc["initial_state"] = _qutrit_state(rng)
    doc["params"]["phi2_rad"] = float(rng.uniform(0.2, 1.2))
    doc["outputs"]["which"] = ["report"]
    return Variant(doc)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    make_variant: Callable[[np.random.Generator], Variant]
    transfers_per_op: int
    outputs: tuple[str, ...]  # files each op must write
    # Host-speed kernel parts whose slowdown stands for the op's (hostspeed.py).
    host_work: tuple[str, ...] = PARTS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-transfer-qubit",
            "transfer",
            _transfer_qubit,
            1,
            ("sender.csv", "photonics.csv", "receiver.csv", "report.json"),
        ),
        # Whole-grid array arithmetic: pulse solves and closed forms, no CSV rows.
        Workload("sweep-state", "sweep", _sweep_state, SWEEP_NUM, ("sweep.csv",), ("array",)),
        Workload(
            "transfer-offphase-qutrit", "transfer", _offphase_qutrit, 1, ("report.json",)
        ),
    )
}


def make_variants(workload: Workload, seed: int) -> list[Variant]:
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    return [workload.make_variant(rng) for _ in range(VARIANTS)]


def argv(workload: Workload, variant: Variant, config_path: str, out_dir: str) -> list[str]:
    return [workload.command, "--config", config_path, "--out", out_dir, *variant.extra_args]
