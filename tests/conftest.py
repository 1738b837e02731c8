import json
import math
from pathlib import Path

import numpy as np
import pytest

from pnsslink.core import PhysicalParams, SuperpositionState, derive, rad_per_s
from pnsslink.numerics import TimeGrid
from pnsslink.sender import PulseShape

T1 = 0.3e-6
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def stock_doc(qutrit: bool = False) -> dict:
    """A fresh copy of the stock scenario document, configs/qubit.json or configs/qutrit.json."""
    path = CONFIGS / ("qutrit.json" if qutrit else "qubit.json")
    return json.loads(path.read_text(encoding="utf-8"))


def mhz_params(**mhz: float) -> PhysicalParams:
    """Parameters from frequencies in MHz (implicit 2*pi), as configs give them."""
    return PhysicalParams(**{name: rad_per_s(value) for name, value in mhz.items()})


@pytest.fixture(scope="session")
def stock_params() -> PhysicalParams:
    return mhz_params(
        g=12.0,
        k=3.0,
        gamma_sp=5.87,
        omega1=10.0,
        omega2=10.0,
        delta=100.0,
        delta_b_ground=15.0,
        delta_b_excited=15.0,
    )


@pytest.fixture(scope="session")
def stock_derived(stock_params):
    return derive(stock_params)


@pytest.fixture(scope="session")
def qubit_state() -> SuperpositionState:
    return SuperpositionState(math.sqrt(0.7), math.sqrt(0.3))


@pytest.fixture(scope="session")
def qutrit_state() -> SuperpositionState:
    return SuperpositionState(math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))


@pytest.fixture(scope="session")
def pulse1() -> PulseShape:
    return PulseShape(kind="gaussian", duration=T1, center=0.0)


def make_grid(n_points: int = 16001, span_t1: float = 12.0) -> TimeGrid:
    half = 0.5 * span_t1 * T1
    return TimeGrid(-half, half, n_points)


@pytest.fixture(scope="session")
def grid() -> TimeGrid:
    return make_grid()


def load_csv(path):
    """Read one of the package's CSV files into a named numpy array."""
    with open(path, encoding="utf-8") as fh:
        skip = 0
        for line in fh:
            if not line.startswith("#"):
                break
            skip += 1
    return np.genfromtxt(path, delimiter=",", names=True, skip_header=skip)


def random_states(count: int, seed: int, qutrit: bool = True) -> list[SuperpositionState]:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        dim = 3 if qutrit else 2
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        raw = raw / np.linalg.norm(raw)
        c_p1 = raw[2] if qutrit else 0j
        states.append(SuperpositionState(complex(raw[0]), complex(raw[1]), complex(c_p1)))
    return states
