"""The package's records: no code generated at import, a pinned ``repr``."""

import dataclasses
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pnsslink
from pnsslink.config import load_config

from conftest import CONFIGS

SRC = Path(pnsslink.__file__).resolve().parent.parent

# repr(load_config(...)) of the stock files, Name(field=value, ...) all the
# way down.  config_hash() hashes it, so a drift here moves every output.
_PARAMS = (
    "ScenarioConfig(params=PhysicalParams(g=75398223.68615504, k=18849555.92153876, "
    "gamma_sp=36882297.75314417, omega1=62831853.07179586, omega2=62831853.07179586, "
    "delta=628318530.7179586, delta_b_ground=94247779.60769379, "
    "delta_b_excited=94247779.60769379, phi2=1.5707963267948966, atom_mass=1.4431606e-25, "
    "wavelength=7.80241e-07), "
)
_REST = (
    ", pulse1=Pulse1Config(t1_us=0.3, center_us=0.0), pulse2=Pulse2Config(mode='solve', "
    "free='amplitude', tol=1e-06, center_us=0.15, t2_range_us=(0.02, 20.0), "
    "center_range_us=None, t2_us=None, omega2_mhz=None, max_iterations=80), "
    "grid=GridConfig(span_in_t1=12.0, points=None), channel=ChannelModel(length_km=0.06, "
    "atten_db_per_km=2.0, phase_rate_rad_per_km=0.1, p_emission=1.0, p_absorption=1.0, "
    "l_att_km=2.1714724095162588), outputs=OutputsConfig(directory='out', "
    "which=('sender', 'photonics', 'receiver', 'report')), regime_min_ratio=5.0, "
    "strict=False)"
)
_STATES = {
    "qubit.json": "initial_state=SuperpositionState(c_m1=(0.8366600265340756+0j), "
    "c_0=(0.5477225575051661+0j), c_p1=0j)",
    "qutrit.json": "initial_state=SuperpositionState(c_m1=(0.7071067811865476+0j), "
    "c_0=(0.5477225575051661+0j), c_p1=(0.4472135954999579+0j))",
}


@pytest.mark.parametrize(
    "name, config_hash", [("qubit.json", "c9b1279fd7e17371"), ("qutrit.json", "0366c748c05b3b02")]
)
def test_stock_config_repr_and_hash_pinned(name, config_hash):
    config = load_config(CONFIGS / name)
    assert repr(config) == _PARAMS + _STATES[name] + _REST
    assert config.config_hash() == config_hash


def test_no_class_is_a_dataclass():
    # A dataclass compiles its methods with exec when its module is
    # imported, ~1 ms a class: every record is a NamedTuple or built on one.
    for info in pkgutil.walk_packages(pnsslink.__path__, "pnsslink."):
        module = importlib.import_module(info.name)
        found = [name for name, value in vars(module).items()
                 if isinstance(value, type) and dataclasses.is_dataclass(value)]
        assert not found, info.name


def test_plain_argv_imports_no_argparse(tmp_path):
    # Only an argv the plain reader leaves to argparse imports it (and gettext).
    code = (
        "import sys\n"
        "from pnsslink.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    argv = ["send", "--config", str(CONFIGS / "qubit.json"), "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          check=True, env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.stdout.splitlines()[-1] == "0 False"
