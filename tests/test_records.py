"""The package's records: ``collections.namedtuple`` classes.

Importing the package runs one small ``eval`` per record and compiles no
annotation; the records keep a pinned ``repr``, their field order and no
instance ``__dict__``.
"""

import dataclasses
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pnsslink
from pnsslink.config import ScenarioConfig, load_config
from pnsslink.core import derive, validate_regime

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


def _classes():
    """(module name, class name, class) of every class the package's modules define."""
    for info in pkgutil.walk_packages(pnsslink.__path__, "pnsslink."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == info.name:
                yield info.name, name, value


def _typing_named_tuple(cls) -> bool:
    # typing.NamedTuple keeps the field annotations on the namedtuple it builds.
    return any("_fields" in vars(base) and ("__annotations__" in vars(base)
                                            or "__annotate__" in vars(base))
               for base in cls.__mro__)


def test_no_class_is_a_dataclass():
    # A dataclass compiles its methods with exec when its module is
    # imported, ~1 ms a class; typing.NamedTuple evaluates every field's
    # annotation through its metaclass.  Every record is a
    # collections.namedtuple or built on one.
    found = [(module, name) for module, name, cls in _classes()
             if dataclasses.is_dataclass(cls) or _typing_named_tuple(cls)]
    assert not found


def test_records_keep_their_shape():
    # A namedtuple subclass without __slots__ = () gains an instance
    # __dict__ silently.  Only these two keep one on purpose: TimeGrid's
    # read-only values and SendResult's cached properties.
    with_dict = {name for _, name, cls in _classes()
                 if issubclass(cls, tuple) and cls.__dictoffset__}
    assert with_dict == {"TimeGrid", "SendResult"}
    config = load_config(CONFIGS / "qubit.json")
    strict = config._replace(strict=True)
    assert type(strict) is ScenarioConfig and strict.strict and strict[:-1] == config[:-1]
    check = validate_regime(config.params, derive(config.params), 3e-7).checks[0]
    assert list(check._asdict()) == ["name", "left", "right", "ratio", "minimum", "passed"]


def test_import_compiles_no_annotation():
    # typing builds one ForwardRef per string annotation it evaluates (a
    # typing.NamedTuple field under `from __future__ import annotations`).
    code = (
        "import typing\n"
        "import numpy\n"
        "count = 0\n"
        "init = typing.ForwardRef.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    global count\n"
        "    count += 1\n"
        "    init(self, *args, **kwargs)\n"
        "typing.ForwardRef.__init__ = counting\n"
        "import pnsslink.cli\n"
        "print(count)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.stdout.splitlines()[-1] == "0"


def test_plain_argv_imports_no_argparse(tmp_path):
    # One reader reads every argv: a run, help, a usage error and an
    # abbreviated flag.
    program = (
        "import sys\n"
        "from pnsslink.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    config = str(CONFIGS / "qubit.json")
    for code, argv in ((0, ["send", "--config", config]), (0, ["transfer", "--help"]),
                       (1, ["transfer"]), (1, ["transfer", "--conf", config])):
        proc = subprocess.run([sys.executable, "-c", program, *argv, "--out", str(tmp_path)],
                              capture_output=True, text=True, check=True,
                              env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.stdout.splitlines()[-1] == f"{code} False"
