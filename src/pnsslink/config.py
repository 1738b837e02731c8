"""Scenario configuration: JSON schema, validation, canonical hashing.

A scenario is one JSON document with nested sections.  All frequencies
are entered in MHz (implicit 2*pi), times in microseconds and lengths in
kilometers; conversion to internal SI/rad-s units happens here and
nowhere else.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .channel import ChannelModel
from .core import D2_WAVELENGTH, RB87_MASS, PhysicalParams, SuperpositionState

RENORM_TOL = 1e-6
# ~0.7 kB per grid point (67 MB peak at 48 001, 201 MB at 240 001): at most ~0.7 GB.
MAX_GRID_POINTS = 1_000_000


class ConfigError(ValueError):
    """Configuration problem, with the offending field in the message."""


def _require(table: dict, key: str, where: str) -> Any:
    if key not in table:
        raise ConfigError(f"missing field {where}.{key}")
    return table[key]


def _section(doc: dict, name: str) -> dict:
    """An optional top-level table; absent means every field takes its default."""
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a table, got {raw!r}")
    return raw


def _finite(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    # json parses NaN and +-Infinity; NaN and ints beyond float range fail too.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _number(
    table: dict, key: str, where: str, default: Optional[float] = None, above: float = -math.inf
) -> float:
    if key not in table:
        if default is None:
            raise ConfigError(f"missing field {where}.{key}")
        return default
    value = _finite(table[key], f"{where}.{key}")
    if not value > above:
        raise ConfigError(f"{where}.{key} must be > {above:g}, got {value!r}")
    return value


def _count(table: dict, key: str, where: str, default: Optional[int] = None) -> int:
    value = _number(table, key, where, default, above=0.0)
    if value != int(value):
        raise ConfigError(f"{where}.{key} must be a whole number, got {value!r}")
    return int(value)


def _pair(raw: Any, name: str) -> tuple[float, float]:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise ConfigError(f"{name} must be a pair of numbers")
    return _finite(raw[0], f"{name}[0]"), _finite(raw[1], f"{name}[1]")


@dataclass(frozen=True)
class Pulse1Config:
    t1_us: float = 0.3
    center_us: float = 0.0


@dataclass(frozen=True)
class Pulse2Config:
    mode: str = "solve"  # "solve" | "explicit"
    free: str = "center"  # "center" | "amplitude"
    tol: float = 1e-6
    center_us: Optional[float] = None
    t2_range_us: tuple[float, float] = (0.02, 20.0)
    center_range_us: Optional[tuple[float, float]] = None
    t2_us: Optional[float] = None
    omega2_mhz: Optional[float] = None
    max_iterations: int = 80


@dataclass(frozen=True)
class GridConfig:
    span_in_t1: float = 12.0
    # Default: 250 per pulse duration (3 001 at the stock span), where the
    # fourth-order cumulative areas put the solved T2 within ~2e-11 of a
    # 4x denser grid.
    points: Optional[int] = None

    def n_points(self) -> int:
        if self.points is not None:
            return self.points
        return int(round(self.span_in_t1 * 250)) + 1


@dataclass(frozen=True)
class OutputsConfig:
    directory: str = "out"
    which: tuple[str, ...] = ("sender", "photonics", "receiver", "report")


@dataclass(frozen=True)
class ScenarioConfig:
    params: PhysicalParams
    initial_state: SuperpositionState
    pulse1: Pulse1Config
    pulse2: Pulse2Config
    grid: GridConfig
    channel: ChannelModel
    outputs: OutputsConfig
    regime_min_ratio: float = 5.0
    strict: bool = False
    raw: dict = field(repr=False, compare=False, default_factory=dict)

    def config_hash(self) -> str:
        """Hash of the canonical serialized document, recorded in outputs."""
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def default_config_dict(qutrit: bool = False) -> dict:
    """Stock scenario document (editable starting point).

    The control-pulse solve runs in the fixed-center mode with a free
    amplitude because, for these parameters, a pulse with the same peak
    amplitude as the sender cannot accumulate the required areas (see
    README); the amplitude comes out about 13 percent higher.
    """
    if qutrit:
        state = {
            "c_m1": [math.sqrt(0.5), 0.0],
            "c_0": [math.sqrt(0.3), 0.0],
            "c_p1": [math.sqrt(0.2), 0.0],
        }
    else:
        state = {
            "c_m1": [math.sqrt(0.7), 0.0],
            "c_0": [math.sqrt(0.3), 0.0],
            "c_p1": [0.0, 0.0],
        }
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
            "atom_mass_kg": RB87_MASS,
            "wavelength_nm": D2_WAVELENGTH * 1e9,
        },
        "initial_state": state,
        "pulse1": {"shape": "gaussian", "T1_us": 0.3, "center_us": 0.0},
        "pulse2": {
            "mode": "solve",
            "family": "gaussian",
            "free": "amplitude",
            "center_us": 0.15,
            "T2_range_us": [0.02, 20.0],
            "tol": 1e-6,
        },
        "grid": {"span_in_T1": 12.0},
        "channel": {"L0_km": 0.06, "atten_db_per_km": 2.0, "phase_rate": 0.1},
        "outputs": {"directory": "out", "which": ["sender", "photonics", "receiver", "report"]},
    }


def _parse_amplitude(raw: Any, name: str) -> complex:
    return complex(*_pair(raw, f"initial_state.{name}"))


def _parse_state(doc: dict) -> SuperpositionState:
    raw = _require(doc, "initial_state", "config")
    if not isinstance(raw, dict):
        raise ConfigError("initial_state must be a table of [re, im] pairs")
    c_m1 = _parse_amplitude(_require(raw, "c_m1", "initial_state"), "c_m1")
    c_0 = _parse_amplitude(_require(raw, "c_0", "initial_state"), "c_0")
    c_p1 = _parse_amplitude(raw.get("c_p1", [0.0, 0.0]), "c_p1")
    return _normalized_state(c_m1, c_0, c_p1)


def _normalized_state(c_m1: complex, c_0: complex, c_p1: complex) -> SuperpositionState:
    """The state of three parsed amplitudes, after the norm check."""
    norm_sq = abs(c_m1) ** 2 + abs(c_0) ** 2 + abs(c_p1) ** 2
    if abs(norm_sq - 1.0) >= RENORM_TOL:
        raise ConfigError(
            f"initial_state norm is {norm_sq!r}; amplitudes must be "
            f"normalized to within {RENORM_TOL:g}"
        )
    if abs(norm_sq - 1.0) > 1e-15:
        # Decimal-literal drift below the rejection threshold is folded
        # back in, but not silently.
        warnings.warn(
            f"initial_state renormalized (norm deviation {norm_sq - 1.0:.2e})",
            stacklevel=3,
        )
        return SuperpositionState.normalized(c_m1, c_0, c_p1)
    return SuperpositionState(c_m1, c_0, c_p1)


def _parse_params(doc: dict) -> PhysicalParams:
    raw = _require(doc, "params", "config")
    if not isinstance(raw, dict):
        raise ConfigError("params must be a table")
    try:
        return PhysicalParams.from_mhz(
            g=_number(raw, "g_mhz", "params"),
            k=_number(raw, "k_mhz", "params"),
            gamma_sp=_number(raw, "gamma_sp_mhz", "params"),
            omega1=_number(raw, "omega1_mhz", "params"),
            omega2=_number(raw, "omega2_mhz", "params"),
            delta=_number(raw, "delta_mhz", "params"),
            delta_b_ground=_number(raw, "delta_b_ground_mhz", "params"),
            delta_b_excited=_number(raw, "delta_b_excited_mhz", "params"),
            phi2=_number(raw, "phi2_rad", "params", default=math.pi / 2),
            atom_mass=_number(raw, "atom_mass_kg", "params", default=RB87_MASS),
            wavelength=_number(raw, "wavelength_nm", "params", default=D2_WAVELENGTH * 1e9)
            * 1e-9,
        )
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc


def _parse_pulse1(doc: dict) -> Pulse1Config:
    raw = _section(doc, "pulse1")
    # Both pulses are gaussian.  pulse1.shape and pulse2.family are still
    # read, because the shipped configs spell them out, and accept only that.
    shape = raw.get("shape", "gaussian")
    if shape != "gaussian":
        raise ConfigError(f"pulse1.shape {shape!r} not supported in configs")
    return Pulse1Config(
        t1_us=_number(raw, "T1_us", "pulse1", default=0.3, above=0.0),
        center_us=_number(raw, "center_us", "pulse1", default=0.0),
    )


def _parse_pulse2(doc: dict) -> Pulse2Config:
    raw = _section(doc, "pulse2")
    mode = raw.get("mode", "solve")
    if mode not in ("solve", "explicit"):
        raise ConfigError(f"pulse2.mode must be 'solve' or 'explicit', got {mode!r}")
    family = raw.get("family", "gaussian")
    if family != "gaussian":
        raise ConfigError(f"pulse2.family {family!r} not supported")
    free = raw.get("free", "center")
    if free not in ("center", "amplitude"):
        raise ConfigError(f"pulse2.free must be 'center' or 'amplitude', got {free!r}")
    cfg = Pulse2Config(
        mode=mode,
        free=free,
        tol=_number(raw, "tol", "pulse2", default=1e-6, above=0.0),
        center_us=(_number(raw, "center_us", "pulse2") if "center_us" in raw else None),
        t2_range_us=_pair(raw.get("T2_range_us", [0.02, 20.0]), "pulse2.T2_range_us"),
        center_range_us=(
            _pair(raw["center_range_us"], "pulse2.center_range_us")
            if raw.get("center_range_us") is not None
            else None
        ),
        t2_us=(_number(raw, "T2_us", "pulse2") if "T2_us" in raw else None),
        omega2_mhz=(_number(raw, "omega2_mhz", "pulse2") if "omega2_mhz" in raw else None),
        max_iterations=_count(raw, "max_iterations", "pulse2", default=80),
    )
    if cfg.mode == "explicit" and cfg.t2_us is None:
        raise ConfigError("pulse2.mode = 'explicit' needs T2_us")
    if cfg.mode == "solve" and cfg.free == "amplitude" and cfg.center_us is None:
        raise ConfigError("pulse2.free = 'amplitude' needs a fixed center_us")
    return cfg


def _parse_grid(doc: dict) -> GridConfig:
    raw = _section(doc, "grid")
    grid = GridConfig(
        span_in_t1=_number(raw, "span_in_T1", "grid", default=12.0, above=0.0),
        points=(_count(raw, "points", "grid") if "points" in raw else None),
    )
    if not 2 <= grid.n_points() <= MAX_GRID_POINTS:
        name = "grid.points" if grid.points is not None else "grid.span_in_T1"
        raise ConfigError(f"{name} gives {grid.n_points()} points, not in [2, {MAX_GRID_POINTS}]")
    return grid


def _parse_channel(doc: dict) -> ChannelModel:
    raw = _section(doc, "channel")
    length = _number(raw, "L0_km", "channel", default=0.0)
    atten = _number(raw, "atten_db_per_km", "channel", default=2.0, above=0.0)
    phase_rate = _number(raw, "phase_rate", "channel", default=0.1)
    p_em = _number(raw, "p_em", "channel", default=1.0)
    p_abs = _number(raw, "p_abs", "channel", default=1.0)
    if length < 0.0:
        raise ConfigError(f"channel.L0_km must be >= 0, got {length!r}")
    for key, p in (("p_em", p_em), ("p_abs", p_abs)):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"channel.{key} must lie in [0, 1], got {p!r}")
    return ChannelModel(length, atten, phase_rate, p_em, p_abs)


def _parse_outputs(doc: dict) -> OutputsConfig:
    raw = _section(doc, "outputs")
    which = raw.get("which", ["sender", "photonics", "receiver", "report"])
    if not isinstance(which, (list, tuple)):
        raise ConfigError("outputs.which must be a list")
    known = {"sender", "photonics", "receiver", "report", "regime"}
    for item in which:
        if not isinstance(item, str) or item not in known:
            raise ConfigError(f"outputs.which contains unknown entry {item!r}")
    directory = raw.get("directory", "out")
    if not isinstance(directory, str):
        raise ConfigError(f"outputs.directory must be a string, got {directory!r}")
    return OutputsConfig(directory=directory, which=tuple(which))


def _parse_strict(doc: dict) -> bool:
    strict = doc.get("strict", False)
    if not isinstance(strict, bool):
        raise ConfigError(f"strict must be true or false, got {strict!r}")
    return strict


# The parser of each ScenarioConfig field, keyed by the top-level document
# key it reads.  parse_config runs them in this order, so a document with
# several faults reports the same one first.
_PARSERS = {
    "grid": _parse_grid,
    "channel": _parse_channel,
    "outputs": _parse_outputs,
    "strict": _parse_strict,
    "params": _parse_params,
    "initial_state": _parse_state,
    "pulse1": _parse_pulse1,
    "pulse2": _parse_pulse2,
    "regime_min_ratio": lambda doc: _number(doc, "regime_min_ratio", "config", default=5.0),
}


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a scenario document and convert to internal units."""
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be a JSON object")
    return ScenarioConfig(**{name: parse(doc) for name, parse in _PARSERS.items()}, raw=doc)


# The numeric keys the parsers default: the _number and _count calls with
# a default, and grid.points, which span_in_T1 sets.  A sweep axis may
# name one the document leaves out, as if written in.
_DEFAULTED = {
    "regime_min_ratio", "params.phi2_rad", "params.atom_mass_kg", "params.wavelength_nm",
    "pulse1.T1_us", "pulse1.center_us", "pulse2.tol", "pulse2.max_iterations",
    "grid.span_in_T1", "grid.points", "channel.L0_km", "channel.atten_db_per_km",
    "channel.phase_rate", "channel.p_em", "channel.p_abs",
}


def sample_config(config: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """``config`` with the scalar at the dotted path ``axis`` set to ``value``."""
    return axis_sampler(config, axis)(value)


def axis_sampler(config: ScenarioConfig, axis: str):
    """``sample_config`` of ``config`` and ``axis`` as a function of the value.

    A sample equals ``parse_config`` of the edited document, ``raw``
    included, or raises the same ``ConfigError``; but it copies only the
    dicts on the axis's path through ``raw`` and swaps its re-parsed
    section into a copy of ``config``.  The virtual ``initial_state.p_m1``
    sets the two-photon weight against c_0 and runs only the state's norm check.
    """
    *sections, leaf = axis.split(".")
    node = config.raw
    for part in sections:
        if not isinstance(node, dict) or part not in node and axis not in _DEFAULTED:
            raise ConfigError(f"sweep axis {axis!r}: no section {part!r}")
        node = node.get(part, {})
    if axis == "initial_state.p_m1":
        c_p1 = node.get("c_p1", [0.0, 0.0])  # checked when config was parsed
        p_p1 = sum(x * x for x in c_p1)

        def sample_state(value: float) -> ScenarioConfig:
            if value < 0.0 or value + p_p1 > 1.0 + 1e-12:
                raise ConfigError(f"initial_state.p_m1 = {value} leaves no weight for c_0")
            c_m1, c_0 = math.sqrt(value), math.sqrt(max(1.0 - value - p_p1, 0.0))
            state = _normalized_state(complex(c_m1), complex(c_0), complex(*c_p1))
            section = {**node, "c_m1": [c_m1, 0.0], "c_0": [c_0, 0.0]}
            return _with(config, {**config.raw, "initial_state": section}, initial_state=state)

        return sample_state
    if not isinstance(node, dict) or leaf not in node and axis not in _DEFAULTED:
        raise ConfigError(f"sweep axis {axis!r}: no field {leaf!r}")
    if isinstance(node.get(leaf), bool) or not isinstance(node.get(leaf, 0.0), (int, float)):
        raise ConfigError(f"sweep axis {axis!r} is not a scalar field")
    name = axis.split(".")[0]
    parse = _PARSERS.get(name)  # a key no parser reads changes only raw, and with it the hash

    def sample(value: float) -> ScenarioConfig:
        doc = at = dict(config.raw)
        for part in sections:
            at[part] = dict(at.get(part, {}))
            at = at[part]
        at[leaf] = float(value)
        return _with(config, doc, **({name: parse(doc)} if parse else {}))

    return sample


def _with(config: ScenarioConfig, raw: dict, **fields) -> ScenarioConfig:
    """``config`` with ``raw`` and the already parsed ``fields`` swapped in."""
    sample = object.__new__(ScenarioConfig)
    sample.__dict__.update(config.__dict__, raw=raw, **fields)
    return sample


def load_config(path: str | Path, overrides: Optional[dict[str, Any]] = None) -> ScenarioConfig:
    """Read and validate a JSON scenario file.

    ``overrides`` maps dotted field paths (``"pulse2.tol"``, ``"strict"``)
    to values written into the document before it is parsed, so they are
    validated, hashed and seen by sweeps like the file's own fields.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    for dotted, value in (overrides or {}).items():
        *sections, leaf = dotted.split(".")
        node = doc
        for part in sections:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"cannot set {dotted}: its section is not a table")
        node[leaf] = value
    return parse_config(doc)


def default_config(qutrit: bool = False) -> ScenarioConfig:
    """Parsed stock scenario."""
    return parse_config(default_config_dict(qutrit=qutrit))
