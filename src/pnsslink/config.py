"""Scenario configuration: JSON schema, validation, canonical hashing.

A scenario is one JSON document with nested sections.  All frequencies
are entered in MHz (implicit 2*pi), times in microseconds and lengths in
kilometers.  Only ``params`` is converted to internal SI/rad-s units
here: the parsed record's ``repr`` is the scenario's hash, so it keeps
pulse and grid times in microseconds, ``pulse2.omega2_mhz`` in MHz and
channel lengths in kilometers (the channel model's unit).  ``pipeline``
converts the pulse values to seconds and rad/s where it builds the
pulses, and back for ``report.json`` and ``sweep.csv``.  The parsed
``ScenarioConfig`` is the one form of a scenario: its hash, its sweep
samples and the CLI flags all act on it.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import warnings
from collections import namedtuple
from pathlib import Path
from typing import Any

import numpy as np

from .channel import ChannelModel, attenuation_length
from .core import D2_WAVELENGTH, RB87_MASS, PhysicalParams, SuperpositionState, rad_per_s

RENORM_TOL = 1e-6
# ~0.4 kB per grid point: the tracemalloc peak of run_transfer plus the three
# figure CSVs on configs/qubit.json is 20.8 MB at 48 001 points and 96.1 MB at
# 240 001 (ru_maxrss 54 and 127 MB), so at most ~0.4 GB.
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


def _pair(raw: Any, section: str, key: str, above: float = -math.inf) -> tuple[float, float]:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise ConfigError(f"{section}.{key} must be a pair of numbers")
    return tuple(_check(_Number(f"{key}[{i}]", None, above=above), x, section) for i, x in enumerate(raw))


def _range(raw: Any, section: str, key: str, above: float = -math.inf) -> tuple[float, float]:
    lo, hi = _pair(raw, section, key, above)
    if not lo < hi:
        raise ConfigError(f"{section}.{key} must be an increasing pair [lo, hi], got [{lo:g}, {hi:g}]")
    return lo, hi


_REQUIRED = object()  # a _Number default: the document must write the key
_UNSET = object()  # a _Number default: absent is None, and the field is no sweep axis


class _Number(namedtuple("_Number", "key field default above scale count least most",
                         defaults=(_REQUIRED, -math.inf, 1.0, False, -math.inf, math.inf))):
    """One number a section reads, and the parsed field it becomes.

    ``key`` is the document key and ``field`` the parsed field, which takes
    ``default`` when the key is absent.  ``above`` is an exclusive lower
    bound (in internal units too), ``least`` and ``most`` are inclusive
    bounds, ``scale`` is the factor to internal units, and ``count`` marks
    a whole number, parsed as an int.
    """

    __slots__ = ()


# Every number the parsers read, by section ("" is the top level), with the
# only statement of its bounds.  A sweep axis is one of these rows (or the
# virtual initial_state.p_m1).
# Whether pulse2's center_us, T2_us and omega2_mhz are read depends on
# pulse2.mode and free, so each is an axis only where the file sets it; an
# absent grid.points means 250 points per T1 and is an axis.
_MHZ = rad_per_s(1.0)
_NUMBERS = {
    "params": (
        *(_Number(f"{name}_mhz", name, above=0.0, scale=_MHZ) for name in ("g", "k", "gamma_sp")),
        *(_Number(f"{name}_mhz", name, scale=_MHZ, least=0.0) for name in ("omega1", "omega2")),
        _Number("delta_mhz", "delta", scale=_MHZ),  # nonzero: _make_params checks it
        *(_Number(f"{name}_mhz", name, above=0.0, scale=_MHZ) for name in ("delta_b_ground", "delta_b_excited")),
        _Number("phi2_rad", "phi2", math.pi / 2),
        _Number("atom_mass_kg", "atom_mass", RB87_MASS, 0.0),
        _Number("wavelength_nm", "wavelength", D2_WAVELENGTH, 0.0, scale=1e-9),
    ),
    "pulse1": (_Number("T1_us", "t1_us", 0.3, 0.0), _Number("center_us", "center_us", 0.0)),
    "pulse2": (
        _Number("tol", "tol", 1e-6, 0.0),
        _Number("center_us", "center_us", _UNSET),
        _Number("T2_us", "t2_us", _UNSET, 0.0),
        _Number("omega2_mhz", "omega2_mhz", _UNSET),
        _Number("max_iterations", "max_iterations", 80, 0.0, count=True),
    ),
    "grid": (
        _Number("span_in_T1", "span_in_t1", 12.0, 0.0),
        _Number("points", "points", None, 0.0, count=True),
    ),
    "channel": (
        _Number("L0_km", "length_km", 0.0, least=0.0),
        _Number("atten_db_per_km", "atten_db_per_km", 2.0, 0.0),
        _Number("phase_rate", "phase_rate_rad_per_km", 0.1),
        _Number("p_em", "p_emission", 1.0, least=0.0, most=1.0),
        _Number("p_abs", "p_absorption", 1.0, least=0.0, most=1.0),
    ),
    "": (_Number("regime_min_ratio", "regime_min_ratio", 5.0),),
}


# The keys a section reads besides its _NUMBERS rows.  Any other key is
# refused: misspelt, it would leave its field at the default unsaid.
_OTHER_KEYS = {
    "initial_state": ("c_m1", "c_0", "c_p1"),
    "pulse2": ("mode", "free", "T2_range_us", "center_range_us"),
    "outputs": ("directory", "which"),
}


def _refuse_unknown_keys(table: dict, section: str) -> None:
    """Refuse a key of ``table`` that ``section`` ("" is the top level) does not read."""
    known = _KEYS[section]
    if table.keys() <= known.keys():
        return
    key = next(key for key in table if key not in known)
    raise ConfigError(
        f"unknown config key {f'{section}.{key}' if section else key}; "
        f"{section or 'the top level'} reads {', '.join(known)}"
    )


def _check(row: _Number, value: Any, where: str) -> Any:
    """A value of ``row``, checked and in internal units.

    A valid value takes one test; the field's name is built for an error.
    """
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and value > row.above
            and row.least <= value <= row.most):
        name = f"{where}.{row.key}"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        # json parses NaN and +-Infinity; NaN and ints beyond float range fail too.
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} must be finite, got {value!r}")
        value = float(value)
        if not value > row.above:
            raise ConfigError(f"{name} must be > {row.above:g}, got {value!r}")
        bound = f"be >= {row.least:g}" if row.most == math.inf else f"lie in [{row.least:g}, {row.most:g}]"
        raise ConfigError(f"{name} must {bound}, got {value!r}")
    value = float(value)
    if row.count:
        if value == int(value):
            return int(value)
        raise ConfigError(f"{where}.{row.key} must be a whole number, got {value!r}")
    # A finite number can overflow in internal units (g_mhz 1e303 is inf rad/s),
    # or underflow to 0 (wavelength_nm 5e-324 is 0 m).
    scaled = value * row.scale
    if abs(scaled) <= sys.float_info.max and scaled > row.above:
        return scaled
    bound = "finite" if scaled else "above 0"
    raise ConfigError(f"{where}.{row.key} must be {bound} in internal units, got {value!r}")


def _numbers(table: dict, section: str) -> dict[str, Any]:
    """The parsed field of each of ``section``'s rows, read from ``table``."""
    _refuse_unknown_keys(table, section)
    where = section or "config"
    fields = {}
    for row in _NUMBERS[section]:
        if row.key in table or row.default is _REQUIRED:
            fields[row.field] = _check(row, _require(table, row.key, where), where)
        else:
            fields[row.field] = None if row.default is _UNSET else row.default
    return fields


# The parsed sections.  Their numbers' defaults are in _NUMBERS.
class Pulse1Config(namedtuple("Pulse1Config", "t1_us center_us")):
    """The sending pulse's duration T1 and its centre, in microseconds."""

    __slots__ = ()


class Pulse2Config(namedtuple("Pulse2Config", "mode free tol center_us t2_range_us "
                                              "center_range_us t2_us omega2_mhz max_iterations")):
    """``mode`` is "solve" or "explicit", ``free`` "center" or "amplitude".

    The ranges are (lo, hi) pairs.  ``center_us``, ``center_range_us``,
    ``t2_us`` and ``omega2_mhz`` are None where the document leaves them
    out; ``max_iterations`` is an int.
    """

    __slots__ = ()


class GridConfig(namedtuple("GridConfig", "span_in_t1 points")):
    """``points`` None means 250 per pulse duration (3 001 at the stock span).

    There the fourth-order cumulative areas put the solved T2 within ~2e-11
    of a 4x denser grid.
    """

    __slots__ = ()

    def n_points(self) -> int:
        if self.points is not None:
            return self.points
        return int(round(self.span_in_t1 * 250)) + 1


class OutputsConfig(namedtuple("OutputsConfig", "directory which",
                               defaults=("out", ("sender", "photonics", "receiver", "report")))):
    """``which`` is a tuple of output names."""

    __slots__ = ()


class ScenarioConfig(namedtuple("ScenarioConfig", "params initial_state pulse1 pulse2 grid "
                                                  "channel outputs regime_min_ratio strict")):
    __slots__ = ()

    def config_hash(self) -> str:
        """Hash of the parsed scenario, recorded in outputs.

        Every parsed value is a Python float, int, str, bool, complex or
        tuple, so the record ``repr``, ``Name(field=value, ...)`` all the way
        down, is a canonical form: documents that parse alike share a hash.
        """
        return hashlib.sha256(repr(self).encode("utf-8")).hexdigest()[:16]


def _parse_state(doc: dict) -> SuperpositionState:
    raw = _require(doc, "initial_state", "config")
    if not isinstance(raw, dict):
        raise ConfigError("initial_state must be a table of [re, im] pairs")
    _refuse_unknown_keys(raw, "initial_state")
    raw = {"c_p1": [0.0, 0.0], **raw}
    return _normalized_state(*(complex(*_pair(_require(raw, key, "initial_state"), "initial_state", key))
                               for key in _OTHER_KEYS["initial_state"]))


def _normalized_state(c_m1: complex, c_0: complex, c_p1: complex) -> SuperpositionState:
    """The state of three parsed amplitudes, after the norm check."""
    try:
        norm_sq = sum(abs(c) * abs(c) for c in (c_m1, c_0, c_p1))
    except OverflowError:  # |c| of a complex beyond float64
        norm_sq = math.inf
    if abs(norm_sq - 1.0) >= RENORM_TOL:
        amplitudes = ", ".join(f"initial_state.{name} [{c.real!r}, {c.imag!r}]"
                               for name, c in zip(("c_m1", "c_0", "c_p1"), (c_m1, c_0, c_p1)))
        raise ConfigError(f"initial_state norm is {norm_sq!r}; amplitudes {amplitudes} must be "
                          f"normalized to within {RENORM_TOL:g}")
    if abs(norm_sq - 1.0) > 1e-15:
        # Decimal-literal drift below the rejection threshold is folded
        # back in, but not silently.
        warnings.warn(
            f"initial_state renormalized (norm deviation {norm_sq - 1.0:.2e})",
            stacklevel=3,
        )
        norm = math.sqrt(norm_sq)
        return SuperpositionState(c_m1 / norm, c_0 / norm, c_p1 / norm)
    return SuperpositionState(c_m1, c_0, c_p1)


def _make_params(**fields) -> PhysicalParams:
    if not fields["delta"]:
        raise ConfigError(f"params.delta_mhz must be nonzero, got {fields['delta']!r}")
    return PhysicalParams(**fields)


def _parse_params(doc: dict) -> PhysicalParams:
    raw = _require(doc, "params", "config")
    if not isinstance(raw, dict):
        raise ConfigError("params must be a table")
    return _make_params(**_numbers(raw, "params"))


def _parse_pulse2(doc: dict) -> Pulse2Config:
    raw = _section(doc, "pulse2")
    mode = raw.get("mode", "solve")
    if mode not in ("solve", "explicit"):
        raise ConfigError(f"pulse2.mode must be 'solve' or 'explicit', got {mode!r}")
    free = raw.get("free", "center")
    if free not in ("center", "amplitude"):
        raise ConfigError(f"pulse2.free must be 'center' or 'amplitude', got {free!r}")
    center_range = raw.get("center_range_us")
    cfg = Pulse2Config(
        mode=mode,
        free=free,
        t2_range_us=_range(raw.get("T2_range_us", [0.02, 20.0]), "pulse2", "T2_range_us", 0.0),
        center_range_us=None if center_range is None else _range(center_range, "pulse2", "center_range_us"),
        **_numbers(raw, "pulse2"),
    )
    # A sweep sample sets only a number that is there, so it cannot fail these.
    if cfg.mode == "explicit" and cfg.t2_us is None:
        raise ConfigError("pulse2.mode = 'explicit' needs T2_us")
    if cfg.mode == "solve" and cfg.free == "amplitude" and cfg.center_us is None:
        raise ConfigError("pulse2.free = 'amplitude' needs a fixed center_us")
    return cfg


def _make_grid(**fields) -> GridConfig:
    grid = GridConfig(**fields)
    # A span above ~7.2e305 durations gives an infinite count, which cannot be rounded.
    n = grid.n_points() if grid.points is not None or grid.span_in_t1 * 250 < math.inf else math.inf
    if not 2 <= n <= MAX_GRID_POINTS:
        key = (f"grid.points {grid.points:.15g}" if grid.points is not None
               else f"grid.span_in_T1 {grid.span_in_t1!r}")
        raise ConfigError(f"{key} gives {n:.15g} points, not in [2, {MAX_GRID_POINTS}]")
    return grid


def _make_channel(**fields) -> ChannelModel:
    """The channel of checked ``fields``, refused where float64 cannot carry its budget."""
    channel = ChannelModel(**fields, l_att_km=attenuation_length(fields["atten_db_per_km"]))
    if not 0.0 < channel.l_att_km < math.inf:  # 0: db * ln 10 overflowed; inf: 10 / it did
        raise ConfigError(
            f"channel.atten_db_per_km {channel.atten_db_per_km!r} gives an attenuation length of "
            f"{channel.l_att_km:g} km, not a positive finite float: keep it within [1e-307, 1e307]"
        )
    if not math.isfinite(channel.phase_rate_rad_per_km * channel.length_km):
        raise ConfigError(
            f"the phase drift of channel.phase_rate {channel.phase_rate_rad_per_km!r} over "
            f"channel.L0_km {channel.length_km!r} overflows: lower one of them"
        )
    return channel


# The builder of each section with numbers, with the checks that span its
# fields.  The parsers and the sweep sampler both build sections through it.
_MAKERS = {"params": _make_params, "pulse1": Pulse1Config, "pulse2": Pulse2Config,
           "grid": _make_grid, "channel": _make_channel}


def _parse_outputs(doc: dict) -> OutputsConfig:
    raw = _section(doc, "outputs")
    _refuse_unknown_keys(raw, "outputs")
    default = OutputsConfig()
    which = raw.get("which", default.which)
    if not isinstance(which, (list, tuple)):
        raise ConfigError("outputs.which must be a list")
    known = (*default.which, "regime")
    for item in which:
        if not isinstance(item, str) or item not in known:
            raise ConfigError(f"outputs.which contains unknown entry {item!r}")
    directory = raw.get("directory", default.directory)
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
    "grid": lambda doc: _make_grid(**_numbers(_section(doc, "grid"), "grid")),
    "channel": lambda doc: _make_channel(**_numbers(_section(doc, "channel"), "channel")),
    "outputs": _parse_outputs,
    "strict": _parse_strict,
    "params": _parse_params,
    "initial_state": _parse_state,
    "pulse1": lambda doc: Pulse1Config(**_numbers(_section(doc, "pulse1"), "pulse1")),
    "pulse2": _parse_pulse2,
    "regime_min_ratio": lambda doc: _numbers(doc, "")["regime_min_ratio"],
}


# Every key a table reads: the top level's are those of _PARSERS.
_KEYS = {"": _PARSERS} | {
    name: dict.fromkeys([*(row.key for row in _NUMBERS.get(name, ())), *_OTHER_KEYS.get(name, ())])
    for name in (*_MAKERS, *_OTHER_KEYS)
}


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a scenario document and convert to internal units."""
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be a JSON object")
    return ScenarioConfig(**{name: parse(doc) for name, parse in _PARSERS.items()})


def sample_config(config: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """``config`` with the number at the dotted path ``axis`` set to ``value``.

    The axis names a row of ``_NUMBERS``.  A sample runs the value through
    the row's checks, rebuilds the row's section from the parsed one with
    the value swapped in (through the section's ``_MAKERS`` checks) and
    swaps that into a copy of ``config``.  So it equals ``parse_config``
    of the document with the value written in, hash included, or raises
    the same ``ConfigError``.  The virtual ``initial_state.p_m1`` sets the
    two-photon weight against c_0, keeps the parsed c_p1 and runs only the
    state's norm check.
    """
    return _sampler(config, axis)(value)


def _sampler(config: ScenarioConfig, axis: str):
    """``sample_config`` of ``config`` and ``axis`` as a function of the value."""
    if axis == "initial_state.p_m1":
        c_p1 = config.initial_state.c_p1
        p_p1 = c_p1.real * c_p1.real + c_p1.imag * c_p1.imag

        def sample_state(value: float) -> ScenarioConfig:
            if not (value >= 0.0 and value + p_p1 <= 1.0 + 1e-12):
                raise ConfigError(f"initial_state.p_m1 = {value} leaves no weight for c_0")
            c_m1, c_0 = math.sqrt(value), math.sqrt(max(1.0 - value - p_p1, 0.0))
            state = _normalized_state(complex(c_m1), complex(c_0), c_p1)
            return config._replace(initial_state=state)

        return sample_state
    name, build = _field_sampler(config, axis)
    return lambda value: config._replace(**{name: build(value)})


def written(config: ScenarioConfig, axis: str) -> str:
    """The number at the dotted path ``axis`` of ``config`` as a document writes it, after its key.

    That is the shortest number of at most 15 digits that parses to the
    field's value, or else a float within an ulp that does, so documents
    that parse alike are quoted alike.  A whole number is quoted without a
    point.  An unset number is named alone, and an unset ``grid.points``
    with the point count its span gives.
    """
    section, _, key = axis.rpartition(".")
    row = next(row for row in _NUMBERS[section] if row.key == key)
    value = getattr(getattr(config, section) if section else config, row.field)
    if value is None:
        return f"{axis} (unset: {config.grid.n_points()} points)" if axis == "grid.points" else axis
    if row.count:
        return f"{axis} {value:.15g}"
    guess = value / row.scale  # a normal value is within an ulp of its parse's
    fits = [float(f"{guess:.{digits}g}") for digits in range(1, 16)]
    fits += [guess, math.nextafter(guess, -math.inf), math.nextafter(guess, math.inf)]
    return f"{axis} {next((x for x in fits if x * row.scale == value), guess)!r}"


def _field_sampler(config: ScenarioConfig, axis: str):
    """The ``ScenarioConfig`` field that ``axis`` sets, and that field as a function of the value."""
    section, _, key = axis.rpartition(".")
    if section not in _NUMBERS:
        raise ConfigError(f"sweep axis {axis!r}: no section {section!r} with numbers to sweep")
    row = next((row for row in _NUMBERS[section] if row.key == key), None)
    parsed = getattr(config, section) if section else config
    if row is None or row.default is _UNSET and getattr(parsed, row.field) is None:
        raise ConfigError(f"sweep axis {axis!r}: no field {key!r} with a number to sweep")
    if not section:
        return row.field, lambda value: _check(row, value, "config")
    make = _MAKERS[section]
    fields = parsed._asdict()
    fields.pop("l_att_km", None)  # derived: the channel's maker recomputes it
    return section, lambda value: make(**{**fields, row.field: _check(row, value, section)})


def axis_sampler(config: ScenarioConfig, axis: str):
    """The configs of ``axis``'s samples at an array of values, one per link.

    The samples of ``initial_state.p_m1``, ``channel.*`` and
    ``params.phi2_rad`` share one link: one config whose ``initial_state``
    fields (a ``SuperpositionState`` of columns), channel fields or
    ``params.phi2`` are columns of ``sample_config``'s values.  A state or
    phase column is checked and built with numpy on the whole column, and
    its renormalized states warn once; a channel column holds each entry's sample channel,
    its fields as columns.  Any other axis gives a ``sample_config``
    config per value.  The first bad value raises ``sample_config``'s
    ``ConfigError`` before any sample is used.
    """
    sample = _sampler(config, axis)
    if axis == "initial_state.p_m1":
        c_p1 = config.initial_state.c_p1
        p_p1 = c_p1.real * c_p1.real + c_p1.imag * c_p1.imag

        def state_column(values: np.ndarray) -> list[ScenarioConfig]:  # sample_state's steps
            ok = (values >= 0.0) & (values + p_p1 <= 1.0 + 1e-12)
            c_m1, c_0 = np.sqrt(np.where(ok, values, 0.0)), np.sqrt(np.maximum(1.0 - values - p_p1, 0.0))
            norm_sq = c_m1 * c_m1 + c_0 * c_0 + abs(c_p1) * abs(c_p1)  # abs(c) * abs(c) of each
            ok &= abs(norm_sq - 1.0) < RENORM_TOL
            if not ok.all():
                sample(float(values[np.argmin(ok)]))  # raises the first bad value's error
            state = SuperpositionState(c_m1.astype(complex), c_0.astype(complex),
                                       np.full(len(values), c_p1))
            renormalized = abs(norm_sq - 1.0) > 1e-15
            if renormalized.any():
                warnings.warn(f"initial_state renormalized in {renormalized.sum()} of {len(values)} "
                              f"sweep samples (largest norm deviation {abs(norm_sq - 1.0).max():.2e})",
                              stacklevel=3)
                norm = np.sqrt(norm_sq[renormalized])
                for column in state:  # each part, as Python divides
                    column.real[renormalized] /= norm
                    column.imag[renormalized] /= norm
            return [config._replace(initial_state=state)]

        return state_column
    if axis.startswith("channel."):
        _, sample_channel = _field_sampler(config, axis)

        def channel_column(values: np.ndarray) -> list[ScenarioConfig]:
            # Each entry's channel is its sample's, so the first bad entry raises its error.
            channels = [sample_channel(value) for value in values.tolist()]
            return [config._replace(channel=ChannelModel._make(map(np.array, zip(*channels))))]

        return channel_column
    if axis != "params.phi2_rad":  # each sample needs its own link
        return lambda values: list(map(sample, values.tolist()))

    def phase_column(values: np.ndarray) -> list[ScenarioConfig]:
        ok = np.isfinite(values)  # _check's test of params.phi2_rad
        if not ok.all():
            sample(float(values[np.argmin(ok)]))  # raises the first bad value's error
        return [config._replace(params=config.params._replace(phi2=values))]

    return phase_column


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a JSON scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    return parse_config(doc)

