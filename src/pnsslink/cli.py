"""Command-line scenario runner.

Subcommands: send, transfer, sweep.  Exit codes: 0 ok, 1 config or
usage error (an unknown subcommand, flag or config key, a missing
``--config``, a fixed-center pulse that cannot exist; nothing is
written), 2 a solved receiving pulse whose areas miss ``pulse2.tol``
(for ``sweep``, on any link; the best effort is still written),
3 strict-mode regime failure (of any link a command builds, before its
pulse solve; nothing is written).  Any other exception is a bug and
propagates with its traceback.

``_FLAGS`` is the one table of the flags, and ``_read_argv`` the one
reader of an argv: a command, then its flags as ``--flag value``,
``--flag=value`` or a switch alone.  A separate value is the next word
unless that word starts with ``--``, so ``--stop -1e3`` reads -1e3.
``-h``/``--help`` prints the usage and the flags' help and exits 0; a
usage error prints the usage and the reason to stderr and exits 1.
Flags are never abbreviated.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, NoReturn, Optional

import numpy as np

from .config import MAX_GRID_POINTS, ConfigError, ScenarioConfig, load_config, sample_config
from .core import RegimeReport
from .pipeline import (
    RegimeFailure,
    run_send,
    run_sweep,
    run_transfer,
    write_photonics_csv,
    write_receiver_csv,
    write_regime_json,
    write_report_json,
    write_sender_csv,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_REGIME = 3


class _Flag:
    """One command-line flag; ``type`` None makes it a switch.

    A plain class: a namedtuple of these six fields costs ~0.07 ms to create
    at every import, this class ~0.01 ms.
    """

    def __init__(self, name: str, type: Any, help: str, default: Any = None, required: bool = False,
                 commands: tuple[str, ...] = ("send", "transfer", "sweep")):
        self.name, self.type, self.help, self.default = name, type, help, default
        self.required, self.commands = required, commands


_COMMANDS = {
    "send": "run the sending node and write sender/photonics CSVs",
    "transfer": "run the full link and write all CSVs plus the report",
    "sweep": "evaluate a scenario across one scalar config axis",
}
_FLAGS = (
    _Flag("--config", str, "path to the scenario JSON", required=True),
    _Flag("--out", str, "output directory (overrides config)"),
    _Flag("--strict", None, "abort when any regime check fails", False),
    _Flag("--tol", float, "override the pulse-solve tolerance"),
    _Flag("--axis", str, "dotted config path, e.g. channel.L0_km", required=True, commands=("sweep",)),
    _Flag("--start", float, "the axis's first value", required=True, commands=("sweep",)),
    _Flag("--stop", float, "the axis's last value", required=True, commands=("sweep",)),
    _Flag("--num", int, "the number of samples (21 if absent)", 21, commands=("sweep",)),
)
_ABOUT = ("Simulate deterministic atom-to-atom state transfer over a cavity-photon link "
          "and emit figure-ready CSV files.")
_COMMAND_FLAGS = {name: {f.name: f for f in _FLAGS if name in f.commands} for name in _COMMANDS}


def _usage(command: Optional[str]) -> str:
    """The usage line of ``command``, or of the program for None."""
    if command is None:
        return f"usage: pnsslink [-h] {{{','.join(_COMMANDS)}}} ..."
    words = []
    for f in _COMMAND_FLAGS[command].values():
        word = f"{f.name} {f.name[2:].upper()}" if f.type else f.name
        words.append(word if f.required else f"[{word}]")
    return f"usage: pnsslink {command} [-h] {' '.join(words)}"


def _help(command: Optional[str]) -> NoReturn:
    print(f"{_usage(command)}\n\n{_COMMANDS.get(command, _ABOUT)}\n")
    rows = _COMMANDS if command is None else {f.name: f.help for f in _COMMAND_FLAGS[command].values()}
    for name, text in rows.items():
        print(f"  {name:<10}{text}")
    raise SystemExit(EXIT_OK)


def _refuse(command: Optional[str], reason: str) -> NoReturn:
    print(f"{_usage(command)}\npnsslink: error: {reason}", file=sys.stderr)
    raise SystemExit(EXIT_CONFIG)


def _read_argv(argv: list[str]) -> SimpleNamespace:
    """The command of ``argv`` and the value of each of its flags, a default where absent.

    Help exits 0, and a usage error exits 1 (the module docstring).
    """
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        if command in ("-h", "--help"):
            _help(None)
        _refuse(None, f"unknown command {command!r}" if argv else "a command is required")
    flags = _COMMAND_FLAGS[command]
    values = {}
    words = iter(argv[1:])
    for word in words:
        if word in ("-h", "--help"):
            _help(command)
        name, eq, text = word.partition("=")
        flag = flags.get(name)
        if flag is None:
            _refuse(command, f"unrecognized argument {name!r}")
        if flag.type is None:
            if eq:
                _refuse(command, f"{name} is a switch and takes no value")
            values[name] = True
            continue
        if not eq:
            text = next(words, "--")  # the argv's end, like a flag, leaves no value
            if text.startswith("--"):
                _refuse(command, f"{name} expects a value")
        try:
            values[name] = flag.type(text)
        except ValueError:
            _refuse(command, f"{name}: invalid {flag.type.__name__} value {text!r}")
    missing = [name for name, f in flags.items() if f.required and name not in values]
    if missing:
        _refuse(command, f"{command} requires {', '.join(missing)}")
    return SimpleNamespace(
        command=command, **{name[2:]: values.get(name, f.default) for name, f in flags.items()})


def _load(args) -> ScenarioConfig:
    # The flags set fields of the parsed config, so the hash and every sweep
    # sample carry them; --tol is a pulse2.tol sample, checked like the file's.
    config = load_config(args.config)
    if args.strict:
        config = config._replace(strict=True)
    if args.tol is None:
        return config
    try:
        return sample_config(config, "pulse2.tol", args.tol)
    except ConfigError as exc:
        raise ConfigError(f"--tol: {exc}") from exc


def _out_dir(args, config: ScenarioConfig) -> Path:
    return Path(args.out) if args.out else Path(config.outputs.directory)


def _print_regime(regime: RegimeReport) -> None:
    print("regime checks:")
    for c in regime.checks:
        print(f"  {'pass' if c.passed else 'FAIL'}  {c.name}: ratio {c.ratio:.3g} (minimum {c.minimum:g})")


def _cmd_send(args) -> int:
    config = _load(args)
    result = run_send(config)
    _print_regime(result.sender.regime)
    out = _out_dir(args, config)
    wrote = [
        write_sender_csv(result, out / "sender.csv"),
        write_photonics_csv(result, out / "photonics.csv"),
    ]
    if "regime" in config.outputs.which:
        wrote.append(write_regime_json(result, out / "regime.json"))
    for path in wrote:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_transfer(args) -> int:
    config = _load(args)
    result = run_transfer(config)
    _print_regime(result.link.sender.regime)
    out = _out_dir(args, config)
    writers = {"sender.csv": (write_sender_csv, result.send),
               "photonics.csv": (write_photonics_csv, result.send),
               "receiver.csv": (write_receiver_csv, result), "report.json": (write_report_json, result),
               "regime.json": (write_regime_json, result.send)}
    for name, (write, what) in writers.items():
        if name.split(".")[0] in config.outputs.which:
            print(f"wrote {write(what, out / name)}")
    control = result.link.control
    print(f"fidelity: {result.report.final.fidelity:.6f}")
    print(f"area residuals: eta {control.eta_residual:.3e}, zeta {control.zeta_residual:.3e}")
    if control.converged is False:
        print("pulse solve did not converge; report carries best residuals", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_sweep(args) -> int:
    # Checked before anything is parsed or allocated: --num is capped like a grid.
    if not 1 <= args.num <= MAX_GRID_POINTS:
        raise ConfigError(f"--num must be in [1, {MAX_GRID_POINTS}], got {args.num}")
    for flag, value in (("--start", args.start), ("--stop", args.stop)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if not math.isfinite(args.stop - args.start):
        raise ConfigError(f"--stop - --start overflows: {args.stop} - {args.start}")
    config = _load(args)
    values = np.linspace(args.start, args.stop, args.num)
    rows, unconverged = run_sweep(config, args.axis, values)
    out = _out_dir(args, config)
    path = write_sweep_csv(rows, config, out / "sweep.csv")
    print(f"wrote {path}")
    if unconverged:
        print(f"pulse solve did not converge on {unconverged} link(s); rows carry best residuals",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    handlers = {
        "send": _cmd_send,
        "transfer": _cmd_transfer,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeFailure as exc:
        _print_regime(exc.regime)
        print("strict mode: aborting on regime failure", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
