"""Command-line scenario runner.

Subcommands: send, transfer, sweep.  Exit codes: 0 ok, 1 config or
usage error (an unknown subcommand, flag or config key, a missing
``--config``, a fixed-center pulse that cannot exist; nothing is
written), 2 a solved receiving pulse whose areas miss ``pulse2.tol``
(for ``sweep``, on any link; the best effort is still written),
3 strict-mode regime failure (of any link a command builds, before its
pulse solve; nothing is written).  Any other exception is a bug and
propagates with its traceback.

``_FLAGS`` is the one table of the flags.  ``_build_parser`` builds the
argparse parser from it, and ``_read_argv`` reads a plain argv (a
command, then its flags as ``--flag value`` or ``--flag=value``) into
the namespace argparse would give, without building the parser, which
costs about a millisecond.  Every other argv (``--help``, an abbreviated
flag, ``--``, a usage error) goes to argparse, so its output and exit
codes are argparse's.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Optional

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
    """One command-line flag; ``type`` None makes it a switch (store_true).

    A plain class: a namedtuple of these six fields costs ~0.07 ms to create
    at every import, this class ~0.01 ms.
    """

    def __init__(self, name: str, type: Any, default: Any = None, required: bool = False,
                 help: Optional[str] = None, commands: tuple[str, ...] = ("send", "transfer", "sweep")):
        self.name, self.type, self.default, self.required = name, type, default, required
        self.help, self.commands = help, commands


_COMMANDS = {
    "send": "run the sending node and write sender/photonics CSVs",
    "transfer": "run the full link and write all CSVs plus the report",
    "sweep": "evaluate a scenario across one scalar config axis",
}
_FLAGS = (
    _Flag("--config", str, required=True, help="path to the scenario JSON"),
    _Flag("--out", str, help="output directory (overrides config)"),
    _Flag("--strict", None, False, help="abort when any regime check fails"),
    _Flag("--tol", float, help="override the pulse-solve tolerance"),
    _Flag("--axis", str, required=True, help="dotted config path, e.g. channel.L0_km", commands=("sweep",)),
    _Flag("--start", float, required=True, commands=("sweep",)),
    _Flag("--stop", float, required=True, commands=("sweep",)),
    _Flag("--num", int, 21, commands=("sweep",)),
)
_COMMAND_FLAGS = {name: {f.name: f for f in _FLAGS if name in f.commands} for name in _COMMANDS}
# argparse's test for a negative number, the one '-' word it takes as a value.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _build_parser():
    import argparse  # only for an argv that _read_argv leaves to it

    class _Parser(argparse.ArgumentParser):
        """Exits with the config-error code on a usage error; 2 means a solver failure here."""

        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="pnsslink",
        description=(
            "Simulate deterministic atom-to-atom state transfer over a "
            "cavity-photon link and emit figure-ready CSV files."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag in _COMMAND_FLAGS[name].values():
            if flag.type is None:
                cmd.add_argument(flag.name, action="store_true", help=flag.help)
            else:
                cmd.add_argument(flag.name, type=flag.type, default=flag.default,
                                 required=flag.required, help=flag.help)
    return parser


def _read_argv(argv: list[str]) -> Optional[SimpleNamespace]:
    """The attributes of ``_build_parser().parse_args(argv)`` for a plain argv, else None.

    Plain is a command, then its flags as ``--flag value`` or
    ``--flag=value`` (a switch alone), with every required flag present
    and each value accepted by its type.  A separate value may start with
    '-' only as a negative number, and a value after '=' is not '--'
    (argparse drops it and stores an empty list).
    """
    if not (argv and all(type(word) is str for word in argv) and argv[0] in _COMMANDS):
        return None
    flags = _COMMAND_FLAGS[argv[0]]
    values = {}
    i = 1
    while i < len(argv):
        name, eq, text = argv[i].partition("=")
        flag = flags.get(name)
        if flag is None or flag.type is None and eq or text == "--":
            return None
        i += 1
        if flag.type is None:
            values[name] = True
            continue
        if not eq:
            if i == len(argv):
                return None
            text = argv[i]
            if text.startswith("-") and not _NEGATIVE_NUMBER(text):
                return None
            i += 1
        try:
            values[name] = flag.type(text)
        except (TypeError, ValueError):
            return None
    if any(f.required and name not in values for name, f in flags.items()):
        return None
    return SimpleNamespace(
        command=argv[0], **{name[2:]: values.get(name, f.default) for name, f in flags.items()})


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
    link = result.link
    print(f"fidelity: {result.report.final.fidelity:.6f}")
    print(f"area residuals: eta {link.eta_residual:.3e}, zeta {link.zeta_residual:.3e}")
    if link.converged is False:
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
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
