"""Command-line scenario runner.

Subcommands: send, transfer, sweep.  Exit codes: 0 ok, 1 config or
usage error (an unknown subcommand or flag, a missing ``--config``),
2 pulse-solve non-convergence (for ``sweep``, of any link; its rows are
still written), 3 strict-mode regime failure (of any link a command
builds, before its pulse solve; nothing is written).  Any other
exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

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
from .receiver import PulseSolveError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_REGIME = 3


class _Parser(argparse.ArgumentParser):
    """Exits with the config-error code on a usage error; 2 means a solver failure here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pnsslink",
        description=(
            "Simulate deterministic atom-to-atom state transfer over a "
            "cavity-photon link and emit figure-ready CSV files."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("send", "run the sending node and write sender/photonics CSVs"),
        ("transfer", "run the full link and write all CSVs plus the report"),
        ("sweep", "evaluate a scenario across one scalar config axis"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the scenario JSON")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument(
            "--strict",
            action="store_true",
            help="abort when any regime check fails",
        )
        cmd.add_argument(
            "--tol",
            type=float,
            default=None,
            help="override the pulse-solve tolerance",
        )
        if name == "sweep":
            cmd.add_argument("--axis", required=True, help="dotted config path, e.g. channel.L0_km")
            cmd.add_argument("--start", type=float, required=True)
            cmd.add_argument("--stop", type=float, required=True)
            cmd.add_argument("--num", type=int, default=21)
    return parser


def _load(args) -> ScenarioConfig:
    # The flags set fields of the parsed config, so the hash and every sweep
    # sample carry them; --tol is a pulse2.tol sample, checked like the file's.
    config = load_config(args.config)
    if args.strict:
        config = dataclasses.replace(config, strict=True)
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
    for line in regime.summary_lines():
        print(f"  {line}")


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
    which = config.outputs.which
    wrote = []
    if "sender" in which:
        wrote.append(write_sender_csv(result.send, out / "sender.csv"))
    if "photonics" in which:
        wrote.append(write_photonics_csv(result.send, out / "photonics.csv"))
    if "receiver" in which:
        wrote.append(write_receiver_csv(result, out / "receiver.csv"))
    if "report" in which:
        wrote.append(write_report_json(result, out / "report.json"))
    if "regime" in which:
        wrote.append(write_regime_json(result.send, out / "regime.json"))
    for path in wrote:
        print(f"wrote {path}")
    link = result.link
    print(f"fidelity: {result.report.final.fidelity:.6f}")
    print(f"area residuals: eta {link.eta_residual:.3e}, zeta {link.zeta_residual:.3e}")
    if link.solve is not None and not link.solve.converged:
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
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    except PulseSolveError as exc:
        print(f"pulse solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except RegimeFailure as exc:
        _print_regime(exc.regime)
        print("strict mode: aborting on regime failure", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
