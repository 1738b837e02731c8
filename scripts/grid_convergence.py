#!/usr/bin/env python3
"""Print the grid-convergence table of a scenario's transfer.

For each grid size, runs the transfer of ``--config`` (default
``configs/qubit.json``) on that grid and on one 4x denser, whose every
fourth sample falls on the coarser grid, and prints the solved pulse's
relative errors and the largest pointwise differences of the areas
eta(t), zeta(t) and the conservation residual against the denser run.
The package is imported from this checkout's ``src/``.

Usage: python scripts/grid_convergence.py [--config PATH] [--points N ...]
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pnsslink.config import parse_config  # noqa: E402
from pnsslink.pipeline import run_transfer  # noqa: E402

POINTS = (48001, 12001, 6001, 3001, 1201, 601)


def transfer_on(doc: dict, points: int):
    doc = json.loads(json.dumps(doc))
    doc.setdefault("grid", {})["points"] = points
    return run_transfer(parse_config(doc))


def row(doc: dict, points: int) -> str:
    coarse = transfer_on(doc, points)
    fine = transfer_on(doc, 4 * (points - 1) + 1)

    def rel(a: float, b: float) -> str:
        return f"{abs(a - b) / abs(b):.1e}"

    def pointwise(a: np.ndarray, b: np.ndarray) -> str:
        return f"{np.max(np.abs(a - b[::4])):.1e}"

    return " | ".join([
        f"| {points:,}".replace(",", " "),
        rel(coarse.link.control.pulse.duration, fine.link.control.pulse.duration),
        rel(coarse.link.control.omega2, fine.link.control.omega2),
        pointwise(coarse.receiver.eta, fine.receiver.eta),
        pointwise(coarse.receiver.zeta, fine.receiver.zeta),
        pointwise(coarse.residual, fine.residual),
        f"{np.max(np.abs(coarse.residual)):.6f} |",
    ])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(ROOT / "configs" / "qubit.json"))
    parser.add_argument("--points", type=int, nargs="+", default=POINTS)
    args = parser.parse_args()
    doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    print("| Points | T2 rel err | omega2 rel err | max abs d eta | max abs d zeta "
          "| max abs d residual | conservation_residual_max |")
    print("|---|---|---|---|---|---|---|")
    for points in args.points:
        print(row(doc, points))
    return 0


if __name__ == "__main__":
    sys.exit(main())
