#!/usr/bin/env python3
"""Scan the free-center pulse solve over 336 scenarios and print its record.

Each scenario is ``configs/qubit.json`` with ``pulse2.free: center`` and
one combination of g (14.5 to 40 MHz), the receiving amplitude omega2
(0.8 to 4 times the stock 10 MHz), T1 (0.3 and 0.5 us), the grid (the
default and 601 points) and ``pulse2.tol`` (1e-6 and 1e-9).  A scenario
converges when both area residuals the link reports are within its
tolerance.  The script prints the converged count and the median and
maximum objective evaluations of the solves; ``--json FILE`` also writes
one row per scenario (verdict, evaluations, worse residual and the solved
T2 and center), so the records of two checkouts can be compared
scenario by scenario.  The package is imported from ``--checkout``'s
``src/`` (default: this checkout), the scenario file from this one.

Usage: python scripts/solve_scan.py [--checkout PATH] [--json FILE]
"""

import argparse
import itertools
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

G_MHZ = (14.5, 16.0, 18.0, 20.0, 25.0, 30.0, 40.0)
OMEGA2_FACTORS = (0.8, 1.0, 1.25, 1.5, 2.0, 4.0)
T1_US = (0.3, 0.5)
POINTS = (None, 601)
TOLS = (1e-6, 1e-9)


def scenarios():
    """(name, document) of every scenario, in a fixed order."""
    stock = json.loads((ROOT / "configs" / "qubit.json").read_text(encoding="utf-8"))
    for g, factor, t1, points, tol in itertools.product(G_MHZ, OMEGA2_FACTORS, T1_US, POINTS, TOLS):
        doc = json.loads(json.dumps(stock))
        doc["params"].update(g_mhz=g, omega2_mhz=factor * stock["params"]["omega2_mhz"])
        doc["pulse1"]["T1_us"] = t1
        if points is not None:
            doc["grid"]["points"] = points
        doc["pulse2"] = {"mode": "solve", "free": "center", "tol": tol}
        yield f"g={g} omega2x{factor} T1={t1} points={points or 'default'} tol={tol:g}", doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT, help="repository to import pnsslink from")
    parser.add_argument("--json", type=Path, default=None, help="write one row per scenario here")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from pnsslink.config import parse_config
    from pnsslink.pipeline import build_link

    rows = []
    for name, doc in scenarios():
        control = build_link(parse_config(doc)).control
        worse = max(abs(control.eta_residual), abs(control.zeta_residual))
        rows.append({
            "scenario": name,
            "converged": worse <= doc["pulse2"]["tol"],
            "evaluations": control.iterations,
            "worse_residual": worse,
            "T2_us": control.pulse.duration * 1e6,
            "center_us": control.pulse.center * 1e6,
        })
    evaluations = [row["evaluations"] for row in rows]
    print(f"scenarios {len(rows)}, converged {sum(row['converged'] for row in rows)}, "
          f"evaluations median {statistics.median(evaluations):g}, max {max(evaluations)}")
    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
