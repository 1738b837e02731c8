"""Recompute ``reference.json``: the solved receiving pulse at 4x the default grid.

The solved control pulse (duration T2 and peak amplitude omega2) depends
only on the sending pulse and the atom-cavity constants, not on the input
state, the fibre length or the control phase, so one reference serves
every workload and seed.  It is computed once, on a grid four times
denser than the default, and checked against at 1e-6 relative.

Usage (from the repository root):  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from workloads import GRID_POINTS_DEFAULT, base_document  # noqa: E402

REFINEMENT = 4


def main() -> None:
    from pnsslink.config import parse_config
    from pnsslink.core import to_mhz
    from pnsslink.pipeline import run_transfer

    doc = base_document()
    points = REFINEMENT * (GRID_POINTS_DEFAULT - 1) + 1
    doc["grid"] = {"points": points}
    result = run_transfer(parse_config(doc))
    ref = {
        "grid_points": points,
        "T2_us": result.pulse2.duration * 1e6,
        "omega2_mhz": to_mhz(result.omega2),
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(ref))


if __name__ == "__main__":
    main()
