#!/usr/bin/env python3
"""Print a SHA-256 digest of every CLI output for the stock scenarios.

Runs ``pnsslink transfer`` on ``configs/qubit.json``, on
``configs/qutrit.json`` and on the qubit scenario with an explicit
receiving pulse (``pulse2`` mode ``explicit``, whose areas end short of
pi), ``pnsslink send`` on ``configs/qutrit.json``, a
short ``channel.L0_km`` sweep of the qutrit scenario, a 41-point
``initial_state.p_m1`` sweep of the qubit scenario and one of the qutrit
scenario at an off-resonant control phase (``params.phi2_rad`` = 0.7,
which exercises the any-phase receiver closed form), a 3-point
``params.g_mhz`` sweep of the qubit scenario (three links, one row
each), a 9-point ``params.phi2_rad`` sweep of the qutrit scenario and
a 1 001-point ``channel.L0_km`` sweep of the qubit scenario (its
transmission columns take math.exp and the float power per sample),
in-process and into a temporary directory, then prints one
``sha256  file`` line per output.  The package is imported from this
checkout's ``src/``, so running the script in two checkouts and diffing
the printed lines tells whether their outputs are byte-identical.

With ``--check FILE`` it prints nothing on a match and exits 0; otherwise
it prints a diff against FILE and exits 1.  ``tests/data/output_digests.txt``
holds the committed digests, so a change to any output byte must update it.

Usage: python scripts/output_digest.py [--check FILE]
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pnsslink.cli import main as cli_main  # noqa: E402

# configs/qutrit.json with params.phi2_rad set to this, written at run time.
OFFPHASE_CONFIG = "qutrit-offphase.json"
OFFPHASE_PHI2_RAD = 0.7
# configs/qubit.json with this receiving pulse, written at run time.
EXPLICIT_CONFIG = "qubit-explicit.json"
EXPLICIT_PULSE2 = {"mode": "explicit", "T2_us": 0.3, "center_us": 0.15}

RUNS = {
    "qubit": ["transfer", "--config", str(ROOT / "configs" / "qubit.json")],
    "qutrit": ["transfer", "--config", str(ROOT / "configs" / "qutrit.json")],
    "qubit-explicit": ["transfer", "--config", EXPLICIT_CONFIG],
    "qutrit-send": ["send", "--config", str(ROOT / "configs" / "qutrit.json")],
    "qutrit-sweep": [
        "sweep", "--config", str(ROOT / "configs" / "qutrit.json"),
        "--axis", "channel.L0_km", "--start", "0", "--stop", "5", "--num", "11",
    ],
    "qubit-state-sweep": [
        "sweep", "--config", str(ROOT / "configs" / "qubit.json"),
        "--axis", "initial_state.p_m1", "--start", "0.05", "--stop", "0.9", "--num", "41",
    ],
    "qutrit-offphase-state-sweep": [
        "sweep", "--config", OFFPHASE_CONFIG,
        "--axis", "initial_state.p_m1", "--start", "0.05", "--stop", "0.8", "--num", "41",
    ],
    "qubit-coupling-sweep": [
        "sweep", "--config", str(ROOT / "configs" / "qubit.json"),
        "--axis", "params.g_mhz", "--start", "11", "--stop", "13", "--num", "3",
    ],
    "qubit-length-sweep": [
        "sweep", "--config", str(ROOT / "configs" / "qubit.json"),
        "--axis", "channel.L0_km", "--start", "0", "--stop", "50", "--num", "1001",
    ],
    "qutrit-phase-sweep": [
        "sweep", "--config", str(ROOT / "configs" / "qutrit.json"),
        "--axis", "params.phi2_rad", "--start", "0", "--stop", "3.2", "--num", "9",
    ],
}


def _stock(name: str) -> dict:
    return json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))


def digest_lines() -> list[str]:
    """One ``sha256  file`` line per output of the runs, sorted by file."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as config_dir:
        offphase, explicit = _stock("qutrit.json"), _stock("qubit.json")
        offphase["params"]["phi2_rad"] = OFFPHASE_PHI2_RAD
        explicit["pulse2"] = EXPLICIT_PULSE2
        written = {OFFPHASE_CONFIG: offphase, EXPLICIT_CONFIG: explicit}
        for name, doc in written.items():
            (Path(config_dir) / name).write_text(json.dumps(doc), encoding="utf-8")
        for name, argv in RUNS.items():
            argv = [str(Path(config_dir) / arg) if arg in written else arg for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv + ["--out", str(Path(tmp) / name)])
            if code != 0:
                raise RuntimeError(f"{name}: exit {code}")
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="compare with the digests in FILE")
    args = parser.parse_args(argv)
    lines = digest_lines()
    if args.check is None:
        print("\n".join(lines))
        return 0
    expected = Path(args.check).read_text(encoding="utf-8").splitlines()
    diff = list(difflib.unified_diff(expected, lines, args.check, "this checkout", lineterm=""))
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
