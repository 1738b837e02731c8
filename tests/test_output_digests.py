"""Byte identity of every CLI output for the stock scenarios.

``scripts/output_digest.py --check`` reruns the script's runs and compares
each output file's SHA-256 with ``tests/data/output_digests.txt``.  A
change that alters any output byte must update that file and say why.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_outputs_match_committed_digests(capsys):
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    code = script.main(["--check", str(ROOT / "tests" / "data" / "output_digests.txt")])
    assert code == 0, capsys.readouterr().out
