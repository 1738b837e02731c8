"""README's library example runs as written.

The package's top level exports only the names that example imports;
every other name imports from its submodule.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_library_use_block_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example's config path is relative
    exec(compile(code, "README.md", "exec"), {})
    fidelity, duration, zeta_residual, weighted = map(float, capsys.readouterr().out.split())
    assert fidelity == pytest.approx(1.0, abs=1e-6)
    assert duration == pytest.approx(0.995e-6, rel=1e-2)
    assert abs(zeta_residual) <= 1e-6
    assert weighted == pytest.approx(0.9542, abs=1e-4)
