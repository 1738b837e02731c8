"""Deterministic CSV output: 15 significant digits, '#' comments, no locale."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# Rows per '%' call; a block of the 18-column sender CSV is ~1.5 MB of text.
BLOCK_ROWS = 4096


def write_csv(
    path: str | Path,
    columns: Sequence[str],
    arrays: Sequence[np.ndarray],
    config_hash: str,
    comments: Iterable[str] = (),
) -> Path:
    """Write column arrays as CSV with a config-hash comment line.

    All columns must have equal length.  Cells are ``%.15g`` of their float64
    value.  Output is byte-reproducible for identical inputs.
    """
    if len(columns) != len(arrays):
        raise ValueError("column names and arrays differ in count")
    n = len(arrays[0])
    for name, a in zip(columns, arrays):
        if len(a) != n:
            raise ValueError(f"column {name!r} has length {len(a)}, expected {n}")
    table = np.column_stack(arrays).astype(np.float64, copy=False)
    row_template = ",".join(["%.15g"] * len(arrays)) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(f"# config_hash: {config_hash}\n")
        out.writelines(f"# {c}\n" for c in comments)
        out.write(",".join(columns) + "\n")
        for start in range(0, n, BLOCK_ROWS):
            block = table[start : start + BLOCK_ROWS]
            out.write((row_template * len(block)) % tuple(block.ravel().tolist()))
    return path
