import tracemalloc

import numpy as np
import pytest

from pnsslink.csvio import BLOCK_ROWS, write_csv

HASH = "0123456789abcdef"


def reference_csv(columns, arrays, config_hash, comments=()) -> bytes:
    """Cell-by-cell form of the format: ``f"{float(x):.15g}"`` per cell."""
    lines = [f"# config_hash: {config_hash}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(columns))
    for i in range(len(arrays[0])):
        lines.append(",".join(f"{float(a[i]):.15g}" for a in arrays))
    return ("\n".join(lines) + "\n").encode("utf-8")


def random_columns(n: int, seed: int = 3) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(n),
        rng.standard_normal(n) * 1e-9,
        np.exp(rng.uniform(-700.0, 700.0, n)),
        rng.integers(-(2**62), 2**62, n),
    ]


def assert_matches_reference(tmp_path, columns, arrays, comments=()):
    path = write_csv(tmp_path / "t.csv", columns, arrays, HASH, comments=comments)
    assert path == tmp_path / "t.csv"
    assert path.read_bytes() == reference_csv(columns, arrays, HASH, comments)


def test_edge_values(tmp_path):
    floats = np.array([-0.0, 5e-324, 1e16, 123456789012345678, np.nan, np.inf, -np.inf, 0.1])
    ints = np.array([0, -1, 2**53 + 1, 123456789012345678, -123456789012345678, 7, 10**16, 3])
    bools = np.array([True, False, True, True, False, False, True, False])
    assert_matches_reference(tmp_path, ["x", "n", "flag"], [floats, ints, bools])
    rows = (tmp_path / "t.csv").read_text().splitlines()[2:]
    assert rows[0] == "-0,0,1"
    assert rows[1] == "4.94065645841247e-324,-1,0"
    assert rows[4:7] == ["nan,-1.23456789012346e+17,0", "inf,7,0", "-inf,1e+16,1"]
    # Without a float column the table stacks as integers first.
    assert_matches_reference(tmp_path, ["n", "flag"], [ints, bools])


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_row_counts_around_the_block_size(tmp_path, n):
    arrays = random_columns(n)
    assert_matches_reference(tmp_path, ["a", "b", "c", "d"], arrays)
    assert len((tmp_path / "t.csv").read_text().splitlines()) == n + 2


def test_comments_and_python_sequences(tmp_path):
    arrays = [[0.5, 1.0, 2.0], (3, 4, 5)]
    assert_matches_reference(tmp_path, ["u", "v"], arrays, comments=["grid: 3", "units: SI"])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[:3] == [f"# config_hash: {HASH}", "# grid: 3", "# units: SI"]


def test_column_count_mismatch(tmp_path):
    with pytest.raises(ValueError, match="differ in count"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3)], HASH)
    assert not (tmp_path / "t.csv").exists()


def test_column_length_mismatch(tmp_path):
    with pytest.raises(ValueError, match="'b' has length 2, expected 3"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)], HASH)
    assert not (tmp_path / "t.csv").exists()


def test_streams_in_blocks(tmp_path):
    # Building the whole text before writing allocates several times the
    # file size; streaming allocates the stacked table plus one block.
    rng = np.random.default_rng(5)
    arrays = [rng.standard_normal(60_000) for _ in range(4)]
    tracemalloc.start()
    try:
        path = write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], arrays, HASH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
