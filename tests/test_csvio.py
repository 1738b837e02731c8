import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pnsslink import csvio
from pnsslink.csvio import BLOCK_CELLS, PERCENT_MAX_CELLS, _BlockWork, _format_block, write_csv

HASH = "0123456789abcdef"


def reference_rows(arrays) -> bytes:
    """Cell-by-cell form of the format: ``f"{float(x):.15g}"`` per cell."""
    return "".join(
        ",".join(f"{float(a[i]):.15g}" for a in arrays) + "\n" for i in range(len(arrays[0]))
    ).encode("utf-8")


def reference_csv(columns, arrays, config_hash) -> bytes:
    lines = [f"# config_hash: {config_hash}", ",".join(columns)]
    return ("\n".join(lines) + "\n").encode("utf-8") + reference_rows(arrays)


def kernel_rows(arrays) -> bytes:
    """The table's rows as the kernel formats them, in one block."""
    n, n_cols = len(arrays[0]), len(arrays)
    work = _BlockWork(max(n, 1), n_cols)
    for j, a in enumerate(arrays):
        work.values[:n, j] = a
    return _format_block(work.values[:n].ravel(), work)


def random_columns(n: int, seed: int = 3) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(n),
        rng.standard_normal(n) * 1e-9,
        np.exp(rng.uniform(-700.0, 700.0, n)),
        rng.integers(-(2**62), 2**62, n),
    ]


def assert_matches_reference(tmp_path, columns, arrays):
    path = write_csv(tmp_path / "t.csv", columns, arrays, HASH)
    assert path == tmp_path / "t.csv"
    assert path.read_bytes() == reference_csv(columns, arrays, HASH)
    # write_csv formats a table this small with '%'; the kernel, which
    # writes the larger ones, must give the same bytes for it.
    if len(arrays[0]) * len(arrays) <= PERCENT_MAX_CELLS:
        assert kernel_rows(arrays) == reference_rows(arrays)


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


@pytest.mark.parametrize("n", [0, 1, BLOCK_CELLS - 1, BLOCK_CELLS, BLOCK_CELLS + 1])
def test_row_counts_around_the_block_size(tmp_path, n):
    # Four columns: BLOCK_CELLS rows fill exactly four blocks.
    arrays = random_columns(n)
    assert_matches_reference(tmp_path, ["a", "b", "c", "d"], arrays)
    assert len((tmp_path / "t.csv").read_text().splitlines()) == n + 2


@pytest.mark.parametrize("n_cols", [1, 3, 40])
@pytest.mark.parametrize("extra_rows", [-1, 0, 1])
def test_cell_counts_around_the_block_size(tmp_path, n_cols, extra_rows):
    # A block holds BLOCK_CELLS // n_cols whole rows.
    n = BLOCK_CELLS // n_cols + extra_rows
    pool = np.concatenate(random_columns(n))
    arrays = [np.roll(pool, 7 * c)[:n] for c in range(n_cols)]
    assert_matches_reference(tmp_path, [f"c{c}" for c in range(n_cols)], arrays)


@pytest.mark.parametrize(
    "n_cols, n, kernel_blocks",
    [(1, PERCENT_MAX_CELLS - 1, 0), (1, PERCENT_MAX_CELLS, 0), (1, PERCENT_MAX_CELLS + 1, 1),
     (23, 89, 0), (32, 64, 0), (3, 683, 1)],
)
def test_cell_counts_around_the_percent_threshold(tmp_path, monkeypatch, n_cols, n, kernel_blocks):
    # 2 047 = 23 * 89 and 2 048 = 32 * 64 cells go to '%'; 2 049 = 3 * 683
    # cells, one past PERCENT_MAX_CELLS, go to the kernel in one block.
    assert PERCENT_MAX_CELLS == 2048
    calls = []
    monkeypatch.setattr(csvio, "_format_block", lambda *args: calls.append(1) or _format_block(*args))
    pool = np.concatenate(random_columns(n))
    arrays = [np.roll(pool, 7 * c)[:n] for c in range(n_cols)]
    assert_matches_reference(tmp_path, [f"c{c}" for c in range(n_cols)], arrays)
    assert len(calls) == kernel_blocks


EDGE_CELLS = {
    "signed zeros": ([0.0, -0.0], ["0", "-0"]),
    "smallest subnormal and normal": (
        [5e-324, 2.2250738585072014e-308],
        ["4.94065645841247e-324", "2.2250738585072e-308"],
    ),
    "fixed to scientific, small": (
        [9.99999999999994e-5, 9.999999999999995e-5, 1e-4],
        ["9.99999999999994e-05", "0.0001", "0.0001"],
    ),
    "fixed to scientific, large": ([999999999999999.5, 1e15], ["1e+15", "1e+15"]),
    "exact ties round to even": (
        [100000000000000.5, 100000000000001.5, -100000000000002.5],
        ["100000000000000", "100000000000002", "-100000000000002"],
    ),
    "integers above 2**53": (
        [2.0**53 + 2, -(2.0**60), 123456789012345678.0],
        ["9.00719925474099e+15", "-1.15292150460685e+18", "1.23456789012346e+17"],
    ),
    "kernel range ends": (
        [1e-270, 1e290, 9.999999999999999e289, 1.7976931348623157e308],
        ["1e-270", "1e+290", "1e+290", "1.79769313486232e+308"],
    ),
}


@pytest.mark.parametrize("values, texts", EDGE_CELLS.values(), ids=EDGE_CELLS.keys())
def test_edge_cells(tmp_path, values, texts):
    assert_matches_reference(tmp_path, ["x"], [np.array(values)])
    assert (tmp_path / "t.csv").read_text().splitlines()[2:] == texts


def test_powers_of_ten_and_neighbours(tmp_path):
    powers = 10.0 ** np.arange(-300, 300)
    # 9.99999999999999e{k} lies one unit in the last digit below a power of
    # ten, where log10 can round up to the next exponent.
    below = np.array([float(f"9.99999999999999e{k}") for k in range(-300, 300)])
    x = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), below])
    assert_matches_reference(tmp_path, ["x", "neg"], [x, -x])


def test_random_bit_patterns_and_decimal_halves(tmp_path):
    rng = np.random.default_rng(11)
    bits = rng.integers(-(2**63), 2**63, 40_000, dtype=np.int64, endpoint=False)
    # 15 to 20 significant digits, half of them ending in a 5: near and exact ties.
    digits = rng.integers(10**14, 10**19, 40_000, dtype=np.uint64)
    exps = rng.integers(-40, 40, 40_000)
    decimals = [float(f"{d}{'5' * (i % 2)}e{x}") for i, (d, x) in enumerate(zip(digits.tolist(), exps.tolist()))]
    assert_matches_reference(tmp_path, ["bits", "decimal"], [bits.view(np.float64), np.array(decimals)])


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 40).flatmap(
        lambda n_cols: arrays(np.float64, st.tuples(st.integers(0, 12), st.just(n_cols)), elements=st.floats())
    )
)
def test_any_float_table_matches_reference(property_dir, table):
    assert_matches_reference(property_dir, [f"c{c}" for c in range(table.shape[1])], list(table.T))


def test_python_sequences(tmp_path):
    arrays = [[0.5, 1.0, 2.0], (3, 4, 5)]
    assert_matches_reference(tmp_path, ["u", "v"], arrays)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[:2] == [f"# config_hash: {HASH}", "u,v"]


def test_no_columns(tmp_path):
    with pytest.raises(ValueError, match="no columns"):
        write_csv(tmp_path / "t.csv", [], [], HASH)
    assert not (tmp_path / "t.csv").exists()


def test_column_count_mismatch(tmp_path):
    with pytest.raises(ValueError, match="differ in count"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3)], HASH)
    assert not (tmp_path / "t.csv").exists()


def test_column_length_mismatch(tmp_path):
    with pytest.raises(ValueError, match="'b' has length 2, expected 3"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)], HASH)
    assert not (tmp_path / "t.csv").exists()


def test_block_allocates_no_large_temporaries():
    # The gather index alone is 8 * WIDTH = 192 bytes a cell; it and the
    # other large arrays live in the write's buffers, not in each block.
    n_cols = 18
    rows = BLOCK_CELLS // n_cols
    work = _BlockWork(rows, n_cols)
    x = np.random.default_rng(7).standard_normal(rows * n_cols)
    _format_block(x, work)  # warm: tables and templates built
    tracemalloc.start()
    try:
        _format_block(x, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * len(x)


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
