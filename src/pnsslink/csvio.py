"""Deterministic CSV output: 15 significant digits, '#' comments, no locale.

Every cell is the bytes of ``'%.15g' % float(x)``.  A numpy kernel writes
them a block of cells at a time:

- the decimal exponent e of |x| comes from ``log10``, corrected by one
  where needed, and |x| * 10**(14 - e) is formed exactly enough (a Dekker
  product with 10**k held as a double-double) to round it to the nearest
  15-digit integer;
- the digits are spelt three at a time from a 1 000-entry table;
- the rounded exponent picks the ``%g`` layout (fixed for -4 <= e < 15,
  else ``d.ddde±XX``) and, with the count of significant digits, a
  template that gathers the cell's bytes from a fixed-width source row.

Cells whose rounding the kernel cannot decide are formatted one at a time
by ``%`` itself: non-finite values, magnitudes outside [1e-270, 1e290],
and scaled values whose remainder lies within 1e-6 of a half (ties and
near ties).

The block's large work arrays (the gather index, the output bytes, the
digit groups and the source words) are allocated once per write and
refilled by every block; a block itself allocates only arrays of one
number per cell.

A table of at most ``PERCENT_MAX_CELLS`` cells (half a block) skips the
kernel: one row format string and ``%`` over its float64 values, which
is the definition the kernel reproduces.  In a fresh process that is
cheaper than building the kernel's tables and buffers.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# Cells per kernel block.  The largest work array is the int64 gather index,
# 8 * WIDTH bytes a cell (~0.8 MB), allocated once per write with the other
# block buffers, so memory stays far below the text of a large table.
BLOCK_CELLS = 4096

# Tables up to this many cells are formatted by '%' (see write_csv).  Time to
# write a 22-column table of random magnitudes in a fresh process, kernel /
# '%', medians of 9, in ms (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6):
# 440 cells 2.19 / 0.67, 902 cells 2.34 / 1.17, 1 804 cells 3.01 / 1.99,
# 2 706 cells 3.59 / 3.17, 4 092 cells 4.45 / 4.69; the kernel's first call
# builds its tables.  In a process that has written a table before, the
# kernel is as fast at 902 cells (0.82 / 0.84) and faster above (2 046
# cells: 1.92 / 3.01).
PERCENT_MAX_CELLS = BLOCK_CELLS // 2

# Output bytes per cell, enough for the longest, "-1.23456789012345e-100",
# and its separator.
WIDTH = 24
# A block's source array holds, per cell, _WORDS uint32 words: five digit
# groups "ddd\0", ".0e" and the sign ('-' or a zero byte), the exponent
# "+ddd", and the separator ",\0\0\0" or "\n\0\0\0".  A template lists, for
# each output byte of a cell, the source byte it copies.  Bytes past the
# cell's end, and the sign of a positive cell, copy a zero; the zeros are
# dropped when the block is joined.
_WORDS = 8
# Source byte of each symbol a template uses: the 15 digits, then '.', '0',
# 'e', the sign, the exponent's sign and 3 digits, the separator, a zero.
_BYTE_OF = np.array([4 * (d // 3) + d % 3 for d in range(15)] + list(range(20, 29)) + [3])
_DOT, _ZERO, _E, _SIGN, _EXP_SIGN, _SEP, _PAD = 15, 16, 17, 18, 19, 23, 24

# Magnitudes the kernel formats: in this range the scaled products stay
# normal and Dekker's split cannot overflow.  The decimal exponents e of
# these lie within +-_MAX_EXP, and the scales 14 - e within +-_MAX_POW.
_MIN_ABS, _MAX_ABS = 1e-270, 1e290
_MAX_EXP = 300
_MAX_POW = 287
_SPLITTER = 134217729.0  # 2**27 + 1
# A remainder this close to a half might round either way: left to '%'.
_TIE_MARGIN = 1e-6
# Template classes by rounded decimal exponent e: fixed layout for
# -4 <= e < 15 (classes 0..18), scientific with a 2- or 3-digit exponent
# (classes 19 and 20).  A cell's template is 15 * class + digits - 1, with
# digits its significant digits, 1..15.
_FIXED = 19


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into two halves of at most 26 significant bits."""
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, a_hi, a_lo, b, b_hi, b_lo):
    """a * b as hi + lo exactly, from both factors' splits."""
    hi = a * b
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


@functools.cache
def _pow10() -> np.ndarray:
    """Rows (hi, hi's split, lo) with hi + lo = 10**k, k = -_MAX_POW ... _MAX_POW.

    10**k is the exact product of the double 10**(k % 16) and a
    double-double 10**(16 a): from exact integers for a >= 0, and for a < 0
    the reciprocal of 10**(-16 a) refined by one exact-product step.  The
    pairs are good to ~2**-104 relative.
    """
    big = [10 ** (16 * a) for a in range(-(-_MAX_POW // 16) + 1)]
    up = np.array([float(p) for p in big])
    up_lo = np.array([float(p - int(h)) for p, h in zip(big, up.tolist())])
    q = 1.0 / up[1:]
    p, p_err = _two_prod(q, *_split(q), up[1:], *_split(up[1:]))
    down_lo = ((1.0 - p) - p_err - q * up_lo[1:]) * q
    big_hi = np.concatenate([q[::-1], up])
    big_lo = np.concatenate([down_lo[::-1], up_lo])
    k = np.arange(-_MAX_POW, _MAX_POW + 1)
    a = (k >> 4) + len(q)
    small = 10.0 ** (k & 15)
    hi, err = _two_prod(big_hi[a], *_split(big_hi[a]), small, *_split(small))
    return np.column_stack([hi, *_split(hi), err + big_lo[a] * small])


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Lookup tables by 3-digit group and by decimal exponent.

    Returns the source word of each group 0..999 and its significant digits
    (-99 for 000, so that it never wins a maximum), then, by e + _MAX_EXP,
    the exponent word and 15 * class - 1.
    """
    n = np.arange(1000, dtype=np.int16)
    chars = np.zeros((1000, 4), np.uint8)
    for i, d in enumerate((n // 100, n // 10 % 10, n % 10)):
        chars[:, i] = d + ord("0")
    sig = (3 - (n % 10 == 0) - (n % 100 == 0)).astype(np.int16)
    sig[0] = -99
    e = np.arange(-_MAX_EXP, _MAX_EXP + 1)
    exp_chars = np.zeros((len(e), 4), np.uint8)
    exp_chars[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    exp_chars[:, 1:] = chars[np.abs(e), :3]
    cls = np.where((e < -4) | (e >= 15), _FIXED + (np.abs(e) >= 100), e + 4)
    return chars.view(np.uint32)[:, 0], sig, exp_chars.view(np.uint32)[:, 0], 15 * cls - 1


@functools.cache
def _templates() -> np.ndarray:
    """Source byte of each output byte, as a (templates, WIDTH) array."""
    s = np.arange(1, 16)[None, :, None]  # significant digits
    p = np.arange(WIDTH - 1)[None, None, :]  # position after the sign
    # Fixed, -4 <= e < 0: "0." and -e - 1 zeros before the digits.
    zeros = np.arange(3, -1, -1)[:, None, None]
    at_frac = np.where(p == 1, _DOT, np.where(p < 2 + zeros, _ZERO, p - 2 - zeros))
    len_frac = 2 + zeros + s
    # Fixed, 0 <= e < 15: e + 1 integer digits, then '.' and the rest if any.
    whole = np.arange(1, 16)[:, None, None]
    at_int = np.where(p < whole, p, np.where(p == whole, _DOT, p - 1))
    len_int = np.where(s > whole, s + 1, whole)
    # Scientific: d[.ddd]e+XX with 2 or 3 exponent digits.
    mant = np.where(s == 1, 1, s + 1)
    len_sci = mant + np.array([4, 5])[:, None, None]
    tail = np.where(p == mant, _E, np.where(p == mant + 1, _EXP_SIGN, p - len_sci + _SEP))
    at_sci = np.where(p == 0, 0, np.where(p == 1, np.where(s == 1, _E, _DOT), np.where(p < mant, p - 1, tail)))

    body = np.empty((_FIXED + 2, 15, WIDTH - 1), np.intp)
    size = np.empty((_FIXED + 2, 15, 1), np.intp)
    body[:4], body[4:_FIXED], body[_FIXED:] = at_frac, at_int, at_sci
    size[:4], size[4:_FIXED], size[_FIXED:] = len_frac, len_int, len_sci
    symbol = np.full((_FIXED + 2, 15, WIDTH), _SIGN)
    symbol[..., 1:] = np.where(p < size, body, np.where(p == size, _SEP, _PAD))
    return _BYTE_OF[symbol].reshape(-1, WIDTH)


class _BlockWork:
    """A write's block buffers, allocated once and refilled by every block.

    ``values`` holds a block of ``rows`` rows of ``n_cols`` cells.  ``src``
    is the (_WORDS, cells) source array, whose words 5 and 7 hold ".0e\\0"
    and each cell's separator; ``offsets`` holds the templates as byte
    offsets into src.  ``index`` (the gather index), ``out`` (the cells'
    bytes), ``groups`` (the digit groups) and ``base`` (each cell's first
    source byte) are the kernel's large arrays, written in place.
    """

    def __init__(self, rows: int, n_cols: int):
        cells = rows * n_cols
        self.values = np.empty((rows, n_cols))
        self.src = np.empty((_WORDS, cells), np.uint32)
        self.src[5] = np.frombuffer(b".0e\0", np.uint32)
        self.src[7] = np.tile(np.frombuffer(b",\0\0\0" * (n_cols - 1) + b"\n\0\0\0", np.uint32), rows)
        self.index = np.empty((cells, WIDTH), np.intp)
        self.out = np.empty((cells, WIDTH), np.uint8)
        self.groups = np.empty((5, cells), np.intp)
        self.base = np.arange(0, 4 * cells, 4)[:, None]
        byte = _templates()
        self.offsets = (byte >> 2) * (4 * cells) + (byte & 3)


def _format_block(x: np.ndarray, work: _BlockWork) -> bytes:
    """The bytes of ``'%.15g' % v`` and its separator, for each cell of x.

    x holds the block's first len(x) cells in row order; its large
    temporaries go to work's buffers.
    """
    n_cells = len(x)
    a = np.abs(x)
    zero = a == 0.0
    slow = ~((a >= _MIN_ABS) & (a <= _MAX_ABS))
    a[slow] = 1.0
    slow ^= zero

    # Decimal exponent from log10, corrected by one where the scaled value
    # leaves [1e14, 1e15); the scaling by 10**(14 - e) is exact to ~2**-100.
    e = np.floor(np.log10(a)).astype(np.intp)
    a_hi, a_lo = _split(a)

    def scaled(idx):
        h, h_hi, h_lo, h_rest = np.take(_pow10(), _MAX_POW + 14 - e[idx], axis=0, mode="clip").T
        hi, lo = _two_prod(a[idx], a_hi[idx], a_lo[idx], h, h_hi, h_lo)
        return hi, lo + a[idx] * h_rest

    m_hi, m_lo = scaled(slice(None))
    off = (m_hi >= 1e15).astype(np.intp) - (m_hi < 1e14)
    fix = np.flatnonzero(off)
    if len(fix):
        e[fix] += off[fix]
        m_hi[fix], m_lo[fix] = scaled(fix)

    # Round to nearest; m_hi - floor(m_hi) is exact at this magnitude, and a
    # remainder near a half is left to '%', which rounds ties to even.  A
    # result of 10**15 or more (one more at most, after a correction next to
    # a power of ten) is 10**14 at the next exponent.
    whole = np.floor(m_hi)
    rem = (m_hi - whole) + m_lo
    slow |= np.abs(rem - 0.5) < _TIE_MARGIN
    q = whole.astype(np.intp) + (rem > 0.5)
    carry = q >= 10**15
    q[carry] = 10**14
    e += carry
    q[zero] = 0
    e[zero] = 0

    # Five 3-digit groups, most significant first, spelt into words 0..4.
    groups = work.groups[:, :n_cells]
    for g in range(4, 0, -1):
        np.divmod(q, 1000, out=(q, groups[g]))
    groups[0] = q
    group_word, group_sig, exp_word, class_base = _tables()
    src = work.src
    np.take(group_word, groups, out=src[:5, :n_cells], mode="clip")
    sig = np.take(group_sig, groups, mode="clip")
    sig += np.arange(0, 15, 3, dtype=np.int16)[:, None]
    sig = np.maximum(sig.max(axis=0), 1)  # a zero cell is the one digit "0"
    e += _MAX_EXP
    np.take(exp_word, e, out=src[6, :n_cells], mode="clip")
    src.view(np.uint8).reshape(_WORDS, -1, 4)[5, :n_cells, 3] = np.signbit(x) * np.uint8(ord("-"))

    index = work.index[:n_cells]
    np.take(work.offsets, np.take(class_base, e, mode="clip") + sig, axis=0, out=index, mode="clip")
    index += work.base[:n_cells]
    out = work.out[:n_cells]
    np.take(src.view(np.uint8).reshape(-1), index, out=out, mode="clip")

    for i in np.flatnonzero(slow):
        text = b"%.15g%s" % (x[i], src[7, i].tobytes()[:1])
        out[i] = np.frombuffer(text.ljust(WIDTH, b"\0"), np.uint8)
    return out.tobytes().translate(None, b"\0")


def write_csv(
    path: str | Path,
    columns: Sequence[str],
    arrays: Sequence[np.ndarray],
    config_hash: str,
    comments: Iterable[str] = (),
) -> Path:
    """Write column arrays as CSV with a config-hash comment line.

    There must be at least one column, and all columns must have equal
    length.  Each cell is the bytes of ``'%.15g' % float(x)``; a table of
    up to ``PERCENT_MAX_CELLS`` cells is formatted by ``%`` in one go, a
    larger one by the kernel in blocks of whole rows of about
    ``BLOCK_CELLS`` cells.  Output is byte-reproducible for identical
    inputs.
    """
    if len(columns) != len(arrays):
        raise ValueError("column names and arrays differ in count")
    if not arrays:
        raise ValueError("no columns to write")
    n = len(arrays[0])
    for name, a in zip(columns, arrays):
        if len(a) != n:
            raise ValueError(f"column {name!r} has length {len(a)}, expected {n}")
    n_cols = len(arrays)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = [f"# config_hash: {config_hash}", *(f"# {c}" for c in comments), ",".join(columns)]
    with path.open("wb") as out:
        out.write(("\n".join(head) + "\n").encode("utf-8"))
        if n * n_cols <= PERCENT_MAX_CELLS:
            values = np.empty((n, n_cols))
            for j, a in enumerate(arrays):
                values[:, j] = a
            row = (",".join(["%.15g"] * n_cols) + "\n").encode()
            out.write(row * n % tuple(values.ravel().tolist()))
            return path
        rows = max(1, min(n, BLOCK_CELLS // n_cols))
        # One block of rows, refilled from the columns: the table is never copied whole.
        work = _BlockWork(rows, n_cols)
        for start in range(0, n, rows):
            m = min(rows, n - start)
            for j, a in enumerate(arrays):
                work.values[:m, j] = a[start : start + m]
            out.write(_format_block(work.values[:m].ravel(), work))
    return path
