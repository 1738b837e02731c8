"""Grids, quadrature and a bracketed Newton root finder.

Everything here is deliberately fixed-step and deterministic: identical
inputs give bit-identical outputs, and grid density is the only accuracy
knob.  The curves this package integrates are smooth and bounded, so a
fixed fourth-order rule at the trajectory grid resolution is both
simpler and more reproducible than adaptive control.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

import numpy as np


class BracketError(ValueError):
    """Raised when a root bracket does not contain a sign change."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


class TimeGrid(namedtuple("TimeGrid", "t_start t_end n_points")):
    """Uniform time grid on [t_start, t_end] with n_points samples.

    ``values`` (read-only) lives in the instance dict, not in the fields,
    so a grid compares, hashes and prints by its three numbers.
    """

    def __new__(cls, t_start: float, t_end: float, n_points: int) -> TimeGrid:
        if n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {n_points}")
        if not t_end > t_start:
            raise ValueError("t_end must exceed t_start")
        self = super().__new__(cls, t_start, t_end, n_points)
        self.values = _readonly(np.linspace(t_start, t_end, n_points))
        return self

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)


class SampledFunction(namedtuple("SampledFunction", "grid samples")):
    """Values of a scalar function on a :class:`TimeGrid`: ``samples``, a read-only array."""

    __slots__ = ()

    def __new__(cls, grid: TimeGrid, samples: np.ndarray) -> SampledFunction:
        # Copy so freezing never flips a caller-owned buffer to read-only.
        samples = np.array(samples)
        if samples.shape != (grid.n_points,):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid "
                f"({grid.n_points} points)"
            )
        return super().__new__(cls, grid, _readonly(samples))

    @property
    def final(self) -> float:
        return self.samples[-1]


def cumulative_integral(f: SampledFunction) -> SampledFunction:
    """Fourth-order cumulative integral of ``f`` from the grid start.

    Each interval is integrated over the cubic through its four nearest
    samples: h/24 (-f[i-1] + 13 f[i] + 13 f[i+1] - f[i+2]) inside, and the
    one-sided h/24 (9 f[0] + 19 f[1] - 5 f[2] + f[3]) on the first
    interval, mirrored on the last.  The rule is exact on cubics and its
    error falls as h**4.  Grids of fewer than 4 points take h/2 (f[i] + f[i+1]).
    The first sample is exactly 0 and the last approximates the integral
    over the whole grid.
    """
    if np.iscomplexobj(f.samples):
        raise ValueError("cumulative_integral expects real-valued samples")
    y = np.asarray(f.samples, dtype=float)
    out = np.zeros_like(y)
    if y.size < 4:
        np.cumsum(0.5 * (y[1:] + y[:-1]), out=out[1:])
        out[1:] *= f.grid.dt
        return SampledFunction(f.grid, out)
    panels = np.empty(y.size - 1)
    panels[1:-1] = 13.0 * (y[1:-2] + y[2:-1]) - (y[:-3] + y[3:])
    panels[0] = 9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]
    panels[-1] = 9.0 * y[-1] + 19.0 * y[-2] - 5.0 * y[-3] + y[-4]
    np.cumsum(panels, out=out[1:])
    out[1:] *= f.grid.dt / 24.0
    return SampledFunction(f.grid, out)


def quadrature_weights(grid: TimeGrid) -> np.ndarray:
    """Weights ``w`` with ``w @ f.samples`` the last sample of ``cumulative_integral(f)``.

    From 8 points on they are dt/24 (8, 31, 20, 25, 24, ..., 24, 25, 20, 31, 8).
    """
    n = grid.n_points
    if n < 4:  # h/2 (f[i] + f[i+1]) per interval
        return np.convolve(np.ones(n - 1), (0.5, 0.5)) * grid.dt
    w = np.convolve(np.ones(n - 3), (-1.0, 13.0, 13.0, -1.0))  # the inner panels
    w[:4] += (9.0, 19.0, -5.0, 1.0)  # the first panel
    w[-4:] += (1.0, -5.0, 19.0, 9.0)  # the last
    return w * (grid.dt / 24.0)


def find_root(
    f: Callable[[float], tuple[float, float]],
    bracket: tuple[float, float],
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Newton root finder on a sign-changing bracket, with bisection as fallback.

    ``f(x)`` returns ``(f(x), f'(x))``.  Each step is a Newton step from the
    last point evaluated; a step that would not land strictly inside the
    bracket (a zero, NaN or outward derivative) is a bisection instead.
    Stops when ``|f(x)| <= tol`` or the bracket width drops below
    ``tol * max(|a|, |b|)`` of the initial bracket.  The returned root
    always lies inside the initial bracket.

    Raises
    ------
    BracketError
        If ``f`` has the same sign at both bracket ends.
    """
    a, b = float(bracket[0]), float(bracket[1])
    (fa, da), (fb, db) = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketError(
            f"no sign change on bracket [{a:g}, {b:g}]: f(a)={fa:g}, f(b)={fb:g}"
        )
    # Width criterion is relative to the root scale; a valid sign-changing
    # bracket has at most one endpoint at zero.
    xtol = tol * max(abs(a), abs(b))
    # Newton steps start from the end nearer the root.
    x, fx, dx = (a, fa, da) if abs(fa) < abs(fb) else (b, fb, db)
    for _ in range(max_iter):
        # Newton proposal, demoted to bisection whenever it leaves the bracket.
        x = float(x - fx / dx) if dx else math.nan
        lo, hi = (a, b) if a < b else (b, a)
        if not (lo < x < hi):
            x = 0.5 * (a + b)
        fx, dx = f(x)
        if abs(fx) <= tol:
            return x
        if fa * fx <= 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        if abs(b - a) <= xtol:
            return x
    return 0.5 * (a + b)
