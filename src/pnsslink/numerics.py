"""Grids, quadrature and root finding.

Everything here is deliberately fixed-step and deterministic: identical
inputs give bit-identical outputs, and grid density is the only accuracy
knob.  The curves this package integrates are smooth and bounded, so a
fixed fourth-order rule at the trajectory grid resolution is both
simpler and more reproducible than adaptive control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

UNIFORMITY_RTOL = 1e-12


class BracketError(ValueError):
    """Raised when a root bracket does not contain a sign change."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [t_start, t_end] with n_points samples."""

    t_start: float
    t_end: float
    n_points: int
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        values = np.linspace(self.t_start, self.t_end, self.n_points)
        object.__setattr__(self, "values", _readonly(values))

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)


@dataclass(frozen=True)
class SampledFunction:
    """Values of a scalar function on a :class:`TimeGrid`."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        # Copy so freezing never flips a caller-owned buffer to read-only.
        samples = np.array(self.samples)
        if samples.shape != (self.grid.n_points,):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        object.__setattr__(self, "samples", _readonly(samples))

    @property
    def final(self) -> float:
        return self.samples[-1]


def _check_uniform(grid: TimeGrid) -> None:
    diffs = np.diff(grid.values)
    dt = grid.dt
    # Consecutive differences of correctly rounded samples jitter by one
    # ulp of the sample magnitude, which can exceed the relative bound
    # when dt is many orders below |t|.
    ulp = np.finfo(float).eps * max(abs(grid.t_start), abs(grid.t_end))
    tol = max(UNIFORMITY_RTOL * abs(dt), 8.0 * ulp)
    if np.max(np.abs(diffs - dt)) > tol:
        raise ValueError("grid spacing is not uniform")


def cumulative_integral(f: SampledFunction) -> SampledFunction:
    """Fourth-order cumulative integral of ``f`` from the grid start.

    Each interval is integrated over the cubic through its four nearest
    samples: h/24 (-f[i-1] + 13 f[i] + 13 f[i+1] - f[i+2]) inside, and the
    one-sided h/24 (9 f[0] + 19 f[1] - 5 f[2] + f[3]) on the first
    interval, mirrored on the last.  The rule is exact on cubics and its
    error falls as h**4.  Grids of fewer than 4 points use the trapezoid.
    The first sample is exactly 0 and the last approximates the integral
    over the whole grid.
    """
    _check_uniform(f.grid)
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


def trapezoid(samples: np.ndarray, dt: float) -> float:
    """Plain trapezoidal quadrature over uniformly spaced samples."""
    return float(dt * (np.sum(samples) - 0.5 * (samples[0] + samples[-1])))


def find_root(
    f: Callable[[float], float | tuple[float, float]],
    bracket: tuple[float, float],
    tol: float = 1e-12,
    max_iter: int = 200,
    *,
    slope: bool = False,
) -> float:
    """Bisection/secant hybrid root finder on a sign-changing bracket.

    With ``slope``, ``f(x)`` returns ``(f(x), f'(x))`` and each step is a
    Newton step from the last point evaluated, not a secant step; a step
    that would not land strictly inside the bracket (a zero, NaN or
    outward derivative) is a bisection instead.  Stops when
    ``|f(x)| <= tol`` or the bracket width drops below
    ``tol * max(|a|, |b|)`` of the initial bracket.  The returned root
    always lies inside the initial bracket.

    Raises
    ------
    BracketError
        If ``f`` has the same sign at both bracket ends.
    """
    point = f if slope else lambda x: (f(x), None)
    a, b = float(bracket[0]), float(bracket[1])
    (fa, da), (fb, db) = point(a), point(b)
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
        # Newton or secant proposal, demoted to bisection whenever it
        # leaves the bracket (and, for the secant, whenever the bracket is
        # no longer shrinking fast).
        if slope:
            x = float(x - fx / dx) if dx else math.nan
        else:
            x = b - fb * (b - a) / (fb - fa) if fb != fa else math.nan
        lo, hi = (a, b) if a < b else (b, a)
        if not (lo < x < hi):
            x = 0.5 * (a + b)
        fx, dx = point(x)
        if abs(fx) <= tol:
            return x
        if fa * fx <= 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        if abs(b - a) <= xtol:
            return x
        if not slope and abs(b - a) > 0.5 * abs(hi - lo):
            m = 0.5 * (a + b)
            fm, _ = point(m)
            if abs(fm) <= tol:
                return m
            if fa * fm <= 0.0:
                b, fb = m, fm
            else:
                a, fa = m, fm
    return 0.5 * (a + b)
