import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsslink.numerics import (
    BracketError,
    SampledFunction,
    TimeGrid,
    cumulative_integral,
    find_root,
)

from oracles import IntegrationError, integrate_ode, refined


class TestTimeGrid:
    def test_basic(self):
        grid = TimeGrid(0.0, 1.0, 11)
        assert grid.dt == pytest.approx(0.1)
        assert grid.values[0] == 0.0
        assert grid.values[-1] == 1.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)

    def test_reversed(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 10)

    def test_refined_has_midpoints(self):
        grid = TimeGrid(0.0, 1.0, 5)
        fine = refined(grid)
        assert fine.n_points == 9
        np.testing.assert_allclose(fine.values[::2], grid.values, atol=1e-15)

    def test_values_readonly(self):
        grid = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            grid.values[0] = 3.0


class TestCumulativeIntegral:
    def test_zero(self):
        grid = TimeGrid(0.0, 1.0, 100)
        out = cumulative_integral(SampledFunction(grid, np.zeros(100)))
        assert np.all(out.samples == 0.0)

    def test_gaussian_total(self):
        # Analytic oracle: integral of exp(-(t/T)^2) over the real line
        # is sqrt(pi)*T; the [-6T, 6T] window truncates below 1e-15.
        T = 0.4
        grid = TimeGrid(-6 * T, 6 * T, 4001)
        f = np.exp(-((grid.values / T) ** 2))
        out = cumulative_integral(SampledFunction(grid, f))
        assert out.samples[0] == 0.0
        assert out.final == pytest.approx(math.sqrt(math.pi) * T, rel=1e-8)

    def test_constant_exact(self):
        for n in (2, 7, 100):
            grid = TimeGrid(0.0, 1.0, n)
            out = cumulative_integral(SampledFunction(grid, np.ones(n)))
            assert out.final == pytest.approx(1.0, abs=1e-14)

    def test_cubic_exact_including_end_panels(self):
        grid = TimeGrid(0.0, 1.0, 11)
        t = grid.values
        f = 4.0 * t**3 - 3.0 * t**2 + 2.0 * t - 1.0
        out = cumulative_integral(SampledFunction(grid, f))
        np.testing.assert_allclose(out.samples, t**4 - t**3 + t**2 - t, rtol=0.0, atol=1e-14)

    def test_fourth_order_on_gaussian(self):
        # The window [0, 2] keeps the integrand large at the far end, so the
        # end panels set the error, not the decaying-tail spectral accuracy.
        def err(n):
            grid = TimeGrid(0.0, 2.0, n)
            t = grid.values
            out = cumulative_integral(SampledFunction(grid, np.exp(-(t**2))))
            exact = 0.5 * math.sqrt(math.pi) * np.array([math.erf(x) for x in t])
            return np.max(np.abs(out.samples - exact))

        errors = [err(n) for n in (21, 41, 81, 161)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0

    def test_short_grids_fall_back_to_trapezoid(self):
        for n in (2, 3):
            grid = TimeGrid(0.0, 1.0, n)
            out = cumulative_integral(SampledFunction(grid, np.full(n, 2.5)))
            np.testing.assert_allclose(out.samples, 2.5 * grid.values, rtol=0.0, atol=1e-15)

    def test_rejects_complex(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            cumulative_integral(SampledFunction(grid, np.ones(10, dtype=complex)))

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    @settings(deadline=None, max_examples=25)
    def test_linearity(self, a, b):
        grid = TimeGrid(0.0, 2.0, 301)
        t = grid.values
        f = np.sin(t)
        g = t**2
        combined = cumulative_integral(SampledFunction(grid, a * f + b * g)).samples
        separate = (
            a * cumulative_integral(SampledFunction(grid, f)).samples
            + b * cumulative_integral(SampledFunction(grid, g)).samples
        )
        scale = max(1.0, np.max(np.abs(separate)))
        assert np.max(np.abs(combined - separate)) <= 1e-12 * scale


class TestIntegrateOde:
    def test_zero_rhs(self):
        grid = TimeGrid(0.0, 1.0, 50)
        y0 = np.array([1.0 + 2.0j, -3.0])
        traj = integrate_ode(lambda t, y: 0.0 * y, y0, grid)
        assert np.all(traj == traj[0])

    def test_exponential_order(self):
        # Richardson oracle on dy/dt = -y: halving the step must shrink
        # the endpoint error by about 2**4.
        def err(n):
            grid = TimeGrid(0.0, 2.0, n)
            traj = integrate_ode(lambda t, y: -y, np.array([1.0 + 0j]), grid)
            return abs(traj[-1, 0] - math.exp(-2.0))

        ratio = err(21) / err(41)
        assert 8.0 <= ratio <= 32.0

    def test_norm_conservation_hermitian(self):
        # Generator i*H with Hermitian H rotates without changing the norm.
        h = np.array([[0.3, 0.7 + 0.2j], [0.7 - 0.2j, -0.1]])
        grid = TimeGrid(0.0, 40.0, 16001)
        traj = integrate_ode(lambda t, y: -1j * (h @ y), np.array([1.0, 0.0], complex), grid)
        norms = np.linalg.norm(traj, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_nan_aborts_with_location(self):
        grid = TimeGrid(0.0, 1.0, 10)

        def rhs(t, y):
            return y * (math.nan if t > 0.5 else 0.0)

        with pytest.raises(IntegrationError, match="step"):
            integrate_ode(rhs, np.array([1.0 + 0j]), grid)

    def test_batched_states(self):
        grid = TimeGrid(0.0, 1.0, 201)
        y0 = np.array([[1.0 + 0j], [2.0 + 0j], [0.5j]])
        traj = integrate_ode(lambda t, y: -y, y0, grid)
        assert traj.shape == (201, 3, 1)
        np.testing.assert_allclose(traj[-1], y0 * math.exp(-1.0), rtol=1e-10)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 2.0, (0.0, 5.0)) == pytest.approx(2.0, abs=1e-12)

    def test_cosine(self):
        root = find_root(math.cos, (1.0, 2.0), tol=1e-12)
        assert root == pytest.approx(math.pi / 2, abs=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, (-1.0, 1.0))

    def test_endpoint_root(self):
        assert find_root(lambda x: x, (0.0, 1.0)) == 0.0

    @given(
        root=st.floats(-10, 10),
        scale=st.floats(0.1, 5.0),
        off=st.floats(1e-3, 3.0),
    )
    @settings(deadline=None, max_examples=50)
    def test_root_inside_bracket(self, root, scale, off):
        f = lambda x: scale * (x - root) ** 3 + scale * (x - root)
        a, b = root - off, root + 2 * off
        found = find_root(f, (a, b), tol=1e-13)
        assert a <= found <= b
        assert found == pytest.approx(root, abs=1e-6 * max(1.0, abs(root)))


def _counted(f):
    """``f`` wrapped to record every point it is evaluated at."""
    seen = []

    def wrapper(x):
        seen.append(x)
        return f(x)

    return wrapper, seen


# (f, f', bracket, exact root): a cosine and a gaussian level crossing.
SMOOTH_ROOTS = [
    (math.cos, lambda x: -math.sin(x), (1.0, 2.0), math.pi / 2),
    (
        lambda x: math.exp(-x * x) - 0.5,
        lambda x: -2.0 * x * math.exp(-x * x),
        (0.0, 3.0),
        math.sqrt(math.log(2.0)),
    ),
]


class TestFindRootWithSlope:
    @pytest.mark.parametrize("f, df, bracket, root", SMOOTH_ROOTS, ids=["cos", "gaussian"])
    @pytest.mark.parametrize("tol", [1e-12, 1e-14])  # the pulse solve's tolerances
    def test_same_root_as_secant_in_fewer_evaluations(self, f, df, bracket, root, tol):
        secant, secant_seen = _counted(f)
        newton, newton_seen = _counted(lambda x: (f(x), df(x)))
        x_secant = find_root(secant, bracket, tol=tol)
        x_newton = find_root(newton, bracket, tol=tol, slope=True)
        assert isinstance(x_newton, float)
        assert abs(f(x_newton)) <= tol
        assert x_newton == pytest.approx(x_secant, abs=tol)
        assert x_newton == pytest.approx(root, abs=tol)
        assert len(newton_seen) < len(secant_seen)

    @pytest.mark.parametrize("slope", [0.0, math.nan, -1.0], ids=["zero", "nan", "outward"])
    def test_bisects_when_the_newton_step_leaves_the_bracket(self, slope):
        # f(x) = x - 0.3 with a false slope: the step from the end nearer
        # the root (0) is undefined or lands at -0.3, so the first
        # interior point is the midpoint, and so is every later one.
        f, seen = _counted(lambda x: (x - 0.3, slope))
        root = find_root(f, (0.0, 1.0), tol=1e-12, slope=True)
        assert seen[:4] == [0.0, 1.0, 0.5, 0.25]
        assert root == pytest.approx(0.3, abs=1e-12)

    def test_bracket_error_unchanged(self):
        with pytest.raises(BracketError) as info:
            find_root(lambda x: (x * x, 2.0 * x), (-1.0, 1.0), slope=True)
        assert str(info.value) == "no sign change on bracket [-1, 1]: f(a)=1, f(b)=1"

    @given(
        root=st.floats(-10, 10),
        scale=st.floats(0.1, 5.0),
        off=st.floats(1e-3, 3.0),
    )
    @settings(deadline=None, max_examples=50)
    def test_stays_inside_bracket(self, root, scale, off):
        f, seen = _counted(
            lambda x: (scale * ((x - root) ** 3 + (x - root)), scale * (3 * (x - root) ** 2 + 1))
        )
        a, b = root - off, root + 2 * off
        found = find_root(f, (a, b), tol=1e-13, slope=True)
        assert all(a <= x <= b for x in seen)
        assert found == pytest.approx(root, abs=1e-6 * max(1.0, abs(root)))
