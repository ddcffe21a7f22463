"""The numpy splines and Simpson rule against scipy, their reference."""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson as scipy_simpson
from scipy.interpolate import CubicHermiteSpline, CubicSpline, PPoly

from gaussnm._spline import PiecewisePoly, cubic_splines, cumulative_simpson, hermite_splines


def _knots(n, uniform):
    x = np.linspace(0.0, 10.0, n)
    if not uniform:  # every interior knot moved by up to 30 % of a step
        x[1:-1] += np.random.default_rng(n).uniform(-0.3, 0.3, n - 2) * x[1]
    return x


def _distinct(roots):
    """Sorted finite roots, a knot's two copies (ulps apart) merged."""
    r = np.sort(roots[np.isfinite(roots)])
    return r[np.diff(r, prepend=-np.inf) > 1e-12]


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("n", [2, 3, 4, 7, 1001])
def test_spline_matches_scipy(n, uniform):
    x = _knots(n, uniform)
    columns = [np.sin(1.3 * x) - 0.2, np.exp(-0.3 * x) * np.cos(2.0 * x)]
    t = np.concatenate([x, np.linspace(0.0, 10.0, 4001)])
    for y, spline in zip(columns, cubic_splines(x, *columns)):
        ref = CubicSpline(x, y)
        assert np.max(np.abs(spline(t) - ref(t))) <= 1e-14 * np.max(np.abs(y))
        f, f_ref = spline.antiderivative()(t), ref.antiderivative()(t)
        assert np.max(np.abs(f - f_ref)) <= 1e-14 * np.max(np.abs(f_ref))
        roots, ref_roots = _distinct(spline.roots()), _distinct(ref.roots(extrapolate=False))
        assert roots.shape == ref_roots.shape
        assert np.allclose(roots, ref_roots, rtol=0.0, atol=1e-13)
        # one column alone gives the same spline as built beside another
        alone, = cubic_splines(x, y)
        assert np.array_equal(alone.c, spline.c)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("n", [2, 3, 1001])
def test_hermite_matches_scipy(n, uniform):
    x = _knots(n, uniform)
    values = [np.sin(1.3 * x) - 0.2, np.exp(-0.3 * x) * np.cos(2.0 * x)]
    slopes = [1.3 * np.cos(1.3 * x), np.random.default_rng(n).normal(size=n)]
    t = np.concatenate([x, np.linspace(0.0, 10.0, 4001)])
    for y, dydx, spline in zip(values, slopes, hermite_splines(x, values, slopes)):
        ref = CubicHermiteSpline(x, y, dydx)
        assert np.max(np.abs(spline(t) - ref(t))) <= 1e-13 * np.max(np.abs(ref(t)))
        # the pieces pass through the knot values with the knot slopes
        assert np.array_equal(spline(x[:-1]), y[:-1])
        assert np.array_equal(spline.c[-2], dydx[:-1])


def test_scalar_evaluation():
    x = np.linspace(0.0, 2.0, 5)
    spline, = cubic_splines(x, x ** 3)
    assert np.ndim(spline(1.5)) == 0
    assert float(spline(1.5)) == pytest.approx(3.375, rel=1e-15)


def test_non_finite_values_rejected():
    with pytest.raises(ValueError, match="finite"):
        cubic_splines(np.linspace(0.0, 1.0, 5), [0.0, 1.0, np.nan, 1.0, 0.0])


def _both(x, c):
    return PiecewisePoly(np.asarray(x, float), np.asarray(c, float)), PPoly(c, x)


def test_dip_inside_one_piece():
    # (s - 1/2)^2 - (2.5e-3)^2 on [0, 1]: the ends are positive, so only the
    # critical point shows the 5e-3 wide dip
    c = [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.25 - 2.5e-3 ** 2, 0.25]]
    ours, ref = _both([0.0, 1.0, 2.0], c)
    roots = _distinct(ours.roots())
    assert np.allclose(roots, _distinct(ref.roots(extrapolate=False)), rtol=0.0, atol=1e-13)
    assert np.allclose(roots, [0.4975, 0.5025], rtol=0.0, atol=1e-13)
    assert np.allclose(ours.negative_intervals(2.0), [(0.4975, 0.5025)], rtol=0.0, atol=1e-13)


def test_root_at_a_knot():
    x = np.linspace(0.0, 4.0, 9)
    y = (x - x[3]) * (2.0 + np.cos(x))  # y[3] is exactly 0
    spline, = cubic_splines(x, y)
    ref = CubicSpline(x, y)
    roots = _distinct(spline.roots())
    assert np.allclose(roots, _distinct(ref.roots(extrapolate=False)), rtol=0.0, atol=1e-13)
    assert roots.tolist() == [x[3]]
    assert spline.negative_intervals(4.0) == [(0.0, x[3])]


def test_piece_zero_everywhere():
    # t - 1 on [0, 1], 0 on [1, 2], 2 - t on [2, 3]
    c = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0], [-1.0, 0.0, 0.0]]
    ours, ref = _both([0.0, 1.0, 2.0, 3.0], c)
    # the same cut on scipy's spline, through its roots() and values
    assert ours.negative_intervals(3.0) == PiecewisePoly.negative_intervals(ref, 3.0)
    assert ours.negative_intervals(3.0) == [(0.0, 1.0), (2.0, 3.0)]


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("n", [2, 3, 4, 1001])
def test_cumulative_simpson_is_scipy(n, uniform):
    x = _knots(n, uniform)
    y = np.exp(-0.3 * x) * np.cos(2.0 * x)
    assert np.array_equal(cumulative_simpson(y, x), scipy_simpson(y, x=x, initial=0.0))
