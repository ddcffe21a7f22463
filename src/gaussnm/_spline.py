"""Cubic splines and cumulative Simpson integration on numpy alone.

``hermite_splines`` builds cubic pieces through given knot values and
slopes.  ``cubic_splines`` builds not-a-knot cubic splines, one per
column: one tridiagonal solve for the slopes, then ``hermite_splines``.
``PiecewisePoly`` evaluates a spline, gives its exact antiderivative,
finds its real roots and cuts at them the intervals where it is negative.
``cumulative_simpson`` is the composite Simpson rule of unequal intervals.
The arithmetic follows scipy's ``CubicHermiteSpline``, ``CubicSpline``,
``PPoly`` and ``cumulative_simpson`` step by step, so the results agree
with scipy's to rounding; they are bit for bit the same where LAPACK's
tridiagonal solver does not pivot, as on a uniform grid.
"""

from __future__ import annotations

import numpy as np

_BISECTIONS = 64  # halvings of a monotone stretch: past double resolution


class PiecewisePoly:
    """Polynomial pieces on the knots ``x``.  On [x_i, x_i+1], ``c[j, i]``
    multiplies (t - x_i)^(k - j), highest power first; the end pieces
    extrapolate."""

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = x, c

    def _local(self, i, s):
        # c_k + c_k-1 s + c_k-2 s^2 + ..., summed in scipy's order
        out, z = self.c[-1, i], s
        for row in self.c[-2::-1]:
            out = out + row[i] * z
            z = z * s
        return out

    def locate(self, t):
        """(piece, offset in it) of each t: ``_local(*locate(t))`` is the
        spline at t, so splines on the same knots share one search."""
        t = np.asarray(t, float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        return i, t - self.x[i]

    def __call__(self, t):
        return self._local(*self.locate(t))

    def antiderivative(self) -> "PiecewisePoly":
        """The exact antiderivative, zero at x[0]."""
        k = self.c.shape[0]
        c = np.zeros((k + 1, self.c.shape[1]))
        c[:-1] = self.c / np.arange(k, 0.0, -1.0)[:, None]
        h = np.diff(self.x)[:-1]
        z, terms = h, []
        for row in c[-2::-1, :-1]:
            terms.append(row * z)
            z = z * h
        acc = 0.0  # each piece starts where the one before it ends
        for i, step in enumerate(zip(*terms), 1):
            c[-1, i] = acc = sum(step, acc)
        return PiecewisePoly(self.x, c)

    def roots(self) -> np.ndarray:
        """Sorted real roots of a cubic spline, each within its own piece.

        Every piece is cut at its critical points into monotone stretches,
        and each stretch whose end values span 0 holds one root, found by
        bisection; so a dip narrower than a piece is never skipped.  A zero
        at a knot may come from both pieces, ulps apart, and a piece that
        is zero everywhere gives its ends.
        """
        a, b, c, _ = self.c
        h = np.diff(self.x)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(b + np.copysign(np.sqrt(b * b - 3.0 * a * c), b))
            crit = np.nan_to_num([q / (3.0 * a), c / q])  # 3a s^2 + 2b s + c = 0
        ends = np.sort(np.vstack([np.zeros_like(h), np.clip(crit, 0.0, h), h]), axis=0)
        i = np.tile(np.arange(h.size), 3)
        lo, hi = ends[:-1].ravel(), ends[1:].ravel()
        f_lo, f_hi = self._local(i, lo), self._local(i, hi)
        keep = np.sign(f_lo) * np.sign(f_hi) <= 0.0
        i, lo, hi, f_lo, f_hi = i[keep], lo[keep], hi[keep], f_lo[keep], f_hi[keep]
        left, right, up = lo, hi, f_hi > 0.0
        for _ in range(_BISECTIONS):
            mid = 0.5 * (left + right)
            past = (self._local(i, mid) > 0.0) == up  # mid has the right end's sign
            left, right = np.where(past, left, mid), np.where(past, mid, right)
        root = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, 0.5 * (left + right)))
        return np.sort(self.x[i] + root)

    def negative_intervals(self, t_end: float) -> list[tuple[float, float]]:
        """Maximal intervals of [0, t_end] where the spline is negative, cut
        at its exact roots."""
        roots = self.roots()
        inner = roots[(roots > 0.0) & (roots < t_end)]
        edges = np.concatenate([[0.0], inner, [t_end]])  # roots() sorts; repeats drop below
        return [(float(lo), float(hi)) for lo, hi in zip(edges[:-1], edges[1:])
                if hi - lo > 1e-12 and self(0.5 * (lo + hi)) < 0.0]


def cubic_splines(x, *columns) -> list[PiecewisePoly]:
    """Not-a-knot cubic splines through each column on the knots ``x``: a
    straight line on 2 knots, the parabola on 3, as scipy's CubicSpline."""
    x, y = np.asarray(x, float), np.array(columns, float)
    dx = np.diff(x)[:, None]
    slope = np.diff(y.T, axis=0) / dx
    s = np.vstack([slope, slope]) if x.size == 2 else _slopes(x, dx, slope)
    return hermite_splines(x, y, s.T)


def hermite_splines(x, values, slopes) -> list[PiecewisePoly]:
    """Cubic Hermite splines on the knots ``x``, one per row of ``values``
    with the knot slopes of the same row of ``slopes``: each piece's
    coefficients in closed form, no solve, as scipy's CubicHermiteSpline."""
    x, y, s = (np.asarray(a, float) for a in (x, values, slopes))
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(s).all()):
        raise ValueError("spline knots, values and slopes must be finite")
    dx = np.diff(x)
    slope = np.diff(y, axis=1) / dx
    t = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
    c = np.stack([t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1], y[:, :-1]], axis=1)
    return [PiecewisePoly(x, cj) for cj in c]


def _slopes(x, dx, slope) -> np.ndarray:
    """Knot slopes from scipy's tridiagonal system: on 3 knots the parabola's,
    else not-a-knot.  Elimination runs without pivoting: the rows between
    the two end conditions are diagonally dominant."""
    h = dx[:, 0]
    b = np.empty((x.size, slope.shape[1]))
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    if x.size == 3:
        diag, upper, lower = [1.0, 2 * (h[0] + h[1]), 1.0], [1.0, h[0]], [h[1], 1.0]
        b[0], b[-1] = 2 * slope[0], 2 * slope[1]
    else:
        diag = [h[1], *(2 * (h[:-1] + h[1:])).tolist(), h[-2]]
        upper = [x[2] - x[0], *h[:-1].tolist()]
        lower = [*h[1:].tolist(), x[-1] - x[-3]]
        d = x[2] - x[0]
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    factors = []
    for k in range(x.size - 1):
        factors.append(lower[k] / diag[k])
        diag[k + 1] -= factors[-1] * upper[k]
    out = []
    for col in b.T.tolist():  # plain floats: a per-row numpy call costs more
        for k, f in enumerate(factors):
            col[k + 1] -= f * col[k]
        col[-1] /= diag[-1]
        for k in range(x.size - 2, -1, -1):
            col[k] = (col[k] - upper[k] * col[k + 1]) / diag[k]
        out.append(col)
    return np.array(out).T


def _simpson_pieces(y, dx) -> np.ndarray:
    """Simpson integral over each first interval of the pairs (dx_i, dx_i+1)."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      + -x21x21_x31x32 * y[2:])


def cumulative_simpson(y, x) -> np.ndarray:
    """int_x[0]^x[i] y for every i, from 0: each interval's integral comes
    from the parabola through it and a neighbour (trapezoid on 2 points)."""
    y, dx = np.asarray(y, float), np.diff(x)
    if y.size < 3:
        pieces = dx * (y[1:] + y[:-1]) / 2.0
    else:
        forward = _simpson_pieces(y, dx)
        backward = _simpson_pieces(y[::-1], dx[::-1])[::-1]
        pieces = np.empty(dx.size)
        pieces[:-1:2] = forward[::2]
        pieces[1::2] = backward[::2]
        pieces[-1] = backward[-1]
    return np.concatenate([[0.0], np.cumsum(pieces)])
