"""Sampled-sign reference for the negativity intervals of a function.

Brackets every sign change of ``fn`` between adjacent samples and refines
it with ``brentq``, independently of the exact spline roots that
``gaussnm.channels`` cuts its intervals at.  A sign flip narrower than the
sample spacing is lost here, so the tests compare on well-sampled grids.
"""

from __future__ import annotations

from scipy.optimize import brentq


def _sign_intervals(ts, vals, fn) -> list[tuple[float, float]]:
    """Maximal intervals where fn < 0, with brentq-refined endpoints."""
    neg = vals < 0.0
    roots = []
    for i in range(len(ts) - 1):
        if neg[i] != neg[i + 1]:
            lo, hi = ts[i], ts[i + 1]
            if fn(lo) == 0.0:
                roots.append(float(lo))
            elif fn(hi) == 0.0:
                roots.append(float(hi))
            else:
                roots.append(float(brentq(fn, lo, hi, xtol=1e-12)))
    edges = [float(ts[0])] + roots + [float(ts[-1])]
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 1e-12:
            continue
        if fn(0.5 * (lo + hi)) < 0.0:
            out.append((lo, hi))
    return out
