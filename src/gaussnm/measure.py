"""Fidelity-backflow non-Markovianity: trajectories, measure, optimization.

The measure of a channel over a family of initial state pairs is the total
fidelity decrease accumulated over all intervals where F(t) falls,
maximized over the pair parameters:

    N = max_P sum_I [ F(P, t+_I) - F(P, t-_I) ]

with [t+_I, t-_I] the I-th decrease interval.  For a divisible map F is
nondecreasing and N = 0.  The coherent and coherent-thermal families are
solved exactly, the squeezing families by batched zoom searches.  The module
also carries the analytic baselines: closed forms for coherent pairs under
both channels and the first-order (small coupling) laws for coherent,
squeezed and coherent-thermal pairs.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import lru_cache

import numpy as np

from .channels import (
    DampingChannel,
    DampingRateSpec,
    QbmChannel,
    damping_x,
    _grid,
    _warn_first_order,
)
from .spectral import ChannelCoefficients
from .states import StatePairParams, fidelity_arrays, pair_invariants

__all__ = [
    "UnsupportedShapeError",
    "NegativityInterval",
    "FidelityTrajectory",
    "MeasureResult",
    "ParamBounds",
    "fidelity_trajectory",
    "backflow_intervals",
    "measure_from_trajectory",
    "maximize_measure",
    "closed_form_coherent_damping",
    "closed_form_coherent_qbm",
    "first_order_coherent",
    "first_order_coherent_thermal",
    "squeezed_response",
    "damping_response",
    "first_order_squeezed",
    "first_order_squeezed_max",
    "measure_record",
    "coherent_pair",
    "squeezed_pair",
]

INV_E = 1.0 / math.e
_NOISE_FLOOR = 1e-14  # ignore grid-level fidelity wiggles below this
_SUBGRID = 65  # samples per extremum bracket (two grid steps)
_GRID_POINTS = (0, 7, 7, 5)  # product-grid points per axis, by family dimension
_CHORD_POINTS, _K_POINTS = 33, 129  # first-grid points of a chord, of the log K range
_ZOOM_LEVELS, _ZOOM_POINTS = 7, 17  # zoom levels after a coarse 1-d grid
_MAX_CHORDS = 8  # chord searches per family parameter, at most
# samples per block of a grid pass: 64 KiB temporaries stay under glibc's 128 KiB
# mmap threshold, so the heap is reused, not grown and trimmed (page faults) per batch
_BATCH_SAMPLES = 2 ** 13


class UnsupportedShapeError(ValueError):
    """The closed form does not apply to this rate/coefficient shape."""


@dataclass(frozen=True)
class NegativityInterval:
    """One fidelity-decrease interval and its backflow contribution."""

    t_plus: float
    t_minus: float
    contribution: float

    def __post_init__(self):
        if not self.t_plus < self.t_minus:
            raise ValueError("interval must have t_plus < t_minus")
        if self.contribution < -1e-12:
            raise ValueError("contribution must be non-negative")


@dataclass(frozen=True, eq=False)
class FidelityTrajectory:
    """Fidelity samples for one evolved pair plus refined local extrema.

    ``extrema`` holds (t, F(t), kind) with kind +1 for maxima, -1 for
    minima.  Each is refined on a 65-point sub-grid over its two-step
    bracket plus a parabolic vertex through the best sample and its
    neighbours, which replaces that sample wherever it scores higher: at a
    smooth extremum F is exact to rounding and t lies within one sub-grid
    step (two grid steps / 64).  At a kink the vertex often wins too, on a
    flank of the kink, so there F carries the samples' rounding times the
    slope.
    """

    times: np.ndarray
    fidelities: np.ndarray
    extrema: tuple
    channel: str
    params: StatePairParams


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """Outcome of a measure evaluation: value, argmax and diagnostics."""

    value: float
    argmax: StatePairParams
    intervals: tuple
    method: str
    diagnostics: dict = field(default_factory=dict)
    family: str = ""
    channel: str = ""
    alpha: float = float("nan")
    temperature: float | None = None
    omega0: float | None = None
    omega_c: float | None = None

    def __post_init__(self):
        if self.value < -1e-12:
            raise ValueError("measure value must be non-negative")
        object.__setattr__(self, "value", max(float(self.value), 0.0))
        object.__setattr__(self, "intervals", tuple(self.intervals))


@dataclass(frozen=True)
class ParamBounds:
    """Optimizer search box, motivated by experimentally accessible states."""

    beta_max: float = 6.0
    r_max: float = 5.0
    n_max: float = 5.0

    def __post_init__(self):
        for name in ("beta_max", "r_max", "n_max"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not self.beta_max > 0.0:  # the displacement searches start at 1e-9
            raise ValueError(f"beta_max must be > 0, got {self.beta_max}")

    @property
    def k_max(self) -> float:
        return 2.0 * self.beta_max ** 2


def coherent_pair(k: float) -> StatePairParams:
    """Coherent pair with squared half-distance K: (|beta| = sqrt(2K), vacuum)."""
    if k < 0.0:
        raise ValueError("K must be >= 0")
    return StatePairParams(beta1_mag=math.sqrt(2.0 * k))


def squeezed_pair(r1: float, r2: float, phi: float) -> StatePairParams:
    """Squeezed-vacuum pair with relative squeezing angle phi."""
    return StatePairParams(r1=r1, r2=r2, phi1=phi, phi2=0.0)


def _filled_signs(up: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``up`` (each row's rising steps), in place, with every ``flat`` (zero)
    step taking the nearest earlier nonzero step's direction, else the
    first's; only rows with a zero step are touched."""
    for r in np.flatnonzero(flat.any(axis=1)):
        nz = np.flatnonzero(~flat[r])
        if nz.size:  # a row of zero steps rises nowhere and so turns nowhere
            last = np.searchsorted(nz, np.arange(up.shape[1]), side="right") - 1
            up[r] = up[r, nz[np.maximum(last, 0)]]
    return up


def _brackets(fvals: np.ndarray):
    """(row, i, kind) of each turn of the rows of fvals between the steps i
    and i + 1 (kind +1 after a rise, -1 after a fall) where either step
    reaches _NOISE_FLOOR; found by comparing values, not differencing."""
    low, high = fvals[:, :-1], fvals[:, 1:]
    up = _filled_signs(high > low, high == low)
    row, idx = np.divmod(np.flatnonzero(up[:, 1:] != up[:, :-1]), up.shape[1] - 1)
    f0, f1, f2 = (fvals[row, idx + k] for k in range(3))
    keep = np.maximum(np.abs(f1 - f0), np.abs(f2 - f1)) >= _NOISE_FLOOR
    row, idx = row[keep], idx[keep]
    return row, idx, np.where(up[row, idx], 1, -1)


def _grid_extrema(ts: np.ndarray, count: int, fid, maps_of):
    """(row, t, F, kind) of the points of each of ``count`` rows, in order:
    (ts[0], 0), its refined grid extrema (kind +1 or -1) and (ts[-1], 0).

    ``fid(rows)`` gives F on ts of a block of rows (a slice), at most
    _BATCH_SAMPLES samples.  A turn of a row after step i (``_brackets``)
    brackets an extremum in [ts[i], ts[i + 2]].  All brackets are sampled on
    one _SUBGRID-point sub-grid, then at the parabolic vertex around each
    best sample (its shift clipped to one sub-step, inside the bracket),
    which replaces that sample where better.  ``fid(rows, maps)`` gives F of
    the rows ``rows`` (B,) from maps (B, S) of ``maps_of(t)``, one row of
    times t per bracket.  Brackets of many rows share a start i, so the
    sub-grid maps are taken once per distinct start and gathered per bracket.
    """
    size = max(1, _BATCH_SAMPLES // ts.size)
    ends, found = np.empty((count, 2)), [(np.zeros(0, dtype=int),) * 3]
    for i in range(0, count, size):
        fvals = fid(slice(i, i + size))
        ends[i:i + size] = fvals[:, [0, -1]]
        row, idx, kinds = _brackets(fvals)
        found.append((row + i, idx, kinds))
    row, idx, kinds = map(np.concatenate, zip(*found))
    t_out = f_out = np.zeros(0)
    if idx.size:
        starts, at = np.unique(idx, return_inverse=True)
        lo = ts[starts]
        step = (ts[starts + 2] - lo) / (_SUBGRID - 1)
        sub_t = lo[:, None] + step[:, None] * np.arange(_SUBGRID)
        sub_f = fid(row, tuple(m[at] for m in maps_of(sub_t)))
        # signed so that every bracket is a maximization
        signed = kinds[:, None] * sub_f
        brackets = np.arange(idx.size)
        best = np.argmax(signed, axis=1)
        mid = np.clip(best, 1, _SUBGRID - 2)
        f_m, f_0, f_p = (signed[brackets, mid + k] for k in (-1, 0, 1))
        curv = f_m - 2.0 * f_0 + f_p
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = np.where(curv < 0.0, 0.5 * (f_m - f_p) / curv, 0.0)
        t_v = sub_t[at, mid] + np.clip(shift, -1.0, 1.0) * step[at]
        f_v = fid(row, maps_of(t_v[:, None]))[:, 0]
        take = kinds * f_v > signed[brackets, best]
        t_out = np.where(take, t_v, sub_t[at, best])
        f_out = np.where(take, f_v, sub_f[brackets, best])
    rows, zero = np.arange(count), np.zeros(count, dtype=int)
    order = np.argsort(np.concatenate([rows, row, rows]), kind="stable")
    return tuple(np.concatenate(p)[order] for p in ((rows, row, rows),
                 (np.full(count, ts[0]), t_out, np.full(count, ts[-1])),
                 (ends[:, 0], f_out, ends[:, 1]), (zero, kinds, zero)))


def _invariants_of(pairs) -> np.ndarray:
    """``pair_invariants`` (8, P) of a list of StatePairParams."""
    return pair_invariants(*np.reshape([astuple(p) for p in pairs], (-1, 10)).T)


def _fid(inv, grid_maps):
    """``fid(rows, maps=None)``: F of the pairs ``inv[:, rows]`` on the grid
    (``grid_maps``), or from ``maps``.  F is taken on the physical branch:
    the exact QBM solution can dip a hair below the Heisenberg floor at
    finite coupling, and the first-order maps do so by construction."""
    def fid(rows, maps=None):
        return fidelity_arrays(inv[:, rows], grid_maps if maps is None else maps,
                               branch=True)

    return fid


def fidelity_trajectory(pair: StatePairParams, channel, times) -> FidelityTrajectory:
    """Fidelity of the evolved pair on a grid, with refined extrema: one
    pair's ``_grid_extrema`` pass."""
    ts = _grid(times)
    fid = _fid(_invariants_of([pair]), channel.maps(ts))
    fvals = fid(slice(None))
    _, *points = _grid_extrema(ts, 1, lambda rows, maps=None:
                               fvals[rows] if maps is None else fid(rows, maps),
                               channel.maps)
    extrema = tuple(ext for ext in zip(*(p.tolist() for p in points)) if ext[2])
    return FidelityTrajectory(times=ts, fidelities=fvals[0], extrema=extrema,
                              channel=channel.tag, params=pair)


def backflow_intervals(traj: FidelityTrajectory) -> list[NegativityInterval]:
    """Fidelity-decrease intervals with their contributions F(t+) - F(t-)."""
    pts = [(float(traj.times[0]), float(traj.fidelities[0]))]
    pts += [(t, f) for t, f, _ in traj.extrema]
    pts.append((float(traj.times[-1]), float(traj.fidelities[-1])))
    out = []
    for (t_a, f_a), (t_b, f_b) in zip(pts[:-1], pts[1:]):
        drop = f_a - f_b
        if drop > 0.0 and t_b > t_a:
            out.append(NegativityInterval(t_plus=t_a, t_minus=t_b, contribution=drop))
    return out


def measure_from_trajectory(traj: FidelityTrajectory) -> float:
    """Total backflow: sum of F(t+) - F(t-) over decrease intervals."""
    return float(sum(iv.contribution for iv in backflow_intervals(traj)))


# ---------------------------------------------------------------------------
# numeric maximization
# ---------------------------------------------------------------------------

_FAMILIES = ("coherent", "squeezed", "coherent_thermal", "general_pure")


def _zoom_max(f, lo: float, hi: float, points: int) -> tuple[float, float, float]:
    """(x, f(x), best value of the first grid) of a batched zoom of [lo, hi].

    ``f`` maps an array of abscissae to their values, each independent of
    the others in the array.  A ``points``-point grid over [lo, hi] is
    followed by _ZOOM_LEVELS levels of _ZOOM_POINTS points, each spanning
    one previous step either side of the best x.  A level's centre and ends
    are often points scored before, and no point scored before beats the
    best value, so a level sends ``f`` only the points it has not scored.
    """
    xs = np.linspace(lo, hi, points)
    vals = f(xs)
    j = int(np.argmax(vals))
    best_x, best_val, coarse = xs[j], vals[j], vals[j]
    scored = set(xs[max(j - 1, 0):j + 2].tolist())  # all of the grid the first level spans
    for _ in range(_ZOOM_LEVELS):
        half = xs[1] - xs[0]
        xs = np.linspace(max(lo, best_x - half), min(hi, best_x + half), _ZOOM_POINTS)
        keys = xs.tolist()
        new = xs[[x not in scored for x in keys]]
        if new.size:  # else a zero-width box, all one point
            scored.update(keys)
            vals = f(new)
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_x, best_val = new[j], vals[j]
    return float(best_x), float(best_val), float(coarse)


def _family_space(family: str, bounds: ParamBounds, phi: float,
                  equal_squeezing: bool):
    """(box, chord directions, vectors (..., D) -> the ``StatePairParams``
    fields of their pairs, as a pair stores them)."""
    ph = StatePairParams(phi1=phi).phi1  # checked and reduced as a pair stores it
    if family == "squeezed":
        if equal_squeezing:
            dims, dirs = [(0.0, bounds.r_max)], [[1.0]]
        else:
            # N(r1, r2) = N(r2, r1) (a joint rotation and reflection swap the
            # pair and commute with the channels), so on the diagonal a
            # maximum along both (1, 1) and (1, -1) is one in (r1, r2)
            dims, dirs = [(0.0, bounds.r_max)] * 2, [[1.0, 1.0], [1.0, -1.0]]

        def params(v):  # v[..., -1] is v[..., 0] with equal squeezing
            return {"r1": v[..., 0], "r2": v[..., -1], "phi1": ph}
    elif family == "general_pure":
        dims = [(1e-9, 2.0 * bounds.beta_max), (0.0, math.pi),
                (0.0, bounds.r_max), (0.0, bounds.r_max)]
        dirs = np.eye(4)

        def params(v):  # theta reduced as a pair stores it
            return {"beta1_mag": v[..., 0], "theta1": v[..., 1] % (2.0 * math.pi),
                    "r1": v[..., 2], "r2": v[..., 3], "phi1": ph}
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {_FAMILIES}")
    return dims, np.asarray(dirs, dtype=float), params


def _k_optimum(a_lo: float, a_hi: float) -> tuple[float, float]:
    """(K, e^{-K a_lo} - e^{-K a_hi}) at the K = ln(a_hi / a_lo) / (a_hi - a_lo)
    that maximizes one drop; as a_hi -> a_lo, K -> 1 / a_lo and the drop -> 0.
    A closed form's a can fall over its interval: that drop is clamped to 0.
    A rise from a_lo = 0 has no finite optimum: the drop 1 - e^{-K a_hi}
    grows towards 1 with K, so K = inf (callers clip it to their box)."""
    if a_lo <= 0.0:
        return math.inf, 1.0
    if abs(a_hi - a_lo) < 1e-15:
        return 1.0 / a_lo, 0.0
    k = math.log(a_hi / a_lo) / (a_hi - a_lo)
    return k, max(math.exp(-k * a_lo) - math.exp(-k * a_hi), 0.0)


def _coherent_optimum(channel, ts, grid_maps, edges, k_max: float,
                      ns) -> np.ndarray:
    """(N, K) of coherent-thermal pairs at each occupation in ns, one row each.

    Two displaced thermal states with one occupation n share one isotropic
    covariance, so on the physical branch F(t) = exp(-K a_n(t)), with
    a_n = m^2 / ((2n + 1) c + 2 n_map); n = 0 is the coherent family.  F
    falls where a_n rises, for every K: the rises are the ``_falls`` of -a_n
    (exact negatives, on either route).  Each contributes
    e^{-K a_lo} - e^{-K a_hi}, peaking at its own K_I.  A row's optimum lies
    between its extreme K_I (inside [1e-9, k_max]), and is zoomed in on in
    log K.
    """
    ns = np.asarray(ns, dtype=float)[:, None]

    def minus_a(rows, maps=None):  # -a_n of the rows on the grid, or from maps
        m, c, n = grid_maps if maps is None else maps
        return -(m * m / ((2.0 * ns[rows] + 1.0) * c + 2.0 * n))

    row, _, _, lows, highs = _falls(minus_a, len(ns), channel, ts, edges)
    out = []
    for i in range(len(ns)):
        rises = row == i
        if not rises.any():
            out.append((0.0, 1.0))  # no backflow; K = 1 is the first-order optimum
            continue
        a_lo, a_hi = -lows[rises], -highs[rises]
        k_opt = np.clip([_k_optimum(*r)[0] for r in zip(a_lo, a_hi)], 1e-9, k_max)
        k_lo, ratio = k_opt.min(), k_opt.max() / k_opt.min()

        def total(u):  # K = k_lo ratio^u, geometric in u on [0, 1]
            k = k_lo * ratio ** u[:, None]
            return np.sum(np.exp(-k * a_lo) - np.exp(-k * a_hi), axis=-1)

        u, value, _ = _zoom_max(total, 0.0, 1.0, _K_POINTS)
        out.append((value, float(k_lo * ratio ** u)))
    return np.array(out)


def _edge_maps(channel, ts):
    """(times, maps) of exact damping at t+_I, t-_I of each gamma < 0
    interval I cut to [ts[0], ts[-1]], or None (grid route).  From x1 to
    x2 >= x1 exact damping is exact damping by x2 - x1, CPTP, so F = G(x)
    with G non-decreasing and N(pair) = sum_I max(F(t+_I) - F(t-_I), 0) if
    x >= 0 (physical states): c = e^{-x} <= 1 is checked where x is least,
    at ts[0] and each t-_I."""
    if not isinstance(channel, DampingChannel) or channel.mode != "exact":
        return None
    edges = [max(t, ts[0]) for iv in channel.rate.negativity_intervals(ts[-1])
             if iv[1] > ts[0] for t in iv] or [ts[0], ts[0]]  # no I: N = 0
    m, c, n = channel.maps([ts[0], *edges])
    return (np.array(edges), (m[1:], c[1:], n[1:])) if (c <= 1.0).all() else None


def _falls(fid, count: int, channel, ts, edges):
    """(row, t+, t-, v(t+), v(t-)) of every fall of the values ``fid`` gives
    each of ``count`` rows (as ``_grid_extrema`` asks), by row, then in time.

    The one choice between edges and grid: with ``_edge_maps``' (times,
    maps) as ``edges`` the values are read once at the edges, and fall over
    the intervals where v(t+) > v(t-); else a fall joins two consecutive
    ``_grid_extrema`` points of a row where t rises and the value falls
    (``backflow_intervals``' rule).
    """
    if edges is not None:
        t, maps = edges
        v = fid(slice(None), maps)
        hi, lo = v[:, ::2], v[:, 1::2]
        fall = hi > lo
        row, k = np.nonzero(fall)
        return row, t[::2][k], t[1::2][k], hi[fall], lo[fall]
    row, t, v, _ = _grid_extrema(ts, count, fid, channel.maps)
    take = (v[:-1] > v[1:]) & (t[1:] > t[:-1]) & (row[1:] == row[:-1])
    return row[1:][take], t[:-1][take], t[1:][take], v[:-1][take], v[1:][take]


def _pair_measures(inv, channel, ts, grid_maps, edges) -> np.ndarray:
    """N of each pair of the invariants ``inv`` (8, P), with no trajectory
    built: ``bincount`` adds each pair's ``_falls`` drops in time order from
    0.0, bit for bit ``measure_from_trajectory``'s builtin ``sum``."""
    count = inv.shape[1]
    row, _, _, f_plus, f_minus = _falls(_fid(inv, grid_maps), count, channel, ts, edges)
    return np.bincount(row, f_plus - f_minus, minlength=count)


def _numeric_optimum(family: str, channel, ts, grid_maps, edges, bounds,
                     phi, equal_squeezing):
    """(N, argmax, diagnostics) of a family by batched chord zooms.

    Each batch is one ``_pair_measures`` call on invariants built straight
    from the search vectors' parameter fields, and the argmax is the pair of
    the best vector's fields.  From the best point of a coarse product grid,
    or from the lower end of a one-parameter box, ``_zoom_max`` searches the
    box's chords through the best point along the family's directions in
    turn, until every direction has been searched from the current best
    without improving it (at most _MAX_CHORDS each).
    """
    dims, dirs, params = _family_space(family, bounds, phi, equal_squeezing)
    lo, hi = np.array(dims).T

    def measures(vecs) -> np.ndarray:
        inv = pair_invariants(**params(np.clip(vecs, lo, hi)))
        return _pair_measures(inv, channel, ts, grid_maps, edges)

    n_per_dim = _GRID_POINTS[len(dims) - 1]
    axes = [np.linspace(a, b, n_per_dim) for a, b in dims]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    if family == "squeezed" and not equal_squeezing:
        # the maximum sits on (or next to) the equal-squeezing ridge, which
        # a coarse product grid samples poorly; scan the diagonal too
        diag = np.linspace(lo[0], hi[0], 4 * n_per_dim + 1)
        grid = np.concatenate([grid, np.stack([diag, diag], axis=-1)])
    vals = np.append(measures(grid), -math.inf)  # lo: a box without a grid
    j = int(np.argmax(vals))
    best_vec, best_val = np.vstack([grid, lo])[j], float(vals[j])
    chords, searched, zoomed = 0, 0, False
    while searched < len(dirs) and chords < _MAX_CHORDS * len(dims):
        d = dirs[chords % len(dirs)]
        moving = d != 0.0
        ends = (np.array([lo, hi])[:, moving] - best_vec[moving]) / d[moving]
        s, val, coarse = _zoom_max(lambda t: measures(best_vec + t[:, None] * d),
                                   ends.min(axis=0).max(), ends.max(axis=0).min(),
                                   _CHORD_POINTS)
        chords += 1
        # gains below 1e-12 are rounding: near the vacuum the kernel's pure-state
        # error alone gives a divisible damping map N ~ 4e-14
        zoomed |= val > coarse + 1e-12 * (1.0 + coarse)
        if val > best_val:
            best_vec, best_val, searched = np.clip(best_vec + s * d, lo, hi), val, 0
        searched += 1
    diagnostics = {"grid_evaluations": len(grid) + chords * _CHORD_POINTS,
                   "restarts": 0, "iterations": chords * _ZOOM_LEVELS,
                   "function_evaluations": len(grid) + chords * (
                       _CHORD_POINTS + _ZOOM_LEVELS * _ZOOM_POINTS),
                   "stagnation": not zoomed,
                   "argmax_vector": [float(v) for v in best_vec]}
    return best_val, StatePairParams(**params(best_vec)), diagnostics


def maximize_measure(family: str, channel, *, bounds: ParamBounds | None = None,
                     phi: float = 0.1, equal_squeezing: bool = False,
                     times=None) -> MeasureResult:
    """Maximize the backflow measure over a family of initial pairs.

    Coherent pairs reduce to the scalar K, solved exactly (``"exact"``);
    coherent-thermal pairs add a common occupation n, a batched zoom over
    exact solves in n, also ``"exact"``.  The squeezing families search by
    batched chord zooms (``"numeric_opt"``): squeezed pairs reduce to
    (r1, r2) at fixed relative angle ``phi``, or to a single r with
    ``equal_squeezing``; the families with several parameters start from a
    coarse product grid.  On exact damping a pair or an occupation costs
    two samples per gamma < 0 interval (``_edge_maps``), elsewhere one grid
    pass in small blocks (``_grid_extrema``).  ``intervals`` are the
    argmax's ``_falls``, each (t+, t-, F(t+) - F(t-)).  A first-order
    channel whose |x| = |1 - c| exceeds FIRST_ORDER_X_LIMIT on the grid
    raises one ApproximationWarning; one that reaches c <= 0 is rejected
    with a ValueError for the squeezing families.
    """
    bounds = bounds or ParamBounds()
    if times is None:
        times = np.linspace(0.0, channel.t_max, 2001)
    ts = _grid(times)
    grid_maps = channel.maps(ts)
    coherent = family in ("coherent", "coherent_thermal")
    c_min = grid_maps[1].min()
    if not coherent and channel.mode == "first_order" and c_min <= 0.0:
        raise ValueError(f"first-order maps reach c = 1 - x = {c_min:.3g} <= 0, "
                         "outside their domain; use mode='exact' or a smaller alpha")
    _warn_first_order(channel, grid_maps, stacklevel=2)
    edges = _edge_maps(channel, ts)
    if coherent:
        def optima(ns):
            return _coherent_optimum(channel, ts, grid_maps, edges,
                                     bounds.k_max, ns)

        # N(n) is not monotone under first-order maps: search n too
        n = 0.0 if family == "coherent" else _zoom_max(
            lambda ns: optima(ns)[:, 0], 0.0, bounds.n_max, _CHORD_POINTS)[0]
        (value, k), = optima([n])
        argmax = StatePairParams(n1=n, n2=n, beta1_mag=math.sqrt(2.0 * k))
        method = "exact"
        diagnostics = {"grid_evaluations": 0, "restarts": 0, "iterations": 0,
                       "function_evaluations": 0, "stagnation": False,
                       "argmax_vector": [float(k)] if family == "coherent"
                       else [float(k), n]}
    else:
        value, argmax, diagnostics = _numeric_optimum(
            family, channel, ts, grid_maps, edges, bounds, phi, equal_squeezing)
        method = "numeric_opt"
    _, t_plus, t_minus, f_plus, f_minus = _falls(
        _fid(_invariants_of([argmax]), grid_maps), 1, channel, ts, edges)
    intervals = map(NegativityInterval, t_plus.tolist(), t_minus.tolist(),
                    (f_plus - f_minus).tolist())
    return MeasureResult(value=value, argmax=argmax, intervals=intervals,
                         method=method, diagnostics=diagnostics,
                         family=family, channel=channel.tag,
                         alpha=channel.alpha, **_env_fields(channel))


def _env_fields(channel) -> dict:
    env = getattr(getattr(channel, "coeffs", None), "env", None)
    if env is None:
        return {"temperature": None, "omega0": None, "omega_c": None}
    return {"temperature": env.temperature, "omega0": env.omega0,
            "omega_c": env.omega_c}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def closed_form_coherent_damping(alpha: float, spec: DampingRateSpec,
                                 t_max: float = 8.0 * math.pi) -> MeasureResult:
    """Exact maximal coherent-pair measure for a single-negativity rate.

    With x+ = x(t+), x- = x(t-) the decay exponents at the interval edges,
    the optimum is K = (x- - x+) / (e^{-x+} - e^{-x-}) and the measure is
    exp(-K e^{-x+}) - exp(-K e^{-x-}).
    """
    intervals = spec.negativity_intervals(t_max)
    if len(intervals) != 1:
        raise UnsupportedShapeError(
            f"rate has {len(intervals)} negativity intervals in [0, {t_max:g}]; "
            "the closed form needs exactly one (use maximize_measure instead)"
        )
    (tp, tm), = intervals
    xp = float(damping_x(tp, alpha, spec))
    xm = float(damping_x(tm, alpha, spec))
    k, value = _k_optimum(math.exp(-xp), math.exp(-xm))
    return MeasureResult(
        value=value, argmax=coherent_pair(k),
        intervals=[NegativityInterval(tp, tm, value)] if tm > tp else (),
        method="closed_form", diagnostics={"K": k, "x_plus": xp, "x_minus": xm},
        family="coherent", channel="damping", alpha=alpha,
    )


def closed_form_coherent_qbm(coeffs: ChannelCoefficients,
                             interval: tuple[float, float]) -> MeasureResult:
    """Coherent-pair closed form for QBM on one diffusion-negativity interval.

    Uses the weak-coupling fidelity exp(-P e^{-x} / (e^{-x} + y)); the
    optimal squared half-distance P and the measure follow from the values
    of x, y at the interval edges.
    """
    channel = QbmChannel(coeffs)
    prop = channel.propagator
    tp, tm = float(interval[0]), float(interval[1])
    prop.check_t([tp, tm])
    if not tp < tm:
        raise ValueError("interval must satisfy t_plus < t_minus")
    if float(coeffs.delta_spline()(0.5 * (tp + tm))) >= 0.0:
        raise UnsupportedShapeError(
            "interval is not a diffusion-negativity interval"
        )
    probe = np.linspace(tp, tm, 101)
    wall = np.exp(-prop.x(probe)) + prop.y(probe)
    if np.any(wall <= 0.0):
        raise ValueError("unphysical table: e^{-x(t)} + y(t) <= 0 on the interval")
    xp, xm = float(prop.x(tp)), float(prop.x(tm))
    yp, ym = float(prop.y(tp)), float(prop.y(tm))
    p, value = _k_optimum(math.exp(-xp) / (math.exp(-xp) + yp),
                          math.exp(-xm) / (math.exp(-xm) + ym))
    return MeasureResult(
        value=value, argmax=coherent_pair(p),
        intervals=[NegativityInterval(tp, tm, value)],
        method="closed_form",
        diagnostics={"P": p, "x_plus": xp, "x_minus": xm, "y_plus": yp, "y_minus": ym},
        family="coherent", channel="qbm", alpha=coeffs.alpha,
        **_env_fields(channel),
    )


# ---------------------------------------------------------------------------
# first-order (weak-coupling) laws
# ---------------------------------------------------------------------------

def _total_backflow(channel) -> float:
    """Sum of the channel's positive exponent backflows."""
    return sum(max(b, 0.0) for _, _, b in channel.exponent_backflows())


def first_order_coherent(channel) -> float:
    """First-order coherent measure: (2/e) alpha |int_{coeff<0} coeff dt|.

    The governing coefficient is the damping rate for the damping channel
    and the diffusion coefficient for QBM.  Expressed through the
    cumulative exponent backflows this is sum_I (x+ - x-)_I / e, which is
    zero when there is no negativity region.
    """
    return INV_E * _total_backflow(channel)


def first_order_coherent_thermal(n: float, channel) -> float:
    """Coherent-thermal first-order measure: pure-state value over (2n + 1)."""
    if n < 0.0:
        raise ValueError("thermal occupation must be >= 0")
    return first_order_coherent(channel) / (2.0 * n + 1.0)


def _pure_response(r1: float, r2: float, phi: float, dc: float,
                   dn: float) -> float:
    """dF/dh at h = 0 for a squeezed-vacuum pair on sigma_i(h) = c sigma_i + n I.

    c(0) = 1, n(0) = 0, c' = dc, n' = dn.  On the physical branch of
    fidelity_arrays, with S = sigma_1 + sigma_2 and g_i = dc/2 + dn tr sigma_i,
    dF/dh = -(a - b) / (4 (det S)^(3/4)): a = (det S)' / sqrt(det S) with
    (det S)' = 2 dc det S + 2 dn tr S, and b = 4 sqrt(g_1 g_2) with the sign
    of g_1 + g_2 (the branch root is 4 h sqrt(g_1 g_2) to first order).
    For pure states tr sigma_i = cosh 2r_i and det S = cosh^2(r1 - r2) + u,
    u = sinh 2r1 sinh 2r2 sin^2(phi/2).  a and b nearly cancel for similar
    states, so when they share a sign a - b = (a^2 - b^2) / (a + b), with
    (a^2 - b^2) det S / 4 = (dc^2 - 4 dn^2)(sinh^2(2(r1 - r2)) / 4
    + u cosh 2r1 cosh 2r2) - dc^2 u sinh 2r1 sinh 2r2 cos^2(phi/2).
    """
    c1, c2 = math.cosh(2.0 * r1), math.cosh(2.0 * r2)
    s12 = math.sinh(2.0 * r1) * math.sinh(2.0 * r2)
    u = s12 * math.sin(0.5 * phi) ** 2
    det_s = math.cosh(r1 - r2) ** 2 + u
    g1, g2 = 0.5 * dc + dn * c1, 0.5 * dc + dn * c2
    a = 2.0 * (dc * det_s + dn * (c1 + c2)) / math.sqrt(det_s)
    b = math.copysign(4.0 * math.sqrt(max(g1 * g2, 0.0)), g1 + g2)
    if a * b > 0.0:
        quarter = ((dc * dc - 4.0 * dn * dn)
                   * (0.25 * math.sinh(2.0 * (r1 - r2)) ** 2 + u * c1 * c2)
                   - dc * dc * u * s12 * math.cos(0.5 * phi) ** 2)
        diff = 4.0 * quarter / det_s / (a + b)
    else:
        diff = a - b
    return -diff / (4.0 * det_s ** 0.75)


def squeezed_response(r1: float, r2: float, phi: float) -> tuple[float, float]:
    """(S_gamma, S_delta): fidelity response of a squeezed pair at t = 0.

    Exact derivatives of the fidelity along the weak-coupling surface
    sigma_i(x, y) = (1 - x) sigma_i(0) + y I / 2, on the smooth physical
    branch.  S_gamma is the x-derivative (damping response), S_delta the
    y-derivative (diffusion response); the first-order decrease of F where
    the diffusion turns negative is S_delta * dy.
    """
    return (_pure_response(r1, r2, phi, -1.0, 0.0),
            _pure_response(r1, r2, phi, 0.0, 0.5))


def damping_response(r1: float, r2: float, phi: float) -> float:
    """dF/dx at x = 0 for a squeezed pair under the damping channel.

    Exact derivative on the damping surface sigma_i(x) = e^{-x} sigma_i(0)
    + (1 - e^{-x}) I / 2 (smooth branch); the independent check of the
    printed g1 coefficient.
    """
    return _pure_response(r1, r2, phi, -1.0, 0.5)


def first_order_squeezed(channel, r1: float, r2: float, phi: float) -> float:
    """First-order squeezed measure: the pair's response times the backflow."""
    return (_pure_response(r1, r2, phi, *channel.response_direction)
            * _total_backflow(channel))


def first_order_squeezed_max(channel, phi: float,
                             r_max: float = 5.0) -> tuple[float, float]:
    """(measure, argmax r) of the first-order squeezed law, r1 = r2 = r."""
    r_star, response = _equal_response_max(phi, channel.response_direction, r_max)
    return response * _total_backflow(channel), r_star


@lru_cache(maxsize=64)
def _equal_response_max(phi: float, direction: tuple, r_max: float):
    """(r, response) of the largest equal-squeezing response: it does not
    depend on the coupling, so a sweep zooms once per key and process."""
    def responses(rs):
        return np.array([_pure_response(r, r, phi, *direction) for r in rs])

    r_star, response, _ = _zoom_max(responses, 0.0, r_max, _CHORD_POINTS)
    return r_star, response


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_RECORD_HEADER = ("family,channel,alpha,T,omega0,omega_c,value,method,"
                  "param_K,param_n,param_r1,param_r2,param_phi")


def _pair_k(p: StatePairParams) -> float:
    b1 = p.beta1_mag * np.exp(1j * p.theta1)
    b2 = p.beta2_mag * np.exp(1j * p.theta2)
    return 0.5 * float(abs(b1 - b2)) ** 2


def measure_record(result: MeasureResult) -> tuple[str, str]:
    """(header, row) CSV record for a measure result, 12 significant digits."""
    p = result.argmax

    def num(v):
        return "" if v is None else f"{v:.12g}"

    rel_phi = (p.phi1 - p.phi2) % (2.0 * math.pi)
    row = ",".join([
        result.family, result.channel, num(result.alpha),
        num(result.temperature), num(result.omega0), num(result.omega_c),
        num(result.value), result.method,
        num(_pair_k(p)), num(p.n1), num(p.r1), num(p.r2), num(rel_phi),
    ])
    return _RECORD_HEADER, row
