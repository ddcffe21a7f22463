"""Fidelity-backflow non-Markovianity: trajectories, measure, optimization.

The measure of a channel over a family of initial state pairs is the total
fidelity decrease accumulated over all intervals where F(t) falls,
maximized over the pair parameters:

    N = max_P sum_I [ F(P, t+_I) - F(P, t-_I) ]

with [t+_I, t-_I] the I-th decrease interval.  For a divisible map F is
nondecreasing and N = 0.  Besides the numeric optimizer this module carries
the analytic baselines: closed forms for coherent pairs under both channels
and the first-order (small coupling) laws for coherent, squeezed and
coherent-thermal pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .channels import DampingChannel, DampingRateSpec, QbmChannel, damping_x
from .spectral import ChannelCoefficients
from .states import (
    StatePairParams,
    fidelity_arrays,
    fidelity_zero_mean_branch,
    squeezed_thermal_cov,
)

__all__ = [
    "UnsupportedShapeError",
    "NegativityInterval",
    "FidelityTrajectory",
    "MeasureResult",
    "ParamBounds",
    "OptimizerConfig",
    "fidelity_trajectory",
    "backflow_intervals",
    "measure_from_trajectory",
    "maximize_measure",
    "closed_form_coherent_damping",
    "closed_form_coherent_qbm",
    "first_order_coherent",
    "first_order_coherent_thermal",
    "g1_squeezed",
    "squeezed_response",
    "damping_response",
    "first_order_squeezed_qbm",
    "first_order_squeezed_damping",
    "first_order_squeezed_qbm_max",
    "first_order_squeezed_damping_max",
    "first_order_pure_combination",
    "measure_record",
    "coherent_pair",
    "squeezed_pair",
]

INV_E = 1.0 / math.e
_NOISE_FLOOR = 1e-14  # ignore grid-level fidelity wiggles below this
_SUBGRID = 65  # samples per extremum bracket (two grid steps)


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
    bracket plus a parabolic vertex: at a smooth extremum F is exact to
    rounding and t lies within one sub-grid step (two grid steps / 64);
    at a kink F is the best sub-grid sample.
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

    @property
    def k_max(self) -> float:
        return 2.0 * self.beta_max ** 2


@dataclass(frozen=True)
class OptimizerConfig:
    """Coarse grid + multi-start simplex refinement settings."""

    coarse_points: int = 0  # 0 = per-dimension default (9/7/5)
    n_starts: int = 3
    xatol: float = 1e-7
    fatol: float = 1e-13
    max_iter: int = 500


def coherent_pair(k: float) -> StatePairParams:
    """Coherent pair with squared half-distance K: (|beta| = sqrt(2K), vacuum)."""
    if k < 0.0:
        raise ValueError("K must be >= 0")
    return StatePairParams(beta1_mag=math.sqrt(2.0 * k))


def squeezed_pair(r1: float, r2: float, phi: float) -> StatePairParams:
    """Squeezed-vacuum pair with relative squeezing angle phi."""
    return StatePairParams(r1=r1, r2=r2, phi1=phi, phi2=0.0)


class _PairEngine:
    """Shared evolution maps for fast fidelity evaluation of one pair."""

    def __init__(self, channel, times):
        self.channel = channel
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValueError("times must be a 1-d grid")
        self._grid_maps = channel.maps(self.times)
        self._eye = np.eye(2)

    def set_pair(self, pair: StatePairParams):
        s1, s2 = pair.states()
        self.m1, self.c1 = s1.mean, s1.cov
        self.m2, self.c2 = s2.mean, s2.cov

    def _fid(self, maps):
        # physical-branch continuation: the exact QBM solution can dip a
        # hair below the Heisenberg floor at finite coupling, and the
        # first-order maps do so by construction
        mf, cf, nf = maps
        mf = np.asarray(mf, float)
        noise = np.multiply.outer(np.asarray(nf, float), self._eye)
        m1 = mf[..., None] * self.m1
        m2 = mf[..., None] * self.m2
        cf = np.asarray(cf, float)[..., None, None]
        return fidelity_arrays(m1, cf * self.c1 + noise, m2, cf * self.c2 + noise,
                               branch=True)

    def fidelity_grid(self) -> np.ndarray:
        return self._fid(self._grid_maps)

    def fidelity(self, ts) -> np.ndarray:
        """Fidelity at arbitrary times of any shape, with one ``maps`` call."""
        ts = np.asarray(ts, dtype=float)
        return self._fid(self.channel.maps(ts.ravel())).reshape(ts.shape)


def _filled_signs(df: np.ndarray) -> np.ndarray:
    """Signs of df with zeros carried over from the nearest nonzero value."""
    sgn = np.sign(df)
    nz = np.flatnonzero(sgn)
    if nz.size == 0:
        return sgn
    idx = np.zeros(len(sgn), dtype=int)
    idx[nz] = nz
    np.maximum.accumulate(idx, out=idx)
    idx[: nz[0]] = nz[0]
    return sgn[idx]


def _locate_extrema(engine: _PairEngine, fvals: np.ndarray):
    """Refined (t, F, kind) of every grid extremum, batched over brackets.

    Each sign change of the grid differences brackets one extremum in
    [ts[i], ts[i + 2]].  All brackets are sampled on one _SUBGRID-point
    sub-grid, the three-point parabolic vertex around each row's best
    sample is evaluated in one more call, and it replaces that sample only
    where it is better.  The vertex shift is clipped to one sub-step so it
    stays inside the bracket when the best sample sits at a bracket end.
    """
    ts = engine.times
    if ts.size < 3:
        return []
    df = np.diff(fvals)
    sgn = _filled_signs(df)
    idx = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
    idx = idx[np.maximum(np.abs(df[idx]), np.abs(df[idx + 1])) >= _NOISE_FLOOR]
    if idx.size == 0:
        return []
    kinds = np.where(sgn[idx] > 0, 1, -1)
    lo, hi = ts[idx], ts[idx + 2]
    step = (hi - lo) / (_SUBGRID - 1)
    sub_t = lo[:, None] + step[:, None] * np.arange(_SUBGRID)
    sub_f = engine.fidelity(sub_t)
    # signed so that every row is a maximization
    signed = kinds[:, None] * sub_f
    rows = np.arange(idx.size)
    best = np.argmax(signed, axis=1)
    mid = np.clip(best, 1, _SUBGRID - 2)
    f_m, f_0, f_p = (signed[rows, mid + k] for k in (-1, 0, 1))
    curv = f_m - 2.0 * f_0 + f_p
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(curv < 0.0, 0.5 * (f_m - f_p) / curv, 0.0)
    t_v = sub_t[rows, mid] + np.clip(shift, -1.0, 1.0) * step
    f_v = engine.fidelity(t_v)
    take = kinds * f_v > signed[rows, best]
    t_out = np.where(take, t_v, sub_t[rows, best])
    f_out = np.where(take, f_v, sub_f[rows, best])
    return [(float(t), float(f), int(k)) for t, f, k in zip(t_out, f_out, kinds)]


def fidelity_trajectory(pair: StatePairParams, channel, times) -> FidelityTrajectory:
    """Fidelity of the evolved pair on a grid, with refined extrema."""
    engine = _PairEngine(channel, times)
    engine.set_pair(pair)
    fvals = engine.fidelity_grid()
    extrema = _locate_extrema(engine, fvals)
    return FidelityTrajectory(times=engine.times, fidelities=fvals,
                              extrema=tuple(extrema), channel=channel.tag,
                              params=pair)


def _breakpoints(traj: FidelityTrajectory):
    pts = [(float(traj.times[0]), float(traj.fidelities[0]))]
    pts += [(t, f) for t, f, _ in traj.extrema]
    pts.append((float(traj.times[-1]), float(traj.fidelities[-1])))
    return pts


def backflow_intervals(traj: FidelityTrajectory) -> list[NegativityInterval]:
    """Fidelity-decrease intervals with their contributions F(t+) - F(t-)."""
    pts = _breakpoints(traj)
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


def _family_space(family: str, bounds: ParamBounds, phi: float,
                  equal_squeezing: bool):
    if family == "coherent":
        dims = [(1e-9, bounds.k_max)]

        def build(v):
            return coherent_pair(v[0])
    elif family == "squeezed":
        if equal_squeezing:
            dims = [(0.0, bounds.r_max)]

            def build(v):
                return squeezed_pair(v[0], v[0], phi)
        else:
            dims = [(0.0, bounds.r_max), (0.0, bounds.r_max)]

            def build(v):
                return squeezed_pair(v[0], v[1], phi)
    elif family == "coherent_thermal":
        dims = [(1e-9, bounds.k_max), (0.0, bounds.n_max)]

        def build(v):
            n = max(v[1], 0.0)
            return StatePairParams(n1=n, n2=n, beta1_mag=math.sqrt(2.0 * v[0]))
    elif family == "general_pure":
        dims = [(1e-9, 2.0 * bounds.beta_max), (0.0, math.pi),
                (0.0, bounds.r_max), (0.0, bounds.r_max)]

        def build(v):
            return StatePairParams(beta1_mag=v[0], theta1=v[1],
                                   r1=v[2], r2=v[3], phi1=phi, phi2=0.0)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {_FAMILIES}")
    return dims, build


def _coarse_counts(n_dims: int, requested: int) -> int:
    if requested:
        return requested
    return {1: 9, 2: 7, 3: 7}.get(n_dims, 5)


def maximize_measure(family: str, channel, *, bounds: ParamBounds | None = None,
                     optimizer: OptimizerConfig | None = None, phi: float = 0.1,
                     equal_squeezing: bool = False, times=None) -> MeasureResult:
    """Maximize the backflow measure over a family of initial pairs.

    Coarse deterministic grid over the reduced family coordinates, then
    Nelder-Mead refinement from the best ``n_starts`` grid points.  The
    family reductions fix the symmetry freedom: coherent pairs reduce to
    the single scalar K, squeezed pairs to (r1, r2) at fixed relative angle
    ``phi`` (or a single r with ``equal_squeezing``).
    """
    bounds = bounds or ParamBounds()
    cfg = optimizer or OptimizerConfig()
    if times is None:
        times = np.linspace(0.0, channel.t_max, 2001)
    dims, build = _family_space(family, bounds, phi, equal_squeezing)
    engine = _PairEngine(channel, times)

    evaluations = 0

    def objective(vec) -> float:
        nonlocal evaluations
        evaluations += 1
        vec = np.clip(vec, [lo for lo, _ in dims], [hi for _, hi in dims])
        engine.set_pair(build(vec))
        fvals = engine.fidelity_grid()
        pts = [(float(engine.times[0]), float(fvals[0]))]
        pts += [(t, f) for t, f, _ in _locate_extrema(engine, fvals)]
        pts.append((float(engine.times[-1]), float(fvals[-1])))
        return float(sum(max(a[1] - b[1], 0.0) for a, b in zip(pts[:-1], pts[1:])))

    n_per_dim = _coarse_counts(len(dims), cfg.coarse_points)
    axes = [np.linspace(lo, hi, n_per_dim) for lo, hi in dims]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    if family == "squeezed" and not equal_squeezing:
        # the maximum sits on (or next to) the equal-squeezing ridge, which
        # a coarse product grid samples poorly; scan the diagonal too
        diag = np.linspace(dims[0][0], dims[0][1], 4 * n_per_dim + 1)
        grid = np.concatenate([grid, np.stack([diag, diag], axis=-1)])
    grid_vals = np.array([objective(v) for v in grid])
    order = np.argsort(grid_vals)[::-1]
    starts = grid[order[: cfg.n_starts]]
    best_grid = float(grid_vals[order[0]])

    best_val, best_vec = best_grid, np.asarray(grid[order[0]], float)
    iterations = 0
    for start in starts:
        res = minimize(lambda v: -objective(v), np.asarray(start, float),
                       method="Nelder-Mead", bounds=dims,
                       options={"xatol": cfg.xatol, "fatol": cfg.fatol,
                                "maxiter": cfg.max_iter})
        iterations += int(res.nit)
        if -res.fun > best_val:
            best_val, best_vec = float(-res.fun), np.asarray(res.x, float)

    argmax = build(np.clip(best_vec, [lo for lo, _ in dims], [hi for _, hi in dims]))
    traj = fidelity_trajectory(argmax, channel, times)
    intervals = backflow_intervals(traj)
    diagnostics = {
        "grid_evaluations": int(grid.shape[0]),
        "restarts": int(len(starts)),
        "iterations": int(iterations),
        "function_evaluations": int(evaluations),
        "stagnation": bool(best_val <= best_grid * (1.0 + 1e-12) + 1e-15),
        "argmax_vector": [float(v) for v in best_vec],
    }
    return MeasureResult(value=best_val, argmax=argmax, intervals=intervals,
                         method="numeric_opt", diagnostics=diagnostics,
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
    ep, em = math.exp(-xp), math.exp(-xm)
    if abs(ep - em) < 1e-15:
        k = math.exp(xp)
        value = 0.0
    else:
        k = (xm - xp) / (ep - em)
        value = math.exp(-k * ep) - math.exp(-k * em)
    value = max(value, 0.0)
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
    if float(prop.delta(0.5 * (tp + tm))) >= 0.0:
        raise UnsupportedShapeError(
            "interval is not a diffusion-negativity interval"
        )
    probe = np.linspace(tp, tm, 101)
    wall = np.exp(-prop.x(probe)) + prop.y(probe)
    if np.any(wall <= 0.0):
        raise ValueError("unphysical table: e^{-x(t)} + y(t) <= 0 on the interval")
    xp, xm = float(prop.x(tp)), float(prop.x(tm))
    yp, ym = float(prop.y(tp)), float(prop.y(tm))
    gp = math.exp(-xp) / (math.exp(-xp) + yp)
    gm = math.exp(-xm) / (math.exp(-xm) + ym)
    if abs(gp - gm) < 1e-15:
        p = 1.0 / gp
        value = 0.0
    else:
        p = math.log(gp / gm) / (gp - gm)
        value = math.exp(-p * gp) - math.exp(-p * gm)
    value = max(value, 0.0)
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

def first_order_coherent(channel) -> float:
    """First-order coherent measure: (2/e) alpha |int_{coeff<0} coeff dt|.

    The governing coefficient is the damping rate for the damping channel
    and the diffusion coefficient for QBM.  Expressed through the
    cumulative exponent backflows this is sum_I (x+ - x-)_I / e, which is
    zero when there is no negativity region.
    """
    return INV_E * sum(max(b, 0.0) for _, _, b in channel.exponent_backflows())


def first_order_coherent_thermal(n: float, channel) -> float:
    """Coherent-thermal first-order measure: pure-state value over (2n + 1)."""
    if n < 0.0:
        raise ValueError("thermal occupation must be >= 0")
    return first_order_coherent(channel) / (2.0 * n + 1.0)


def g1_squeezed(r: float, phi: float) -> float:
    """State coefficient 8 cosh(2r) (k - sqrt(k)) / k^2 for equal squeezing.

    k(r, phi) = 3 + cos(phi) + cosh(4r)(1 - cos(phi)).  Printed first-order
    coefficient for squeezed pairs under damping; its r -> 0 limit is 1
    even though identical states carry no backflow, so the finite
    difference oracle (damping_response) is authoritative at small r.
    """
    if r < 0.0:
        raise ValueError("squeezing magnitude must be >= 0")
    k = 3.0 + math.cos(phi) + math.cosh(4.0 * r) * (1.0 - math.cos(phi))
    return 8.0 * math.cosh(2.0 * r) * (k - math.sqrt(k)) / k ** 2


def _richardson_central(fn, step: float) -> float:
    d1 = (fn(step) - fn(-step)) / (2.0 * step)
    d2 = (fn(0.5 * step) - fn(-0.5 * step)) / step
    return (4.0 * d2 - d1) / 3.0


def squeezed_response(r1: float, r2: float, phi: float,
                      step: float = 1e-5) -> tuple[float, float]:
    """(S_gamma, S_delta): fidelity response of a squeezed pair at t = 0.

    Central finite differences (Richardson extrapolated) of the fidelity
    along the weak-coupling surface sigma_i(x, y) = (1 - x) sigma_i(0)
    + y I / 2, evaluated on the smooth physical branch.  S_gamma is the
    x-derivative (damping response), S_delta the y-derivative (diffusion
    response); the first-order decrease of F where the diffusion turns
    negative is S_delta * dy.
    """
    c1 = squeezed_thermal_cov(0.0, r1, 0.0)
    c2 = squeezed_thermal_cov(0.0, r2, phi)
    eye = np.eye(2)

    def f_x(h):
        return fidelity_zero_mean_branch((1.0 - h) * c1, (1.0 - h) * c2)

    def f_y(h):
        return fidelity_zero_mean_branch(c1 + 0.5 * h * eye, c2 + 0.5 * h * eye)

    return _richardson_central(f_x, step), _richardson_central(f_y, step)


def damping_response(r1: float, r2: float, phi: float,
                     step: float = 1e-5) -> float:
    """dF/dx at x = 0 for a squeezed pair under the damping channel.

    Finite-difference oracle on the exact damping surface
    sigma_i(x) = e^{-x} sigma_i(0) + (1 - e^{-x}) I / 2 (smooth branch);
    the independent check of the printed g1 coefficient.
    """
    c1 = squeezed_thermal_cov(0.0, r1, 0.0)
    c2 = squeezed_thermal_cov(0.0, r2, phi)
    eye = np.eye(2)

    def f(h):
        u = math.exp(-h)
        return fidelity_zero_mean_branch(u * c1 + 0.5 * (1.0 - u) * eye,
                                         u * c2 + 0.5 * (1.0 - u) * eye)

    return _richardson_central(f, step)


def first_order_squeezed_qbm(r1: float, r2: float, phi: float,
                             coeffs: ChannelCoefficients) -> float:
    """First-order squeezed QBM measure: alpha S_delta |int_{Delta<0} 2 Delta|."""
    _, s_delta = squeezed_response(r1, r2, phi)
    backflow = sum(max(b, 0.0) for _, _, b in QbmChannel(coeffs).exponent_backflows())
    return s_delta * backflow


def first_order_squeezed_damping(r1: float, r2: float, phi: float,
                                 channel: DampingChannel) -> float:
    """First-order squeezed damping measure via the dF/dx oracle."""
    s = damping_response(r1, r2, phi)
    backflow = sum(max(b, 0.0) for _, _, b in channel.exponent_backflows())
    return s * backflow


def _max_over_r(coefficient_fn, r_max: float) -> tuple[float, float]:
    res = minimize_scalar(lambda r: -coefficient_fn(r), bounds=(0.0, r_max),
                          method="bounded", options={"xatol": 1e-8})
    r_star = float(res.x)
    best = float(-res.fun)
    edge = coefficient_fn(r_max)
    if edge > best:
        return r_max, edge
    return r_star, best


def first_order_squeezed_qbm_max(coeffs: ChannelCoefficients, phi: float,
                                 r_max: float = 5.0) -> tuple[float, float]:
    """(measure, argmax r) of the first-order squeezed QBM law, r1 = r2 = r."""
    backflow = sum(max(b, 0.0) for _, _, b in QbmChannel(coeffs).exponent_backflows())
    r_star, s = _max_over_r(lambda r: squeezed_response(r, r, phi)[1], r_max)
    return s * backflow, r_star


def first_order_squeezed_damping_max(channel: DampingChannel, phi: float,
                                     r_max: float = 5.0) -> tuple[float, float]:
    """(measure, argmax r) of the first-order squeezed damping law."""
    backflow = sum(max(b, 0.0) for _, _, b in channel.exponent_backflows())
    r_star, s = _max_over_r(lambda r: damping_response(r, r, phi), r_max)
    return s * backflow, r_star


def first_order_pure_combination(k: float, r1: float, r2: float,
                                 phi: float) -> float:
    """Reporting-only first-order coefficient for displaced squeezed pairs.

    Combines the displacement part f1(K) = K e^{-K} and the squeezing part
    (finite-difference oracle), weighted by the zero-time fidelity split
    F = C * S with S the fidelity at zero displacement.  No maximization
    claims: the two contributions share state-dependent weights.
    """
    if k < 0.0:
        raise ValueError("K must be >= 0")
    c1 = squeezed_thermal_cov(0.0, r1, 0.0)
    c2 = squeezed_thermal_cov(0.0, r2, phi)
    s0 = fidelity_zero_mean_branch(c1, c2)
    # displaced along the q axis; C is the ratio of the full zero-time
    # fidelity to the zero-displacement one
    pair = StatePairParams(beta1_mag=math.sqrt(2.0 * k), r1=r1, r2=r2,
                           phi1=0.0, phi2=phi)
    s1, s2 = pair.states()
    c_weight = float(fidelity_arrays(s1.mean, s1.cov, s2.mean, s2.cov)) / s0
    f1 = k * math.exp(-k)
    return s0 * f1 + c_weight * damping_response(r1, r2, phi)


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
