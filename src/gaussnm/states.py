"""Single-mode Gaussian states and the closed-form Uhlmann fidelity.

Conventions (hbar = k_B = 1): quadratures q = (a + a^dag)/sqrt(2),
p = (a^dag - a)/(i sqrt(2)), so the vacuum covariance matrix is I/2 and a
state with complex amplitude beta has first-moment vector
sqrt(2) (Re beta, Im beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EPS_TOL",
    "GaussianState",
    "StatePairParams",
    "make_gaussian",
    "fidelity",
    "bures_distance",
    "rotate_state",
]

# Numerical slack on symmetry / Heisenberg checks.  Violations beyond this
# are hard errors; nothing is clamped.
EPS_TOL = 1e-12

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class GaussianState:
    """A single-mode Gaussian state: first moments plus 2x2 covariance.

    ``mean`` is the quadrature expectation vector, ``cov`` the symmetrized
    covariance matrix.  Construction validates symmetry, positivity and the
    Heisenberg bound det(cov) >= 1/4 unless ``validate=False``, which
    ``channel.evolve`` uses: an exact-QBM or first-order state may dip below
    the bound, with a warning (see ``gaussnm.channels``).
    """

    mean: np.ndarray
    cov: np.ndarray
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.shape != (2,):
            raise ValueError(f"mean must be a 2-vector, got shape {mean.shape}")
        if cov.shape != (2, 2):
            raise ValueError(f"cov must be 2x2, got shape {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("state contains non-finite entries")
        if self.validate:
            if abs(cov[0, 1] - cov[1, 0]) > EPS_TOL:
                raise ValueError(
                    f"covariance is not symmetric: off-diagonal mismatch "
                    f"{cov[0, 1] - cov[1, 0]:.3e}"
                )
            det = self.det_cov
            if _below_heisenberg(cov):
                raise ValueError(
                    f"covariance violates the Heisenberg bound: det = {det:.12g} < 1/4"
                )
            if cov[0, 0] <= 0.0 or det <= 0.0:
                raise ValueError("covariance is not positive definite")

    @property
    def det_cov(self) -> float:
        c = self.cov
        return float(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])


def _normalize_angle(theta: float) -> float:
    return float(theta) % TWO_PI


@dataclass(frozen=True)
class StatePairParams:
    """Collective coordinates of a pair of single-mode Gaussian states.

    Thermal occupations (n1, n2), squeezing magnitudes/angles (r_i, phi_i)
    and displacement magnitudes/angles (|beta_i|, theta_i).  Angles are
    stored modulo 2*pi; magnitudes must be finite and non-negative.
    """

    n1: float = 0.0
    n2: float = 0.0
    r1: float = 0.0
    r2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0
    beta1_mag: float = 0.0
    beta2_mag: float = 0.0
    theta1: float = 0.0
    theta2: float = 0.0

    def __post_init__(self):
        for name in ("n1", "n2", "r1", "r2", "beta1_mag", "beta2_mag"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)
        for name in ("phi1", "phi2", "theta1", "theta2"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, _normalize_angle(v))

    def _args(self):
        """make_gaussian's (n, r, phi, beta) of each state."""
        b1, b2 = (self.beta1_mag * np.exp(1j * self.theta1),
                  self.beta2_mag * np.exp(1j * self.theta2))
        return (self.n1, self.r1, self.phi1, b1), (self.n2, self.r2, self.phi2, b2)

    def states(self) -> tuple[GaussianState, GaussianState]:
        return tuple(make_gaussian(*args) for args in self._args())


def _moments(n: float, r: float, phi: float, beta: complex) -> tuple:
    """(q, p, V_qq, V_qp, V_pp) of make_gaussian(n, r, phi, beta), as floats.

    The diagonal is written as sums of positive terms,
    e^{-2r} cos^2(phi/2) + e^{2r} sin^2(phi/2) and its mirror, rather than
    cosh 2r -+ sinh 2r cos phi, which cancels at large r.
    """
    beta, k = complex(beta), n + 0.5
    lo, hi = math.exp(-2.0 * r), math.exp(2.0 * r)
    c2, s2 = math.cos(0.5 * phi) ** 2, math.sin(0.5 * phi) ** 2
    off = -math.sinh(2.0 * r) * math.sin(phi)
    return (math.sqrt(2.0) * beta.real, math.sqrt(2.0) * beta.imag,
            k * (lo * c2 + hi * s2), k * off, k * (hi * c2 + lo * s2))


def make_gaussian(n: float = 0.0, r: float = 0.0, phi: float = 0.0,
                  beta: complex = 0.0j) -> GaussianState:
    """Build the displaced squeezed thermal state with the given parameters.

    The covariance (n + 1/2) R(phi/2) diag(e^-2r, e^2r) R(phi/2)^T is built
    squeeze-then-displace on a thermal state, so det(cov) = (n + 1/2)^2 and
    displacement only sets the mean.
    """
    n = float(n)
    r = float(r)
    if n < 0.0:
        raise ValueError(f"thermal occupation must be >= 0, got {n}")
    if r < 0.0:
        raise ValueError(f"squeezing magnitude must be >= 0, got {r}")
    q, p, qq, qp, pp = _moments(n, r, phi, beta)
    return GaussianState(mean=np.array([q, p]), cov=np.array([[qq, qp], [qp, pp]]))


def _det2(c: np.ndarray) -> np.ndarray:
    return c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]


def _below_heisenberg(covs: np.ndarray) -> np.ndarray:
    """det(cov) < 1/4 beyond the slack EPS_TOL max(1, tr^2), over (..., 2, 2):
    the determinant of a strongly squeezed matrix is a difference of large
    floats, so the slack scales with tr^2 to keep the check meaningful."""
    tr = covs[..., 0, 0] + covs[..., 1, 1]
    return _det2(covs) < 0.25 - EPS_TOL * np.maximum(1.0, tr * tr)


def _adj_quad(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """d^T adj(s) d, the numerator of d^T s^{-1} d (explicit 2x2 inverse)."""
    return (s[..., 1, 1] * d[..., 0] ** 2
            - 2.0 * s[..., 0, 1] * d[..., 0] * d[..., 1]
            + s[..., 0, 0] * d[..., 1] ** 2)


def matrix_invariants(means1, covs1, means2, covs2) -> np.ndarray:
    """The 8 pair invariants, stacked (8, ...), of means (..., 2) and covs
    (..., 2, 2): with S0 = V1 + V2 and d0 = mu1 - mu2, det S0, tr S0,
    d0^T adj(S0) d0, |d0|^2, det V1, tr V1, det V2 and tr V2."""
    s0, d0 = covs1 + covs2, means1 - means2
    return np.array([
        _det2(s0), s0[..., 0, 0] + s0[..., 1, 1], _adj_quad(s0, d0),
        d0[..., 0] ** 2 + d0[..., 1] ** 2, _det2(covs1),
        covs1[..., 0, 0] + covs1[..., 1, 1], _det2(covs2),
        covs2[..., 0, 0] + covs2[..., 1, 1]])


def pair_invariants(n1=0.0, n2=0.0, r1=0.0, r2=0.0, phi1=0.0, phi2=0.0,
                    beta1_mag=0.0, beta2_mag=0.0, theta1=0.0, theta2=0.0) -> np.ndarray:
    """``matrix_invariants`` (8, P) of pairs given by their ``StatePairParams``
    fields (arrays or scalars, broadcast), with no matrix built.  With
    nu_i = n_i + 1/2 and delta = beta1 - beta2, det Vi = nu_i^2 and
    tr Vi = 2 nu_i cosh 2r_i are exact for pure states, |d0|^2 = 2 |delta|^2,
        det S0 = (nu1 - nu2)^2 + 4 nu1 nu2 [cosh^2(r1 - r2)
                 + sinh 2r1 sinh 2r2 sin^2((phi1 - phi2) / 2)]
        d0^T adj(S0) d0 = 2 sum_i nu_i [e^{2r_i} Re(w_i)^2 + e^{-2r_i} Im(w_i)^2]
    with w_i = conj(delta) e^{i phi_i / 2}: sums of positive terms, the same
    bits for exchanged states, and moved by a joint rotation (every phi_i by
    2 rho, every theta_i by rho) only through rounding.
    """
    nu1, nu2 = n1 + 0.5, n2 + 0.5
    tr1, tr2 = 2.0 * nu1 * np.cosh(2.0 * r1), 2.0 * nu2 * np.cosh(2.0 * r2)
    det0 = (nu1 - nu2) ** 2 + 4.0 * (nu1 * nu2) * (
        np.cosh(np.abs(r1 - r2)) ** 2 + np.sinh(2.0 * r1) * np.sinh(2.0 * r2)
        * np.sin(0.5 * np.abs(phi1 - phi2)) ** 2)
    dad0 = dd0 = 0.0
    if np.any(beta1_mag) or np.any(beta2_mag):
        delta = beta1_mag * np.exp(1j * theta1) - beta2_mag * np.exp(1j * theta2)
        dd0 = 2.0 * (delta.real ** 2 + delta.imag ** 2)
        for nu, r, phi in ((nu1, r1, phi1), (nu2, r2, phi2)):
            w = np.conj(delta) * np.exp(0.5j * phi)
            dad0 = dad0 + 2.0 * nu * (np.exp(2.0 * r) * w.real ** 2
                                      + np.exp(-2.0 * r) * w.imag ** 2)
    rows = (det0, tr1 + tr2, dad0, dd0, nu1 * nu1, tr1, nu2 * nu2, tr2)
    out = np.empty((8, *np.broadcast(*rows).shape))
    for k, row in enumerate(rows):
        out[k] = row
    return out


def fidelity_arrays(invariants, maps=None, branch: bool = False):
    """Vectorized Uhlmann fidelity of pairs given by their 8 invariants.

    ``invariants`` (8, ...) come from ``matrix_invariants`` or
    ``pair_invariants``; inputs are trusted (no invariant checks beyond a
    singularity guard on the summed covariance).  With ``branch=True`` the
    sqrt of the (det1 - 1/4)(det2 - 1/4) product carries the sign of the
    factors, which continues the physical branch smoothly through the
    pure-state boundary; the two expressions agree on physical states.

    With ``maps=(m, c, n)`` the invariants are those of P initial pairs,
    (8, P), and F is that of the pairs evolved by mean -> m mean,
    cov -> c cov + n I, the maps broadcast against (P, 1): K grid times
    give (P, K), maps of shape (P, S) give each pair its own S times.  No
    evolved matrix is built.  Without maps the identity maps (1, 1, 0)
    apply and F has the invariants' trailing shape.  With S0 = V1 + V2 and
    d0 = mu1 - mu2:
        det s         = c^2 det S0 + 2cn tr S0 + 4n^2
        d^T adj(s) d  = m^2 (c d0^T adj(S0) d0 + 2n |d0|^2)
        det Vi        = c^2 det Vi0 + cn tr Vi0 + n^2
    """
    m, c, n = (1.0, 1.0, 0.0) if maps is None else maps
    # the 8 pair invariants, as (..., 1) columns
    det0, tr0, dad0, dd0, det1, tr1, det2, tr2 = invariants[..., None]
    # in place on 5 buffers, each expression in its left-to-right order
    cc, cn, nn = c * c, c * n, n * n
    det_s, tmp = cc * det0, 2.0 * cn * tr0
    det_s += tmp
    det_s += 4.0 * nn  # det_s = cc det0 + 2 cn tr0 + 4 nn
    if det_s.size and not det_s.min() > 0.0:  # a NaN fails too
        raise RuntimeError("singular summed covariance in fidelity; "
                           "internal invariant violation")
    g1, g2 = cc * det1, cc * det2
    for g, tr in ((g1, tr1), (g2, tr2)):  # g = cc det + cn tr + (nn - 1/4)
        g += np.multiply(cn, tr, out=tmp)
        g += nn - 0.25
    # product of (det - 1/4) factors is >= 0 for physical states; clip the
    # float roundoff so sqrt stays real
    small = np.multiply(16.0, g1, out=tmp)
    small *= g2
    root = np.sqrt(np.maximum(small, 0.0, out=small))
    if branch:
        np.copysign(root, np.add(g1, g2, out=g1), out=root)
    displaced = dad0.any() or dd0.any()
    if displaced:  # else quad = 0 and exp(-quad / 2) is exactly 1
        quad = np.multiply(c, dad0, out=g1)
        quad += np.multiply(2.0 * n, dd0, out=g2)
        quad *= m * m  # quad = m m (c dad0 + 2 n dd0) / det_s
        quad /= det_s
        np.exp(np.multiply(-0.5, quad, out=quad), out=quad)
    f2 = np.multiply(4.0, det_s, out=det_s)  # f2 = 2 / (sqrt(4 det_s + small) - root)
    f2 += small
    np.divide(2.0, np.subtract(np.sqrt(f2, out=f2), root, out=f2), out=f2)
    if displaced:
        f2 *= quad
    return np.sqrt(f2, out=f2) if maps is not None else np.sqrt(f2[..., 0])


def fidelity(a: GaussianState, b: GaussianState) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) in (0, 1].

    Evaluated from the closed form in terms of first moments and covariance
    matrices, in the square-root (not squared) convention: two coherent
    states give exp(-|beta1 - beta2|^2 / 2).
    """
    return float(fidelity_arrays(matrix_invariants(a.mean, a.cov, b.mean, b.cov)))


def bures_distance(a: GaussianState, b: GaussianState) -> float:
    """Bures distance sqrt(2 - 2 sqrt(F)); zero iff the states coincide."""
    f = fidelity(a, b)
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(f), 0.0))


def rotate_state(state: GaussianState, theta: float) -> GaussianState:
    """Apply the phase-space rotation R(theta) to mean and covariance."""
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return GaussianState(mean=rot @ state.mean, cov=rot @ state.cov @ rot.T)
