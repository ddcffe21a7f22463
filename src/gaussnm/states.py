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
    Heisenberg bound det(cov) >= 1/4 unless ``validate=False`` (used only by
    the first-order evolvers, which may transiently produce unphysical
    matrices).
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
            if det < 0.25 - self._det_tol:
                raise ValueError(
                    f"covariance violates the Heisenberg bound: det = {det:.12g} < 1/4"
                )
            if cov[0, 0] <= 0.0 or det <= 0.0:
                raise ValueError("covariance is not positive definite")

    @property
    def _det_tol(self) -> float:
        # the determinant of a strongly squeezed matrix is a difference of
        # large floats; scale the slack so the check stays meaningful
        tr = self.cov[0, 0] + self.cov[1, 1]
        return EPS_TOL * max(1.0, tr * tr)

    @property
    def det_cov(self) -> float:
        c = self.cov
        return float(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])

    @property
    def is_physical(self) -> bool:
        c = self.cov
        return (
            abs(c[0, 1] - c[1, 0]) <= EPS_TOL
            and c[0, 0] > 0.0
            and self.det_cov >= 0.25 - self._det_tol
        )

    def close_to(self, other: "GaussianState", tol: float = 1e-12) -> bool:
        return bool(
            np.all(np.abs(self.mean - other.mean) <= tol)
            and np.all(np.abs(self.cov - other.cov) <= tol)
        )


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

    def states(self) -> tuple[GaussianState, GaussianState]:
        s1 = make_gaussian(
            n=self.n1, r=self.r1, phi=self.phi1,
            beta=self.beta1_mag * np.exp(1j * self.theta1),
        )
        s2 = make_gaussian(
            n=self.n2, r=self.r2, phi=self.phi2,
            beta=self.beta2_mag * np.exp(1j * self.theta2),
        )
        return s1, s2


def squeezed_thermal_cov(n: float, r: float, phi: float) -> np.ndarray:
    """Covariance (n + 1/2) R(phi/2) diag(e^-2r, e^2r) R(phi/2)^T.

    The diagonal is written as sums of positive terms,
    e^{-2r} cos^2(phi/2) + e^{2r} sin^2(phi/2) and its mirror, rather than
    cosh 2r -+ sinh 2r cos phi, which cancels at large r.
    """
    lo, hi = math.exp(-2.0 * r), math.exp(2.0 * r)
    c2, s2 = math.cos(0.5 * phi) ** 2, math.sin(0.5 * phi) ** 2
    off = -math.sinh(2.0 * r) * math.sin(phi)
    return (n + 0.5) * np.array([[lo * c2 + hi * s2, off], [off, hi * c2 + lo * s2]])


def make_gaussian(n: float = 0.0, r: float = 0.0, phi: float = 0.0,
                  beta: complex = 0.0j) -> GaussianState:
    """Build the displaced squeezed thermal state with the given parameters.

    The covariance is built squeeze-then-displace on a thermal state, so
    det(cov) = (n + 1/2)^2 and displacement only sets the mean.
    """
    n = float(n)
    r = float(r)
    if n < 0.0:
        raise ValueError(f"thermal occupation must be >= 0, got {n}")
    if r < 0.0:
        raise ValueError(f"squeezing magnitude must be >= 0, got {r}")
    beta = complex(beta)
    mean = math.sqrt(2.0) * np.array([beta.real, beta.imag])
    return GaussianState(mean=mean, cov=squeezed_thermal_cov(n, r, phi))


def _det2(c: np.ndarray) -> np.ndarray:
    return c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]


def _adj_quad(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """d^T adj(s) d, the numerator of d^T s^{-1} d (explicit 2x2 inverse)."""
    return (s[..., 1, 1] * d[..., 0] ** 2
            - 2.0 * s[..., 0, 1] * d[..., 0] * d[..., 1]
            + s[..., 0, 0] * d[..., 1] ** 2)


def fidelity_arrays(means1, covs1, means2, covs2, branch: bool = False,
                    maps=None):
    """Vectorized Uhlmann fidelity over stacked means (..., 2) and covs (..., 2, 2).

    Internal fast path; inputs are trusted (no invariant checks beyond a
    singularity guard on the summed covariance).  With ``branch=True`` the
    sqrt of the (det1 - 1/4)(det2 - 1/4) product carries the sign of the
    factors, which continues the physical branch smoothly through the
    pure-state boundary; the two expressions agree on physical states.

    With ``maps=(m, c, n)`` the inputs are P initial pairs, (P, 2) and
    (P, 2, 2), and F is that of the pairs evolved by mean -> m mean,
    cov -> c cov + n I, the maps broadcast against (P, 1): K grid times
    give (P, K), maps of shape (P, S) give each pair its own S times.  No
    evolved matrix is built.  With S0 = V1 + V2 and d0 = mu1 - mu2:
        det s         = c^2 det S0 + 2cn tr S0 + 4n^2
        d^T adj(s) d  = m^2 (c d0^T adj(S0) d0 + 2n |d0|^2)
        det Vi        = c^2 det Vi0 + cn tr Vi0 + n^2
    """
    if maps is None:
        s = covs1 + covs2
        det_s = _det2(s)
        dad = _adj_quad(s, means1 - means2)
        g1 = _det2(covs1) - 0.25
        g2 = _det2(covs2) - 0.25
    else:
        m, c, n = maps
        s0, d0 = covs1 + covs2, means1 - means2
        # the 8 pair invariants, as (P, 1) columns
        det0, tr0, dad0, dd0, det1, tr1, det2, tr2 = (v[:, None] for v in (
            _det2(s0), s0[:, 0, 0] + s0[:, 1, 1], _adj_quad(s0, d0),
            d0[:, 0] ** 2 + d0[:, 1] ** 2, _det2(covs1),
            covs1[:, 0, 0] + covs1[:, 1, 1], _det2(covs2),
            covs2[:, 0, 0] + covs2[:, 1, 1]))
        cc, cn, nn = c * c, c * n, n * n
        det_s = cc * det0 + 2.0 * cn * tr0 + 4.0 * nn
        dad = m * m * (c * dad0 + 2.0 * n * dd0)
        g1 = cc * det1 + cn * tr1 + (nn - 0.25)
        g2 = cc * det2 + cn * tr2 + (nn - 0.25)
    if np.any(det_s <= 0.0):
        raise RuntimeError(
            "singular summed covariance in fidelity; internal invariant violation"
        )
    quad = dad / det_s
    big = 4.0 * det_s
    # product of (det - 1/4) factors is >= 0 for physical states; clip the
    # float roundoff so sqrt stays real
    small = np.clip(16.0 * g1 * g2, 0.0, None)
    root = np.sqrt(small)
    if branch:
        root = np.copysign(root, g1 + g2)
    f2 = 2.0 / (np.sqrt(big + small) - root) * np.exp(-0.5 * quad)
    return np.sqrt(f2)


def fidelity(a: GaussianState, b: GaussianState) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) in (0, 1].

    Evaluated from the closed form in terms of first moments and covariance
    matrices, in the square-root (not squared) convention: two coherent
    states give exp(-|beta1 - beta2|^2 / 2).
    """
    return float(fidelity_arrays(a.mean, a.cov, b.mean, b.cov))


def bures_distance(a: GaussianState, b: GaussianState) -> float:
    """Bures distance sqrt(2 - 2 sqrt(F)); zero iff the states coincide."""
    f = fidelity(a, b)
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(f), 0.0))


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotate_state(state: GaussianState, theta: float) -> GaussianState:
    """Apply the phase-space rotation R(theta) to mean and covariance."""
    rot = rotation_matrix(theta)
    return GaussianState(mean=rot @ state.mean, cov=rot @ state.cov @ rot.T)
