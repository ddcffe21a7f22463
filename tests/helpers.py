"""Small helpers that only the tests call: stub coefficient tables, the
paper's printed squeezing coefficient, a state physicality check, the
matrix route to a batch's pair invariants, a recorder of scored pairs and
a stand-in channel with first-order maps."""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from gaussnm import measure
from gaussnm._spline import cumulative_simpson
from gaussnm.spectral import ChannelCoefficients
from gaussnm.states import EPS_TOL, _below_heisenberg, _moments, matrix_invariants


def coefficients_from_functions(gamma_fn, delta_fn, alpha: float, t_end: float,
                                n_steps: int) -> ChannelCoefficients:
    """Tabulate gamma(t), Delta(t) callables on the grid and with the
    Simpson exponents of ``build_coefficients``."""
    ts = np.linspace(0.0, float(t_end), int(n_steps) + 1)
    gamma = np.asarray([float(gamma_fn(t)) for t in ts])
    delta = np.asarray([float(delta_fn(t)) for t in ts])
    return ChannelCoefficients(times=ts, gamma=gamma, delta=delta,
                               x=cumulative_simpson(2.0 * alpha * gamma, ts),
                               y=cumulative_simpson(2.0 * alpha * delta, ts),
                               alpha=alpha)


def g1_squeezed(r: float, phi: float) -> float:
    """State coefficient 8 cosh(2r) (k - sqrt(k)) / k^2 for equal squeezing.

    k(r, phi) = 3 + cos(phi) + cosh(4r)(1 - cos(phi)).  Printed first-order
    coefficient for squeezed pairs under damping; its r -> 0 limit is 1
    even though identical states carry no backflow, so the exact response
    (damping_response) is authoritative at small r.
    """
    if r < 0.0:
        raise ValueError("squeezing magnitude must be >= 0")
    k = 3.0 + math.cos(phi) + math.cosh(4.0 * r) * (1.0 - math.cos(phi))
    return 8.0 * math.cosh(2.0 * r) * (k - math.sqrt(k)) / k ** 2


def is_physical(state) -> bool:
    """Symmetric, positive and not below the Heisenberg bound (with slack)."""
    c = state.cov
    return (abs(c[0, 1] - c[1, 0]) <= EPS_TOL and c[0, 0] > 0.0
            and not _below_heisenberg(c))


def pair_moments(pairs) -> tuple[np.ndarray, ...]:
    """(means1, covs1, means2, covs2), (P, 2) and (P, 2, 2): those of each
    ``pair.states()`` entry for entry, without building or validating states."""
    rows = np.reshape([[_moments(*a) for a in p._args()] for p in pairs], (-1, 2, 5))
    means, covs = rows[..., :2], rows[..., [2, 3, 3, 4]].reshape(-1, 2, 2, 2)
    return means[:, 0], covs[:, 0], means[:, 1], covs[:, 1]


def moment_invariants(pairs) -> np.ndarray:
    """``matrix_invariants`` (8, P) of the pairs' stacked states: the matrix
    route, the oracle of ``states.pair_invariants``."""
    return matrix_invariants(*pair_moments(pairs))


@contextmanager
def pair_batches():
    """The pairs of each ``measure._pair_measures`` call made in the block,
    in order: one batch of a search each."""
    rows, pair_measures = [], measure._pair_measures

    def counted(inv, *args):
        rows.append(inv.shape[1])
        return pair_measures(inv, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "_pair_measures", counted)
        yield rows


class FirstOrderMaps:
    """Stand-in channel: the first-order maps of a damping or QBM ``channel``,
    m = 1 - x/2, c = 1 - x and n = x/2 (damping) or y/2 (QBM), from the
    channel's own exponent and propagator splines.

    Maps only: they leave the Heisenberg bound by construction and reach
    c <= 0 beyond x = 1, and nothing here checks either.
    """

    def __init__(self, channel):
        self.channel, self.t_max = channel, channel.t_max

    def maps(self, ts):
        channel = self.channel
        if channel.tag == "damping":
            x = channel.alpha * channel.rate.x_per_alpha(ts)
            return 1.0 - 0.5 * x, 1.0 - x, 0.5 * x
        prop = channel.propagator
        prop.check_t(ts)
        at = prop.x.locate(ts)  # x and y share the table's knots
        x = prop.x._local(*at)
        return 1.0 - 0.5 * x, 1.0 - x, 0.5 * prop.y._local(*at)
