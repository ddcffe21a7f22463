import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussnm import (
    DampingChannel,
    GaussianState,
    QbmChannel,
    StatePairParams,
    build_coefficients,
    bures_distance,
    fidelity,
    make_gaussian,
    rotate_state,
)
from gaussnm.channels import evolve_arrays
from gaussnm.spectral import EnvironmentSpec
from gaussnm.states import (_adj_quad, _det2, fidelity_arrays, matrix_invariants,
                            pair_invariants)
from fock_oracle import oracle_fidelity
from helpers import is_physical, moment_invariants, pair_moments


def random_params(rng, n_max=2.0, r_max=1.0, beta_max=2.0):
    return (
        rng.uniform(0.0, n_max),
        rng.uniform(0.0, r_max),
        rng.uniform(0.0, 2.0 * np.pi),
        rng.uniform(0.0, beta_max) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)),
    )


def state_of(params):
    n, r, phi, beta = params
    return make_gaussian(n=n, r=r, phi=phi, beta=beta)


class TestConstruction:
    def test_vacuum(self):
        v = make_gaussian()
        assert np.allclose(v.mean, 0.0)
        assert np.allclose(v.cov, np.eye(2) / 2.0)

    def test_thermal_determinant_identity(self):
        th = make_gaussian(n=1.0)
        assert np.allclose(th.cov, 1.5 * np.eye(2))
        assert th.det_cov == pytest.approx(2.25, abs=1e-14)

    def test_displaced_squeezed(self):
        # squeezing acts on the covariance as S sigma S^T with
        # S = diag(e^-r, e^r); displacement only shifts the mean
        s = make_gaussian(r=0.5, beta=1.0 + 0.0j)
        smat = np.diag([np.exp(-0.5), np.exp(0.5)])
        expected = smat @ (np.eye(2) / 2.0) @ smat.T
        assert np.allclose(s.cov, expected, atol=1e-15)
        assert np.allclose(s.mean, [math.sqrt(2.0), 0.0])

    @pytest.mark.parametrize("n,r", [(-0.1, 0.0), (0.0, -0.2)])
    def test_negative_parameters_rejected(self, n, r):
        with pytest.raises(ValueError):
            make_gaussian(n=n, r=r)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(mean=np.zeros(2), cov=np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_heisenberg_violation_rejected(self):
        with pytest.raises(ValueError, match="Heisenberg"):
            GaussianState(mean=np.zeros(2), cov=0.4 * np.eye(2))

    def test_unvalidated_construction_flags_physicality(self):
        s = GaussianState(mean=np.zeros(2), cov=0.4 * np.eye(2), validate=False)
        assert not is_physical(s)

    def test_det_identity_over_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, r, phi, _ = random_params(rng)
            s = make_gaussian(n=n, r=r, phi=phi)
            assert s.det_cov == pytest.approx((n + 0.5) ** 2, rel=1e-12)

    def test_pair_params_validation(self):
        with pytest.raises(ValueError):
            StatePairParams(n1=-1.0)
        p = StatePairParams(theta1=7.0)
        assert 0.0 <= p.theta1 < 2.0 * math.pi


class TestFidelity:
    def test_self_fidelity_thermal(self):
        th = make_gaussian(n=1.0)
        # Delta = 36, delta = 64, prefactor 2/(10 - 8) = 1
        assert fidelity(th, th) == pytest.approx(1.0, abs=1e-14)

    def test_coherent_pair_closed_form(self):
        b1, b2 = 0.7 + 0.2j, -0.3 + 1.1j
        f = fidelity(make_gaussian(beta=b1), make_gaussian(beta=b2))
        assert f == pytest.approx(np.exp(-abs(b1 - b2) ** 2 / 2.0), rel=1e-13)

    def test_vacuum_vs_thermal(self):
        f = fidelity(make_gaussian(), make_gaussian(n=1.0))
        assert f == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)

    def test_symmetry_and_range_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a = state_of(random_params(rng))
            b = state_of(random_params(rng))
            fab = fidelity(a, b)
            fba = fidelity(b, a)
            assert abs(fab - fba) <= 1e-12
            assert 0.0 < fab <= 1.0 + 1e-12

    def test_unit_self_fidelity_random(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            s = state_of(random_params(rng))
            assert abs(fidelity(s, s) - 1.0) <= 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            a = state_of(random_params(rng))
            b = state_of(random_params(rng))
            theta = rng.uniform(0.0, 2.0 * np.pi)
            f0 = fidelity(a, b)
            f1 = fidelity(rotate_state(a, theta), rotate_state(b, theta))
            assert abs(f0 - f1) <= 1e-12

    def test_fock_oracle_spot_checks(self):
        # moderate states, converged truncation: validates the closed form
        cases = [
            ((0.5, 0.4, 1.1, 0.8 + 0.0j), (1.0, 0.2, 2.0, -0.3 + 0.6j)),
            ((0.0, 0.8, 0.3, 1.5 + 0.5j), (0.2, 0.0, 0.0, 0.0j)),
            ((1.5, 0.3, 4.0, 1.0j), (0.1, 0.6, 5.5, -1.0 + 0.0j)),
        ]
        for p1, p2 in cases:
            f_closed = fidelity(state_of(p1), state_of(p2))
            f_fock = oracle_fidelity(p1, p2, dim=140)
            # 5e-8 floor: sqrt of clipped eigh noise on nearly pure matrices
            assert f_closed == pytest.approx(f_fock, abs=5e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        n1=st.floats(0.0, 2.0), n2=st.floats(0.0, 2.0),
        r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0),
        phi1=st.floats(0.0, 2.0 * math.pi), phi2=st.floats(0.0, 2.0 * math.pi),
    )
    def test_fidelity_bounds_hypothesis(self, n1, n2, r1, r2, phi1, phi2):
        a = make_gaussian(n=n1, r=r1, phi=phi1)
        b = make_gaussian(n=n2, r=r2, phi=phi2)
        f = fidelity(a, b)
        assert 0.0 < f <= 1.0 + 1e-12


class TestBures:
    def test_zero_for_identical(self):
        s = make_gaussian(n=0.3, r=0.2, beta=0.5j)
        assert bures_distance(s, s) == pytest.approx(0.0, abs=1e-7)

    def test_half_fidelity_point(self):
        # |beta1 - beta2|^2 = 2 ln 2 gives F = 1/2
        b = math.sqrt(2.0 * math.log(2.0))
        d = bures_distance(make_gaussian(beta=b), make_gaussian())
        assert d == pytest.approx(math.sqrt(2.0 - math.sqrt(2.0)), rel=1e-12)

    def test_upper_bound(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            a = state_of(random_params(rng))
            b = state_of(random_params(rng))
            assert bures_distance(a, b) <= math.sqrt(2.0) + 1e-12


def mp_state(n, r, phi, beta):
    """50-digit (mean, cov) of make_gaussian(n, r, phi, beta)."""
    n, r, phi = (mpmath.mpf(v) for v in (n, r, phi))
    ch, sh = mpmath.cosh(2 * r), mpmath.sinh(2 * r)
    c, s = mpmath.cos(phi), mpmath.sin(phi)
    k = n + mpmath.mpf(1) / 2
    cov = [[k * (ch - sh * c), -k * sh * s], [-k * sh * s, k * (ch + sh * c)]]
    beta = complex(beta)
    return [mpmath.sqrt(2) * beta.real, mpmath.sqrt(2) * beta.imag], cov


def mp_fidelity(a, b):
    """The closed-form fidelity evaluated in mpmath."""
    (m1, c1), (m2, c2) = a, b

    def det(m):
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    s = [[c1[i][j] + c2[i][j] for j in range(2)] for i in range(2)]
    d = [m1[0] - m2[0], m1[1] - m2[1]]
    quad = (s[1][1] * d[0] ** 2 - 2 * s[0][1] * d[0] * d[1]
            + s[0][0] * d[1] ** 2) / det(s)
    quarter = mpmath.mpf(1) / 4
    small = max(16 * (det(c1) - quarter) * (det(c2) - quarter), 0)
    return mpmath.sqrt(2 / (mpmath.sqrt(4 * det(s) + small) - mpmath.sqrt(small))
                       * mpmath.exp(-quad / 2))


class TestPureStatePrecision:
    """Pins the float kernel's precision where one state is pure.

    For a pure state det(cov) - 1/4 comes out of float entries as ~1e-16
    tr^2 instead of 0, and the square root of 16 (det1 - 1/4)(det2 - 1/4)
    turns that into an error of ~1e-8 in F: 6.6e-8 relative at worst for
    r <= 3.  The first pair below is the README's example.
    """

    def test_pure_vs_mixed_against_mpmath(self):
        rng = np.random.default_rng(20261018)
        pairs = [((0.0, 2.0, 0.3, 0.0), (0.5, 1.0, 0.0, 1.0))]
        for _ in range(40):
            pure = random_params(rng, n_max=0.0, r_max=3.0)
            mixed = random_params(rng, r_max=3.0)
            pairs.append((pure, (max(mixed[0], 0.05),) + mixed[1:]))
        with mpmath.workdps(50):
            for a, b in pairs:
                ref = mp_fidelity(mp_state(*a), mp_state(*b))
                got = fidelity(state_of(a), state_of(b))
                assert float(abs(got - ref) / ref) <= 1e-6


class TestSqueezedThermalCov:
    def test_entries_against_mpmath(self):
        # the diagonal is a sum of positive terms, so every entry is exact
        # to a few ulp; cosh 2r - sinh 2r cos(phi) lost 2.7e-8 at r = 5
        rng = np.random.default_rng(5)
        cases = [(0.0, 5.0, 0.0), (0.3, 3.0, 0.0), (1.0, 5.0, math.pi)]
        cases += [(rng.uniform(0.0, 2.0), rng.uniform(0.0, 5.0),
                   rng.uniform(0.0, 2.0 * math.pi)) for _ in range(40)]
        with mpmath.workdps(50):
            for n, r, phi in cases:
                _, ref = mp_state(n, r, phi, 0.0)
                got = make_gaussian(n, r, phi).cov
                for i in range(2):
                    for j in range(2):
                        assert abs(got[i, j] - ref[i][j]) <= 2e-15 * abs(ref[i][j])


def old_fidelity_arrays(means1, covs1, means2, covs2, branch=False):
    """The kernel as it stood before the maps path, kept verbatim."""
    s = covs1 + covs2
    det_s = _det2(s)
    d = means1 - means2
    quad = (
        s[..., 1, 1] * d[..., 0] ** 2
        - 2.0 * s[..., 0, 1] * d[..., 0] * d[..., 1]
        + s[..., 0, 0] * d[..., 1] ** 2
    ) / det_s
    big = 4.0 * det_s
    g1 = _det2(covs1) - 0.25
    g2 = _det2(covs2) - 0.25
    small = np.clip(16.0 * g1 * g2, 0.0, None)
    root = np.sqrt(small)
    if branch:
        root = np.copysign(root, g1 + g2)
    f2 = 2.0 / (np.sqrt(big + small) - root) * np.exp(-0.5 * quad)
    return np.sqrt(f2)


def old_maps_fidelity_arrays(means1, covs1, means2, covs2, branch, maps):
    """The maps path as it stood before it was evaluated in place, verbatim."""
    m, c, n = maps
    s0, d0 = covs1 + covs2, means1 - means2
    det0, tr0, dad0, dd0, det1, tr1, det2, tr2 = (v[..., None] for v in (
        _det2(s0), s0[..., 0, 0] + s0[..., 1, 1], _adj_quad(s0, d0),
        d0[..., 0] ** 2 + d0[..., 1] ** 2, _det2(covs1),
        covs1[..., 0, 0] + covs1[..., 1, 1], _det2(covs2),
        covs2[..., 0, 0] + covs2[..., 1, 1]))
    cc, cn, nn = c * c, c * n, n * n
    det_s = cc * det0 + 2.0 * cn * tr0 + 4.0 * nn
    dad = m * m * (c * dad0 + 2.0 * n * dd0)
    g1 = cc * det1 + cn * tr1 + (nn - 0.25)
    g2 = cc * det2 + cn * tr2 + (nn - 0.25)
    quad = dad / det_s
    big = 4.0 * det_s
    small = np.clip(16.0 * g1 * g2, 0.0, None)
    root = np.sqrt(small)
    if branch:
        root = np.copysign(root, g1 + g2)
    f2 = 2.0 / (np.sqrt(big + small) - root) * np.exp(-0.5 * quad)
    return np.sqrt(f2)


def matrix_fidelity(means1, covs1, means2, covs2, branch=False, maps=None):
    """The kernel on the invariants of stacked means and covariances."""
    return fidelity_arrays(matrix_invariants(means1, covs1, means2, covs2), maps,
                           branch=branch)


def stacked_pairs(rng, count, **ranges):
    """(means1, covs1, means2, covs2) of ``count`` random pairs."""
    pairs = [(state_of(random_params(rng, **ranges)),
              state_of(random_params(rng, **ranges))) for _ in range(count)]
    return tuple(np.array([getattr(p[i], attr) for p in pairs])
                 for i in (0, 1) for attr in ("mean", "cov"))


@pytest.fixture(scope="module")
def kernel_channels():
    table = build_coefficients(
        EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=0.2),
        alpha=0.1, t_end=40.0, n_steps=400)
    return {"damping-exact": DampingChannel(alpha=0.1),
            "damping-first-order": DampingChannel(alpha=0.1, mode="first_order"),
            "qbm-exact": QbmChannel(table)}


class TestPairInvariantKernel:
    def test_without_maps_is_the_old_expression(self):
        rng = np.random.default_rng(11)
        args = stacked_pairs(rng, 200, r_max=3.0)
        for branch in (False, True):
            assert np.array_equal(matrix_fidelity(*args, branch=branch),
                                  old_fidelity_arrays(*args, branch=branch))
        one = tuple(a[0] for a in args)
        assert matrix_fidelity(*one) == old_fidelity_arrays(*one)

    @pytest.mark.parametrize("name", ["damping-exact", "damping-first-order",
                                      "qbm-exact"])
    def test_maps_path_matches_evolved_states(self, name, kernel_channels):
        channel = kernel_channels[name]
        rng = np.random.default_rng(64)
        means1, covs1, means2, covs2 = stacked_pairs(rng, 64, r_max=2.0,
                                                     beta_max=1.5)
        maps = channel.maps(np.linspace(0.0, channel.t_max, 2001))
        got = matrix_fidelity(means1, covs1, means2, covs2, branch=True,
                              maps=maps)
        assert got.shape == (64, 2001)
        ref = np.array([matrix_fidelity(*evolve_arrays(maps, means1[p], covs1[p]),
                                        *evolve_arrays(maps, means2[p], covs2[p]),
                                        branch=True) for p in range(64)])
        assert np.max(np.abs(got / ref - 1.0)) <= 2e-13
        # maps of shape (P, S) give each pair its own times
        rows = np.array([3, 3, 17])
        cols = np.array([[0, 5, 2000], [7, 7, 8], [1999, 3, 4]])
        per_row = matrix_fidelity(means1[rows], covs1[rows], means2[rows],
                                  covs2[rows], branch=True,
                                  maps=tuple(v[cols] for v in maps))
        assert np.array_equal(per_row, got[rows[:, None], cols])

    def test_maps_path_against_mpmath(self, kernel_channels):
        # at r <= 3 the 2x2 determinants of evolved matrices lose ~1e-12
        # relative; the invariants are formed once, before the maps scale them
        channel = kernel_channels["qbm-exact"]
        rng = np.random.default_rng(3)
        params = [(random_params(rng, r_max=3.0, beta_max=1.0),
                   random_params(rng, r_max=3.0, beta_max=1.0)) for _ in range(8)]
        ts = np.array([0.0, 3.0, 11.0, 40.0])
        m, c, n = channel.maps(ts)
        args = tuple(np.array([getattr(state_of(p[i]), attr) for p in params])
                     for i in (0, 1) for attr in ("mean", "cov"))
        got = matrix_fidelity(*args, branch=True, maps=(m, c, n))
        with mpmath.workdps(50):
            for p, (a, b) in enumerate(params):
                for k in range(ts.size):
                    evolved = []
                    for mean, cov in (mp_state(*a), mp_state(*b)):
                        mk, ck, nk = (mpmath.mpf(float(v[k])) for v in (m, c, n))
                        evolved.append(([mk * x for x in mean],
                                        [[ck * cov[i][j] + (nk if i == j else 0)
                                          for j in range(2)] for i in range(2)]))
                    ref = mp_fidelity(*evolved)
                    assert float(abs(got[p, k] - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("name", ["damping-exact", "damping-first-order",
                                      "qbm-exact"])
    def test_maps_path_is_the_old_expression(self, name, kernel_channels):
        # bit for bit, also where the overlap factor exp(-quad / 2) is skipped
        channel = kernel_channels[name]
        rng = np.random.default_rng(12)
        displaced = stacked_pairs(rng, 24, r_max=2.0, beta_max=1.5)
        undisplaced = stacked_pairs(rng, 24, r_max=2.0, beta_max=0.0)
        mixed = tuple(np.concatenate([u[:5], d[:1], u[5:9]])
                      for u, d in zip(undisplaced, displaced))
        maps = channel.maps(np.linspace(0.0, channel.t_max, 501))
        cols = rng.integers(0, 501, size=(10, 7))
        for args in (displaced, undisplaced, mixed):
            assert np.all(args[0] == args[2]) == (args is undisplaced)
            for branch in (False, True):
                for mp in (maps, tuple(v[cols] for v in maps)):
                    rows = args if mp is maps else tuple(a[:10] for a in args)
                    assert np.array_equal(
                        matrix_fidelity(*rows, branch=branch, maps=mp),
                        old_maps_fidelity_arrays(*rows, branch, mp))

    def test_nan_map_entry_raises(self, kernel_channels):
        # a NaN det s must not pass the singular-covariance guard as NaN F
        rng = np.random.default_rng(13)
        args = stacked_pairs(rng, 4)
        m, c, n = (v.copy() for v in kernel_channels["damping-exact"].maps(
            np.linspace(0.0, 10.0, 11)))
        c[3] = np.nan
        with pytest.raises(RuntimeError, match="singular summed covariance"):
            matrix_fidelity(*args, branch=True, maps=(m, c, n))

    def test_empty_batch_gives_an_empty_array(self, kernel_channels):
        # the singularity guard has no minimum to take on zero pairs
        inv = pair_invariants(r1=np.zeros(0))
        maps = kernel_channels["damping-exact"].maps(np.linspace(0.0, 10.0, 11))
        for branch in (False, True):
            assert fidelity_arrays(inv, branch=branch).shape == (0,)
            assert fidelity_arrays(inv, maps, branch=branch).shape == (0, 11)


class TestPairMoments:
    @settings(max_examples=25, deadline=None)
    @given(n=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2),
           r=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2),
           angles=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=4, max_size=4),
           beta=st.lists(st.floats(0.0, 6.0), min_size=2, max_size=2))
    def test_moments_are_those_of_the_states(self, n, r, angles, beta):
        pairs = [StatePairParams(n1=n[0], n2=n[1], r1=r[0], r2=r[1],
                                 phi1=angles[0], phi2=angles[1],
                                 beta1_mag=beta[0], beta2_mag=beta[1],
                                 theta1=angles[2], theta2=angles[3]),
                 StatePairParams(n1=n[1], r2=r[0], beta2_mag=beta[1],
                                 theta2=angles[0])]
        got = pair_moments(pairs)
        states = [p.states() for p in pairs]
        want = tuple(np.array([getattr(s[i], attr) for s in states])
                     for i in (0, 1) for attr in ("mean", "cov"))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == np.ascontiguousarray(w).tobytes()


def mp_invariants(a, b):
    """The 8 pair invariants of make_gaussian(*a), make_gaussian(*b), in mpmath."""
    (m1, c1), (m2, c2) = mp_state(*a), mp_state(*b)

    def det(m):
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    s = [[c1[i][j] + c2[i][j] for j in range(2)] for i in range(2)]
    d = [m1[0] - m2[0], m1[1] - m2[1]]
    return [det(s), s[0][0] + s[1][1],
            s[1][1] * d[0] ** 2 - 2 * s[0][1] * d[0] * d[1] + s[0][0] * d[1] ** 2,
            d[0] ** 2 + d[1] ** 2, det(c1), c1[0][0] + c1[1][1], det(c2),
            c2[0][0] + c2[1][1]]


def random_pair_fields(rng, count, kind):
    """StatePairParams fields (arrays) of ``count`` random pairs of a kind."""
    zero = np.zeros(count)
    fields = {"n1": rng.uniform(0.05, 2.0, count), "n2": rng.uniform(0.05, 2.0, count)}
    if kind != "thermal":
        fields.update(r1=rng.uniform(0.0, 2.0, count), r2=rng.uniform(0.0, 2.0, count),
                      phi1=rng.uniform(0.0, 2.0 * math.pi, count),
                      phi2=rng.uniform(0.0, 2.0 * math.pi, count))
    if kind == "displaced":
        fields.update(beta1_mag=rng.uniform(0.0, 2.0, count),
                      beta2_mag=np.where(rng.random(count) < 0.2, zero,
                                         rng.uniform(0.0, 2.0, count)),
                      theta1=rng.uniform(0.0, 2.0 * math.pi, count),
                      theta2=rng.uniform(0.0, 2.0 * math.pi, count))
    return fields


class TestPairInvariants:
    """states.pair_invariants against the matrix route and mpmath."""

    @pytest.mark.parametrize("kind", ["thermal", "squeezed", "displaced"])
    def test_matches_the_matrix_route(self, kind):
        # away from the pure-state boundary (n >= 0.05) the matrix route is
        # accurate too, so the two agree to rounding
        fields = random_pair_fields(np.random.default_rng(31), 300, kind)
        got = pair_invariants(**fields)
        pairs = [StatePairParams(**dict(zip(fields, row)))
                 for row in np.array(list(fields.values())).T.tolist()]
        want = moment_invariants(pairs)
        assert got.shape == want.shape == (8, 300)
        assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()
        assert (got[2:4] > 0.0).any() == (kind == "displaced")

    def test_pure_states_exact(self):
        # det Vi = 1/4 exactly and tr Vi = cosh 2r to the ulp, where the
        # matrix route's determinant is rounding off 1/4
        rng = np.random.default_rng(32)
        r1, r2 = rng.uniform(0.0, 5.0, (2, 200))
        phi1 = rng.uniform(0.0, 2.0 * math.pi, 200)
        inv = pair_invariants(r1=r1, r2=r2, phi1=phi1)
        assert (inv[4] == 0.25).all() and (inv[6] == 0.25).all()
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.cosh(2 * mpmath.mpf(r))) for r in r1])
        assert (np.abs(inv[5] - ref) <= 2.3e-16 * ref).all()
        pairs = [StatePairParams(r1=a, r2=b, phi1=c)
                 for a, b, c in zip(r1.tolist(), r2.tolist(), phi1.tolist())]
        assert (moment_invariants(pairs)[4] != 0.25).any()

    def test_against_mpmath(self):
        # det S0 as a sum of positive terms keeps full precision at strong
        # squeezing, where cosh cosh - sinh sinh cos cancels; pure and mixed
        # states, displaced and not, and a nearly aligned r = 4 pair first
        rng = np.random.default_rng(33)
        n1, n2 = rng.choice([0.0, 0.0, 0.5, 2.0], size=(2, 60))
        r1, r2 = rng.uniform(0.0, 4.0, (2, 60))
        phi1, phi2, theta1, theta2 = rng.uniform(0.0, 2.0 * math.pi, (4, 60))
        mag1, mag2 = rng.uniform(0.0, 2.0, (2, 60))
        mag1[::3] = mag2[::3] = 0.0
        r1[0], r2[0], phi1[0], phi2[0] = 4.0, 4.0, 1e-6, 0.0
        got = pair_invariants(n1=n1, n2=n2, r1=r1, r2=r2, phi1=phi1, phi2=phi2,
                              beta1_mag=mag1, beta2_mag=mag2, theta1=theta1,
                              theta2=theta2)
        with mpmath.workdps(50):
            for p in range(60):
                a, b = ((n[p], r[p], phi[p], mag[p] * np.exp(1j * theta[p]))
                        for n, r, phi, mag, theta in ((n1, r1, phi1, mag1, theta1),
                                                      (n2, r2, phi2, mag2, theta2)))
                for k, want in enumerate(mp_invariants(a, b)):
                    assert abs(got[k, p] - want) <= 1e-14 * abs(want), (p, k)
