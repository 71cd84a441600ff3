import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sipf.bingham import (
    BinghamParams,
    BinghamSeed,
    IdentityModeWarning,
    bingham_loss_and_seed_gradient,
    birdal_V,
    lambda_from,
    mode,
    normalization,
    params_from_seed,
    sample_with_rate,
    _moments,
)
from sipf.errors import InvalidArgumentError, InvalidInputError, NumericError
from sipf.geometry import UnitQuaternion

from conftest import bingham_moments_oracle, log_unnormalized_density

SURFACE_S3 = 2.0 * np.pi**2
# Sorted triples of magnitudes spanning [1e-6, 1e3], equal triples included,
# plus the trainer's operating point and a point the old product grid missed by 1.9e-4.
ORACLE_LAMBDAS = [
    -np.array(mags[::-1])
    for mags in itertools.combinations_with_replacement([1e-6, 1e-3, 0.1, 3.0, 100.0, 1e3], 3)
] + [np.array([-640.0, -620.0, -600.0]), np.array([-100.0, -50.0, -10.0])]


def make_params(lambdas3, z1=(0.3, -0.5, 0.8, 0.1)):
    lam = np.concatenate([np.asarray(lambdas3, dtype=float), [0.0]])
    return BinghamParams(V=birdal_V(np.array(z1)), lambdas=lam)


class TestBirdalV:
    def test_unit_seed_pattern(self):
        v = birdal_V(np.array([1.0, 0.0, 0.0, 0.0]))
        expected = np.diag([1.0, 1.0, 1.0, -1.0])
        assert np.array_equal(v, expected)

    def test_always_orthogonal(self, rng):
        for _ in range(100):
            v = birdal_V(rng.standard_normal(4))
            assert np.abs(v.T @ v - np.eye(4)).max() < 1e-12

    def test_transcription_oracle(self):
        z = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        a, b, c, d = z
        expected = np.array(
            [
                [a, -b, -c, d],
                [b, a, d, c],
                [c, -d, a, -b],
                [d, c, -b, -a],
            ]
        )
        assert np.array_equal(birdal_V(z * 2.0), expected)  # input is normalized first

    def test_zero_seed_rejected(self):
        with pytest.raises(InvalidArgumentError):
            birdal_V(np.zeros(4))


class TestLambdaFrom:
    def test_zero_seed(self):
        lam = lambda_from(np.zeros(3))
        ln2 = np.log(2.0)
        assert np.abs(lam - np.array([-3 * ln2, -2 * ln2, -ln2, 0.0])).max() < 1e-12

    def test_softplus_asymptote(self):
        lam = lambda_from(np.array([50.0, 30.0, 20.0]))
        assert abs(lam[2] + 50.0) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-30, max_value=30, allow_nan=False), min_size=3, max_size=3))
    def test_ordering_invariant(self, z2):
        lam = lambda_from(np.array(z2))
        assert lam[0] <= lam[1] <= lam[2] < 0.0
        assert lam[3] == 0.0

    def test_overflowing_concentration_rejected(self):
        # softplus(1e308) twice sums past the largest double; no -inf, no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^z2 = \[1e\+308, 1e\+308, 1\.0\] overflows"):
                lambda_from([1e308, 1e308, 1.0])


class TestParamsValidation:
    def test_rejects_unordered(self):
        with pytest.raises(InvalidInputError):
            BinghamParams(V=np.eye(4), lambdas=np.array([-1.0, -2.0, -0.5, 0.0]))

    def test_rejects_non_finite_eigenvalue(self):
        with pytest.raises(InvalidInputError, match="-inf < l1"):
            BinghamParams(V=np.eye(4), lambdas=[-np.inf, -1.0, -1.0, 0.0])

    def test_rejects_nonzero_fourth(self):
        with pytest.raises(InvalidInputError):
            BinghamParams(V=np.eye(4), lambdas=np.array([-3.0, -2.0, -1.0, 0.1]))

    def test_rejects_non_orthogonal_v(self):
        v = np.eye(4)
        v[0, 1] = 1e-5
        with pytest.raises(InvalidInputError):
            BinghamParams(V=v, lambdas=np.array([-3.0, -2.0, -1.0, 0.0]))

    def test_rejects_non_finite_v(self):
        with pytest.raises(InvalidInputError, match="not orthogonal"):
            BinghamParams(V=np.full((4, 4), np.nan), lambdas=np.array([-3.0, -2.0, -1.0, 0.0]))


class TestLogDensity:
    def test_zero_at_mode(self):
        params = make_params([-5.0, -2.0, -1.0])
        assert log_unnormalized_density(mode(params), params) == pytest.approx(0.0, abs=1e-12)

    def test_eigencolumn_value(self):
        params = make_params([-5.0, -2.0, -1.0])
        q = UnitQuaternion.from_array(params.V[:, 0])
        assert log_unnormalized_density(q, params) == pytest.approx(-5.0, abs=1e-9)

    def test_antipodal_symmetry(self, rng):
        params = make_params([-4.0, -3.0, -0.5])
        for _ in range(100):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            assert log_unnormalized_density(q, params) == log_unnormalized_density(-q, params)

    def test_mode_beats_random_probes(self, rng):
        params = make_params([-7.0, -3.0, -1.5])
        best = log_unnormalized_density(mode(params), params)
        for _ in range(1000):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            assert log_unnormalized_density(q, params) <= best + 1e-12


class TestNormalization:
    def test_uniform_limit(self):
        params = make_params([-3e-6, -2e-6, -1e-6])
        res = normalization(params)
        assert abs(res.F - SURFACE_S3) / SURFACE_S3 < 1e-3
        assert np.abs(res.gradF - SURFACE_S3 / 4.0).max() / SURFACE_S3 < 1e-3

    def test_gradient_matches_finite_differences(self):
        lam = np.array([-10.0, -5.0, -2.0])
        res = normalization(make_params(lam))
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-5
            up = normalization(make_params(lam + step)).F
            down = normalization(make_params(lam - step)).F
            fd = (up - down) / 2e-5
            assert abs(res.gradF[i] - fd) / abs(fd) < 1e-4

    def test_invariant_to_v(self, rng):
        lam = [-6.0, -3.0, -1.0]
        a = normalization(make_params(lam, z1=(1, 0, 0, 0)))
        b = normalization(make_params(lam, z1=tuple(rng.standard_normal(4))))
        assert abs(a.F - b.F) < 1e-9 * a.F

    def test_against_monte_carlo_on_the_sphere(self, rng):
        # Independent route: uniform S^3 average of the unnormalized density
        # times the sphere surface, with the quadratic form built from V
        # explicitly.
        params = make_params([-6.0, -3.0, -1.0])
        q = rng.standard_normal((400_000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        proj = q @ params.V
        vals = np.exp((proj**2 * params.lambdas).sum(axis=1))
        mc = vals.mean() * SURFACE_S3
        res = normalization(params)
        assert abs(res.F - mc) / mc < 0.02

    def test_gradients_positive(self):
        res = normalization(make_params([-20.0, -10.0, -0.5]))
        assert res.F > 0
        assert (res.gradF > 0).all()

    def test_matches_adaptive_quadrature_oracle(self):
        for lam in ORACLE_LAMBDAS:
            f, grad, hess = _moments(lam, hessian=True)
            f_ref, grad_ref, hess_ref = bingham_moments_oracle(lam)
            assert abs(f / f_ref - 1.0) < 1e-12, lam
            assert np.abs(grad / grad_ref - 1.0).max() < 1e-12, lam
            assert np.abs(hess / hess_ref - 1.0).max() < 1e-12, lam
            h = normalization(make_params(lam)).entropy
            h_ref = np.log(f_ref) - lam @ grad_ref / f_ref
            assert abs(h / h_ref - 1.0) < 1e-12, lam

    def test_hessian_matches_finite_differences_of_gradient(self):
        for lam in (np.array([-10.0, -5.0, -2.0]), np.array([-640.0, -620.0, -600.0])):
            _, _, hess = _moments(lam, hessian=True)
            for i in range(3):
                step = np.zeros(3)
                step[i] = 1e-5 * abs(lam[i])
                fd = (_moments(lam + step)[1] - _moments(lam - step)[1]) / (2.0 * step[i])
                assert np.abs(hess[i] - fd).max() < 1e-7 * np.abs(hess[i]).max()

    def test_unresolved_concentration_rejected(self):
        with pytest.raises(NumericError):
            normalization(make_params([-3e10, -2e10, -1e10]))


class TestEntropy:
    def test_uniform_limit(self):
        params = make_params([-3e-6, -2e-6, -1e-6])
        assert abs(normalization(params).entropy - np.log(SURFACE_S3)) < 1e-3

    def test_concentrated_below_zero(self):
        params = make_params([-100.0, -100.0 + 1e-9, -100.0 + 2e-9])
        assert normalization(params).entropy < 0.0

    def test_matches_sampler_estimate(self, rng):
        params = make_params([-10.0, -5.0, -2.0])
        qs = sample_with_rate(params, rng, 50_000)[0]
        res = normalization(params)
        proj = qs @ params.V
        log_density = (proj**2 * params.lambdas).sum(axis=1) - np.log(res.F)
        assert abs(res.entropy + log_density.mean()) < 0.02


class TestMode:
    def test_unit_seed_mode(self):
        params = params_from_seed(BinghamSeed(np.array([1.0, 0, 0, 0]), np.zeros(3)))
        q = mode(params)
        assert (q.w, q.x, q.y, q.z) == (0.0, 0.0, 0.0, 1.0)

    def test_matches_birdal_column_permutation(self, rng):
        for _ in range(25):
            z1 = rng.standard_normal(4)
            params = params_from_seed(BinghamSeed(z1, rng.standard_normal(3)))
            a, b, c, d = z1 / np.linalg.norm(z1)
            expected = np.array([d, c, -b, -a])
            got = mode(params).array
            assert min(np.abs(got - expected).max(), np.abs(got + expected).max()) < 1e-12

    def test_identity_mode_warns(self):
        params = params_from_seed(BinghamSeed(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3)))
        with pytest.warns(IdentityModeWarning):
            q = mode(params)
        assert q.w == 1.0


class TestSampler:
    def test_near_uniform_acceptance_and_scatter(self):
        params = make_params([-1e-6, -1e-6, -1e-6])
        qs, rate = sample_with_rate(params, np.random.default_rng(4), 100_000)
        assert rate > 0.9
        scatter = qs.T @ qs / len(qs)
        assert np.abs(scatter - np.eye(4) / 4).max() < 0.01

    def test_concentrated_geodesic_containment(self):
        params = make_params([-200.0, -200.0, -200.0])
        qs = sample_with_rate(params, np.random.default_rng(5), 10_000)[0]
        mode_q = mode(params).array
        dist = np.arccos(np.clip(np.abs(qs @ mode_q), 0.0, 1.0))
        assert (dist < 0.2).mean() >= 0.99

    def test_scatter_eigenvectors_align_with_v(self):
        params = make_params([-10.0, -5.0, -2.0])
        qs = sample_with_rate(params, np.random.default_rng(6), 100_000)[0]
        scatter = qs.T @ qs / len(qs)
        _, vecs = np.linalg.eigh(scatter)
        # Ascending eigenvalues pair with columns (v1, v2, v3, v4).
        for i in range(4):
            cosine = abs(vecs[:, i] @ params.V[:, i])
            assert np.degrees(np.arccos(min(1.0, cosine))) < 2.0

    def test_chi_square_against_quadrature_reference(self):
        # Equal concentrations give the quadratic form an exact 1-D law:
        # psi = arccos|v4 . q| has density prop. sin^2(psi) exp(l sin^2 psi).
        lam = -5.0
        params = make_params([lam, lam, lam])
        qs = sample_with_rate(params, np.random.default_rng(7), 50_000)[0]
        psi = np.arccos(np.clip(np.abs(qs @ params.V[:, 3]), 0.0, 1.0))
        edges = np.linspace(0.0, np.pi / 2, 21)
        nodes, weights = np.polynomial.legendre.leggauss(64)

        def cell(a, b):
            t = 0.5 * (b - a) * (nodes + 1.0) + a
            w = 0.5 * (b - a) * weights
            return (w * np.sin(t) ** 2 * np.exp(lam * np.sin(t) ** 2)).sum()

        probs = np.array([cell(a, b) for a, b in zip(edges[:-1], edges[1:])])
        probs /= probs.sum()
        observed = np.histogram(psi, bins=edges)[0]
        _, p_value = stats.chisquare(observed, probs * len(psi))
        assert p_value > 0.01

    def test_moments_match_quadrature_general_lambda(self):
        params = make_params([-10.0, -5.0, -2.0])
        qs = sample_with_rate(params, np.random.default_rng(8), 100_000)[0]
        res = normalization(params)
        proj = qs @ params.V
        empirical = (proj**2).mean(axis=0)
        expected = np.concatenate([res.gradF / res.F, [1.0 - res.gradF.sum() / res.F]])
        assert np.abs(empirical - expected).max() < 0.01

    def test_deterministic_per_seed(self):
        params = make_params([-4.0, -2.0, -1.0])
        a = sample_with_rate(params, np.random.default_rng(11), 500)[0]
        b = sample_with_rate(params, np.random.default_rng(11), 500)[0]
        assert np.array_equal(a, b)

    def test_bad_count(self):
        params = make_params([-1.0, -1.0, -1.0])
        with pytest.raises(InvalidArgumentError):
            sample_with_rate(params, np.random.default_rng(0), 0)


class TestSeedGradient:
    def test_entropy_gradient_matches_finite_differences(self, rng):
        z2 = rng.standard_normal(3)
        seed = BinghamSeed(rng.standard_normal(4), z2)
        _, d_z2 = bingham_loss_and_seed_gradient(seed)
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-5
            up, _ = bingham_loss_and_seed_gradient(BinghamSeed(seed.z1, z2 + step))
            down, _ = bingham_loss_and_seed_gradient(BinghamSeed(seed.z1, z2 - step))
            fd = (up - down) / 2e-5
            assert abs(d_z2[i] - fd) <= 1e-7 + 1e-4 * abs(fd)

