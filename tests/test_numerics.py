import math
import warnings

import numpy as np
import pytest
from scipy import stats

from classpv import fit_pooled_gaussian, sample_gaussian_mixture, standard_2class_model, typicality_index
from classpv.numerics import (
    SingularMatrixError,
    SpdMatrix,
    cholesky,
    chisq_cdf,
    chisq_sf,
    f_cdf,
    f_sf,
    log_sum_exp,
    mahalanobis_sq,
    solve_lower,
    std_normal_cdf,
)


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_minus_one_anchor(self):
        # frozen from the complementary-error-function oracle
        assert abs(std_normal_cdf(-1.0) - 0.15865525393145707) < 1e-12

    def test_upper_quantile(self):
        assert abs(std_normal_cdf(1.959964) - 0.975) < 1e-6

    def test_against_scipy_grid(self):
        zs = np.linspace(-8.0, 8.0, 401)
        for z in zs:
            assert abs(std_normal_cdf(z) - stats.norm.cdf(z)) < 1e-12

    def test_saturates(self):
        assert std_normal_cdf(-50.0) == 0.0
        assert std_normal_cdf(50.0) == 1.0


class TestChisqCdf:
    def test_zero_boundary(self):
        for q in (1, 2, 5, 30):
            assert chisq_cdf(0.0, q) == 0.0

    def test_q2_closed_form(self):
        # CDF for two degrees of freedom is 1 - exp(-x/2)
        for x in (0.5, 2.9957, 5.9915, 10.0):
            assert abs(chisq_cdf(x, 2) - (1.0 - math.exp(-x / 2.0))) < 1e-12

    def test_q2_upper_quantile(self):
        assert abs(chisq_cdf(5.9915, 2) - 0.95) < 1e-4

    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            q = int(rng.integers(1, 60))
            x = float(rng.uniform(0.0, 3.0 * q))
            assert abs(chisq_cdf(x, q) - stats.chi2.cdf(x, q)) < 1e-10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chisq_cdf(-0.1, 3)

    def test_monotone(self):
        xs = np.linspace(0.0, 40.0, 200)
        vals = [chisq_cdf(x, 7) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestChisqSf:
    def test_against_scipy_down_to_1e_300(self):
        # up to chi2.sf = 1e-300, both sides of the series / continued
        # fraction switch at x = q + 2, to a relative error of 1e-12
        for q in (1, 2, 3, 5, 10, 30, 100):
            xs = np.concatenate([np.linspace(0.0, q + 4.0, 41), np.geomspace(q + 4.0, 1500.0 + 3.0 * q, 60)])
            for x in xs:
                want = stats.chi2.sf(x, q)
                if want < 1e-300:
                    continue
                assert abs(chisq_sf(float(x), q) - want) <= 1e-12 * want, (q, x)

    def test_far_tail_is_not_cancelled(self):
        # 1 - chisq_cdf rounds to 0 here; the direct tail keeps its digits
        assert 1.0 - chisq_cdf(100.0, 2) == 0.0
        assert abs(chisq_sf(100.0, 2) - math.exp(-50.0)) <= 1e-13 * math.exp(-50.0)

    def test_complements_the_cdf(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = int(rng.integers(1, 60))
            x = float(rng.uniform(0.0, 3.0 * q))
            assert abs(chisq_sf(x, q) + chisq_cdf(x, q) - 1.0) < 1e-12

    def test_boundary_and_validation(self):
        for q in (1, 2, 5):
            assert chisq_sf(0.0, q) == 1.0
        with pytest.raises(ValueError):
            chisq_sf(-0.1, 3)
        with pytest.raises(ValueError):
            chisq_sf(1.0, 0)


class TestFCdf:
    def test_zero_boundary(self):
        assert f_cdf(0.0, 3, 7) == 0.0

    def test_2_2_closed_form(self):
        # CDF for (2, 2) degrees of freedom is x / (x + 1)
        assert abs(f_cdf(1.0, 2, 2) - 0.5) < 1e-12
        assert abs(f_cdf(3.0, 2, 2) - 0.75) < 1e-12

    def test_against_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d1 = int(rng.integers(1, 40))
            d2 = int(rng.integers(1, 200))
            x = float(rng.uniform(0.0, 6.0))
            assert abs(f_cdf(x, d1, d2) - stats.f.cdf(x, d1, d2)) < 1e-10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f_cdf(-1e-9, 2, 2)


class TestFSf:
    def test_typicality_tail_points_against_scipy(self):
        # the F(2, 57) pivots of typicality_index on the seeded 30 + 30
        # standard set at (12, 0), (15, 0) and (20, 0), where 1 - F is 0.0
        d = sample_gaussian_mixture(standard_2class_model(), [30, 30], seed=0)
        fit = fit_pooled_gaussian(d)
        c_theta = 57 / (2 * 58 * (1.0 + 1.0 / 30))
        for x, want in (((12.0, 0.0), 3.1e-17), ((15.0, 0.0), 1.8e-21), ((20.0, 0.0), 1.7e-27)):
            pivot = c_theta * mahalanobis_sq(np.array(x), fit.means[0], fit.sigma)
            assert 1.0 - f_cdf(pivot, 2, 57) == 0.0
            exact = stats.f.sf(pivot, 2, 57)
            assert abs(exact - want) <= 0.05 * want
            assert abs(f_sf(pivot, 2, 57) - exact) <= 1e-12 * exact, x
            assert typicality_index(fit, 1, np.array(x)) == f_sf(pivot, 2, 57)

    def test_against_scipy_down_to_1e_300(self):
        # both sides of the continued fraction's switch, to a relative
        # error of 1e-12, up to f.sf = 1e-300
        for d1 in (1, 2, 3, 6):
            for d2 in (3, 20, 57):
                for x in np.geomspace(1e-3, 1e14, 300):
                    want = stats.f.sf(x, d1, d2)
                    if want < 1e-300:
                        continue
                    assert abs(f_sf(float(x), d1, d2) - want) <= 1e-12 * want, (d1, d2, x)

    def test_complements_the_cdf(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d1, d2 = int(rng.integers(1, 40)), int(rng.integers(1, 200))
            x = float(rng.uniform(0.0, 6.0))
            assert abs(f_sf(x, d1, d2) + f_cdf(x, d1, d2) - 1.0) < 1e-12

    def test_boundary_and_validation(self):
        assert f_sf(0.0, 3, 7) == 1.0
        assert f_sf(1e300, 3, 7) == 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            f_sf(-1e-9, 2, 2)
        with pytest.raises(ValueError, match="positive"):
            f_sf(1.0, 2, 0)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_example(self):
        lower = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(lower, [[2.0, 0.0], [1.0, 2.0]], rtol=0, atol=1e-15)

    def test_rank_deficient(self):
        with pytest.raises(SingularMatrixError) as info:
            cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert info.value.pivot_index == 1

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            q = int(rng.integers(1, 8))
            a = rng.normal(size=(q, q))
            m = a @ a.T + 0.1 * np.eye(q)
            lower = cholesky(m)
            assert np.allclose(lower @ lower.T, m, rtol=1e-10)
            assert np.allclose(np.triu(lower, 1), 0.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestMahalanobis:
    def test_euclidean_case(self):
        s = SpdMatrix(np.eye(2))
        assert mahalanobis_sq(np.array([3.0, 4.0]), np.zeros(2), s) == 25.0

    def test_zero_at_center(self):
        s = SpdMatrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert mahalanobis_sq(np.array([1.0, -2.0]), np.array([1.0, -2.0]), s) == 0.0

    def test_hand_example(self):
        s = SpdMatrix(np.array([[4.0, 0.0], [0.0, 1.0]]))
        assert abs(mahalanobis_sq(np.array([2.0, 0.0]), np.zeros(2), s) - 1.0) < 1e-14

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        s = SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.5]]))
        pts = rng.normal(size=(10, 2))
        mu = np.array([0.3, -0.7])
        batch = mahalanobis_sq(pts, mu, s)
        for j in range(10):
            assert abs(batch[j] - mahalanobis_sq(pts[j], mu, s)) < 1e-14

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = int(rng.integers(1, 6))
            base = rng.normal(size=(q, q))
            sigma = SpdMatrix(base @ base.T + 0.2 * np.eye(q))
            x = rng.normal(size=q)
            mu = rng.normal(size=q)
            a = rng.normal(size=(q, q)) + 2.0 * np.eye(q)
            mapped = SpdMatrix(a @ sigma.matrix @ a.T)
            d0 = mahalanobis_sq(x, mu, sigma)
            d1 = mahalanobis_sq(a @ x, a @ mu, mapped)
            assert abs(d0 - d1) <= 1e-8 * max(1.0, abs(d0))

    def test_dimension_mismatch(self):
        s = SpdMatrix(np.eye(3))
        with pytest.raises(ValueError):
            mahalanobis_sq(np.zeros(2), np.zeros(2), s)


def test_solve_lower_matches_numpy():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 5))
    m = a @ a.T + np.eye(5)
    lower = cholesky(m)
    rhs = rng.normal(size=(5, 3))
    assert np.allclose(solve_lower(lower, rhs), np.linalg.solve(lower, rhs), rtol=1e-12)


def test_log_sum_exp_stability():
    vals = np.array([-1500.0, -1500.0 + math.log(2.0)])
    assert abs(log_sum_exp(vals) - (-1500.0 + math.log(3.0))) < 1e-12
    mat = np.array([[0.0, math.log(3.0)], [math.log(2.0), math.log(4.0)]])
    out = log_sum_exp(mat, axis=0)
    assert np.allclose(out, [math.log(3.0), math.log(7.0)])


@pytest.mark.parametrize("shape, axis", [((1, 9), 0), ((9, 1), 1), ((3, 1, 3), 1), ((3, 3, 1), -1)])
def test_log_sum_exp_over_one_term_is_the_term(shape, axis):
    """A one-term axis comes back as it is: the max-shifted formula gives
    the same values but for the sign of a zero, and a -inf term warns of
    nothing."""
    terms = np.array([-1e308, -745.5, -1.5, -0.0, 0.0, 2.5e-320, 709.5, np.inf, -np.inf]).reshape(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_sum_exp(terms, axis=axis)
    shift = np.where(np.isfinite(terms), terms, 0.0)
    with np.errstate(divide="ignore"):
        shifted = np.squeeze(np.log(np.exp(terms - shift)) + shift, axis=axis)
    assert out.shape == shifted.shape
    assert np.array_equal(out, shifted)
    assert out.tobytes() == np.squeeze(terms, axis=axis).tobytes()  # -0.0 stays -0.0
