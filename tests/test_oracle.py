import math

import numpy as np
import pytest

from classpv import (
    GaussianMixtureModel,
    OptimalMonteCarlo,
    SpdMatrix,
    compromise_pvalue,
    inflated_pvalue,
    optimal_pvalue_2class_closed,
    optimal_pvalue_mc,
    optimal_statistic,
    risk_alpha,
    std_normal_cdf,
    typicality_known,
)
from classpv.numerics import log_sum_exp, mahalanobis_sq
from classpv.oracle import log_inflated_statistic


class TestOptimalStatistic:
    def test_equal_densities_give_one(self, model2):
        # midpoint of two homoscedastic classes: density ratio is exactly 1
        midpoint = np.array([1.0, 0.0])
        assert abs(optimal_statistic(model2, 1, midpoint) - 1.0) < 1e-12
        assert abs(optimal_statistic(model2, 2, midpoint) - 1.0) < 1e-12

    def test_hand_value_at_own_mean(self, model2):
        assert abs(optimal_statistic(model2, 1, np.zeros(2)) - math.exp(-2.0)) < 1e-12

    def test_competitor_weight_scaling_irrelevant(self, model3_weighted):
        m = model3_weighted
        # double every weight except class 1's, renormalize the prior
        w = np.array([m.weights[0], 2 * m.weights[1], 2 * m.weights[2]])
        w /= w.sum()
        scaled = GaussianMixtureModel(w, m.means, m.covariances)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=2) * 2.0
            a = optimal_statistic(m, 1, x)
            b = optimal_statistic(scaled, 1, x)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestOptimalPvalueMc:
    def test_reproducible(self, model2):
        x = np.array([0.4, -1.0])
        a = optimal_pvalue_mc(model2, 1, x, mc_samples=500, seed=9)
        b = optimal_pvalue_mc(model2, 1, x, mc_samples=500, seed=9)
        assert a == b

    def test_matches_closed_form(self, model2):
        rng = np.random.default_rng(11)
        m = 20_000
        for theta in (1, 2):
            for _ in range(5):
                x = model2.sample(theta, 1, rng)[0]
                closed = optimal_pvalue_2class_closed(model2, theta, x)
                mc = optimal_pvalue_mc(model2, theta, x, mc_samples=m, seed=rng.integers(2**31))
                assert abs(mc - closed) <= 3.0 * math.sqrt(closed * (1 - closed) / m) + 2.0 / m

    def test_approaches_one_deep_in_own_class(self, model2):
        # moving away from every competitor drives the posterior weight of the
        # class to 1 and the p-value to the top of its range
        assert optimal_pvalue_mc(model2, 1, np.array([-8.0, 0.0]), mc_samples=2000, seed=3) > 0.99
        assert optimal_pvalue_mc(model2, 2, np.array([10.0, 0.0]), mc_samples=2000, seed=3) > 0.99

    def test_on_grid_and_monotone_in_statistic(self, model2):
        m = 400
        seed = 21
        xs = [np.array([t, 0.0]) for t in (0.0, 0.5, 1.0, 1.5)]
        pvs = [optimal_pvalue_mc(model2, 1, x, mc_samples=m, seed=seed) for x in xs]
        for p in pvs:
            j = round(p * (m + 1))
            assert 1 <= j <= m + 1 and abs(p - j / (m + 1)) < 1e-12
        stats = [optimal_statistic(model2, 1, x) for x in xs]
        order = np.argsort(stats)
        sorted_pvs = np.array(pvs)[order]
        assert all(b <= a for a, b in zip(sorted_pvs, sorted_pvs[1:]))

    def test_prior_invariance_three_classes(self, model3_weighted):
        m = model3_weighted
        w = np.array([m.weights[0], 3 * m.weights[1], 3 * m.weights[2]])
        w /= w.sum()
        scaled = GaussianMixtureModel(w, m.means, m.covariances)
        x = np.array([1.2, 0.7])
        a = optimal_pvalue_mc(m, 1, x, mc_samples=2000, seed=17)
        b = optimal_pvalue_mc(scaled, 1, x, mc_samples=2000, seed=17)
        assert a == b

    def test_two_class_weights_fully_irrelevant(self):
        cov = (SpdMatrix(np.eye(2)), SpdMatrix(np.eye(2)))
        means = np.array([[0.0, 0.0], [2.0, 0.0]])
        even = GaussianMixtureModel(np.array([0.5, 0.5]), means, cov)
        skewed = GaussianMixtureModel(np.array([0.9, 0.1]), means, cov)
        x = np.array([0.3, 0.3])
        for theta in (1, 2):
            a = optimal_pvalue_mc(even, theta, x, mc_samples=1500, seed=5)
            b = optimal_pvalue_mc(skewed, theta, x, mc_samples=1500, seed=5)
            assert a == b

    def test_null_uniformity_of_closed_form(self, model2):
        # P(pi*_theta <= alpha | Y = theta) should be alpha for the continuous p-value
        m = 20_000
        rng = np.random.default_rng(23)
        draws = model2.sample(1, m, rng)
        pvs = optimal_pvalue_2class_closed(model2, 1, draws)
        for alpha in (0.05, 0.25, 0.5):
            rate = float(np.mean(pvs <= alpha))
            assert abs(rate - alpha) <= 3.0 * math.sqrt(alpha * (1 - alpha) / m)


class TestClosedForm2Class:
    def test_midpoint_anchor(self, model2):
        p = optimal_pvalue_2class_closed(model2, 1, np.array([1.0, 0.0]))
        assert abs(p - std_normal_cdf(-1.0)) < 1e-12
        p2 = optimal_pvalue_2class_closed(model2, 2, np.array([1.0, 0.0]))
        assert abs(p2 - std_normal_cdf(-1.0)) < 1e-12

    def test_class_center_anchor(self, model2):
        assert abs(optimal_pvalue_2class_closed(model2, 1, np.zeros(2)) - 0.5) < 1e-12
        p2 = optimal_pvalue_2class_closed(model2, 2, np.zeros(2))
        assert abs(p2 - std_normal_cdf(-2.0)) < 1e-12

    def test_coincident_means_rejected(self):
        cov = (SpdMatrix(np.eye(2)), SpdMatrix(np.eye(2)))
        model = GaussianMixtureModel(
            np.array([0.5, 0.5]), np.array([[0.0, 0.0], [0.0, 0.0]]),
            (cov[0], SpdMatrix(2.0 * np.eye(2))),
        )
        with pytest.raises(ValueError):
            optimal_pvalue_2class_closed(model, 1, np.zeros(2))

    def test_well_separated_classes_never_give_full_region(self):
        # separation 4 >= 2 * upper 0.95 normal quantile: regions are {1}, {2} or empty
        cov = (SpdMatrix(np.eye(2)), SpdMatrix(np.eye(2)))
        model = GaussianMixtureModel(
            np.array([0.5, 0.5]), np.array([[0.0, 0.0], [4.0, 0.0]]), cov
        )
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = rng.uniform(-3, 7, size=2)
            p1 = optimal_pvalue_2class_closed(model, 1, x)
            p2 = optimal_pvalue_2class_closed(model, 2, x)
            assert not (p1 > 0.05 and p2 > 0.05)


class TestTypicality:
    def test_one_at_center(self, model22):
        for theta in (1, 2, 3):
            assert typicality_known(model22, theta, model22.means[theta - 1]) == 1.0

    def test_chisq_quantile_anchor(self):
        cov = (SpdMatrix(np.eye(2)), SpdMatrix(np.eye(2)))
        model = GaussianMixtureModel(np.array([0.5, 0.5]), np.array([[0.0, 0.0], [2.0, 0.0]]), cov)
        # squared radius at the 95% chi-square quantile with two degrees of freedom
        x = np.array([math.sqrt(5.9915), 0.0])
        assert abs(typicality_known(model, 1, x) - 0.05) < 1e-4

    def test_rotation_invariance(self, model22):
        angle = 0.7
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        rotated = GaussianMixtureModel(
            model22.weights,
            model22.means @ rot.T,
            tuple(SpdMatrix(rot @ c.matrix @ rot.T) for c in model22.covariances),
        )
        rng = np.random.default_rng(41)
        for _ in range(10):
            x = rng.normal(size=2) * 2
            a = typicality_known(model22, 1, x)
            b = typicality_known(rotated, 1, rot @ x)
            assert abs(a - b) < 1e-9


class TestCompromise:
    def test_tiny_background_matches_optimal(self, model22):
        x = np.array([0.5, 0.5])
        m = 4000
        for theta in (1, 3):
            a = compromise_pvalue(model22, 1e-8, theta, x, mc_samples=m, seed=13)
            b = optimal_pvalue_mc(model22, theta, x, mc_samples=m, seed=13)
            assert abs(a - b) <= 2.0 / (m + 1)

    def test_huge_background_matches_typicality(self, model22):
        x = np.array([0.5, 0.5])
        m = 20_000
        for theta in (1, 2):
            a = compromise_pvalue(model22, 1e8, theta, x, mc_samples=m, seed=19)
            t = typicality_known(model22, theta, x)
            assert abs(a - t) <= 3.0 * math.sqrt(t * (1 - t) / m) + 2.0 / m

    def test_deterministic(self, model22):
        x = np.array([-1.0, 2.0])
        a = compromise_pvalue(model22, 1.0, 2, x, mc_samples=300, seed=7)
        b = compromise_pvalue(model22, 1.0, 2, x, mc_samples=300, seed=7)
        assert a == b

    def test_nonpositive_weight_rejected(self, model22):
        with pytest.raises(ValueError):
            compromise_pvalue(model22, 0.0, 1, np.zeros(2), mc_samples=10, seed=0)


class TestInflated:
    def _homoscedastic3(self):
        cov = SpdMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]))
        return GaussianMixtureModel(
            np.array([0.2, 0.5, 0.3]),
            np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]),
            (cov, cov, cov),
        )

    def test_both_algebraic_forms_agree(self):
        model = self._homoscedastic3()
        c = 2.5
        cov = model.covariances[0]
        rng = np.random.default_rng(47)
        norm = float(np.sum(np.delete(model.weights, 0)))
        for _ in range(20):
            x = rng.normal(size=2) * 2.0
            # direct form: weighted sum of exp(m(x, mu_theta)/2 - m(x, mu_b)/(2c))
            direct = 0.0
            for b in range(3):
                direct += (model.weights[b] / norm) * math.exp(
                    0.5 * mahalanobis_sq(x, model.means[0], cov)
                    - mahalanobis_sq(x, model.means[b], cov) / (2.0 * c)
                )
            recentered = math.exp(float(log_inflated_statistic(model, c, 1, x[None, :])[0]))
            assert abs(direct - recentered) <= 1e-10 * direct

    def test_c_close_to_one_dominated_by_nearest(self):
        model = self._homoscedastic3()
        x = np.array([2.9, 0.1])  # essentially at class 2's center
        c = 1.0 + 1e-6
        logs = float(log_inflated_statistic(model, c, 1, x[None, :])[0])
        # nearest competing class's term carries the sum; the others add e^{-gap}
        nearest = (
            math.log(model.weights[1] / float(np.sum(model.weights[1:])))
            + 0.5 * (1.0 - 1.0 / c) * mahalanobis_sq(x, model.means[0] - (model.means[1] - model.means[0]) / (c - 1.0), model.covariances[0])
            - 0.5 * mahalanobis_sq(model.means[1], model.means[0], model.covariances[0]) / (c - 1.0)
        )
        assert 0.0 <= logs - nearest <= 0.01

    def test_deterministic_and_validated(self):
        model = self._homoscedastic3()
        a = inflated_pvalue(model, 2.0, 1, np.array([1.0, 1.0]), mc_samples=200, seed=3)
        b = inflated_pvalue(model, 2.0, 1, np.array([1.0, 1.0]), mc_samples=200, seed=3)
        assert a == b
        with pytest.raises(ValueError):
            inflated_pvalue(model, 1.0, 1, np.zeros(2), mc_samples=10, seed=0)


class TestRisk:
    def test_constant_pvalues(self, model22):
        all_one = risk_alpha(lambda t, x: 1.0, model22, 0.05, mc_samples=50, seed=1)
        assert all_one.total == 3.0
        all_zero = risk_alpha(lambda t, x: 0.0, model22, 0.05, mc_samples=50, seed=1)
        assert all_zero.total == 0.0

    def test_optimal_beats_typicality(self, model22):
        m = 1500
        shared = OptimalMonteCarlo(model22, mc_samples=20_000, seed=77)
        r_opt = risk_alpha(shared.pvalues, model22, 0.05, mc_samples=m, seed=55)
        r_typ = risk_alpha(lambda t, x: typicality_known(model22, t, x), model22, 0.05, mc_samples=m, seed=55)
        two_se = 2.0 * math.sqrt(3.0) * math.sqrt(0.25 / m)
        assert r_opt.total <= r_typ.total + two_se


class TestSharedSampleEvaluator:
    def test_matches_single_shot_distribution(self, model2):
        shared = OptimalMonteCarlo(model2, mc_samples=20_000, seed=31)
        rng = np.random.default_rng(37)
        for theta in (1, 2):
            for _ in range(5):
                x = model2.sample(theta, 1, rng)[0]
                closed = optimal_pvalue_2class_closed(model2, theta, x)
                assert abs(shared.pvalues(theta, x) - closed) <= 3.0 * math.sqrt(
                    closed * (1 - closed) / 20_000
                ) + 2.0 / 20_000

    def test_batch_matches_scalar(self, model22):
        shared = OptimalMonteCarlo(model22, mc_samples=2000, seed=3)
        pts = np.random.default_rng(5).normal(size=(6, 2))
        batch = shared.pvalues(2, pts)
        for j in range(6):
            assert batch[j] == shared.pvalues(2, pts[j])


def _background_log_stat(model, w0):
    """The compromise statistic written out: log of the mixture padded with a
    constant-density background of weight w0, minus the class-theta log density."""
    def log_stat(theta, pts):
        log_dens = np.stack([model.log_density(b, pts) for b in range(1, model.n_classes + 1)])
        terms = np.vstack([np.log(model.weights)[:, None] + log_dens, np.full((1, pts.shape[0]), math.log(w0))])
        return -(log_dens[theta - 1] - log_sum_exp(terms, axis=0))
    return log_stat


class TestOneEngine:
    """Each per-point Monte Carlo p-value is one ``OptimalMonteCarlo``
    evaluation with its statistic, at a single point and across a batch."""

    @pytest.mark.parametrize("family", ("optimal", "compromise", "inflated"))
    def test_per_point_function_is_the_engine(self, model22, model2, family):
        model = model2 if family == "inflated" else model22
        per_point, log_stat = {
            "optimal": (lambda t, x: optimal_pvalue_mc(model, t, x, mc_samples=700, seed=8), None),
            "compromise": (lambda t, x: compromise_pvalue(model, 0.05, t, x, mc_samples=700, seed=8),
                           _background_log_stat(model, 0.05)),
            "inflated": (lambda t, x: inflated_pvalue(model, 1.8, t, x, mc_samples=700, seed=8),
                         lambda t, pts: log_inflated_statistic(model, 1.8, t, pts)),
        }[family]
        engine = OptimalMonteCarlo(model, mc_samples=700, seed=8, log_stat=log_stat)
        pts = np.random.default_rng(9).normal(size=(7, 2)) * 1.5
        for theta in range(1, model.n_classes + 1):
            batch = per_point(theta, pts)
            assert np.array_equal(batch, engine.pvalues(theta, pts))
            for j in range(pts.shape[0]):
                single = per_point(theta, pts[j])
                assert isinstance(single, float)
                assert single == engine.pvalues(theta, pts[j]) == batch[j]


def test_model_validation():
    cov = SpdMatrix(np.eye(2))
    with pytest.raises(ValueError, match="sum"):
        GaussianMixtureModel(np.array([0.6, 0.6]), np.zeros((2, 2)), (cov, cov))
    with pytest.raises(ValueError, match="identical"):
        GaussianMixtureModel(np.array([0.5, 0.5]), np.zeros((2, 2)), (cov, cov))
    with pytest.raises(ValueError, match="positive"):
        GaussianMixtureModel(np.array([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]]), (cov, cov))
