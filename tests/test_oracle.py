import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classpv import (
    GaussianMixtureModel,
    OptimalMonteCarlo,
    SpdMatrix,
    compromise_pvalue,
    inflated_pvalue,
    optimal_pvalue_2class_closed,
    optimal_pvalue_mc,
    optimal_statistic,
    oracle,
    region_map,
    risk_alpha,
    std_normal_cdf,
    typicality_known,
)
from classpv.numerics import log_sum_exp, mahalanobis_sq
from classpv.oracle import log_inflated_statistic, log_weighted_lr


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

    def test_far_points_keep_their_tail_and_order(self, model2):
        # squared radii 64, 100 and 144 on a standard 2-D class, whose tail
        # exp(-r^2 / 2) lies far below 1 - CDF's rounding
        pvals = [typicality_known(model2, 1, np.array([r, 0.0])) for r in (8.0, 10.0, 12.0)]
        for r, p in zip((8.0, 10.0, 12.0), pvals):
            assert abs(p - math.exp(-0.5 * r * r)) <= 1e-12 * p
        assert pvals[0] > pvals[1] > pvals[2] > 0.0

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

    def test_draws_each_class_on_its_first_query(self, model22, monkeypatch):
        drawn = []
        sample = GaussianMixtureModel.sample
        monkeypatch.setattr(GaussianMixtureModel, "sample",
                            lambda self, theta, *args: drawn.append(theta) or sample(self, theta, *args))
        engine = OptimalMonteCarlo(model22, mc_samples=500, seed=8)
        assert drawn == []
        optimal_pvalue_mc(model22, 2, np.zeros(2), mc_samples=500, seed=8)
        assert drawn == [2]
        engine.pvalues(3, np.zeros(2))
        engine.pvalues(3, np.ones((4, 2)))
        assert drawn == [2, 3]

    def test_draws_are_freed_before_the_query_is_scored(self, model22):
        # the last block's draws need not share memory with the query's
        draws = []

        def log_stat(theta, pts):
            if pts.shape[0] == 500:
                draws.append(weakref.ref(pts))
            else:
                assert draws[-1]() is None
            return pts[:, 0]

        OptimalMonteCarlo(model22, mc_samples=500, seed=8, log_stat=log_stat).pvalues(1, np.zeros((3, 2)))
        assert len(draws) == 1


@pytest.mark.bits
class TestBlocks:
    """``OptimalMonteCarlo`` draws and scores _BLOCK rows at a time. Small
    blocks must give every bit that one block of all the rows gives, at a
    ragged M and a ragged query batch, on each statistic the engine serves."""

    QUERIES = np.random.default_rng(21).normal(size=(2_503, 2)) * 2.0

    @staticmethod
    def _homoscedastic2():
        cov = SpdMatrix(np.array([[1.0, 0.4], [0.4, 2.0]]))
        return GaussianMixtureModel(np.array([0.3, 0.7]), np.array([[0.0, 0.0], [2.0, 1.0]]), (cov, cov))

    def _families(self, model22):
        pts = self.QUERIES
        inflated = self._homoscedastic2()
        return {
            "optimal": lambda m: [optimal_pvalue_mc(model22, t, pts, mc_samples=m, seed=4) for t in (1, 2, 3)],
            "compromise": lambda m: [compromise_pvalue(model22, 0.05, t, pts, mc_samples=m, seed=4) for t in (1, 2, 3)],
            "inflated": lambda m: [inflated_pvalue(inflated, 1.7, t, pts, mc_samples=m, seed=4) for t in (1, 2)],
            "region_map": lambda m: [region_map(np.linspace(-4, 4, 37), np.linspace(-3, 5, 29), model=model22,
                                                mc_samples=m, seed=4).pvalues],
        }

    @pytest.mark.parametrize("family", ("optimal", "compromise", "inflated", "region_map"))
    @pytest.mark.parametrize("mc_samples", (10_007, 10_001))
    def test_small_blocks_change_no_bit(self, model22, monkeypatch, family, mc_samples):
        # 10,001 rows in blocks of 1,000 leave a last row, which joins the
        # block before it
        run = self._families(model22)[family]
        monkeypatch.setattr(oracle, "_BLOCK", 1 << 20)
        whole = run(mc_samples)
        monkeypatch.setattr(oracle, "_BLOCK", 1_000)
        blocked = run(mc_samples)
        for a, b in zip(whole, blocked):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mc_samples", (10_007, 10_001))
    def test_small_blocks_sort_the_same_statistics(self, model22, monkeypatch, mc_samples):
        # the p-values above can hide a statistic moved by an ulp, so the
        # sorted statistics are compared themselves
        stats = {}
        for block in (1 << 20, 1_000):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            for seed in range(12):
                engine = OptimalMonteCarlo(model22, mc_samples=mc_samples, seed=seed)
                for theta in (1, 2, 3):
                    engine.pvalues(theta, np.zeros(2))
                stats[block, seed] = engine._sorted_stats
        for seed in range(12):
            for theta in (1, 2, 3):
                assert np.array_equal(stats[1 << 20, seed][theta], stats[1_000, seed][theta]), (seed, theta)

    def test_blocks_are_drawn_in_order_without_a_one_row_draw(self, model22, monkeypatch):
        sizes = []
        sample = GaussianMixtureModel.sample
        monkeypatch.setattr(GaussianMixtureModel, "sample",
                            lambda self, theta, size, rng: sizes.append(size) or sample(self, theta, size, rng))
        monkeypatch.setattr(oracle, "_BLOCK", 1_000)
        OptimalMonteCarlo(model22, mc_samples=3_001, seed=2).pvalues(1, np.zeros(2))
        OptimalMonteCarlo(model22, mc_samples=2_500, seed=2).pvalues(1, np.zeros(2))
        assert sizes == [1_000, 1_000, 1_001, 1_000, 1_000, 500]

    def test_first_query_peaks_at_the_statistics_and_one_block(self, model22):
        # the M sorted statistics take 8M bytes; drawing and scoring all M
        # rows at once peaked at 12 times that
        m = 200_000
        engine = OptimalMonteCarlo(model22, mc_samples=m, seed=6)
        tracemalloc.start()
        try:
            engine.pvalues(1, np.zeros(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * m, peak / (8 * m)


@pytest.mark.bits
class TestPvalueTable:
    """``OptimalMonteCarlo.pvalue_table`` scores every class through
    ``pvalues`` and drops each sample it drew itself before it draws the
    next; a sample an earlier call cached is reused and kept."""

    @pytest.mark.parametrize("seed", range(4))
    def test_columns_have_the_bits_of_pvalues(self, model22, seed):
        pts = np.random.default_rng(seed).normal(size=(57, 2)) * 2.5
        fresh = OptimalMonteCarlo(model22, mc_samples=3_001, seed=seed)
        reference = np.column_stack([fresh.pvalues(theta, pts) for theta in (1, 2, 3)])
        table = OptimalMonteCarlo(model22, mc_samples=3_001, seed=seed).pvalue_table(pts)
        assert table.shape == (57, 3)
        assert np.array_equal(_bits(table), _bits(reference))

    def test_leaves_no_sample_it_drew(self, model22):
        engine = OptimalMonteCarlo(model22, mc_samples=500, seed=2)
        engine.pvalue_table(np.zeros((4, 2)))
        assert engine._sorted_stats == {}

    def test_reuses_a_cached_sample_without_drawing_again(self, model22, monkeypatch):
        drawn = []
        sample = GaussianMixtureModel.sample
        monkeypatch.setattr(GaussianMixtureModel, "sample",
                            lambda self, theta, *args: drawn.append(theta) or sample(self, theta, *args))
        engine = OptimalMonteCarlo(model22, mc_samples=500, seed=2)
        pts = np.ones((3, 2))
        cached = engine.pvalues(2, pts)
        stats = engine._sorted_stats[2]
        table = engine.pvalue_table(pts)
        assert drawn == [2, 1, 3]
        assert list(engine._sorted_stats) == [2] and engine._sorted_stats[2] is stats
        assert np.array_equal(table[:, 1], cached)

    def test_region_map_holds_one_class_sample_at_a_time(self, model22, monkeypatch):
        # each class is drawn in three blocks; at every draw no class's
        # sorted statistics are alive, and none outlive the map
        sorted_stats = {}
        alive_at_draw = []
        pvalues, sample = OptimalMonteCarlo.pvalues, GaussianMixtureModel.sample

        def spy_pvalues(self, theta, x):
            out = pvalues(self, theta, x)
            sorted_stats[theta] = weakref.ref(self._sorted_stats[theta])
            return out

        def spy_sample(self, theta, size, rng):
            alive_at_draw.append(sorted(t for t, ref in sorted_stats.items() if ref() is not None))
            return sample(self, theta, size, rng)

        monkeypatch.setattr(OptimalMonteCarlo, "pvalues", spy_pvalues)
        monkeypatch.setattr(GaussianMixtureModel, "sample", spy_sample)
        monkeypatch.setattr(oracle, "_BLOCK", 1_000)
        xs, ys = np.linspace(-4, 4, 23), np.linspace(-3, 5, 19)
        rmap = region_map(xs, ys, model=model22, mc_samples=3_000, seed=5)
        assert alive_at_draw == [[]] * 9
        assert sorted(sorted_stats) == [1, 2, 3] and all(ref() is None for ref in sorted_stats.values())
        grid = np.column_stack([np.tile(xs, ys.size), np.repeat(ys, xs.size)])
        fresh = OptimalMonteCarlo(model22, mc_samples=3_000, seed=5)
        for theta in (1, 2, 3):
            assert np.array_equal(_bits(rmap.pvalues[:, :, theta - 1].ravel()), _bits(fresh.pvalues(theta, grid)))


def _random_model(seed: int, q: int, common: bool, n_classes: int | None = None) -> GaussianMixtureModel:
    rng = np.random.default_rng(seed)
    n_classes = n_classes or 2 + seed % 2
    weights = rng.uniform(0.2, 1.0, size=n_classes)
    covs = []
    for _ in range(n_classes):
        root = rng.normal(size=(q + 2, q)) * 10.0 ** rng.uniform(-1, 1, size=q)
        covs.append(SpdMatrix(root.T @ root))
    if common:
        covs = [covs[0]] * n_classes
    return GaussianMixtureModel(weights / weights.sum(), rng.normal(size=(n_classes, q)) * 3.0, tuple(covs))


@pytest.mark.bits
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 6), m=st.integers(4, 300), data=st.data())
def test_blocks_rest_on_row_bits_that_do_not_depend_on_the_batch(seed, q, m, data):
    """The invariant the blocks rest on: each statistic gives a row the same
    bits in any part of a batch as in the whole, and a draw made in two parts
    of at least two rows each gives the rows of one draw."""
    model = _random_model(seed, q, common=data.draw(st.booleans()))
    pts = np.random.default_rng(seed + 1).normal(size=(m, q)) * 4.0
    split = data.draw(st.integers(1, m - 1))
    theta = data.draw(st.integers(1, model.n_classes))
    statistics = [
        lambda p: mahalanobis_sq(p, model.means[theta - 1], model.covariances[theta - 1]),
        lambda p: log_weighted_lr(model.weights, model.means, model.covariances, theta, p),
    ]
    if model.has_common_covariance():
        statistics.append(lambda p: log_inflated_statistic(model, 1.5, theta, p))
    for statistic in statistics:
        assert np.array_equal(statistic(pts), np.concatenate([statistic(pts[:split]), statistic(pts[split:])]))

    split = data.draw(st.integers(2, m - 2))
    whole = model.sample(theta, m, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    parts = np.vstack([model.sample(theta, split, rng), model.sample(theta, m - split, rng)])
    assert np.array_equal(whole, parts)


class TestNonFinitePoints:
    """A NaN or infinite point has no place among the draws: every known-model
    entry point raises, as the permutation p-values do, rather than count it
    as the least plausible point (p = 1/(M + 1)) or return NaN."""

    BAD = [np.array([np.nan, 0.0]), np.array([0.0, np.inf]), np.array([[0.0, 0.0], [-np.inf, 1.0]])]

    @pytest.mark.parametrize("x", BAD, ids=["nan", "inf", "batch"])
    def test_every_entry_point_raises(self, model2, model22, x):
        calls = [
            lambda: optimal_pvalue_mc(model22, 1, x, mc_samples=100),
            lambda: compromise_pvalue(model22, 0.1, 2, x, mc_samples=100),
            lambda: inflated_pvalue(model2, 2.0, 1, x, mc_samples=100),
            lambda: optimal_pvalue_2class_closed(model2, 2, x),
        ]
        if x.ndim == 1:
            calls += [lambda: typicality_known(model22, 3, x), lambda: optimal_statistic(model22, 1, x)]
        for call in calls:
            with pytest.raises(ValueError, match="non-finite"):
                call()

    def test_engine_raises_before_it_draws(self, model22):
        engine = OptimalMonteCarlo(model22, mc_samples=100, seed=1)
        with pytest.raises(ValueError, match="non-finite"):
            engine.pvalues(1, np.array([[0.0, 0.0], [np.nan, 0.0]]))
        assert engine._sorted_stats == {}


def _bits(values) -> np.ndarray:
    return np.atleast_1d(np.asarray(values, dtype=float)).view(np.uint64)


def _reference_mahalanobis_sq(pts: np.ndarray, mu: np.ndarray, sigma: SpdMatrix) -> np.ndarray:
    """The row formula the column kernel replaced: forward substitution on
    the transposed difference, in the package's order (row j adds its terms
    for k = 0, 1, ..., j - 1, then subtracts and divides), written out here
    rather than taken from ``solve_lower``; squares summed one component at
    a time."""
    lower = sigma.chol_lower
    y = (pts - mu[None, :]).T.copy()
    for j in range(y.shape[0]):
        if j > 0:
            terms = lower[j, 0] * y[0]
            for k in range(1, j):
                terms = terms + lower[j, k] * y[k]
            y[j] = y[j] - terms
        y[j] = y[j] / lower[j, j]
    out = np.zeros(pts.shape[0])
    for component in y:
        out += component * component
    return out


def _reference_log_weighted_lr(model: GaussianMixtureModel, theta: int, pts: np.ndarray) -> np.ndarray:
    """The stacked formula the column kernel replaced: every class's log
    density in one array, then ``log_sum_exp`` over the competitor terms."""
    q = pts.shape[1]
    log_dens = np.stack([
        -0.5 * (q * math.log(2.0 * math.pi) + cov.log_det + _reference_mahalanobis_sq(pts, mu, cov))
        for mu, cov in zip(model.means, model.covariances)
    ])
    others = [b for b in range(model.n_classes) if b != theta - 1]
    log_norm = math.log(float(np.sum(model.weights[others])))
    terms = np.log(model.weights[others])[:, None] - log_norm + log_dens[others] - log_dens[theta - 1][None, :]
    return np.atleast_1d(log_sum_exp(terms, axis=0))


@pytest.mark.bits
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 6),
    n_classes=st.integers(2, 4),
    m=st.integers(2, 120),
    data=st.data(),
)
def test_column_kernel_keeps_the_bits_of_the_row_formula(seed, q, n_classes, m, data):
    """``mahalanobis_sq`` and ``log_weighted_lr`` score from component
    columns; a row gets the bits of the row formula they replaced, and the
    same bits alone, in the whole batch and in blocks. The batch holds
    copied rows and rows 10^3 away."""
    model = _random_model(seed, q, common=data.draw(st.booleans()), n_classes=n_classes)
    rng = np.random.default_rng(seed + 1)
    pts = rng.normal(size=(m, q)) * 4.0
    pts[rng.random(m) < 0.2] *= 1e3
    copies = rng.integers(0, m, size=m // 4)
    pts[rng.integers(0, m, size=copies.size)] = pts[copies]
    theta = data.draw(st.integers(1, n_classes))
    cuts = sorted(set(data.draw(st.lists(st.integers(1, m - 1), max_size=4))))
    kernels = [
        (lambda p: mahalanobis_sq(p, model.means[theta - 1], model.covariances[theta - 1]),
         lambda p: _reference_mahalanobis_sq(p, model.means[theta - 1], model.covariances[theta - 1])),
        (lambda p: log_weighted_lr(model.weights, model.means, model.covariances, theta, p),
         lambda p: _reference_log_weighted_lr(model, theta, p)),
    ]
    for kernel, reference in kernels:
        whole = _bits(kernel(pts))
        assert np.array_equal(whole, _bits(reference(pts)))
        assert np.array_equal(whole, _bits(np.concatenate([kernel(block) for block in np.split(pts, cuts)])))
        assert np.array_equal(whole, _bits([kernel(row) for row in pts]))
        # copied rows tie
        _, group = np.unique(pts, axis=0, return_inverse=True)
        first = np.unique(group, return_index=True)[1]
        assert np.array_equal(whole, whole[first][group])


def test_model_validation():
    cov = SpdMatrix(np.eye(2))
    with pytest.raises(ValueError, match="sum"):
        GaussianMixtureModel(np.array([0.6, 0.6]), np.zeros((2, 2)), (cov, cov))
    with pytest.raises(ValueError, match="identical"):
        GaussianMixtureModel(np.array([0.5, 0.5]), np.zeros((2, 2)), (cov, cov))
    with pytest.raises(ValueError, match="positive"):
        GaussianMixtureModel(np.array([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]]), (cov, cov))
