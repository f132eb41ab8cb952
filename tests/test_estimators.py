import math

import numpy as np
import pytest

from classpv import (
    Augment,
    DegenerateFitError,
    GaussianMixtureModel,
    PermutationMethod,
    Relabel,
    Remove,
    Replace,
    SpdMatrix,
    fit_logistic,
    fit_pooled_gaussian,
    gaussian_update,
    knn_augmented_counts,
    knn_fit,
    optimal_statistic,
    sample_gaussian_mixture,
    typicality_index,
    validate_training_set,
)
from classpv.core import TrainingSet
from classpv.estimators import (
    GaussianStatistic,
    KnnStatistic,
    default_k,
)
from classpv.numerics import f_cdf, mahalanobis_sq


def _shuffle_group(d: TrainingSet, theta: int, seed: int) -> TrainingSet:
    """Permute the rows of one class in place; same multiset, different order."""
    rng = np.random.default_rng(seed)
    order = np.arange(d.n)
    group = d.group(theta)
    order[group] = rng.permutation(group)
    return TrainingSet(d.features[order], d.labels[order], d.n_classes, d.label_names)


class TestPooledGaussianFit:
    def test_hand_example(self):
        d = validate_training_set([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 3.0]], [1, 1, 2, 2])
        fit = fit_pooled_gaussian(d)
        assert np.array_equal(fit.means, [[1.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(fit.sigma.matrix, np.eye(2))

    def test_zero_variance_dimension_degenerate(self):
        d = validate_training_set([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]], [1, 1, 2, 2])
        with pytest.raises(DegenerateFitError) as info:
            fit_pooled_gaussian(d)
        assert info.value.pivot_index is not None

    def test_row_permutation_bitwise_invariant(self, train2):
        fit = fit_pooled_gaussian(train2)
        shuffled = fit_pooled_gaussian(_shuffle_group(train2, 1, 5))
        assert np.array_equal(fit.means, shuffled.means)
        assert np.array_equal(fit.sigma.matrix, shuffled.sigma.matrix)


class TestPluginStatistic:
    def test_matches_oracle_on_same_parameters(self):
        means = np.array([[0.0, 0.0], [2.0, 0.0]])
        sigma = SpdMatrix(np.eye(2))
        d = validate_training_set(np.zeros((20, 2)) + np.arange(20)[:, None], [1] * 10 + [2] * 10)
        fit = GaussianStatistic(data=d, means=means, sigma=sigma)
        model = GaussianMixtureModel(np.array([0.5, 0.5]), means, (sigma, sigma))
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=2) * 2
            assert math.exp(fit.evaluate(1, [x])[0]) == optimal_statistic(model, 1, x)

    def test_equidistant_point_gives_one(self):
        d = validate_training_set(
            [[0.0, 0.0], [1.0, 2.0], [4.0, 0.0], [3.0, 2.0]], [1, 1, 2, 2]
        )
        fit = fit_pooled_gaussian(d)
        # x on the perpendicular bisector of the two fitted means (diagonal pooled cov)
        assert np.array_equal(fit.means, [[0.5, 1.0], [3.5, 1.0]])
        assert abs(math.exp(fit.evaluate(1, [[2.0, 1.0]])[0]) - 1.0) < 1e-12
        assert abs(math.exp(fit.evaluate(2, [[2.0, 1.0]])[0]) - 1.0) < 1e-12

    def test_group_shuffle_invariance(self, train2):
        stat = PermutationMethod("plugin").fit(train2)
        stat_shuffled = PermutationMethod("plugin").fit(_shuffle_group(train2, 2, 9))
        x = np.array([0.3, 0.4])
        assert stat.evaluate(1, [x])[0] == stat_shuffled.evaluate(1, [x])[0]
        assert stat.evaluate(2, [x])[0] == stat_shuffled.evaluate(2, [x])[0]


class TestTypicalityIndex:
    def test_normalizing_constant_arithmetic(self, model22):
        d = sample_gaussian_mixture(model22, [100, 100, 100], seed=8)
        fit = fit_pooled_gaussian(d)
        x = np.array([0.5, 0.5])
        n, big_l, q = 300, 3, 2
        c_theta = (n - big_l - q + 1) / (q * (n - big_l) * (1 + 1 / 100))
        assert abs(c_theta - 0.493383) < 1e-6
        t_val = mahalanobis_sq(x, fit.means[0], fit.sigma)
        expected = 1.0 - f_cdf(c_theta * t_val, q, n - big_l - q + 1)
        assert abs(typicality_index(fit, 1, x) - expected) < 1e-12

    def test_one_at_fitted_center(self, train2):
        fit = fit_pooled_gaussian(train2)
        assert typicality_index(fit, 1, fit.means[0]) == 1.0

    def test_needs_enough_rows(self):
        # n < L + q cannot arise from fit_pooled_gaussian (the scatter would be
        # rank-deficient), so exercise the guard on a hand-built fit
        d = validate_training_set(np.arange(12.0).reshape(4, 3), [1, 1, 2, 2])
        fit = GaussianStatistic(data=d, means=np.zeros((2, 3)), sigma=SpdMatrix(np.eye(3)))
        with pytest.raises(ValueError, match="L \\+ q"):
            typicality_index(fit, 1, np.zeros(3))

    def test_pivot_uniform_under_true_model(self, model2):
        # quick version of the exact-pivot check; the acceptance suite runs it at scale
        draws = 400
        children = np.random.SeedSequence(99).spawn(draws)
        values = np.empty(draws)
        for r in range(draws):
            rng = np.random.default_rng(children[r])
            d = sample_gaussian_mixture(model2, [10, 10], seed=int(rng.integers(2**31)))
            x = model2.sample(1, 1, rng)[0]
            values[r] = typicality_index(fit_pooled_gaussian(d), 1, x)
        values.sort()
        grid = np.arange(1, draws + 1) / draws
        ks = float(np.max(np.maximum(grid - values, values - (grid - 1.0 / draws))))
        assert ks < 1.63 / math.sqrt(draws) * 1.4


class TestGaussianUpdate:
    def test_remove_then_augment_restores(self, train2):
        fit = fit_pooled_gaussian(train2)
        i = 7
        x_i, y_i = train2.features[i], int(train2.labels[i])
        back = gaussian_update(gaussian_update(fit, Remove(i)), Augment(x_i, y_i))
        assert np.allclose(back.means, fit.means, rtol=1e-9)
        assert np.allclose(back.sigma.matrix, fit.sigma.matrix, rtol=1e-9)

    def test_replace_with_self_is_identity(self, train2):
        fit = fit_pooled_gaussian(train2)
        same = gaussian_update(fit, Replace(3, train2.features[3]))
        assert np.allclose(same.means, fit.means, rtol=1e-12)
        assert np.allclose(same.sigma.matrix, fit.sigma.matrix, rtol=1e-12)

    def test_replace_in_one_member_class_matches_scratch(self):
        # the add step runs first, so the class never drops to zero members
        d = validate_training_set([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0], [3.0, 1.0], [5.0, 4.0]], [1, 1, 2, 2, 3])
        x = np.array([4.0, 6.0])
        updated = gaussian_update(fit_pooled_gaussian(d), Replace(4, x))
        scratch = fit_pooled_gaussian(d.replace(4, x))
        assert np.allclose(updated.means, scratch.means, rtol=1e-12)
        assert np.allclose(updated.sigma.matrix, scratch.sigma.matrix, rtol=1e-12)

    def test_random_edits_match_scratch(self):
        rng = np.random.default_rng(17)
        for trial in range(40):
            big_l = int(rng.integers(2, 4))
            q = int(rng.integers(1, 4))
            sizes = rng.integers(3, 11, size=big_l)
            labels = np.concatenate([[b + 1] * s for b, s in enumerate(sizes)])
            feats = rng.normal(size=(labels.size, q))
            d = TrainingSet(feats, labels, big_l, tuple(str(b + 1) for b in range(big_l)))
            fit = fit_pooled_gaussian(d)
            kind = trial % 3
            if kind == 0:
                i = int(rng.integers(d.n))
                if d.group(int(d.labels[i])).size < 2:
                    continue
                edit, edited = Remove(i), d.remove(i)
            elif kind == 1:
                i = int(rng.integers(d.n))
                x = rng.normal(size=q)
                edit, edited = Replace(i, x), d.replace(i, x)
            else:
                x = rng.normal(size=q)
                theta = int(rng.integers(1, big_l + 1))
                edit, edited = Augment(x, theta), d.augment(x, theta)
            updated = gaussian_update(fit, edit)
            scratch = fit_pooled_gaussian(edited)
            assert np.allclose(updated.means, scratch.means, rtol=1e-9, atol=1e-12)
            assert np.allclose(updated.sigma.matrix, scratch.sigma.matrix, rtol=1e-9, atol=1e-12)

    def test_relabel_matches_scratch(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            big_l = int(rng.integers(2, 4))
            q = int(rng.integers(1, 5))
            sizes = rng.integers(2, 11, size=big_l)
            labels = np.concatenate([[b + 1] * s for b, s in enumerate(sizes)])
            feats = rng.normal(size=(labels.size, q)) * 10.0 ** rng.uniform(-2, 2, size=q)
            d = TrainingSet(feats, labels, big_l, tuple(str(b + 1) for b in range(big_l)))
            if d.n <= big_l + q:
                continue
            i = int(rng.integers(d.n))
            theta = int(rng.choice([b for b in range(1, big_l + 1) if b != d.labels[i]]))
            updated = gaussian_update(fit_pooled_gaussian(d), Relabel(i, theta))
            scratch = fit_pooled_gaussian(d.relabel(i, theta))
            assert np.array_equal(updated.group_sizes, scratch.group_sizes)
            assert np.array_equal(updated.data.labels, scratch.data.labels)
            assert np.allclose(updated.means, scratch.means, rtol=1e-9, atol=1e-12)
            assert np.allclose(updated.sigma.matrix, scratch.sigma.matrix, rtol=1e-9, atol=1e-12)

    def test_relabel_to_singular_covariance_raises_with_pivot(self):
        # moving row 2 leaves every class constant in f2
        d = validate_training_set([[0.0, 0.0], [1.0, 0.0], [2.0, 3.0], [5.0, 3.0], [6.0, 3.0]], [1, 1, 1, 2, 2])
        fit = fit_pooled_gaussian(d)
        with pytest.raises(DegenerateFitError) as err:
            gaussian_update(fit, Relabel(2, 2))
        assert err.value.pivot_index == 1

    def test_relabel_rejects_no_move_and_emptied_class(self):
        d = validate_training_set([[0.0], [1.0], [3.0], [4.0]], [1, 1, 1, 2])
        fit = fit_pooled_gaussian(d)
        with pytest.raises(ValueError):
            gaussian_update(fit, Relabel(0, 1))
        with pytest.raises(ValueError):
            gaussian_update(fit, Relabel(3, 1))

    def test_remove_from_singleton_rejected(self):
        d = validate_training_set([[0.0], [1.0], [3.0]], [1, 1, 2])
        fit = fit_pooled_gaussian(d)
        with pytest.raises(ValueError):
            gaussian_update(fit, Remove(2))


class TestKnnFit:
    def test_zero_radius_on_duplicate(self):
        d = validate_training_set([[0.0], [0.0], [1.0], [2.0]], [1, 1, 2, 2])
        caches = knn_fit(d, k=1)
        assert caches.radius_sq[0] == 0.0 and caches.radius_sq[1] == 0.0

    def test_tie_at_boundary_includes_all(self):
        # distances from the query: 1, 2, 2, 2; k = 3 keeps all four points
        d = validate_training_set([[1.0], [-2.0], [2.0], [2.0]], [1, 2, 2, 2])
        assert KnnStatistic(d, 3).evaluate(1, np.array([[0.0]]))[0] == -0.25

    def test_caches_match_brute_force(self):
        rng = np.random.default_rng(23)
        labels = rng.integers(1, 4, size=50)
        labels[:3] = [1, 2, 3]
        small = TrainingSet(rng.normal(size=(50, 3)), labels, 3, ("1", "2", "3"))
        # large enough for np.partition to leave the (k-1)-th slot unsorted in some row
        alternating = np.arange(400) % 2 + 1
        big = TrainingSet(np.random.default_rng(2).standard_normal((400, 2)), alternating, 2, ("1", "2"))
        for d, k in ((small, 7), (big, default_k(400))):
            caches = knn_fit(d, k=k)
            for i in range(d.n):
                dsq = np.sum((d.features - d.features[i]) ** 2, axis=1)
                order = np.sort(dsq)
                assert caches.radius_sq[i] == order[k - 1]
                assert caches.radius_km1_sq[i] == order[k - 2]
                for b in range(1, d.n_classes + 1):
                    assert caches.counts_k[i, b - 1] == np.sum((dsq <= order[k - 1]) & (d.labels == b))
                    assert caches.counts_km1[i, b - 1] == np.sum((dsq <= order[k - 2]) & (d.labels == b))
            assert np.all(caches.counts_k.sum(axis=1) >= k)

    def test_loo_relabel_equals_a_from_scratch_statistic(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            big_l = int(rng.integers(2, 4))
            n = int(rng.integers(12, 40))
            labels = np.concatenate([np.arange(1, big_l + 1), rng.integers(1, big_l + 1, size=n - big_l)])
            # a small integer lattice: duplicate rows and distance ties at every radius
            feats = rng.integers(-2, 3, size=(n, 2)).astype(float)
            d = TrainingSet(feats, labels, big_l, tuple(str(b + 1) for b in range(big_l)))
            k = int(rng.integers(1, 10))
            y = int(rng.choice([b for b in range(1, big_l + 1) if d.group(b).size > 1]))
            theta = int(rng.choice([b for b in range(1, big_l + 1) if b != y]))
            rows, group = d.group(y), d.group(theta)
            values, refit = KnnStatistic(d, k).edited_values(theta, "relabel", rows)
            assert not refit.any()
            for i, row_values in zip(rows, values):
                scratch = KnnStatistic(d.relabel(int(i), theta), k)
                assert np.array_equal(row_values, scratch.evaluate(theta, feats[np.concatenate([[i], group])]))
            # a removal moves radii and scaling moves the scales: no closed form
            assert KnnStatistic(d, k).edited_values(theta, "remove", rows)[1].all()
            assert KnnStatistic(d, k, scale_features=True).edited_values(theta, "relabel", rows)[1].all()

    def test_k_out_of_range(self, train2):
        with pytest.raises(ValueError):
            knn_fit(train2, k=train2.n + 1)
        with pytest.raises(ValueError):
            knn_fit(train2, k=0)

    def test_zero_variance_feature_scale_warning(self):
        feats = np.column_stack([np.arange(6.0), np.full(6, 3.0)])
        d = TrainingSet(feats, np.array([1, 1, 1, 2, 2, 2]), 2, ("1", "2"))
        with pytest.warns(UserWarning, match="zero variance"):
            scales = KnnStatistic(d, 2, scale_features=True).scales
        assert scales[1] == 1.0

    def test_default_k_rule(self):
        assert default_k(1000) == math.ceil(1000 ** (2 / 3))
        assert default_k(1) == 1


class TestKnnEvaluate:
    def test_count_ratio(self):
        # ball of 10 points, 7 from class 1
        feats = np.concatenate([np.linspace(0, 0.9, 7), np.linspace(1.0, 1.3, 3), [50.0, 51.0]])[:, None]
        labels = np.array([1] * 7 + [2] * 3 + [2, 2])
        d = TrainingSet(feats, labels, 2, ("1", "2"))
        assert KnnStatistic(d, 10).evaluate(1, np.array([[0.45]]))[0] == -0.7

    def test_single_class_ball(self):
        d = validate_training_set([[0.0], [0.1], [0.2], [9.0], [9.1]], [1, 1, 1, 2, 2])
        stat = KnnStatistic(d, 3)
        assert stat.evaluate(1, np.array([[0.1]]))[0] == -1.0
        assert stat.evaluate(2, np.array([[0.1]]))[0] == 0.0

    def test_weights_sum_to_one(self, train2):
        stat = KnnStatistic(train2, 9)
        x = np.random.default_rng(3).normal(size=(10, 2))
        assert np.all(np.abs(stat.evaluate(1, x) + stat.evaluate(2, x) + 1.0) < 1e-12)


class TestKnnAugmentedCounts:
    def test_far_point_leaves_counts(self, train2):
        caches = knn_fit(train2, k=5)
        counts = knn_augmented_counts(caches, np.array([500.0, 500.0]), 1)
        assert np.array_equal(counts, caches.counts_k)

    def test_exact_tie_case(self):
        # integer lattice: query at distance exactly equal to the cached radius
        feats = np.array([[0.0], [1.0], [3.0], [4.0]])
        d = TrainingSet(feats, np.array([1, 1, 2, 2]), 2, ("1", "2"))
        caches = knn_fit(d, k=2)
        # point 0: distances (0, 1, 3, 4) -> r_2 = 1; query at -1.0 ties exactly
        counts = knn_augmented_counts(caches, np.array([-1.0]), 2)
        assert counts[0, 0] == caches.counts_k[0, 0]
        assert counts[0, 1] == caches.counts_k[0, 1] + 1

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(29)
        feats = rng.normal(size=(40, 2))
        labels = rng.integers(1, 3, size=40)
        labels[:2] = [1, 2]
        d = TrainingSet(feats, labels, 2, ("1", "2"))
        k = 6
        caches = knn_fit(d, k=k)
        stat = KnnStatistic(d, k)
        for trial in range(20):
            x = rng.normal(size=2) * 1.5
            theta = int(rng.integers(1, 3))
            counts = knn_augmented_counts(caches, x, theta)
            aug = d.augment(x, theta)
            for i in range(d.n):
                dsq = np.sum((aug.features - aug.features[i]) ** 2, axis=1)
                r = np.sort(dsq)[k - 1]
                for b in (1, 2):
                    expected = np.sum((dsq <= r) & (aug.labels == b))
                    assert counts[i, b - 1] == expected
            # the query-side statistic against the same brute force
            query_value = stat.edited_values(theta, "augment", x[None, :])[0][0, 0]
            dsq = np.sum((aug.features - aug.features[-1]) ** 2, axis=1)
            r = np.sort(dsq)[k - 1]
            in_ball = dsq <= r
            assert query_value == -(np.sum(in_ball & (aug.labels == theta)) / np.sum(in_ball))


class TestLogistic:
    def test_intercept_only_balanced(self):
        d = TrainingSet(np.zeros((40, 0)), np.array([1] * 20 + [2] * 20), 2, ("1", "2"))
        fit = fit_logistic(d)
        assert abs(fit.intercept) < 1e-8

    def test_intercept_only_imbalanced(self):
        d = TrainingSet(np.zeros((100, 0)), np.array([1] * 75 + [2] * 25), 2, ("1", "2"))
        fit = fit_logistic(d)
        assert abs(fit.intercept - math.log(25 / 75)) < 1e-6

    def test_separated_flagged_and_usable(self):
        # narrow margin: the likelihood keeps improving until the coefficient cap
        feats = np.concatenate([np.linspace(-1, -0.05, 10), np.linspace(0.05, 1, 10)])[:, None]
        d = TrainingSet(feats, np.array([1] * 10 + [2] * 10), 2, ("1", "2"))
        stat = fit_logistic(d)
        assert stat.separated
        assert stat.evaluate(1, [[1.5]])[0] > stat.evaluate(1, [[-1.5]])[0]

    def test_requires_two_classes(self, model22):
        d = sample_gaussian_mixture(model22, [5, 5, 5], seed=2)
        with pytest.raises(ValueError):
            fit_logistic(d)

    def test_antisymmetry_exact(self, train2):
        stat = PermutationMethod("logistic").fit(train2)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=2)
            assert stat.evaluate(1, [x])[0] == -stat.evaluate(2, [x])[0]

    def test_group_shuffle_invariance(self, train2):
        a = PermutationMethod("logistic").fit(train2)
        b = PermutationMethod("logistic").fit(_shuffle_group(train2, 1, 13))
        x = np.array([1.0, -0.5])
        assert a.evaluate(1, [x])[0] == b.evaluate(1, [x])[0]

    def test_ridge_fallback_on_collinear_design(self):
        # duplicated feature column makes the weighted normal equations singular
        rng = np.random.default_rng(61)
        base = rng.normal(size=(30, 1))
        feats = np.hstack([base, base])
        labels = np.array([1] * 15 + [2] * 15)
        d = TrainingSet(feats, labels, 2, ("1", "2"))
        with pytest.warns(UserWarning, match="ridge"):
            fit = fit_logistic(d)
        assert np.all(np.isfinite(fit.coefficients))

    def test_matches_scipy_mle(self, train2):
        fit = fit_logistic(train2)
        from scipy.optimize import minimize

        design = np.hstack([np.ones((train2.n, 1)), train2.features])
        y = (train2.labels == 2).astype(float)

        def nll(beta):
            eta = design @ beta
            return float(np.sum(np.log1p(np.exp(-eta)) + (1 - y) * eta))

        res = minimize(nll, np.zeros(3), method="BFGS")
        ours = np.concatenate([[fit.intercept], fit.coefficients])
        assert np.allclose(ours, res.x, atol=1e-4)


class TestKnnStatisticSymmetry:
    def test_group_shuffle_invariance_with_scaling(self, train2):
        a = KnnStatistic(train2, 7, scale_features=True)
        b = KnnStatistic(_shuffle_group(train2, 1, 31), 7, scale_features=True)
        x = np.array([0.2, 0.6])
        assert a.evaluate(1, [x])[0] == b.evaluate(1, [x])[0]
        assert a.evaluate(2, [x])[0] == b.evaluate(2, [x])[0]

    def test_query_on_training_point_is_legal(self, train2):
        stat = KnnStatistic(train2, 5)
        x = train2.features[4]
        val = stat.evaluate(1, [x])[0]
        assert -1.0 <= val <= 0.0


@pytest.mark.parametrize("statistic", ["plugin", "logistic", "knn", "knn-scaled"])
def test_identical_rows_in_one_call_get_identical_bits(statistic):
    # the rank count scores the query with its class in one evaluate call, so a
    # training row equal to the query must tie with it exactly
    rng = np.random.default_rng(41)
    for m in (7, 33, 101):
        for q in (2, 4, 8):
            for _ in range(5):
                scale = 10.0 ** rng.uniform(-2, 2, size=q)
                feats = rng.normal(size=(40, q)) * scale
                d = TrainingSet(feats, np.array([1] * 20 + [2] * 20), 2, ("1", "2"))
                if statistic == "plugin":
                    stat = fit_pooled_gaussian(d)
                elif statistic == "logistic":
                    stat = fit_logistic(d)
                else:
                    stat = KnnStatistic(d, 5, scale_features=statistic == "knn-scaled")
                distinct = rng.normal(size=(5, q)) * scale
                which = rng.integers(0, 5, size=m)
                for theta in (1, 2):
                    values = stat.evaluate(theta, distinct[which])
                    for r in range(5):
                        assert np.unique(values[which == r].view(np.uint64)).size <= 1, (m, q, r)
