import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classpv import ExperimentConfig, estimators, pvalue_vector, simulation, standard_2class_model, validity_experiment
from classpv import (
    Augment,
    DegenerateFitError,
    GaussianMixtureModel,
    PermutationMethod,
    Relabel,
    Remove,
    SpdMatrix,
    crossval_pvalues,
    fit_logistic,
    fit_pooled_gaussian,
    optimal_statistic,
    pvalue_table,
    sample_gaussian_mixture,
    typicality_index,
    validate_training_set,
)
from classpv.core import TrainingSet
from classpv.estimators import (
    GaussianStatistic,
    KnnStatistic,
    LogisticStatistic,
    default_k,
    gaussian_update,
    knn_augmented_counts,
    knn_fit,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises(self, train2, bad):
        fit = fit_pooled_gaussian(train2)
        with pytest.raises(ValueError, match="non-finite"):
            typicality_index(fit, 1, np.array([bad, 0.0]))
        batch = np.zeros((3, 2))
        batch[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            typicality_index(fit, 2, batch)

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
                theta = int(rng.integers(1, big_l + 1))
                if theta == d.labels[i] or d.group(int(d.labels[i])).size < 2:
                    continue
                edit, edited = Relabel(i, theta), d.relabel(i, theta)
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


def _lattice_set(rng: np.random.Generator) -> TrainingSet:
    """50 to 120 rows on a small integer lattice, in shuffled label order, a
    fifth of them copies of other rows: distance ties at every radius."""
    n, big_l, q = int(rng.integers(50, 121)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
    labels = rng.permutation(np.concatenate([np.arange(1, big_l + 1), rng.integers(1, big_l + 1, size=n - big_l)]))
    feats = rng.integers(-3, 4, size=(n, q)).astype(float)
    copies = rng.choice(n, size=n // 5, replace=False)
    feats[copies] = feats[rng.choice(n, size=copies.size)]
    return TrainingSet(feats, labels, big_l, tuple(str(b + 1) for b in range(big_l)))


def _one_block_knn_fit(d: TrainingSet, k: int):
    """``knn_fit``'s features, radii and counts from one n x n block,
    columns in row order: the fit before it went by row blocks. The rows are
    then put in label order, the order of the cache."""
    dsq = estimators._sq_dists(d.features, d.features)
    part = np.partition(dsq, k - 1, axis=1)
    radius_sq = part[:, k - 1]
    km1_radius_sq = part[:, : k - 1].max(axis=1) if k >= 2 else np.zeros(d.n)

    def counts(radius):
        in_ball = dsq <= radius[:, None]
        return np.column_stack([np.count_nonzero(in_ball[:, d.labels == b], axis=1) for b in range(1, d.n_classes + 1)])

    order = np.argsort(d.labels, kind="stable")
    return d.features[order], radius_sq[order], counts(km1_radius_sq)[order], counts(radius_sq)[order]


_CACHE_FIELDS = ("features", "radius_sq", "counts_km1", "counts_k")


@pytest.mark.parametrize("q", range(5))
def test_sq_dists_bits_equal_the_sum_from_zero(q):
    """The first square is taken as the sum's first term: 0 + d^2 has the
    bits of d^2, so the distances equal a sum that starts from zero."""
    rng = np.random.default_rng([47, q])
    a, b = rng.normal(size=(7, q)), np.vstack([rng.normal(size=(9, q)), np.zeros((1, q))])
    want = np.zeros((7, 10))
    for k in range(q):
        want += (a[:, k, None] - b[:, k]) ** 2
    assert np.array_equal(estimators._sq_dists(a, b).view(np.int64), want.view(np.int64))


class TestKnnFit:
    @pytest.mark.bits
    @pytest.mark.parametrize("seed", range(6))
    def test_blocked_fit_equals_one_block_reference(self, monkeypatch, seed):
        rng = np.random.default_rng([41, seed])
        d = _lattice_set(rng)
        # each block takes _BLOCK_ELEMENTS / (4 n) rows: at most n / 3 of them
        step = int(rng.integers(1, d.n // 3 + 1))
        monkeypatch.setattr(estimators, "_BLOCK_ELEMENTS", 4 * d.n * step)
        blocks = []
        sq_dists = estimators._sq_dists
        monkeypatch.setattr(estimators, "_sq_dists", lambda a, b, *out: blocks.append(len(a)) or sq_dists(a, b, *out))
        for k in (1, 2, default_k(d.n), d.n - 1, d.n):
            blocks.clear()
            caches = knn_fit(d, k)
            assert len(blocks) >= 3 and sum(blocks) == d.n
            expected = _one_block_knn_fit(d, k)
            for name, want in zip(_CACHE_FIELDS, expected):
                assert np.array_equal(getattr(caches, name), want), (name, k)

    @pytest.mark.bits
    @pytest.mark.parametrize("seed", range(4))
    def test_block_of_fits_equals_each_fit_alone(self, monkeypatch, seed):
        """``_knn_fits`` on three lattice sets with one n and one set of
        group sizes, row blocks straddling the sets, gives each set's cache
        field by field with the bits of ``knn_fit`` on that set alone."""
        rng = np.random.default_rng([53, seed])
        first = _lattice_set(rng)
        datas = [first]
        for _ in range(2):
            feats = rng.integers(-3, 4, size=(first.n, first.q)).astype(float)
            copies = rng.choice(first.n, size=first.n // 5, replace=False)
            feats[copies] = feats[rng.choice(first.n, size=copies.size)]
            datas.append(TrainingSet(feats, rng.permutation(first.labels), first.n_classes, first.label_names))
        for k in (1, 2, default_k(first.n), first.n - 1, first.n):
            alone = [knn_fit(d, k) for d in datas]
            # blocks of n / 3 + 1 rows: some hold rows of two sets
            monkeypatch.setattr(estimators, "_BLOCK_ELEMENTS", 4 * first.n * (first.n // 3 + 1))
            block = estimators._knn_fits(datas, k)
            monkeypatch.undo()
            for s, (got, want) in enumerate(zip(block, alone)):
                assert got.data is datas[s] and got.k == k
                for name in _CACHE_FIELDS:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (name, k, s)

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
        # large enough for np.partition to leave the (k-1)-th slot unsorted in
        # some row: at seed 2 with the columns in row order, at seed 6 with
        # them sorted by label, as knn_fit has them
        alternating = np.arange(400) % 2 + 1
        big = [TrainingSet(np.random.default_rng(seed).standard_normal((400, 2)), alternating, 2, ("1", "2"))
               for seed in (2, 6)]
        for d, k in ((small, 7), *((b, default_k(400)) for b in big)):
            caches = knn_fit(d, k=k)
            # the cache's position p holds row i, in label order
            for p, i in enumerate(np.argsort(d.labels, kind="stable")):
                dsq = np.sum((d.features - d.features[i]) ** 2, axis=1)
                order = np.sort(dsq)
                assert np.array_equal(caches.features[p], d.features[i])
                assert caches.radius_sq[p] == order[k - 1]
                for b in range(1, d.n_classes + 1):
                    assert caches.counts_k[p, b - 1] == np.sum((dsq <= order[k - 1]) & (d.labels == b))
                    assert caches.counts_km1[p, b - 1] == np.sum((dsq <= order[k - 2]) & (d.labels == b))
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
            stat = KnnStatistic(d, k)
            values, refit = type(stat).edited_values_each([stat], theta, "relabel", [rows])
            assert not refit.any()
            for i, row_values in zip(rows, values):
                scratch = KnnStatistic(d.relabel(int(i), theta), k)
                assert np.array_equal(row_values, scratch.evaluate(theta, feats[np.concatenate([[i], group])]))
            # a removal moves radii and scaling moves the scales: no closed form
            assert type(stat).edited_values_each([stat], theta, "remove", [rows])[1].all()
            scaled = KnnStatistic(d, k, scale_features=True)
            assert type(scaled).edited_values_each([scaled], theta, "relabel", [rows])[1].all()

    def test_k_out_of_range(self, train2):
        with pytest.raises(ValueError):
            knn_fit(train2, k=train2.n + 1)
        with pytest.raises(ValueError):
            knn_fit(train2, k=0)

    def test_zero_variance_feature_scale_warning(self):
        feats = np.column_stack([np.arange(6.0), np.full(6, 3.0)])
        d = TrainingSet(feats, np.array([1, 1, 1, 2, 2, 2]), 2, ("1", "2"))
        with pytest.warns(UserWarning, match="zero variance") as caught:
            scales = KnnStatistic(d, 2, scale_features=True).scales
        assert scales[1] == 1.0
        # the warning names the line that read the scales, not functools'
        assert [w.filename for w in caught] == [__file__]

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
    @pytest.mark.bits
    @pytest.mark.parametrize("seed", range(6))
    def test_two_count_rule_equals_the_class_count_rule(self, seed):
        """The augment values, read through the own-class and total counts,
        equal those of ``knn_augmented_counts``' (N, L) class counts."""
        rng = np.random.default_rng([43, seed])
        d = _lattice_set(rng)
        # queries on the lattice too, so that some sit exactly on a row's radius
        X = rng.integers(-3, 4, size=(30, d.q)).astype(float)
        ties = 0
        for k in (1, 2, default_k(d.n), d.n - 1, d.n):
            stat = KnnStatistic(d, k)
            ties += np.count_nonzero(estimators._sq_dists(X, stat.caches.features) == stat.caches.radius_sq)
            for theta in range(1, d.n_classes + 1):
                group = d.group(theta)
                values, refit = type(stat).edited_values_each([stat], theta, "augment", [X])
                assert not refit.any()
                for x, row in zip(X, values):
                    counts = knn_augmented_counts(stat.caches, x, theta)[group]
                    assert np.array_equal(row[1:], -(counts[:, theta - 1] / counts.sum(axis=1)))
        assert ties > 0

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

    def test_rows_come_back_in_row_order(self):
        """The cache is in label order; the counts are in the data's row
        order, as the rule's brute-force recount has them."""
        d = TrainingSet(np.array([[0.0], [4.0], [1.0], [3.0]]), np.array([2, 1, 2, 1]), 2, ("1", "2"))
        counts = knn_augmented_counts(knn_fit(d, k=2), np.array([0.5]), 1)
        # every 2-ball has radius 1; the query falls strictly inside those of
        # rows 0 and 2, which shrink to the row itself and gain the query
        assert counts.tolist() == [[1, 1], [2, 0], [1, 1], [2, 0]]

    @pytest.mark.parametrize("x", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0], [0.0], [0.0, 1.0, 2.0]])
    def test_bad_point_raises(self, train2, x):
        caches = knn_fit(train2, k=5)
        with pytest.raises(ValueError, match="non-finite|shape"):
            knn_augmented_counts(caches, np.array(x), 1)

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
            query_value = type(stat).edited_values_each([stat], theta, "augment", [x[None, :]])[0][0, 0]
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
        # at construction, so before any fit is read
        with pytest.raises(ValueError, match="exactly 2 classes"):
            PermutationMethod("logistic").fit(d)

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
        # a lazy statistic warns when its fit is first read, and not before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lazy = PermutationMethod("logistic").fit(d)
        with pytest.warns(UserWarning, match="ridge"):
            assert lazy.coefficients.tobytes() == fit.coefficients.tobytes()

    @pytest.mark.bits
    def test_fit_bits_do_not_depend_on_its_batch(self):
        """``fit_logistic`` is the batched IRLS on a batch of one. Every set
        of a batch of 2 to 40 gets the intercept, coefficient, iteration,
        gradient-norm and separation bits of its lone fit, with a separated
        set and a set whose weighted Hessian is singular at the first, middle
        and last place; the singular set warns of its ridge as often as its
        lone fit does, and no other set warns."""
        rng = np.random.default_rng(71)
        n = 24
        labels = np.repeat([1, 2], n // 2)

        def draw(kind):
            feats = rng.normal(size=(n, 2)) + (labels == 2)[:, None] * 0.7
            if kind == "separated":
                # a narrow margin, so the likelihood climbs to the coefficient cap
                feats[:, 0] = np.where(labels == 2, 1.0, -1.0) * (np.abs(feats[:, 0]) + 0.05)
            elif kind == "singular":
                feats[:, 1] = feats[:, 0]
            # rows in the order of their features, the order the batch takes
            order = np.lexsort(feats.T[::-1])
            return TrainingSet(feats[order], labels[order], 2, ("1", "2"))

        def bits(intercept, coefficients, iterations, gradient_norm, separated):
            floats = np.concatenate([[intercept], coefficients, [gradient_norm]])
            return floats.view(np.uint64).tolist(), iterations, separated

        def ridge_warnings(fit):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fit()
            return result, sum("ridge" in str(w.message) for w in caught)

        special = {kind: ridge_warnings(lambda: fit_logistic(draw(kind))) for kind in ("separated", "singular")}
        assert special["separated"][0].separated and special["singular"][1] > 0
        for width in range(2, 41):
            sets = [draw("plain") for _ in range(width)]
            lone = [fit_logistic(d) for d in sets]
            for (fit, warned) in special.values():
                for place in (0, width // 2, width - 1):
                    batch, fits = list(sets), list(lone)
                    batch[place], fits[place] = fit.data, fit
                    features = np.vstack([d.features for d in batch])
                    rows = np.arange(width * n).reshape(width, n)
                    set_labels = np.vstack([d.labels for d in batch])
                    (beta, iterations, grad_norm, separated), count = ridge_warnings(
                        lambda: estimators._logistic_fits(features, rows, set_labels))
                    assert count == warned, (width, place)
                    for s, f in enumerate(fits):
                        assert bits(beta[s, 0], beta[s, 1:], iterations[s], grad_norm[s], separated[s]) == bits(
                            f.intercept, f.coefficients, f.iterations, f.gradient_norm, f.separated), (width, place, s)

    def test_fit_bits_at_the_iteration_cap_do_not_depend_on_its_batch(self, monkeypatch):
        """With the iteration cap at 5, one batch mixes sets that converge
        before it, sets stopped by the coefficient cap and sets stopped by the
        iteration cap, whose separation is read from their gradient norm;
        each set gets its lone fit's bits."""
        cap = 5
        monkeypatch.setattr(estimators, "_LOGISTIC_MAX_ITER", cap)
        rng = np.random.default_rng(5)
        n = 24
        labels = np.repeat([1, 2], n // 2)

        def draw(kind):
            shift = {"converging": 0.3, "slow": 2.5, "separated": 0.7}[kind]
            feats = rng.normal(size=(n, 2)) + (labels == 2)[:, None] * shift
            if kind == "separated":
                # a narrow margin at a small scale: the coefficients pass their cap at once
                feats[:, 0] = np.where(labels == 2, 1.0, -1.0) * (np.abs(feats[:, 0]) + 0.05) * 0.01
            order = np.lexsort(feats.T[::-1])
            return TrainingSet(feats[order], labels[order], 2, ("1", "2"))

        sets = [draw(kind) for _ in range(4) for kind in ("converging", "slow", "separated")]
        lone = [fit_logistic(d) for d in sets]
        assert any(f.iterations < cap and not f.separated for f in lone)            # converged
        assert any(f.iterations < cap and f.separated for f in lone)                # coefficient cap
        assert any(f.iterations == cap and f.separated and f.gradient_norm > 1e-3 for f in lone)  # iteration cap
        features = np.vstack([d.features for d in sets])
        rows = np.arange(len(sets) * n).reshape(len(sets), n)
        beta, iterations, grad_norm, separated = estimators._logistic_fits(
            features, rows, np.vstack([d.labels for d in sets]))
        for s, f in enumerate(lone):
            assert beta[s].view(np.uint64).tolist() == np.r_[f.intercept, f.coefficients].view(np.uint64).tolist()
            assert (iterations[s], grad_norm[s], separated[s]) == (f.iterations, f.gradient_norm, f.separated), s

    @pytest.mark.bits
    def test_singular_set_in_a_mixed_block_keeps_every_bit(self):
        """Edited sets of five statistics, stacked as the validity battery
        stacks its replications, in one ``edited_values_each`` call. One
        statistic has a constant feature column, so each Newton step of its
        sets is singular and takes the ridge in ``_newton_steps``. For every
        kind of edit, each statistic's values have the bits of its lone call,
        and the block warns of the ridge as often as the lone calls do."""
        rng = np.random.default_rng(29)
        labels = np.repeat([1, 2], [9, 10])

        def draw(constant):
            feats = rng.normal(size=(labels.size, 2)) + (labels == 2)[:, None] * 0.8
            if constant:
                feats[:, 1] = 1.0
            return LogisticStatistic(TrainingSet(feats, labels, 2, ("1", "2")))

        def ridge_warnings(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn()
            return result, sum("ridge" in str(w.message) for w in caught)

        stats = [draw(constant=s == 2) for s in range(5)]
        for kind in ("augment", "relabel", "remove", "loo"):
            for theta in (1, 2):
                if kind == "augment":
                    # the query keeps the constant column constant
                    Xs = [np.column_stack([rng.normal(size=3), np.ones(3)]) for _ in stats]
                else:
                    Xs = [stat.data.group(3 - theta if kind == "relabel" else theta)[:4] for stat in stats]
                lone = [ridge_warnings(lambda: LogisticStatistic.edited_values_each([stat], theta, kind, [X]))
                        for stat, X in zip(stats, Xs)]
                (block, _), warned = ridge_warnings(lambda: LogisticStatistic.edited_values_each(stats, theta, kind, Xs))
                assert [count > 0 for _, count in lone] == [s == 2 for s in range(5)], kind
                assert warned == sum(count for _, count in lone), (kind, theta)
                for s, ((values, _), _) in enumerate(lone):
                    assert block[s * len(Xs[0]) : (s + 1) * len(Xs[0])].tobytes() == values.tobytes(), (kind, theta, s)

    def test_iteration_cap_separates_by_the_gradient_norm_alone(self, monkeypatch):
        """With the cap at 4, a set still iterating there reads separated,
        its gradient norm above the tolerance; a set that converges first,
        or at the cap itself, does not."""
        cap, tol = 4, estimators._LOGISTIC_GRAD_TOL
        monkeypatch.setattr(estimators, "_LOGISTIC_MAX_ITER", cap)
        rng = np.random.default_rng(5)
        n = 24
        labels = np.repeat([1, 2], n // 2)
        fits = [fit_logistic(TrainingSet(rng.normal(size=(n, 2)) + (labels == 2)[:, None] * shift, labels, 2, ("1", "2")))
                for shift in (0.0, 0.1, 0.3, 2.5) for _ in range(4)]
        stopped = [f for f in fits if f.gradient_norm > tol]
        converged = [f for f in fits if f.gradient_norm <= tol]
        assert len(stopped) == 12 and {f.iterations for f in converged} == {3, cap}
        for f in stopped:
            # no coefficient reached its cap, so the iteration cap stopped the fit
            assert np.abs(np.r_[f.intercept, f.coefficients]).max() <= estimators._LOGISTIC_COEF_CAP
            assert f.iterations == cap and f.separated
        assert not any(f.separated for f in converged)

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

    @pytest.mark.bits
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["plain", "separated", "collinear"]),
           q=st.integers(1, 3))
    def test_lazy_edit_has_the_bits_of_an_eager_fit(self, seed, kind, q):
        """``PermutationMethod("logistic").fit(d).edit(e)`` fits nothing
        until it is read; then it makes one fit through the module-level
        ``fit_logistic``, with every bit of ``fit_logistic(d.edit(e))`` and as
        many ridge warnings, for a ``Remove``, an ``Augment`` and a
        ``Relabel``, on random 2-class sets, separable and collinear ones
        among them."""
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat([1, 2], rng.integers(3, 12, size=2)))
        feats = rng.normal(size=(labels.size, q)) + (labels == 2)[:, None] * rng.uniform(0, 2)
        if kind == "separated":
            feats[:, 0] = np.where(labels == 2, 1.0, -1.0) * (np.abs(feats[:, 0]) + 0.05)
        elif kind == "collinear":
            feats = np.hstack([feats, feats[:, :1]])
        d = TrainingSet(feats, labels, 2, ("1", "2"))
        i = int(rng.integers(d.n))
        x = feats[rng.integers(d.n)] if rng.random() < 0.5 else rng.normal(size=d.q)
        pts = np.vstack([x, feats])

        def ridge_warnings(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                result = fn()
            return result, sum("ridge" in str(w.message) for w in caught)

        def bits(stat):
            floats = np.r_[stat.intercept, stat.coefficients, stat.gradient_norm,
                           stat.evaluate(1, pts), stat.evaluate(2, pts)]
            return floats.view(np.uint64).tolist(), stat.iterations, stat.separated

        for edit in (Remove(i), Augment(x, int(rng.integers(1, 3))), Relabel(i, 3 - int(labels[i]))):
            with mock.patch.object(estimators, "fit_logistic", wraps=estimators.fit_logistic) as fits:
                lazy = PermutationMethod("logistic").fit(d).edit(edit)
                assert fits.call_count == 0, edit
                lazy_bits = ridge_warnings(lambda: bits(lazy))
                assert fits.call_count == 1, edit
            eager, warned = ridge_warnings(lambda: fit_logistic(d.edit(edit)))
            assert lazy_bits == (bits(eager), warned), edit


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


class _RefitOnly:
    """The plug-in statistic through only ``data``, ``edit`` and
    ``evaluate``, without the closed-form ``edited_values_each``."""

    def __init__(self, fit):
        self.fit = fit
        self.data = fit.data

    def evaluate(self, theta, pts):
        return self.fit.evaluate(theta, pts)

    def edit(self, edit):
        return _RefitOnly(self.fit.edit(edit))


@pytest.mark.parametrize("statistic", ["plugin", "knn", "logistic", "refit-only"])
def test_edited_values_rejects_an_unknown_kind(train2, statistic):
    if statistic == "refit-only":
        stat = _RefitOnly(fit_pooled_gaussian(train2))
    else:
        stat = PermutationMethod(statistic, k=3).fit(train2)
    with pytest.raises(ValueError, match="'swap'"):
        estimators.edited_values([stat], 1, "swap", [train2.group(2)[:2]])


@pytest.mark.parametrize("kind", ["augment", "relabel", "loo", "remove"])
def test_edited_values_of_a_statistic_without_the_method_are_refits(train2, kind):
    # every edit is made and scored; the refits agree with the plug-in
    # closed form
    closed = fit_pooled_gaussian(train2)
    X = np.array([[0.3, -0.2], [2.0, 1.0]]) if kind == "augment" else train2.group(2)[:2]
    values = estimators.edited_values([_RefitOnly(closed)], 1, kind, [X])
    expected, flagged = type(closed).edited_values_each([closed], 1, kind, [X])
    assert not flagged.any()
    assert np.allclose(values, expected, rtol=1e-9, atol=1e-12)


def _edited_reference(stat, theta: int, kind: str, x) -> np.ndarray:
    """One row of ``GaussianStatistic.edited_values_each`` by the edit it stands
    for: the edited fit scores the edited point and the class-theta rows."""
    d = stat.data
    if kind == "augment":
        return stat.edit(Augment(x, theta)).evaluate(theta, np.vstack([x, d.features[d.group(theta)]]))
    if kind == "loo":
        return stat.edit(Remove(x)).evaluate(theta, d.features[[x]])
    edit = Relabel(x, theta) if kind == "relabel" else Remove(x)
    return stat.edit(edit).evaluate(theta, d.features[np.append(x, d.group(theta))])


@pytest.mark.bits
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_classes=st.integers(2, 4),
    q=st.integers(1, 6),
    kind=st.sampled_from(("augment", "relabel", "remove", "loo")),
    lattice=st.booleans(),
    data=st.data(),
)
def test_plugin_closed_form_keeps_row_bits_ties_and_the_refit(seed, n_classes, q, kind, lattice, data):
    """The plug-in closed form on lattice rows and copied rows, for every
    kind: a row's values have the same bits alone as in its batch, an augment
    query equal to a class-theta member ties with it exactly, and every
    unflagged row matches the edited fit's ``evaluate`` to 1e-9."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(q + 2, q + 9, size=n_classes)
    if lattice:
        feats = rng.integers(-3, 4, size=(sizes.sum(), q)).astype(float)
    else:
        feats = rng.normal(size=(sizes.sum(), q)) * 10.0 ** rng.uniform(-2, 2, size=q)
    copies = rng.choice(sizes.sum(), size=3, replace=False)
    feats[copies] = feats[rng.choice(sizes.sum(), size=3)]
    d = TrainingSet(feats, np.repeat(np.arange(1, n_classes + 1), sizes), n_classes, tuple(map(str, range(n_classes))))
    try:
        stat = fit_pooled_gaussian(d)
    except DegenerateFitError:
        return
    theta = data.draw(st.integers(1, n_classes))
    if kind == "augment":
        # spread draws, lattice points, and copies of class-theta members
        members = d.group(theta)[rng.integers(0, sizes[theta - 1], size=3)]
        X = np.vstack([feats.mean(axis=0) + 2.0 * feats.std(axis=0) * rng.normal(size=(3, q)),
                       rng.integers(-3, 4, size=(2, q)), feats[members]])
    else:
        y = data.draw(st.sampled_from([b for b in range(1, n_classes + 1) if kind != "relabel" or b != theta]))
        X = d.group(y)
    values, refit = type(stat).edited_values_each([stat], theta, kind, [X])
    for j in range(len(X)):
        alone, alone_refit = type(stat).edited_values_each([stat], theta, kind, [X[j : j + 1]])
        assert alone.tobytes() == values[j : j + 1].tobytes() and alone_refit[0] == refit[j]
    if kind == "augment":
        for j, i in enumerate(members, start=len(X) - 3):
            column = 1 + int(np.flatnonzero(d.group(theta) == i)[0])
            assert values[j, 0].tobytes() == values[j, column].tobytes()
    for j in np.flatnonzero(~refit):
        np.testing.assert_allclose(values[j], _edited_reference(stat, theta, kind, X[j]), rtol=1e-9, atol=1e-9)


# q = 1, L = 2 on the half-integer lattice: class means -1/10 and -1/4.
# Relabelling the row at -0.5 gives both classes the mean -1/6, and adding
# the query 0.5 to class 2 gives it the mean -1/10 of class 1.
_TIE_FEATURES = (-1.5, -1.0, -1.0, 1.5, 1.5, -1.0, -0.5, 0.0, 0.5)
_TIE_LABELS = (1, 1, 1, 1, 1, 2, 2, 2, 2)


def _exact_key(z: float, rows: list, theta: int) -> Fraction:
    """(maha_theta - maha_other)(z) under the pooled fit of ``rows``, as a
    fraction: with L = 2 the plug-in statistic is log w plus half of it."""
    groups = {b: [Fraction(v) for v, label in rows if label == b] for b in (1, 2)}
    means = {b: sum(g) / len(g) for b, g in groups.items()}
    var = sum((v - means[b]) ** 2 for b, g in groups.items() for v in g) / (len(rows) - 2)
    return ((Fraction(z) - means[theta]) ** 2 - (Fraction(z) - means[3 - theta]) ** 2) / var


def _exact_pvalue(mode: str, x: float, theta: int) -> Fraction:
    rows = list(zip(_TIE_FEATURES, _TIE_LABELS))
    members = [v for v, label in rows if label == theta]
    if mode == "exact-swap":
        # every class-theta row of the augmented set, the query last, by the fit without it
        augmented = rows + [(x, theta)]
        loo = [_exact_key(v, augmented[:j] + augmented[j + 1:], theta)
               for j, (v, label) in enumerate(augmented) if label == theta]
        return Fraction(sum(v >= loo[-1] for v in loo), len(loo))
    fit_rows = rows + [(x, theta)] if mode == "valid-shortcut" else rows
    reference = _exact_key(x, fit_rows, theta)
    return Fraction(sum(_exact_key(v, fit_rows, theta) >= reference for v in members) + 1, len(members) + 1)


@pytest.mark.bits
def test_plugin_equal_edited_means_tie_every_value():
    """Where an edit leaves the two class means equal, the plug-in
    statistic is one constant, so every value ties and the p-value is 1.
    The closed form takes each edited mean from the class sums, which are
    exact on the lattice, so the two means are equal floats and the slope is
    exactly zero. ``pvalue_table`` equals the exact p-values of
    ``Fraction`` arithmetic in every mode, at lattice queries that include
    the one (0.5, class 2) whose augmented means are equal."""
    d = TrainingSet(np.array(_TIE_FEATURES)[:, None], np.array(_TIE_LABELS), 2, ("1", "2"))
    fit = fit_pooled_gaussian(d)
    rows = np.flatnonzero(d.features[:, 0] == -0.5)
    values, refit = type(fit).edited_values_each([fit], 1, "relabel", [rows])
    assert not refit.any() and np.all(values == values[:, :1])
    cv = crossval_pvalues(d, PermutationMethod("plugin", "valid-shortcut"))
    assert np.all(cv.pvalues[rows, 0] == 1.0)
    X = np.arange(-2.0, 2.01, 0.5)[:, None]
    for mode in ("valid-shortcut", "naive", "exact-swap"):
        table = pvalue_table(PermutationMethod("plugin", mode).fit(d), mode, X)
        want = [[float(_exact_pvalue(mode, float(x), theta)) for theta in (1, 2)] for x in X[:, 0]]
        assert table.tolist() == want, mode


@pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut", "naive"))
def test_ridge_warning_names_the_callers_line(monkeypatch, mode):
    """A set with a constant column makes every weighted Hessian singular,
    and the ridge warning names the line of this file that called into
    classpv, whichever entry point and mode."""
    rng = np.random.default_rng(4)
    labels = np.repeat([1, 2], 8)
    feats = np.column_stack([rng.normal(size=16) + labels, np.ones(16)])
    d = validate_training_set(feats, labels)
    method = PermutationMethod("logistic", mode)
    sample = simulation._sample_training

    def constant_column(*args):
        d = sample(*args)
        return TrainingSet(np.column_stack([d.features[:, 0], np.ones(d.n)]), d.labels, 2, d.label_names)

    monkeypatch.setattr(simulation, "_sample_training", constant_column)
    cfg = ExperimentConfig(model=standard_2class_model(), sizes=(6, 6), methods=(method,), replications=3)
    calls = {
        "crossval_pvalues": lambda: crossval_pvalues(d, method),
        # the queries keep the column constant, so the augmented sets are singular too
        "pvalue_vector": lambda: pvalue_vector(method, d, np.array([0.5, 1.0])),
    }
    if mode != "valid-shortcut":  # there every set holds a drawn query, whose column is not constant
        calls["validity_experiment"] = lambda: validity_experiment(cfg)
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        ridge = [w for w in caught if "ridge" in str(w.message)]
        assert ridge, name
        assert {w.filename for w in ridge} == {__file__}, name
