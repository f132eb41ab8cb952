import math
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest

from classpv import estimators, simulation
from classpv import (
    Augment,
    DegenerateFitError,
    ExperimentConfig,
    PermutationMethod,
    Relabel,
    Remove,
    crossval_pvalues,
    fit_pooled_gaussian,
    pvalue,
    pvalue_vector,
    pvalues,
    sample_gaussian_mixture,
    validate_training_set,
    validity_experiment,
)
from classpv.core import TrainingSet
from classpv.estimators import KnnStatistic
from classpv.oracle import log_weighted_lr
from classpv.permutation import _swap_pvalues, warn_small_groups


@dataclass(eq=False)
class StubStatistic:
    """Fixed statistic values keyed by point, optionally changed per swap.

    Exact-swap augments the data with the query, last, and then removes each
    class member: removing member i swaps the query in for it, and removing
    the query's own row gives the base values back."""

    data: TrainingSet
    values: dict           # point tuple -> value under the base fit
    swapped_values: dict = field(default_factory=dict)  # (i, point) -> value with the query swapped in for i
    _swap: int = None

    def evaluate(self, theta, pts):
        keys = [tuple(p) for p in np.atleast_2d(np.asarray(pts, dtype=float))]
        return np.array([self.swapped_values.get((self._swap, key), self.values[key]) for key in keys])

    def edit(self, edit):
        if isinstance(edit, Augment):
            return StubStatistic(self.data.augment(edit.point, edit.label), self.values, self.swapped_values)
        if isinstance(edit, Remove):
            return StubStatistic(self.data.remove(edit.index), self.values, self.swapped_values, edit.index)
        return self


def _stub_data():
    feats = np.array([[1.0], [2.0], [3.0], [10.0]])
    return TrainingSet(feats, np.array([1, 1, 1, 2]), 2, ("1", "2"))


class TestHandCounts:
    def test_exact_swap_hand_case(self):
        # statistic at query 5; swapped statistics (7, 3, 5): two reach 5 -> 3/4
        d = _stub_data()
        query = np.array([99.0])
        values = {(1.0,): 0.0, (2.0,): 0.0, (3.0,): 0.0, (99.0,): 5.0}
        swapped = {(0, (1.0,)): 7.0, (1, (2.0,)): 3.0, (2, (3.0,)): 5.0}
        stub = StubStatistic(d, values, swapped)
        assert pvalue(stub, "exact-swap", 1, query) == 0.75

    def test_naive_hand_case(self):
        d = _stub_data()
        query = np.array([99.0])
        values = {(1.0,): 7.0, (2.0,): 3.0, (3.0,): 5.0, (99.0,): 5.0}
        stub = StubStatistic(d, values)
        assert pvalue(stub, "naive", 1, query) == 0.75

    def test_all_equal_gives_one(self):
        d = _stub_data()
        query = np.array([99.0])
        values = {(1.0,): 2.0, (2.0,): 2.0, (3.0,): 2.0, (99.0,): 2.0}
        stub = StubStatistic(d, values)
        assert pvalue(stub, "exact-swap", 1, query) == 1.0
        assert pvalue(stub, "naive", 1, query) == 1.0
        assert pvalue(stub, "valid-shortcut", 1, query) == 1.0

    def test_strict_maximum_gives_floor(self):
        d = _stub_data()
        query = np.array([99.0])
        values = {(1.0,): 1.0, (2.0,): 2.0, (3.0,): 3.0, (99.0,): 9.0}
        stub = StubStatistic(d, values)
        assert pvalue(stub, "naive", 1, query) == 0.25
        assert pvalue(stub, "exact-swap", 1, query) == 0.25

    def test_fit_insensitive_statistic_naive_equals_swap(self):
        rng = np.random.default_rng(0)
        d = _stub_data()
        query = np.array([99.0])
        for _ in range(20):
            values = {
                (1.0,): rng.normal(), (2.0,): rng.normal(), (3.0,): rng.normal(),
                (99.0,): rng.normal(),
            }
            stub = StubStatistic(d, values)  # a swap does not alter values
            assert pvalue(stub, "naive", 1, query) == pvalue(stub, "exact-swap", 1, query)


class TestAgainstScratchImplementations:
    def test_valid_shortcut_plugin_matches_scratch(self, train2):
        method = PermutationMethod("plugin", "valid-shortcut")
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=2) * 1.5
            for theta in (1, 2):
                got = pvalue_vector(method, train2, x)[theta]
                # from scratch: fit the augmented data fresh, no update formulas
                aug = train2.augment(x, theta)
                fit = fit_pooled_gaussian(aug)
                group = train2.group(theta)
                ref = log_weighted_lr(fit.class_weights, fit.means, (fit.sigma, fit.sigma), theta, x)
                vals = log_weighted_lr(
                    fit.class_weights, fit.means, (fit.sigma, fit.sigma), theta, train2.features[group]
                )
                expected = (int(np.count_nonzero(vals >= ref)) + 1) / (group.size + 1)
                assert got == expected

    def test_knn_shortcut_matches_direct_augmented_evaluation(self, train2):
        stat = KnnStatistic(train2, 9)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=2) * 1.5
            for theta in (1, 2):
                ref, *swaps = stat.edited_values(theta, "augment", x[None, :])[0][0]
                aug = train2.augment(x, theta)
                group = train2.group(theta)

                def weight(query):
                    dsq = np.sum((aug.features - query) ** 2, axis=1)
                    r = np.sort(dsq)[8]
                    in_ball = dsq <= r
                    return np.sum(in_ball & (aug.labels == theta)) / np.sum(in_ball)

                assert ref == -weight(x)
                assert np.array_equal(swaps, [-weight(train2.features[i]) for i in group])

    def test_exact_swap_uses_replaced_training_set(self, train2):
        # hand-roll the swap loop for the plug-in statistic
        method = PermutationMethod("plugin", "exact-swap")
        x = np.array([0.8, -0.2])
        theta = 1
        got = pvalue_vector(method, train2, x)[theta]
        base = fit_pooled_gaussian(train2)
        ref = log_weighted_lr(base.class_weights, base.means, (base.sigma, base.sigma), theta, x)
        count = 0
        for i in train2.group(theta):
            swapped = fit_pooled_gaussian(train2.replace(int(i), x))
            val = log_weighted_lr(
                swapped.class_weights, swapped.means, (swapped.sigma, swapped.sigma), theta,
                train2.features[i],
            )
            count += bool(val >= ref)
        assert got == (count + 1) / (train2.group(theta).size + 1)


class TestPvalueVector:
    def test_mirror_symmetry(self):
        rng = np.random.default_rng(11)
        block = rng.normal(size=(15, 2)) + np.array([-1.5, 0.0])
        feats = np.vstack([block, block * np.array([-1.0, 1.0])])
        d = TrainingSet(feats, np.array([1] * 15 + [2] * 15), 2, ("1", "2"))
        x = np.array([0.0, 0.4])
        for statistic in ("plugin", "knn", "logistic"):
            for mode in ("exact-swap", "valid-shortcut", "naive"):
                method = PermutationMethod(statistic, mode, k=7)
                pv = pvalue_vector(method, d, x)
                assert pv[1] == pv[2], (statistic, mode)

    def test_grid_floor(self, train2):
        rng = np.random.default_rng(13)
        for statistic in ("plugin", "knn", "logistic"):
            method = PermutationMethod(statistic, "valid-shortcut", k=5)
            for _ in range(5):
                pv = pvalue_vector(method, train2, rng.normal(size=2) * 2)
                for theta in (1, 2):
                    floor = 1.0 / (train2.group_sizes[theta - 1] + 1)
                    assert pv[theta] >= floor - 1e-12

    def test_range_law(self, train2):
        method = PermutationMethod("knn", "exact-swap", k=7)
        rng = np.random.default_rng(17)
        for _ in range(5):
            pv = pvalue_vector(method, train2, rng.normal(size=2))
            for theta in (1, 2):
                n_theta = int(train2.group_sizes[theta - 1])
                j = round(pv[theta] * (n_theta + 1))
                assert abs(pv[theta] - j / (n_theta + 1)) < 1e-12 and 1 <= j <= n_theta + 1

    def test_deterministic(self, train2):
        method = PermutationMethod("plugin", "valid-shortcut")
        x = np.array([0.1, 0.2])
        assert np.array_equal(pvalue_vector(method, train2, x).values, pvalue_vector(method, train2, x).values)

    def test_label_permutation_equivariance(self, train2):
        swapped_labels = np.where(train2.labels == 1, 2, 1)
        swapped = TrainingSet(train2.features, swapped_labels, 2, ("2", "1"))
        rng = np.random.default_rng(19)
        for statistic in ("plugin", "knn", "logistic"):
            method = PermutationMethod(statistic, "valid-shortcut", k=9)
            for _ in range(3):
                x = rng.normal(size=2)
                a = pvalue_vector(method, train2, x)
                b = pvalue_vector(method, swapped, x)
                assert a[1] == b[2] and a[2] == b[1], statistic

    def test_small_group_warning(self, train2):
        method = PermutationMethod("plugin", "naive")
        with pytest.warns(UserWarning, match="never"):
            warn_small_groups(train2, [0.01])

    def test_typicality_dispatch(self, train2):
        method = PermutationMethod("typicality")
        pv = pvalue_vector(method, train2, train2.features[0])
        fit = fit_pooled_gaussian(train2)
        from classpv import typicality_index

        assert pv[1] == typicality_index(fit, 1, train2.features[0])


@pytest.mark.parametrize("statistic", ["plugin", "knn", "logistic"])
@pytest.mark.parametrize("mode", ["exact-swap", "valid-shortcut", "naive"])
def test_training_row_as_query_ties_with_itself(statistic, mode):
    # a query equal to a class-theta row reaches that row's statistic, so it
    # never gets the floor p-value 1/(N+1); in exact-swap, swapping the query
    # in for that row leaves the data as it is
    for seed in range(20 if mode == "exact-swap" else 150):
        rng = np.random.default_rng(seed)
        q = 3 + seed % 4
        feats = rng.normal(size=(30, q)) * 10.0 ** rng.uniform(-2, 2, size=q)
        d = TrainingSet(feats, np.array([1] * 15 + [2] * 15), 2, ("1", "2"))
        fitted = PermutationMethod(statistic, mode, k=5).fit(d)
        for i in range(d.n):
            theta = int(d.labels[i])
            assert pvalue(fitted, mode, theta, feats[i]) >= 2 / 16, (seed, i)


class TestValidityQuick:
    def test_exchangeability_rate_bound(self, model2):
        # small-replication version of the validity experiment; the acceptance
        # suite runs the full-size one
        reps = 400
        alpha = 0.25
        children = np.random.SeedSequence(23).spawn(reps)
        method = PermutationMethod("knn", "valid-shortcut", k=7)
        hits = 0
        for r in range(reps):
            rng = np.random.default_rng(children[r])
            d = sample_gaussian_mixture(model2, [15, 15], seed=int(rng.integers(2**31)))
            x = model2.sample(1, 1, rng)[0]
            hits += pvalue(method.fit(d), method.mode, 1, x) <= alpha
        rate = hits / reps
        assert rate <= alpha + 4.0 * math.sqrt(alpha * (1 - alpha) / reps)


class TestDegenerateSwap:
    def test_swap_aborts_with_index(self):
        d = validate_training_set([[0.0], [1.0], [5.0], [5.0]], [1, 1, 2, 2])
        method = PermutationMethod("plugin", "exact-swap")
        # swapping x = 0 into the position of the point at 1 flattens class 1:
        # removing row 1 from the augmented class {0, 1, 0} leaves {0, 0}
        with pytest.raises(DegenerateFitError) as info:
            pvalue_vector(method, d, np.array([0.0]))
        assert info.value.swap_index == 1


def test_non_finite_query_rejected_in_every_mode(train2):
    for statistic in ("plugin", "knn", "logistic", "typicality"):
        for mode in ("exact-swap", "valid-shortcut", "naive"):
            with pytest.raises(ValueError, match="non-finite"):
                pvalue_vector(PermutationMethod(statistic, mode, k=5), train2, np.array([0.5, np.nan]))


def test_pvalue_reuses_fit_and_checks_arguments(train2):
    method = PermutationMethod("plugin", "exact-swap")
    fitted = method.fit(train2)
    x = np.array([0.3, -0.4])
    assert [pvalue(fitted, method.mode, theta, x) for theta in (1, 2)] == list(pvalue_vector(method, train2, x).values)
    with pytest.raises(ValueError):
        pvalue(fitted, "fast", 1, x)
    with pytest.raises(ValueError):
        pvalue(fitted, method.mode, 3, x)


class TestLogisticFits:
    """Fits counted at the module-level ``fit_logistic``, through which every
    logistic fit of one data set goes. Both exchangeable modes read only the
    statistic's ``data``: their edited sets are fitted in one batched IRLS
    per chunk, so neither fits D or an augmented set on its own."""

    @pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut"))
    def test_pvalues_make_no_fit(self, train2, mode):
        queries = np.random.default_rng(3).normal(size=(4, 2))
        with mock.patch.object(estimators, "fit_logistic", wraps=estimators.fit_logistic) as fits:
            fitted = PermutationMethod("logistic", mode).fit(train2)
            for theta in (1, 2):
                pvalues(fitted, mode, theta, queries)
        assert fits.call_count == 0

    def test_validity_experiment_makes_no_fit(self, model2):
        methods = tuple(PermutationMethod("logistic", mode) for mode in ("exact-swap", "valid-shortcut"))
        cfg = ExperimentConfig(model=model2, sizes=(8, 8), methods=methods, replications=3, master_seed=4)
        with mock.patch.object(estimators, "fit_logistic", wraps=estimators.fit_logistic) as fits:
            validity_experiment(cfg)
        assert fits.call_count == 0


class TestLogisticBatches:
    """Counts of ``_logistic_fits``, the batched IRLS that every edited
    logistic set goes through: the validity battery fits a block of
    replications' sets per class in one call, and exact-swap holds the
    edited fits of several queries or rows for one call, with every p-value
    bit of one edit at a time."""

    @pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut"))
    def test_battery_makes_one_call_per_class_and_block(self, model2, mode):
        # the benchmark's battery: 60 replications of 19 + 19 points, which a
        # per-replication loop fitted in 120 calls
        sizes, reps = (19, 19), 60
        n = sum(sizes)
        blocks = -(-reps // max(1, simulation._BLOCK_ELEMENTS // ((n + 2) * n * 3)))
        cfg = ExperimentConfig(model=model2, sizes=sizes, methods=(PermutationMethod("logistic", mode),),
                               alphas=(0.05,), replications=reps, master_seed=1)
        with mock.patch.object(estimators, "_logistic_fits", wraps=estimators._logistic_fits) as fits:
            validity_experiment(cfg)
        assert blocks == 2 and fits.call_count == 2 * blocks

    def test_exact_swap_holds_edits_without_moving_a_bit(self, train2):
        method = PermutationMethod("logistic", "exact-swap")
        fitted = method.fit(train2)
        X = np.random.default_rng(8).normal(size=(9, 2))
        X[0] = train2.features[5]
        with mock.patch.object(estimators, "_logistic_fits", wraps=estimators._logistic_fits) as fits:
            batch = [pvalues(fitted, "exact-swap", theta, X) for theta in (1, 2)]
            cv = crossval_pvalues(train2, method).pvalues
        # one call per class for the queries; per class, one for the own
        # class's "loo" values and one for every row relabelled into it
        assert fits.call_count == 2 + 2 * 2
        for theta in (1, 2):
            assert batch[theta - 1].tolist() == [pvalue(fitted, "exact-swap", theta, x) for x in X]
            group = train2.group(theta)
            expected = np.empty(train2.n)
            expected[group] = _swap_pvalues([fitted], theta, [group])
            for i in train2.group(3 - theta):
                expected[i] = _swap_pvalues([fitted.edit(Relabel(int(i), theta))], theta, [i])[0]
            assert cv[:, theta - 1].tolist() == expected.tolist()


def test_method_validation():
    with pytest.raises(ValueError):
        PermutationMethod("nearest", "naive")
    with pytest.raises(ValueError):
        PermutationMethod("knn", "fast")
