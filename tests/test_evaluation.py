import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classpv import estimators
from classpv import (
    PermutationMethod,
    crossval_pvalues,
    default_k,
    empirical_inclusion,
    empirical_pattern,
    empirical_risk,
    pvalue_vector,
    roc_curve,
    roc_sup_distance,
    example22_model,
    sample_gaussian_mixture,
    standard_2class_model,
    validate_training_set,
)
from classpv.cli import main
from classpv.core import Relabel, Remove, StructuralError, TrainingSet
from classpv.estimators import DegenerateFitError
from classpv.evaluation import CrossValMatrix, RocCurve, observed_patterns
from classpv.permutation import pvalue


def _matrix(pvalues, labels, sizes, method=None):
    return CrossValMatrix(
        pvalues=np.asarray(pvalues, dtype=float),
        labels=np.asarray(labels, dtype=np.int64),
        group_sizes=np.asarray(sizes, dtype=np.int64),
        method=method or PermutationMethod("plugin", "naive"),
    )


@pytest.mark.bits
class TestCrossval:
    def test_matches_per_row_scratch(self, model2):
        d = sample_gaussian_mixture(model2, [4, 4], seed=31)
        method = PermutationMethod("plugin", "exact-swap")
        cv = crossval_pvalues(d, method)
        assert cv.pvalues.shape == (8, 2)
        for i in range(d.n):
            reduced = d.remove(i)
            for theta in (1, 2):
                assert cv.pvalues[i, theta - 1] == pvalue_vector(method, reduced, d.features[i])[theta]

    @pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut", "naive"))
    @pytest.mark.parametrize("statistic, kwargs, n_classes", [
        (statistic, kwargs, n_classes)
        for statistic, kwargs in (
            ("plugin", {}),
            ("knn", {"k": 5}),
            ("knn", {}),
            ("knn", {"k": 5, "scale_features": True}),
            ("logistic", {}),
        )
        for n_classes in ((2,) if statistic == "logistic" else (2, 3))
    ])
    def test_every_statistic_and_mode_matches_per_row_oracle(self, statistic, kwargs, n_classes, mode):
        if n_classes == 2:
            d = sample_gaussian_mixture(standard_2class_model(), [10, 11], seed=71)
        else:
            d = sample_gaussian_mixture(example22_model(), [8, 7, 8], seed=73)
        feats = np.array(d.features, copy=True)
        g1, g2 = d.group(1), d.group(2)
        feats[g1[1]] = feats[g1[0]]  # duplicated within class 1
        feats[g2[0]] = feats[g1[2]]  # duplicated across classes 1 and 2
        d = TrainingSet(feats, d.labels, d.n_classes, d.label_names)
        cv = crossval_pvalues(d, PermutationMethod(statistic, mode, **kwargs))
        # the fit of the full data fixes k, so the oracle gets the same k
        oracle = PermutationMethod(statistic, mode, **{"k": default_k(d.n), **kwargs})
        for i in range(d.n):
            expected = pvalue_vector(oracle, d.remove(i), d.features[i]).values
            assert np.array_equal(cv.pvalues[i], expected), (i, cv.pvalues[i], expected)

    def test_duplicate_points_same_rows(self, model2):
        d = sample_gaussian_mixture(model2, [6, 6], seed=37)
        feats = np.array(d.features, copy=True)
        feats[3] = feats[2]  # duplicate within class 1
        dup = TrainingSet(feats, d.labels, 2, d.label_names)
        cv = crossval_pvalues(dup, PermutationMethod("knn", "valid-shortcut", k=4))
        assert np.array_equal(cv.pvalues[2], cv.pvalues[3])

    def test_singleton_class_rejected(self):
        d = validate_training_set([[0.0], [1.0], [2.0]], [1, 1, 2])
        with pytest.raises(StructuralError):
            crossval_pvalues(d, PermutationMethod("plugin", "naive"))

    def test_grid_step(self, model2):
        d = sample_gaussian_mixture(model2, [5, 7], seed=41)
        cv = crossval_pvalues(d, PermutationMethod("knn", "naive", k=3))
        assert cv.grid_step(0, 1) == 1.0 / 5  # class-1 row, class-1 grid loses a member
        assert cv.grid_step(0, 2) == 1.0 / 8


def _per_row_edit_pvalues(d, mode):
    """The plug-in leave-one-out p-values through one edit and refit per row:
    a Remove per row in naive mode, else a Relabel per (row, other class),
    with the own class taken from the full fit. Valid-shortcut scores the
    class under that fit, and exact-swap scores each member under that fit
    edited by its Remove."""
    base = PermutationMethod("plugin", mode).fit(d)
    out = np.empty((d.n, d.n_classes))
    for i in range(d.n):
        if mode == "naive":
            reduced = base.edit(Remove(i))
        for theta in range(1, d.n_classes + 1):
            if mode == "naive":
                out[i, theta - 1] = pvalue(reduced, "naive", theta, d.features[i])
                continue
            fit = base if theta == d.labels[i] else base.edit(Relabel(i, theta))
            group = fit.data.group(theta)
            if mode == "exact-swap":
                values = np.array([fit.edit(Remove(j)).evaluate(theta, fit.data.features[[j]])[0] for j in group])
            else:
                values = fit.evaluate(theta, fit.data.features[group])
            pos = int(np.searchsorted(group, i))
            out[i, theta - 1] = (np.count_nonzero(np.delete(values, pos) >= values[pos]) + 1) / group.size
    return out


def _awkward_set(n_classes, q, seed):
    """Scaled columns, duplicates within and across classes, a two-member
    class: the inputs on which a closed form is most likely to round apart
    from the refit."""
    rng = np.random.default_rng([seed, n_classes, q])
    sizes = [2] + [int(rng.integers(q + 3, q + 9)) for _ in range(n_classes - 1)]
    labels = np.repeat(np.arange(1, n_classes + 1), sizes)
    features = rng.standard_normal((labels.size, q)) + labels[:, None] * rng.standard_normal(q)
    features *= 10.0 ** rng.uniform(-2.0, 2.0, size=q)
    big = np.flatnonzero(labels == 2)
    features[big[1]] = features[big[0]]                 # within class 2
    features[big[2]] = features[0]                      # across classes 1 and 2
    features[np.flatnonzero(labels == n_classes)[-1]] = features[big[3]]
    return TrainingSet(features, labels, n_classes, tuple(f"c{b}" for b in range(1, n_classes + 1)))


def _singular_on_one_row():
    """Every class is constant in the second feature once row 3 leaves class
    1 (relabelled into class 2, or removed), so that edit, and no earlier
    one, leaves the pooled covariance singular at pivot 1."""
    features = np.array([[0.3, 0.0], [1.7, 1.0], [-0.4, 0.0], [0.9, 1.0], [2.2, 1.0], [-1.1, 0.0]])
    labels = np.array([1, 2, 1, 1, 2, 1])
    return TrainingSet(features, labels, 2, ("c1", "c2"))


@pytest.mark.bits
class TestClosedFormCrossval:
    @pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut", "naive"))
    @pytest.mark.parametrize("n_classes", (2, 3, 4))
    @pytest.mark.parametrize("q", (1, 2, 5, 8))
    def test_equals_per_row_edits(self, n_classes, q, mode):
        for seed in range(3):
            d = _awkward_set(n_classes, q, seed)
            try:
                expected = _per_row_edit_pvalues(d, mode)
            except DegenerateFitError:
                # exact swap removes one member of the two-member class 1
                with pytest.raises(DegenerateFitError):
                    crossval_pvalues(d, PermutationMethod("plugin", mode))
                continue
            cv = crossval_pvalues(d, PermutationMethod("plugin", mode))
            assert np.array_equal(cv.pvalues, expected), (seed, cv.pvalues)

    @pytest.mark.parametrize("mode", ("valid-shortcut", "naive"))
    def test_no_edit_on_a_well_conditioned_set(self, monkeypatch, mode):
        d = sample_gaussian_mixture(example22_model(), [40, 35, 45], seed=83)
        edits = []
        update = estimators.gaussian_update
        monkeypatch.setattr(estimators, "gaussian_update", lambda *args: edits.append(args[1]) or update(*args))
        cv = crossval_pvalues(d, PermutationMethod("plugin", mode))
        assert edits == []
        monkeypatch.undo()
        assert np.array_equal(cv.pvalues, _per_row_edit_pvalues(d, mode))

    @pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut", "naive"))
    def test_singular_edit_raises_where_the_per_row_edit_raises(self, mode, tmp_path, capsys):
        d = _singular_on_one_row()
        with pytest.raises(DegenerateFitError) as expected:
            _per_row_edit_pvalues(d, mode)
        with pytest.raises(DegenerateFitError) as raised:
            crossval_pvalues(d, PermutationMethod("plugin", mode))
        assert raised.value.pivot_index == expected.value.pivot_index == 1
        assert str(raised.value) == str(expected.value)
        # exact swap fails at row 3's "loo" removal from class 1, a row of D
        assert raised.value.swap_index == (3 if mode == "exact-swap" else None)
        path = tmp_path / "train.csv"
        path.write_text("f1,f2,label\n" + "".join(f"{x!r},{y!r},c{b}\n" for (x, y), b in zip(d.features.tolist(), d.labels)))
        rc = main(["crossval", "--train", str(path), "--label", "label", "--method", "plugin", "--mode", mode,
                   "--alpha", "0.5", "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "numerical degeneracy" in capsys.readouterr().err


def _high_leverage_rows(d, theta):
    """The class-theta rows of d whose removal from the plug-in fit has
    leverage (N/(N-1)) v^T S^-1 v above ``estimators._HIGH_LEVERAGE``, v the
    row's deviation from its class mean and S the pooled scatter."""
    means = np.array([d.features[d.labels == b].mean(axis=0) for b in range(1, d.n_classes + 1)])
    deviations = d.features - means[d.labels - 1]
    group = d.group(theta)
    v = deviations[group]
    leverage = group.size / (group.size - 1) * np.sum(v * np.linalg.solve(deviations.T @ deviations, v.T).T, axis=1)
    return [int(j) for j in group[leverage > estimators._HIGH_LEVERAGE]]


@pytest.mark.bits
class TestEditLoop:
    """The edits ``crossval_pvalues`` makes, counted at ``TrainingSet.edit``,
    in its loop order: class theta, then the rows' class, then row."""

    @staticmethod
    def _edits(monkeypatch, d, method):
        edits = []
        edit = TrainingSet.edit
        monkeypatch.setattr(TrainingSet, "edit", lambda self, e: edits.append(e) or edit(self, e))
        crossval_pvalues(d, method)
        monkeypatch.undo()
        return edits

    @pytest.mark.parametrize("statistic, kwargs, n_classes", [
        ("knn", {"k": 5, "scale_features": True}, 3),
    ])
    def test_valid_shortcut_relabels_once_per_row_and_other_class(self, monkeypatch, statistic, kwargs, n_classes):
        d = _awkward_set(n_classes, 2, 0)
        edits = self._edits(monkeypatch, d, PermutationMethod(statistic, "valid-shortcut", **kwargs))
        classes = range(1, n_classes + 1)
        assert edits == [
            Relabel(i, theta) for theta in classes for y in classes if y != theta for i in d.group(y)
        ]

    @pytest.mark.parametrize("k", (1, 5, None))
    def test_fixed_metric_knn_valid_shortcut_makes_no_edit(self, monkeypatch, k):
        d = _awkward_set(3, 2, 0)
        assert self._edits(monkeypatch, d, PermutationMethod("knn", "valid-shortcut", k=k)) == []

    @pytest.mark.parametrize("mode", ("valid-shortcut", "naive"))
    def test_logistic_makes_no_edit(self, monkeypatch, mode):
        # every relabel or removal is fitted in one batched IRLS per chunk
        d = _awkward_set(2, 2, 0)
        assert self._edits(monkeypatch, d, PermutationMethod("logistic", mode)) == []

    @pytest.mark.parametrize("mode, fits", (("valid-shortcut", 1), ("naive", 0)))
    def test_logistic_fits_only_what_it_reads(self, monkeypatch, mode, fits):
        # valid-shortcut ranks the own class by the base fit's values; every
        # relabel or removal is fitted in the batched IRLS, which does not go
        # through fit_logistic, so naive reads no single fit
        calls = []
        fit = estimators.fit_logistic
        monkeypatch.setattr(estimators, "fit_logistic", lambda d: calls.append(d) or fit(d))
        crossval_pvalues(_awkward_set(2, 2, 0), PermutationMethod("logistic", mode))
        assert len(calls) == fits

    @pytest.mark.parametrize("kwargs", [
        pytest.param({"k": 3}, id="knn"),
        pytest.param({"k": 3, "scale_features": True}, id="scaled-knn"),
    ])
    def test_naive_knn_removes_once_per_row_and_class(self, monkeypatch, kwargs):
        # every removal moves radii, so edited_values refits each one for
        # each class it is scored against
        d = _awkward_set(3, 2, 1)
        edits = self._edits(monkeypatch, d, PermutationMethod("knn", "naive", **kwargs))
        classes = range(1, d.n_classes + 1)
        assert edits == [Remove(i) for theta in classes for y in classes for i in d.group(y)]

    def test_typicality_removes_once_per_row(self, monkeypatch):
        d = _awkward_set(3, 2, 1)
        edits = self._edits(monkeypatch, d, PermutationMethod("typicality", "valid-shortcut"))
        assert edits == [Remove(i) for i in range(d.n)]

    @staticmethod
    def _kinds(edits):
        return [(type(e).__name__, e.index) for e in edits]

    def test_exact_swap_relabels_once_per_row_and_other_class(self, monkeypatch):
        # the own class is D itself, whose "loo" values the plug-in scores in
        # closed form; every other class relabels the row, and the closed
        # form scores the relabelled class. Only a removal of high leverage
        # takes the refit: here row 1 of the two-member class 1, three
        # times, when a row relabelled into class 1 lands near row 0. The
        # relabelled fits of a class are held and scored as one block, whose
        # refits follow its relabels, row by row
        d = _awkward_set(3, 2, 2)
        edits = self._edits(monkeypatch, d, PermutationMethod("plugin", "exact-swap"))
        expected = []
        classes = range(1, d.n_classes + 1)
        for theta in classes:
            expected += [("Remove", j) for j in _high_leverage_rows(d, theta)]
            for y in classes:
                if y != theta:
                    expected += [("Relabel", i) for i in d.group(y)]
                    for i in d.group(y):
                        expected += [("Remove", j) for j in _high_leverage_rows(d.relabel(i, theta), theta)]
        assert self._kinds(edits) == expected
        assert sum(kind == "Relabel" for kind, *_ in expected) == d.n * (d.n_classes - 1)
        assert sum(kind == "Remove" for kind, *_ in expected) == 3

    @pytest.mark.parametrize("statistic, kwargs, n_classes", [
        ("knn", {"k": 3}, 3),
        ("logistic", {}, 2),
    ])
    def test_exact_swap_makes_only_the_relabels(self, monkeypatch, statistic, kwargs, n_classes):
        # the fixed-metric k-NN distance block and the batched IRLS score
        # every "loo" removal without making it
        d = _awkward_set(n_classes, 2, 2)
        edits = self._edits(monkeypatch, d, PermutationMethod(statistic, "exact-swap", **kwargs))
        classes = range(1, n_classes + 1)
        assert edits == [
            Relabel(i, theta) for theta in classes for y in classes if y != theta for i in d.group(y)
        ]


@pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut", "naive"))
@pytest.mark.parametrize("statistic, kwargs", [
    ("plugin", {}),
    ("knn", {"k": 1}),
    ("knn", {"k": 3}),
    ("knn", {}),
    ("knn", {"k": 2, "scale_features": True}),
    ("logistic", {}),
    ("typicality", {}),
])
@pytest.mark.bits
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 3), q=st.integers(1, 3))
def test_crossval_rows_follow_a_shuffle_and_sit_on_their_grid(statistic, kwargs, mode, seed, n_classes, q):
    """On half-integer lattice rows, a fifth of them copies: shuffling the
    rows of D permutes the matrix's rows and moves no bit, and every rank
    p-value is j times its ``grid_step`` for an integer j from 1 to
    1/``grid_step``. (Typicality is an exact pivot, on no grid.)"""
    n_classes = 2 if statistic == "logistic" else n_classes
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 8, size=n_classes)
    labels = rng.permutation(np.repeat(np.arange(1, n_classes + 1), sizes))
    feats = rng.integers(-2, 3, size=(labels.size, q)) / 2.0
    copies = rng.choice(labels.size, size=labels.size // 5, replace=False)
    feats[copies] = feats[rng.choice(labels.size, size=copies.size)]
    d = TrainingSet(feats, labels, n_classes, tuple(f"c{b}" for b in range(1, n_classes + 1)))
    order = rng.permutation(d.n)
    shuffled = TrainingSet(feats[order], labels[order], n_classes, d.label_names)
    method = PermutationMethod(statistic, mode, **kwargs)
    try:
        cv = crossval_pvalues(d, method)
    except DegenerateFitError:
        with pytest.raises(DegenerateFitError):
            crossval_pvalues(shuffled, method)
        return
    assert np.array_equal(crossval_pvalues(shuffled, method).pvalues.view(np.uint64), cv.pvalues[order].view(np.uint64))
    if statistic == "typicality":
        assert np.all((cv.pvalues >= 0.0) & (cv.pvalues <= 1.0))
        return
    for i in range(d.n):
        for theta in range(1, n_classes + 1):
            points = round(1.0 / cv.grid_step(i, theta))
            j = round(cv.pvalues[i, theta - 1] * points)
            assert 1 <= j <= points and cv.pvalues[i, theta - 1] == j / points, (i, theta, cv.pvalues[i])


class TestInclusionAndPatterns:
    def test_hand_inclusion(self):
        cv = _matrix(
            [[0.2, 0.5, 0.5], [0.04, 0.5, 0.5], [0.6, 0.5, 0.5]],
            [1, 1, 1],
            [3, 1, 1],
        )
        assert empirical_inclusion(cv, 0.05, 1, 1) == pytest.approx(2.0 / 3.0)

    def test_all_ones(self):
        cv = _matrix(np.ones((4, 2)), [1, 1, 2, 2], [2, 2])
        assert empirical_inclusion(cv, 0.3, 1, 2) == 1.0

    def test_alpha_zero_gives_one(self):
        cv = _matrix([[0.05, 0.1], [0.5, 0.9]], [1, 2], [1, 1])
        assert empirical_inclusion(cv, 0.0, 1, 1) == 1.0
        assert empirical_inclusion(cv, 0.0, 2, 2) == 1.0

    def test_pattern_partition_and_identity(self):
        rng = np.random.default_rng(43)
        cv = _matrix(rng.uniform(size=(30, 3)), rng.integers(1, 4, size=30), [10, 10, 10])
        for alpha in (0.1, 0.4, 0.8):
            for b in (1, 2, 3):
                if cv.group(b).size == 0:
                    continue
                pats = observed_patterns(cv, alpha, b)
                total = sum(empirical_pattern(cv, alpha, b, p) for p in pats)
                assert total == pytest.approx(1.0)
                for theta in (1, 2, 3):
                    inc = empirical_inclusion(cv, alpha, b, theta)
                    via_patterns = sum(
                        empirical_pattern(cv, alpha, b, p) for p in pats if theta in p
                    )
                    assert inc == pytest.approx(via_patterns)

    @pytest.mark.parametrize("n_classes", [2, 3, 70])
    def test_patterns_are_the_distinct_row_regions_sorted(self, n_classes):
        """The per-row region sets, each once, sorted as tuples. At 70
        classes the rows differ only past class 64, where a region code of
        one bit per class would wrap in int64."""
        rng = np.random.default_rng([53, n_classes])
        labels = np.concatenate([np.arange(1, n_classes + 1), rng.integers(1, 3, size=60)])
        pvalues = rng.choice([0.05, 0.2, 0.6], size=(labels.size, n_classes))
        if n_classes > 64:
            pvalues[:, :64] = 0.6
        cv = _matrix(pvalues, labels, np.bincount(labels)[1:])
        for alpha in (0.1, 0.4):
            for b in (1, 2):
                want = sorted({tuple(np.flatnonzero(m) + 1) for m in cv.pvalues[cv.group(b)] > alpha})
                assert len(want) > 1
                assert observed_patterns(cv, alpha, b) == [frozenset(t) for t in want]

    def test_antitone_in_alpha(self):
        rng = np.random.default_rng(47)
        cv = _matrix(rng.uniform(size=(20, 2)), [1] * 10 + [2] * 10, [10, 10])
        values = [empirical_inclusion(cv, a, 1, 2) for a in (0.1, 0.3, 0.7)]
        assert values[0] >= values[1] >= values[2]
        risks = [empirical_risk(cv, a) for a in (0.1, 0.3, 0.7)]
        assert risks[0] >= risks[1] >= risks[2]


class TestRoc:
    def test_all_ones_curve_is_zero(self):
        curve = RocCurve.from_pvalues(np.ones(10))
        for alpha in (0.01, 0.5, 0.99):
            assert curve(alpha) == 0.0

    def test_right_continuous_nondecreasing(self):
        curve = RocCurve.from_pvalues(np.array([0.2, 0.2, 0.5, 0.8]))
        assert curve(0.2) == 0.5  # jump included at the breakpoint
        assert curve(0.19999) == 0.0
        grid = np.linspace(0.0, 1.0, 101)
        vals = curve(grid)
        assert np.all(np.diff(vals) >= 0.0)

    def test_matches_inclusion_complement(self):
        rng = np.random.default_rng(53)
        cv = _matrix(rng.uniform(size=(40, 2)), [1] * 20 + [2] * 20, [20, 20])
        curve = roc_curve(cv, 1, 2)
        for alpha in (0.1, 0.35, 0.9):
            assert curve(alpha) == pytest.approx(1.0 - empirical_inclusion(cv, alpha, 1, 2))

    def test_sup_distance(self):
        a = RocCurve.from_pvalues(np.array([0.2, 0.4, 0.6, 0.8]))
        b = RocCurve.from_pvalues(np.array([0.2, 0.4, 0.6, 0.8]))
        assert roc_sup_distance(a, b) == 0.0
        c = RocCurve.from_pvalues(np.array([0.3, 0.5, 0.7, 0.9]))
        assert roc_sup_distance(a, c) == pytest.approx(0.25)


class TestCoverageStyle:
    def test_self_inclusion_bound_and_grid_floor(self, model2):
        # leave-one-out self-inclusion should respect the validity-style bound
        d = sample_gaussian_mixture(model2, [25, 25], seed=61)
        for statistic in ("plugin", "knn"):
            cv = crossval_pvalues(d, PermutationMethod(statistic, "valid-shortcut", k=8))
            for alpha in (0.1, 0.2):
                for b in (1, 2):
                    bound = 1.0 - alpha - 3.0 * np.sqrt(alpha / cv.group(b).size)
                    assert empirical_inclusion(cv, alpha, b, b) >= bound
            # every entry sits on or above its row grid floor
            for i in range(cv.n):
                for theta in (1, 2):
                    assert cv.pvalues[i, theta - 1] >= cv.grid_step(i, theta) - 1e-12


class TestRisk:
    def test_all_ones(self):
        cv = _matrix(np.ones((6, 3)), [1, 1, 2, 2, 3, 3], [2, 2, 2])
        assert empirical_risk(cv, 0.5) == 3.0

    def test_grid_minimum_case(self):
        cv = _matrix(np.full((4, 2), 0.05), [1, 1, 2, 2], [2, 2])
        assert empirical_risk(cv, 0.1) == 0.0

    def test_decomposition(self):
        rng = np.random.default_rng(59)
        cv = _matrix(rng.uniform(size=(25, 3)), rng.integers(1, 4, 25), [9, 8, 8])
        alpha = 0.3
        total = empirical_risk(cv, alpha)
        per_theta = sum(float(np.mean(cv.pvalues[:, t] > alpha)) for t in range(3))
        assert total == pytest.approx(per_theta)


@pytest.mark.parametrize("scale_features", (False, True))
@pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut", "naive"))
def test_crossval_rejects_k_of_n_in_every_mode(tmp_path, capsys, mode, scale_features):
    """Each leave-one-out set has n - 1 rows, so k = n is rejected with one
    message in every mode, by the library and by the CLI with exit code 2."""
    d = sample_gaussian_mixture(standard_2class_model(), [10, 10], seed=3)
    message = "k must lie in 1..n-1=19 on leave-one-out sets, got 20"
    with pytest.raises(ValueError) as raised:
        crossval_pvalues(d, PermutationMethod("knn", mode, k=20, scale_features=scale_features))
    assert str(raised.value) == message
    path = tmp_path / "train.csv"
    path.write_text("f1,f2,label\n" + "".join(f"{x!r},{y!r},c{b}\n" for (x, y), b in zip(d.features.tolist(), d.labels)))
    rc = main(["crossval", "--train", str(path), "--label", "label", "--method", "knn", "--mode", mode, "--k", "20",
               *(["--scale-features"] if scale_features else []), "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert crossval_pvalues(d, PermutationMethod("knn", mode, k=19, scale_features=scale_features)).pvalues.shape == (20, 2)
