"""The batch p-value kernel ``pvalues`` against the per-query refit oracle.

Every p-value of a batch must equal, exactly, the p-value the plain edit
protocol gives for that query alone (``refit_pvalue``): the plug-in closed
form, the k-NN cached counts and the one-evaluate naive path are shortcuts,
so they may not move a single rank. Queries include copied training rows,
which must tie with their originals, and repeated rows, which must get
identical p-values whatever their position in the batch.
"""

import tracemalloc

import numpy as np
import pytest

from classpv import Augment, DegenerateFitError, PermutationMethod, TrainingSet, permutation, pvalues
from classpv.core import rank_pvalue
from classpv.numerics import SpdMatrix, mahalanobis_sq, solve_lower, whiten_rows

from reference_pvalues import refit_pvalue

MODES = ("exact-swap", "valid-shortcut", "naive")
STATISTICS = {
    "plugin": {},
    "knn": {"k": 5},
    "knn-default-k": {},
    "knn-scaled": {"k": 5, "scale_features": True},
    "logistic": {},
    "typicality": {},
}
WIDTHS = (1, 7, 600)


def _training_set(seed: int, n_classes: int) -> TrainingSet:
    """Classes of 10 to 15 rows in q = 2 + seed % 7 dimensions, columns
    scaled by 10^U(-2, 2), with one row copied within class 1 and one copied
    from class 1 into class 2."""
    rng = np.random.default_rng(seed)
    q = 2 + seed % 7
    sizes = rng.integers(10, 16, size=n_classes)
    feats = np.vstack([rng.normal(size=(size, q)) + 1.5 * b * np.eye(q)[b % q] for b, size in enumerate(sizes)])
    feats *= 10.0 ** rng.uniform(-2, 2, size=q)
    labels = np.repeat(np.arange(1, n_classes + 1), sizes)
    feats[1] = feats[0]
    feats[sizes[0]] = feats[2]
    return TrainingSet(feats, labels, n_classes, tuple(str(b) for b in range(1, n_classes + 1)))


def _queries(d: TrainingSet, width: int, seed: int) -> np.ndarray:
    """width queries: draws spread over the data, every fourth one a copied
    training row, and every seventh a repeat of an earlier query."""
    rng = np.random.default_rng(seed)
    spread = d.features.std(axis=0)
    X = d.features.mean(axis=0) + 1.5 * spread * rng.normal(size=(width, d.q))
    copied = np.arange(0, width, 4)
    X[copied] = d.features[rng.integers(0, d.n, size=copied.size)]
    for i in range(7, width, 7):
        X[i] = X[int(rng.integers(0, i))]
    return X


def _cases(name: str, mode: str):
    """(seed, L, widths): every q from 2 to 8 and L = 2 and 3 at widths 1 and
    7. The 600-wide batch runs at q = 2 and 3 on the paths that batch, and at
    q = 2 on those that refit for each query in turn. Naive plug-in, which
    whitens the batch and the class rows in one block solve, runs it at every
    q. Exact-swap is a loop of single-query refits in the kernel too, N of
    them per query, so it stops at width 7."""
    refits = mode == "valid-shortcut" and name in ("logistic", "knn-scaled")
    class_counts = (2,) if name == "logistic" else (2, 3)
    for n_classes in class_counts:
        for seed in range(7):
            wide = mode != "exact-swap" and (seed == 0 or (seed == 1 and not refits))
            wide = wide or (mode == "naive" and name == "plugin")
            yield seed + 7 * (n_classes - 2), n_classes, WIDTHS if wide else WIDTHS[:2]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", STATISTICS)
def test_kernel_equals_per_query_refit(name, mode):
    method = PermutationMethod(name.split("-")[0], mode, **STATISTICS[name])
    for seed, n_classes, widths in _cases(name, mode):
        d = _training_set(seed, n_classes)
        fitted = method.fit(d)
        for width in widths:
            X = _queries(d, width, seed + width)
            for theta in range(1, n_classes + 1):
                got = pvalues(fitted, mode, theta, X)
                expected = [refit_pvalue(fitted, mode, theta, x) for x in X]
                assert got.tolist() == expected, (seed, width, theta)


@pytest.mark.parametrize("name", ("plugin", "knn", "logistic"))
def test_exact_swap_bits_do_not_depend_on_chunking(monkeypatch, name):
    """Exact-swap scores the class rows of the augmented data in chunks of
    ``_chunks``; with blocks small enough that the class spans several chunks,
    on sets with copied rows and copied-row queries, no p-value moves."""
    method = PermutationMethod(name, "exact-swap", **STATISTICS[name])
    for seed in range(3):
        d = _training_set(seed, 2)
        fitted = method.fit(d)
        X = _queries(d, 7, seed)
        whole = [pvalues(fitted, "exact-swap", theta, X) for theta in (1, 2)]
        # about three rows of the augmented class per chunk
        per_row = max(d.n + 1, (d.group_sizes.max() + 2) * 2) * d.q
        monkeypatch.setattr(permutation, "_BLOCK_ELEMENTS", 3 * per_row)
        augmented = d.augment(X[0], 1)
        assert len(permutation._chunks(augmented, 1, augmented.group_sizes[0])) >= 4
        chunked = [pvalues(fitted, "exact-swap", theta, X) for theta in (1, 2)]
        monkeypatch.undo()
        assert np.array_equal(whole, chunked), (seed, whole, chunked)


def _lattice_set(seed: int, n_classes: int) -> TrainingSet:
    """Classes of 4 to 9 rows on the integer lattice {-2, ..., 2}^q, q = 1
    to 3, so that distances tie; one row copied within class 1 and one from
    class 1 into class 2."""
    rng = np.random.default_rng([seed, 5])
    q = 1 + seed % 3
    sizes = rng.integers(4, 10, size=n_classes)
    feats = rng.integers(-2, 3, size=(sizes.sum(), q)).astype(float)
    feats[1] = feats[0]
    feats[sizes[0]] = feats[2]
    labels = np.repeat(np.arange(1, n_classes + 1), sizes)
    return TrainingSet(feats, labels, n_classes, tuple(str(b) for b in range(1, n_classes + 1)))


def test_fixed_knn_exact_swap_on_lattices_equals_per_query_refit():
    """The fixed-metric k-NN removal closed form reads the (k+1)-th distance
    of a block that holds the row's own 0; on lattice sets with copied rows,
    where distances tie at every radius, at k = 1, 2, n - 1 and n, and with
    lattice points and copied training rows as queries, every exact-swap
    p-value equals the per-member refit's."""
    for seed in range(12):
        n_classes = 2 + seed % 2
        d = _lattice_set(seed, n_classes)
        rng = np.random.default_rng([seed, 6])
        X = rng.integers(-2, 3, size=(6, d.q)).astype(float)
        X[::2] = d.features[rng.integers(0, d.n, size=3)]
        for k in (1, 2, d.n - 1, d.n):
            fitted = PermutationMethod("knn", "exact-swap", k=k).fit(d)
            for theta in range(1, n_classes + 1):
                got = pvalues(fitted, "exact-swap", theta, X)
                assert got.tolist() == [refit_pvalue(fitted, "exact-swap", theta, x) for x in X], (seed, k, theta)


def test_plugin_exact_swap_scores_each_removal_in_linear_memory():
    """Exact-swap reads one value per removal, so the plug-in scores the
    removed row alone: at N = 2,000 per class the query's temporaries stay
    far below the (N + 1) x (N + 2) block of scoring every class row, and
    its p-value is the one that block gives."""
    rng = np.random.default_rng(17)
    n = 2000
    feats = np.vstack([rng.standard_normal((n, 2)), rng.standard_normal((n, 2)) + [2.0, 0.0]])
    d = TrainingSet(feats, np.repeat([1, 2], n), 2, ("1", "2"))
    fitted = PermutationMethod("plugin", "exact-swap").fit(d)
    x = np.array([[0.5, -0.3]])
    tracemalloc.start()
    try:
        got = pvalues(fitted, "exact-swap", 1, x)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    augmented = fitted.edit(Augment(x[0], 1))
    group = augmented.data.group(1)
    column = []
    for start in range(0, group.size, 200):
        values, refit = augmented.edited_values(1, "remove", group[start : start + 200])
        assert not refit.any()
        column.append(values[:, 0])
    column = np.concatenate(column)
    assert got == rank_pvalue(column[:-1], column[-1])


def test_whitening_is_width_invariant():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        q = 3 + seed % 6
        root = rng.normal(size=(q + 4, q)) * 10.0 ** rng.uniform(-2, 2, size=q)
        lower = SpdMatrix(root.T @ root).chol_lower
        rows = rng.normal(size=(257, q)) * 10.0 ** rng.uniform(-2, 2, size=q)
        wide = whiten_rows(lower, rows)
        for i in range(0, 257, 16):
            one = whiten_rows(lower, rows[i : i + 1])
            assert np.array_equal(one[0], wide[i]), (seed, i)
            # and the bits solve_lower gives the row alone
            assert np.array_equal(one[0], solve_lower(lower, rows[i][:, None])[:, 0]), (seed, i)


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


def test_a_row_gets_the_same_bits_at_every_width():
    """Naive plug-in scores the queries and the class rows in one ``evaluate``,
    so a row's bits must not depend on the rest of the block: checked for
    ``evaluate`` and for the ``solve_lower`` and ``mahalanobis_sq`` columns
    under it, at q = 2 to 8 on 60-row three-class sets whose columns are
    scaled by 10^U(-2, 2), against 600-wide blocks."""
    for q in range(2, 9):
        rng = np.random.default_rng(100 + q)
        scale = 10.0 ** rng.uniform(-2, 2, size=q)
        feats = (rng.normal(size=(60, q)) + np.repeat(np.eye(3, q), 20, axis=0)) * scale
        d = TrainingSet(feats, np.repeat([1, 2, 3], 20), 3, ("1", "2", "3"))
        fitted = PermutationMethod("plugin", "naive").fit(d)
        X = rng.normal(size=(600, q)) * 2.0 * scale
        lower = fitted.sigma.chol_lower
        wide = {
            "evaluate": [fitted.evaluate(theta, X) for theta in (1, 2, 3)],
            "solve_lower": list(solve_lower(lower, X.T)),
            "mahalanobis_sq": [mahalanobis_sq(X, mu, fitted.sigma) for mu in fitted.means],
        }
        for width in WIDTHS[:2]:
            blocks = [X[start : start + width] for start in range(0, X.shape[0], width)]
            narrow = {
                "evaluate": [np.concatenate([fitted.evaluate(theta, b) for b in blocks]) for theta in (1, 2, 3)],
                "solve_lower": list(np.hstack([solve_lower(lower, b.T) for b in blocks])),
                "mahalanobis_sq": [np.concatenate([mahalanobis_sq(b, mu, fitted.sigma) for b in blocks])
                                   for mu in fitted.means],
            }
            for name, columns in wide.items():
                for j, column in enumerate(columns):
                    moved = np.flatnonzero(_bits(column) != _bits(narrow[name][j]))
                    assert moved.size == 0, (q, width, name, j, moved.size)


def test_far_query_on_anisotropic_features_takes_the_refit():
    """Columns about 1e5 apart: a query out along the wide axis raises the
    refit's pivot tolerance above the narrow axis's pivot while a'|w_u|^2 is
    still small, and the kernel must raise exactly where the refit does."""
    rng = np.random.default_rng(3)
    feats = np.vstack([rng.normal(size=(30, 2)) + [b, -b] for b in range(3)]) * [1e3, 1e-2]
    d = TrainingSet(feats, np.repeat([1, 2, 3], 30), 3, ("1", "2", "3"))
    fitted = PermutationMethod("plugin").fit(d)
    raised = 0
    for along in (1e4, 3e4, 1e5, 3e5, 1e6):
        x = np.array([along, 0.0])
        try:
            expected = refit_pvalue(fitted, "valid-shortcut", 1, x)
        except DegenerateFitError as err:
            with pytest.raises(DegenerateFitError, match="index 1") as got:
                pvalues(fitted, "valid-shortcut", 1, np.array([[0.0, 0.0], x]))
            assert got.value.pivot_index == err.pivot_index == 1
            raised += 1
        else:
            assert pvalues(fitted, "valid-shortcut", 1, x[None, :])[0] == expected
    assert raised == 3


def test_batch_shape_and_values_checked():
    d = _training_set(6, 2)
    fitted = PermutationMethod("plugin").fit(d)
    with pytest.raises(ValueError, match="shape"):
        pvalues(fitted, "valid-shortcut", 1, np.zeros(d.q))
    with pytest.raises(ValueError, match="non-finite"):
        pvalues(fitted, "valid-shortcut", 1, np.full((2, d.q), np.inf))
    assert pvalues(fitted, "valid-shortcut", 1, np.zeros((0, d.q))).shape == (0,)
