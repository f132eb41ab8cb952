"""The all-class entry point ``pvalue_table`` and the batched F tail.

``pvalue_table`` must give, bit for bit, the column stack of the one-class
``pvalues``: for valid-shortcut fixed-metric k-NN it scores every class from
one block of distances, and every other path takes ``pvalues``' kernel.
``numerics._f_cdf_each`` runs the F-distribution CDF or upper tail of a whole
batch through one elementwise continued fraction, which must give each
element the bits of the scalar modified-Lentz recurrence, kept here as the
reference.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classpv import DegenerateFitError, PermutationMethod, TrainingSet, permutation, pvalue_table, pvalues
from classpv.estimators import fit_pooled_gaussian, typicality_index
from classpv.numerics import _f_cdf_each, f_cdf, f_sf

from reference_pvalues import refit_pvalue

pytestmark = pytest.mark.bits

_MAX_ITER = 500
_EPS = 1e-16
_TINY = 1e-300


def _beta_cf_scalar(a: float, b: float, x: float) -> float:
    """The incomplete beta's continued fraction (modified Lentz) on Python
    floats, one element at a time."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _f_tail_scalar(x: float, d1: int, d2: int, upper: bool) -> float:
    """The F CDF, or with ``upper`` its upper tail, through the regularized
    incomplete beta, on Python floats."""
    a, b = 0.5 * d1, 0.5 * d2
    z, w = d1 * x / (d1 * x + d2), d2 / (d1 * x + d2)
    if z <= 0.0:
        return float(upper)
    if w <= 0.0:
        return float(not upper)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    if z < (a + 1.0) / (a + b + 2.0):
        cf = math.exp(log_norm + a * math.log(z) + b * math.log1p(-z)) * _beta_cf_scalar(a, b, z) / a
        return 1.0 - cf if upper else cf
    cf = math.exp(log_norm + a * math.log(z) + b * math.log(w)) * _beta_cf_scalar(b, a, w) / b
    return cf if upper else 1.0 - cf


@settings(max_examples=150, deadline=None)
@given(
    d1=st.integers(1, 8),
    d2=st.integers(1, 4000),
    scaled=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=40),
)
def test_f_tail_of_a_batch_equals_the_scalar_recurrence(d1, d2, scaled):
    """Each element of ``_f_cdf_each`` has the bits of ``f_cdf`` and of the
    scalar recurrence, and with ``upper`` those of ``f_sf``, at 0, 1e-300
    and 1e300 and on both sides of the point where the continued fraction
    switches to I_{1-z}(b, a)."""
    a, b = 0.5 * d1, 0.5 * d2
    z_switch = (a + 1.0) / (a + b + 2.0)
    x_switch = d2 * z_switch / (d1 * (1.0 - z_switch))
    x = np.array([0.0, 1e-300, 1e300, x_switch / 2, x_switch, 2 * x_switch, *(x_switch * s for s in scaled)])
    z = d1 * x / (d1 * x + d2)
    assert np.any((z > 0.0) & (z < z_switch)) and np.any((z >= z_switch) & (z < 1.0))
    for upper, scalar in ((False, f_cdf), (True, f_sf)):
        for v, got in zip(x.tolist(), _f_cdf_each(x, d1, d2, upper).tolist()):
            want = _f_tail_scalar(v, d1, d2, upper)
            assert got.hex() == want.hex() == scalar(v, d1, d2).hex(), (v, d1, d2, upper)


def test_f_cdf_keeps_its_checks_and_endpoints():
    assert f_cdf(0.0, 3, 7) == 0.0 and f_cdf(1e300, 3, 7) == 1.0
    assert _f_cdf_each(np.array([]), 2, 5).shape == (0,)
    with pytest.raises(ValueError, match="nonnegative"):
        f_cdf(-1.0, 2, 2)
    with pytest.raises(ValueError, match="positive"):
        f_cdf(1.0, 0, 2)


def _training_set(rng: np.random.Generator, n_classes: int, q: int, lattice: bool) -> TrainingSet:
    """Classes of 4 to 11 rows; on the half-integer lattice {-1.5, ..., 1.5}^q
    when ``lattice``, so that distances and statistics tie, with copied rows
    within and across classes."""
    sizes = rng.integers(4, 12, size=n_classes)
    if lattice:
        feats = rng.integers(-3, 4, size=(sizes.sum(), q)) * 0.5
    else:
        feats = np.vstack([rng.normal(size=(size, q)) + b for b, size in enumerate(sizes)])
    copies = rng.choice(sizes.sum(), size=3, replace=False)
    feats[copies] = feats[rng.choice(sizes.sum(), size=3)]
    labels = rng.permutation(np.repeat(np.arange(1, n_classes + 1), sizes))
    return TrainingSet(feats, labels, n_classes, tuple(map(str, range(1, n_classes + 1))))


def _queries(rng: np.random.Generator, d: TrainingSet) -> np.ndarray:
    """Spread draws, half-integer lattice points, training rows and a repeat."""
    X = np.vstack([
        d.features.mean(axis=0) + 1.5 * d.features.std(axis=0) * rng.normal(size=(3, d.q)),
        rng.integers(-3, 4, size=(2, d.q)) * 0.5,
        d.features[rng.integers(0, d.n, size=3)],
    ])
    return np.vstack([X, X[:1]])


def _outcome(call):
    """The call's result, or the error a degenerate fit raised."""
    try:
        return call()
    except DegenerateFitError as err:
        return (str(err), err.pivot_index, err.swap_index)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    statistic=st.sampled_from(("plugin", "knn", "logistic", "typicality")),
    mode=st.sampled_from(permutation.MODES),
    n_classes=st.integers(2, 3),
    q=st.integers(1, 3),
    lattice=st.booleans(),
    scale_features=st.booleans(),
    data=st.data(),
)
def test_pvalue_table_is_the_column_stack_of_pvalues(seed, statistic, mode, n_classes, q, lattice, scale_features, data):
    """Every statistic and mode, on lattice ties and copied rows, with
    training rows among the queries, k in {1, 2, n - 1, n} and the default,
    and feature scaling: ``pvalue_table`` holds the bits of each class's
    ``pvalues`` in any chunking of the all-class k-NN pass, and the k-NN
    entries equal the per-query refit's."""
    rng = np.random.default_rng(seed)
    d = _training_set(rng, 2 if statistic == "logistic" else n_classes, q, lattice)
    k = data.draw(st.sampled_from((1, 2, d.n - 1, d.n, None))) if statistic == "knn" else None
    method = PermutationMethod(statistic, mode, k=k, scale_features=scale_features and statistic == "knn")
    with warnings.catch_warnings():
        # zero-variance features and singular logistic designs warn
        warnings.simplefilter("ignore", UserWarning)
        fitted = _outcome(lambda: method.fit(d))
        if isinstance(fitted, tuple):
            return
        X = _queries(rng, d)
        columns = _outcome(lambda: np.column_stack([pvalues(fitted, mode, t, X) for t in range(1, d.n_classes + 1)]))
        table = _outcome(lambda: pvalue_table(fitted, mode, X))
        assert type(table) is type(columns)
        if isinstance(table, tuple):
            assert table == columns
            return
        assert table.shape == (len(X), d.n_classes) and table.tobytes() == columns.tobytes()
        # the all-class pass in chunks of a few queries
        rows = data.draw(st.integers(1, len(X)))
        with mock.patch.object(permutation, "_BLOCK_ELEMENTS", 4 * d.n * rows):
            assert pvalue_table(fitted, mode, X).tobytes() == table.tobytes()
        if statistic == "knn" and mode == "valid-shortcut":
            for i in range(len(X)):
                expected = [refit_pvalue(fitted, mode, t, X[i]) for t in range(1, d.n_classes + 1)]
                assert table[i].tolist() == expected, i


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 4), q=st.integers(1, 5), lattice=st.booleans())
def test_typicality_index_gives_a_row_its_bits_alone_and_in_a_batch(seed, n_classes, q, lattice):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(q + 2, q + 12, size=n_classes)
    if lattice:
        feats = rng.integers(-3, 4, size=(sizes.sum(), q)) * 0.5
    else:
        feats = rng.normal(size=(sizes.sum(), q)) * 10.0 ** rng.uniform(-2, 2, size=q)
    d = TrainingSet(feats, np.repeat(np.arange(1, n_classes + 1), sizes), n_classes, tuple(map(str, range(n_classes))))
    try:
        stat = fit_pooled_gaussian(d)
    except DegenerateFitError:
        return
    X = np.vstack([feats[rng.integers(0, d.n, size=4)], feats.mean(axis=0) + feats.std(axis=0) * rng.normal(size=(20, q)) * 10.0 ** rng.uniform(-1, 2, size=(20, 1))])
    for theta in range(1, n_classes + 1):
        batch = typicality_index(stat, theta, X)
        for j in range(len(X)):
            alone = typicality_index(stat, theta, X[j])
            assert isinstance(alone, float) and alone.hex() == float(batch[j]).hex()
            assert typicality_index(stat, theta, X[j : j + 1]).tobytes() == batch[j : j + 1].tobytes()
