"""Fitted test-statistic families for the permutation engine. A fitted
statistic is its fit: it holds its training data and fitted parameters,
scores an (m, q) batch through one ``evaluate(theta, pts)``, and returns the
edited statistic from one ``edit`` method, for a single-point ``Remove``,
``Augment`` or ``Relabel``. The pooled Gaussian statistic applies every edit
in O(q^2) as at most one add step followed by at most one remove step
(``gaussian_update``); the k-NN statistic refits on the edited data, and
the logistic statistic fits it when first read. Typicality is its own type,
the pooled Gaussian fit read as exact-pivot p-values. Identical rows of one
``evaluate`` call get identical bits, because the rank count scores the
query together with its class and needs their ties exact.

A statistic needs only ``data``, ``edit`` and ``evaluate``. Every p-value
path scores single-point edits through the module-level ``edited_values``:
the statistic at the edited point and at the class-theta rows under each
edited fit. The edit adds a query to class theta (valid shortcut), or
relabels or removes a training row (leave-one-out), or removes a row and
scores it alone (``"loo"``: exact swap ranks each class row's value under
the fit without it). An optional method of the same name gives the values
without the edit and flags the edits it cannot score; ``edited_values``
makes each flagged edit and evaluates it, raising DegenerateFitError as the
edit would, so its callers get finished values of every kind and make no
refit. The plug-in statistic has a closed form for every kind (Fisher's
linear discriminant under each edit: one small solve per edit, then q
multiply-adds per point and competitor class), the fixed-metric k-NN
statistic for augment, relabel and loo (one block of distances), and the
logistic statistic fits every kind's edited sets in one batched IRLS. ``_logistic_edited_values`` runs that IRLS over the edited
sets of many logistic statistics at once, which the method runs on one and
``permutation`` on a chunk of them, and ``fit_logistic`` runs it on a batch
of one to fit a statistic's own data.

Every fit computes its sums over a canonical row ordering, so the fitted
statistic is exactly symmetric in each class's training rows: shuffling the
rows of one group changes no output bit. That symmetry is what makes the
permutation p-values valid, so it is enforced structurally rather than
approximately.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import Augment, Relabel, Remove, TrainingSet, check_label
from .numerics import SingularMatrixError, SpdMatrix, _f_cdf_each, _log_sum_exp_rows, mahalanobis_sq, whiten_rows
from .oracle import log_weighted_lr

__all__ = [
    "DegenerateFitError",
    "GaussianStatistic",
    "KnnCaches",
    "KnnStatistic",
    "LogisticStatistic",
    "TypicalityStatistic",
    "default_k",
    "edited_values",
    "fit_logistic",
    "fit_pooled_gaussian",
    "gaussian_update",
    "knn_augmented_counts",
    "knn_fit",
    "typicality_index",
]


class DegenerateFitError(RuntimeError):
    """A fit lost rank; carries the failing pivot and exact swap's failing member."""

    def __init__(self, message: str, pivot_index: int | None = None, swap_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.swap_index = swap_index


def _canonical_order(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Row permutation sorting by (label, features); used so sums are order-free."""
    keys = tuple(features[:, c] for c in reversed(range(features.shape[1]))) + (labels,)
    return np.lexsort(keys)


# ---------------------------------------------------------------------------
# Pooled-covariance Gaussian statistic and its update step
# ---------------------------------------------------------------------------


# Adding a query x makes the whitened scatter I + a' w_u w_u^T, of condition
# number 1 + a'|w_u|^2; beyond this value the affine terms of a point as far
# out as x cancel badly, so the query takes the refit.
_FAR_QUERY = 1e4
# Removing a point leaves a pivot of about 1 - h, h its leverage beta|w_v|^2;
# beyond this h that pivot cancels, so the row takes the refit.
_HIGH_LEVERAGE = 0.5


@dataclass(frozen=True, eq=False)
class GaussianStatistic:
    """Per-class means with the pooled covariance (divisor n - L) of ``data``,
    as the plug-in statistic: the log weighted likelihood ratio at the fitted
    parameters, larger meaning class theta is less plausible."""

    data: TrainingSet
    means: np.ndarray          # (L, q)
    sigma: SpdMatrix

    def __post_init__(self):
        self.means.setflags(write=False)

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def q(self) -> int:
        return self.data.q

    @property
    def group_sizes(self) -> np.ndarray:
        return self.data.group_sizes

    @property
    def class_weights(self) -> np.ndarray:
        return self.group_sizes / self.n

    @cached_property
    def _whitened(self) -> tuple[np.ndarray, np.ndarray]:
        """The training rows and the class means in the coordinates where the
        pooled covariance is the identity."""
        lower = self.sigma.chol_lower
        return whiten_rows(lower, self.data.features), whiten_rows(lower, self.means)

    @cached_property
    def _sums(self) -> np.ndarray:
        """(L, q): each class's row sum, in canonical row order for a fit and
        carried through each edit by ``gaussian_update``; exact on a lattice,
        where edited means that are equal fractions are then equal floats."""
        d = self.data
        return np.add.reduceat(d.features[_canonical_order(d.features, d.labels)], np.cumsum(d.group_sizes) - d.group_sizes)

    @cached_property
    def _pivot_floor(self) -> float:
        """The smallest Cholesky pivot of the pooled covariance. Augmenting
        adds a positive semidefinite term to the scatter, which lowers no
        pivot, so the augmented covariance has every pivot at least this
        times (n-L)/(n+1-L)."""
        return float(np.min(np.diag(self.sigma.chol_lower))) ** 2

    def evaluate(self, theta: int, pts: np.ndarray) -> np.ndarray:
        # log scale; only the ordering enters the permutation count
        check_label(theta, self.data.n_classes)
        covs = (self.sigma,) * self.data.n_classes
        return log_weighted_lr(self.class_weights, self.means, covs, theta, np.atleast_2d(pts))

    def edit(self, edit: Remove | Augment | Relabel) -> "GaussianStatistic":
        # through the module binding, which bench/tracing.py replaces to count edits
        return gaussian_update(self, edit)

    def edited_values(self, theta: int, kind: str, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The closed form of the module-level ``edited_values``: (m, N + 1),
        for each point x, the statistic at x and at the class-theta rows under
        the fit that adds (x, theta), unless ``kind`` is ``"remove"``, and then
        removes x from its class y, unless ``kind`` is ``"augment"``; (m, 1)
        for ``"loo"``, which removes x and scores x alone; and the (m,) mask
        of the points flagged for the refit, whose values are not to be used.
        X holds the queries for ``"augment"``, else training row indices, all
        of one class y (theta != y for ``"relabel"``).

        Adding x adds (N_theta/(N_theta+1)) u u^T to the scatter,
        u = x - mu_theta, and removing it subtracts (N_y/(N_y-1)) v v^T,
        v = x - mu_y. In coordinates whitened by the pooled Cholesky factor
        the inverse edited covariance is c A^-1, A = I + a w_u w_u^T - beta
        w_v w_v^T, with a and beta the two coefficients over n - L and c the
        ratio of the new to the old divisor n - L. One covariance serves
        every class, so the statistic is Fisher's linear discriminant: each
        competitor b adds the term y . G_b + tau_b at the whitened point y,
        G_b = c A^-1 (m'_b - m'_theta) and tau_b = log w'_b - G_b . (m'_b +
        m'_theta)/2, from the edited whitened means m' (the class sums over
        the sizes) and group sizes; the log determinant cancels. So each edit
        solves its own (q, q) system for its L - 1 slopes, with no edit,
        Cholesky factorization or row copy, and each (point, competitor)
        entry takes q multiply-adds on whitened rows, which do not depend on
        the edit. One buffer holds the (q + L) rows of every edit, the edited
        point in column 0 and scored by the same operations, so a member
        equal to it gets its bits; callers bound the batch
        (``permutation._chunks``).

        The refit checks its Cholesky pivots against 1e-12 times the largest
        diagonal entry of the edited covariance, which is read off the pooled
        diagonal, u^2 and v^2. Adding lowers no pivot, and the edited scatter
        is at least (1 - h) times the old one, h = beta |w_v|^2, so every
        pivot is at least (1 - h) times the pivot floor, rescaled to the new
        divisor. A query is flagged where that tolerance comes within a
        factor 2 of the bound, where a |w_u|^2 exceeds ``_FAR_QUERY`` (A grows
        ill-conditioned) or where h exceeds ``_HIGH_LEVERAGE`` (A nears
        singular).
        """
        n, n_classes = self.n, self.data.n_classes
        features_w, means_w = self._whitened
        # "loo" scores the removed row alone
        group_w = features_w[self.data.group(theta) if kind != "loo" else []]
        add = kind in ("augment", "relabel")
        removed = None if kind == "augment" else int(self.data.labels[X[0]])
        if kind == "augment":
            wx = whiten_rows(self.sigma.chol_lower, X)
        else:
            X, wx = self.data.features[X], features_w[X]
        m, q = wx.shape
        sizes, new_n = self.group_sizes, n
        sums = np.repeat(self._sums[None], m, axis=0)  # (m, L, q), the edited class sums
        scatter = np.eye(q)  # A, (m, q, q) from the first edit term on
        scatter_diag = (n - n_classes) * np.diag(self.sigma.matrix)
        refit = np.zeros(m, dtype=bool)
        leverage = 0.0
        if add:
            big_n = int(sizes[theta - 1])
            a = big_n / (big_n + 1.0) / (n - n_classes)
            wu = wx - means_w[theta - 1]
            sums[:, theta - 1] += X
            refit |= a * _row_dot(wu, wu) > _FAR_QUERY
            scatter = scatter + a * wu[:, :, None] * wu[:, None, :]
            u = X - self.means[theta - 1]
            scatter_diag = scatter_diag + u * u / (1.0 + 1.0 / big_n)
            sizes[theta - 1] += 1
            new_n += 1
        if removed is not None:
            big_n = int(sizes[removed - 1])
            beta = big_n / (big_n - 1.0) / (n - n_classes)
            wv = wx - means_w[removed - 1]
            sums[:, removed - 1] -= X
            leverage = beta * _row_dot(wv, wv)
            refit |= leverage > _HIGH_LEVERAGE
            scatter = scatter - beta * wv[:, :, None] * wv[:, None, :]
            v = X - self.means[removed - 1]
            scatter_diag = scatter_diag - (big_n / (big_n - 1.0)) * v * v
            sizes[removed - 1] -= 1
            new_n -= 1
        tol = 1e-12 * np.max(scatter_diag, axis=1) / (new_n - n_classes)
        floor = self._pivot_floor * (n - n_classes) / (new_n - n_classes) * (1.0 - leverage)
        refit |= 2.0 * tol >= floor
        if refit.any():  # flagged rows are not used; keep their systems regular
            scatter[refit] = np.eye(q)
        sums /= sizes[:, None]
        means = whiten_rows(self.sigma.chol_lower, sums.reshape(-1, q)).reshape(sums.shape)
        others = [b for b in range(n_classes) if b != theta - 1]
        own, rivals = means[:, theta - 1 : theta], means[:, others]
        slopes = np.linalg.solve(scatter, np.swapaxes(rivals - own, 1, 2))  # (m, q, L - 1)
        slopes *= (new_n - n_classes) / (n - n_classes)
        mids = _row_dot(slopes, np.swapaxes(rivals + own, 1, 2))  # G_b . (m'_b + m'_theta)
        offsets = np.log(sizes[others] / (sizes.sum() - sizes[theta - 1])) - 0.5 * mids
        buffer = np.empty((q + n_classes, m, group_w.shape[0] + 1))
        points, terms, spare = buffer[:q], buffer[q:-1], buffer[-1]
        points[:, :, 0] = wx.T
        points[:, :, 1:] = group_w.T[:, None, :]
        for b, out in enumerate(terms):
            np.multiply(points[0], slopes[:, 0, b, None], out=out)
            for k in range(1, q):
                out += np.multiply(points[k], slopes[:, k, b, None], out=spare)
            out += offsets[:, b, None]
        return _log_sum_exp_rows(terms), refit


def _row_dot(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Dot products along axis 1 of two same-shape arrays, added in order: a row's bits are its own."""
    out = left[:, 0] * right[:, 0]
    for k in range(1, left.shape[1]):
        out += left[:, k] * right[:, k]
    return out


class TypicalityStatistic(GaussianStatistic):
    """The pooled Gaussian fit read as exact-pivot p-values: ``pvalues``
    gives ``typicality_index`` in every mode, since this is not a
    permutation statistic. Edits keep the type."""


def fit_pooled_gaussian(d: TrainingSet) -> GaussianStatistic:
    """Groupwise means and pooled covariance of a training set."""
    n, n_classes = d.n, d.n_classes
    if n <= n_classes:
        raise ValueError(f"pooled covariance needs n > L, got n={n}, L={n_classes}")
    order = _canonical_order(d.features, d.labels)
    feats = d.features[order]
    labs = d.labels[order]
    means = np.empty((n_classes, d.q))
    for theta in range(1, n_classes + 1):
        means[theta - 1] = feats[labs == theta].mean(axis=0)
    deviations = feats - means[labs - 1]
    scatter = deviations.T @ deviations
    try:
        sigma = SpdMatrix(scatter / (n - n_classes))
    except SingularMatrixError as err:
        raise DegenerateFitError(
            f"pooled covariance is singular ({err})", pivot_index=err.pivot_index
        ) from err
    stat = GaussianStatistic(data=d, means=means, sigma=sigma)
    vars(stat)["_sums"] = np.add.reduceat(feats, np.cumsum(d.group_sizes) - d.group_sizes)  # rows already in order
    return stat


def gaussian_update(stat: GaussianStatistic, edit: Remove | Augment | Relabel) -> GaussianStatistic:
    """Apply a single-point edit to a pooled Gaussian statistic in O(q^2);
    the result has the type of ``stat``.

    Every edit is at most one add step followed by at most one remove step:
    ``Augment`` adds its point, ``Remove`` removes row i, and ``Relabel``
    adds row i to its new class and then removes it from its old one. The
    result matches a from-scratch refit of the edited data to within 1e-9
    relative error. Removing the last member of a group is rejected, and an
    edit that drives the pooled covariance singular raises
    DegenerateFitError.
    """
    d = stat.data
    new_data = d.edit(edit)  # validates the edit
    if isinstance(edit, Remove):
        added = None
    elif isinstance(edit, Augment):
        added = (edit.point, edit.label)
    else:  # Relabel; d.edit rejected any other edit
        added = (d.features[edit.index], edit.label)
    removed = None if isinstance(edit, Augment) else edit.index
    scatter = (d.n - d.n_classes) * stat.sigma.matrix
    means = np.array(stat.means, copy=True)
    sums = stat._sums.copy()
    sizes = d.group_sizes
    if added is not None:
        x, theta = np.asarray(added[0], dtype=float), int(added[1])
        big_n = int(sizes[theta - 1])
        dev = x - means[theta - 1]
        scatter = scatter + np.outer(dev, dev) / (1.0 + 1.0 / big_n)
        means[theta - 1] = means[theta - 1] + dev / (big_n + 1.0)
        sums[theta - 1] += x
        sizes[theta - 1] += 1
    if removed is not None:
        theta = int(d.labels[removed])
        big_n = int(sizes[theta - 1])
        dev = d.features[removed] - means[theta - 1]
        scatter = scatter - (big_n / (big_n - 1.0)) * np.outer(dev, dev)
        means[theta - 1] = means[theta - 1] - dev / (big_n - 1.0)
        sums[theta - 1] -= d.features[removed]
    n, n_classes = new_data.n, new_data.n_classes
    if n <= n_classes:
        raise ValueError(f"edit leaves n={n} <= L={n_classes}")
    try:
        sigma = SpdMatrix(scatter / (n - n_classes))
    except SingularMatrixError as err:
        raise DegenerateFitError(
            f"edited covariance is singular ({err})", pivot_index=err.pivot_index
        ) from err
    edited = replace(stat, data=new_data, means=means, sigma=sigma)
    vars(edited)["_sums"] = sums  # the cached property's value, carried by the edit
    return edited


def typicality_index(stat: GaussianStatistic, theta: int, x: np.ndarray) -> np.ndarray | float:
    """Exact-pivot p-value from the scaled squared Mahalanobis distance to class theta.

    The scaling constant turns the distance into an F-distributed pivot, so the
    index is an exact p-value under a homoscedastic Gaussian model. x may be
    (q,) or (m, q); each row gets the same bits in any batch, since every
    row's F upper tail goes through one elementwise ``_f_cdf_each``, which
    sums it directly, so far points keep their order down to 1e-300.
    """
    n_classes = stat.data.n_classes
    check_label(theta, n_classes)
    n, q = stat.n, stat.q
    if n < n_classes + q:
        raise ValueError(f"typicality needs n >= L + q, got n={n}, L={n_classes}, q={q}")
    d2 = n - n_classes - q + 1
    c_theta = d2 / (q * (n - n_classes) * (1.0 + 1.0 / stat.group_sizes[theta - 1]))
    x = np.asarray(x, dtype=float)
    msq = mahalanobis_sq(np.atleast_2d(x), stat.means[theta - 1], stat.sigma)
    out = _f_cdf_each(c_theta * msq, q, d2, upper=True)
    return float(out[0]) if x.ndim == 1 else out


# ---------------------------------------------------------------------------
# k-nearest-neighbor caches
# ---------------------------------------------------------------------------


def default_k(n: int) -> int:
    """ceil(n^(2/3)): grows without bound while k/n -> 0."""
    return max(1, math.ceil(n ** (2.0 / 3.0)))


def _sq_dists(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, diff: np.ndarray | None = None) -> np.ndarray:
    """Squared euclidean distances between rows of a and rows of b.

    The squared component differences are added one at a time, in order, so
    that distances between the same pair of points are bit-identical no
    matter which matrix they sit in, in which row block or column order; the
    tie cases in the augmented-count rule rely on exact comparisons, and
    ``knn_fit`` on blocks of rows against reordered columns. The first
    square is the sum's first term (0 + d^2 is d^2, bit for bit), and one
    buffer takes each later one: two (len(a), len(b)) arrays in all, so
    callers bound that product. A caller scoring many blocks may pass both,
    as ``out`` and ``diff``.
    """
    if out is None:
        out = np.empty((a.shape[0], b.shape[0]))
    if a.shape[1] == 0:
        out[:] = 0.0
        return out
    np.subtract.outer(a[:, 0], b[:, 0], out=out)
    out *= out
    if a.shape[1] > 1 and diff is None:
        diff = np.empty_like(out)
    for k in range(1, a.shape[1]):
        np.subtract.outer(a[:, k], b[:, k], out=diff)
        diff *= diff
        out += diff
    return out


def _feature_scales(d: TrainingSet) -> np.ndarray:
    order = _canonical_order(d.features, d.labels)
    scales = d.features[order].std(axis=0, ddof=1)
    zero = scales == 0.0
    if np.any(zero):
        warnings.warn(
            f"feature(s) {np.flatnonzero(zero).tolist()} have zero variance; scale set to 1",
            stacklevel=3,
        )
        scales = np.where(zero, 1.0, scales)
    return scales


@dataclass(frozen=True, eq=False)
class KnnCaches:
    """Per-point ball radii and per-class ball counts for the k-NN statistic,
    n(2 + 2L) numbers built by ``knn_fit`` in O(n^2 q) time and memory of
    one row block.

    Radii are stored squared; every comparison in this module is done on
    squared distances so no square root ever enters a tie decision.
    """

    data: TrainingSet
    k: int
    radius_sq: np.ndarray       # (n,), squared k-th-neighbor radius per point
    radius_km1_sq: np.ndarray   # (n,), squared (k-1)-th radius, 0 for k = 1
    counts_km1: np.ndarray      # (n, L), class counts within the (k-1)-radius
    counts_k: np.ndarray        # (n, L), class counts within the k-radius

    def __post_init__(self):
        for name in ("radius_sq", "radius_km1_sq", "counts_km1", "counts_k"):
            getattr(self, name).setflags(write=False)


# elements of each temporary that one chunk of queries (``permutation._chunks``)
# or one k-NN fit block may build: 2**18 float64 are 2 MiB, a per-core L2
# cache; the timings that chose it are in CHANGES.md
_BLOCK_ELEMENTS = 2**18


def knn_fit(d: TrainingSet, k: int) -> KnnCaches:
    """Build the cached radii and counts driving the O(n) augmented-data
    rule, in the unscaled metric.

    The rows go in blocks, each against all n points with the columns sorted
    by label, so no n x n array is made and each class count is one
    contiguous slice. A block's distances go into one (rows, n) buffer and
    its component difference, then its partition copy, into another, both
    made once per fit rather than afresh for each block. With the in-ball
    masks a block holds about four (rows, n) arrays, so it takes a quarter
    of ``_BLOCK_ELEMENTS`` (timings in CHANGES.md). The time stays O(n^2 q).

    A row's radii and counts do not depend on its block or on the column
    order: ``_sq_dists`` gives each pair the same bits anywhere, and one
    partition at k - 1 puts the k - 1 smallest distances first, in no
    particular order, so their maximum is the (k-1)-th radius. (A partition
    at both k - 2 and k - 1 would place that radius too, but took 5x as
    long on a (32, 2000) block.)
    """
    if not 1 <= k <= d.n:
        raise ValueError(f"k must lie in 1..n={d.n}, got {k}")
    columns = d.features[np.argsort(d.labels, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(d.group_sizes)])
    radius_sq = np.empty(d.n)
    radius_km1_sq = np.zeros(d.n)
    counts_km1 = np.empty((d.n, d.n_classes), dtype=np.int64)
    counts_k = np.empty((d.n, d.n_classes), dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // (4 * d.n))
    buffers = np.empty((2, min(step, d.n), d.n))
    for start in range(0, d.n, step):
        rows = slice(start, start + step)
        dsq, part = buffers[:, : min(step, d.n - start)]
        _sq_dists(d.features[rows], columns, dsq, part)
        np.copyto(part, dsq)
        part.partition(k - 1, axis=1)
        radius_sq[rows] = part[:, k - 1]
        if k >= 2:
            radius_km1_sq[rows] = part[:, : k - 1].max(axis=1)
        for radius, counts in ((radius_km1_sq, counts_km1), (radius_sq, counts_k)):
            in_ball = dsq <= radius[rows, None]
            for b in range(d.n_classes):
                counts[rows, b] = np.count_nonzero(in_ball[:, bounds[b] : bounds[b + 1]], axis=1)
    return KnnCaches(
        data=d,
        k=k,
        radius_sq=radius_sq,
        radius_km1_sq=radius_km1_sq,
        counts_km1=counts_km1,
        counts_k=counts_k,
    )


def _ball_counts(dsq: np.ndarray, radius_sq: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    in_ball = dsq <= radius_sq[:, None]
    counts = np.empty((dsq.shape[0], n_classes), dtype=np.int64)
    for b in range(1, n_classes + 1):
        counts[:, b - 1] = np.count_nonzero(in_ball[:, labels == b], axis=1)
    return counts


def knn_augmented_counts(caches: KnnCaches, x: np.ndarray, theta: int) -> np.ndarray:
    """Class counts N_{k,b} at every training point after adding (x, theta).

    Case split on the distance from each training point to x versus that
    point's cached k-th radius: strictly inside shrinks the ball to the
    (k-1)-radius, an exact tie keeps the k-radius, strictly outside leaves the
    counts untouched; the added point contributes to its own class whenever it
    is inside. O(n) per new point. Assumes the metric is held fixed.
    """
    check_label(theta, caches.data.n_classes)
    dsq = _sq_dists(np.asarray(x, dtype=float)[None, :], caches.data.features)[0]
    inside = dsq < caches.radius_sq
    counts = np.where(inside[:, None], caches.counts_km1, caches.counts_k)
    counts[:, theta - 1] += dsq <= caches.radius_sq
    return counts


# ---------------------------------------------------------------------------
# Logistic regression (two classes)
# ---------------------------------------------------------------------------


class _LogisticFit(NamedTuple):
    intercept: float
    coefficients: np.ndarray   # (q,), read-only
    iterations: int
    gradient_norm: float
    separated: bool


@dataclass(frozen=True, eq=False)
class LogisticStatistic:
    """Maximum-likelihood logistic fit for two classes, with separation
    handling, as the signed logistic score: the class-2 logit tests class 1
    and vice versa.

    The fit is made when first read, by ``evaluate`` or one of its fields,
    through the module-level ``fit_logistic``; ``edit`` and ``edited_values``
    read only ``data``, so a statistic that is only edited is never fitted.
    A data set without exactly two classes is rejected at construction.

    On convergence the log-likelihood gradient norm is at most 1e-8. When the
    classes are (nearly) separable the coefficients are the capped-iteration
    output and `separated` is set; the statistic's ordering stays usable.
    """

    data: TrainingSet

    def __post_init__(self):
        if self.data.n_classes != 2:
            raise ValueError(f"logistic statistic requires exactly 2 classes, got {self.data.n_classes}")

    @cached_property
    def _fit(self) -> _LogisticFit:
        # through the module binding, which bench/tracing.py replaces to count fits
        return fit_logistic(self.data)._fit

    intercept = property(lambda self: self._fit.intercept)
    coefficients = property(lambda self: self._fit.coefficients)
    iterations = property(lambda self: self._fit.iterations)
    gradient_norm = property(lambda self: self._fit.gradient_norm)
    separated = property(lambda self: self._fit.separated)

    def evaluate(self, theta: int, pts: np.ndarray) -> np.ndarray:
        check_label(theta, 2)
        # an elementwise row sum, not a matrix product: BLAS may round identical
        # rows of one batch differently, and the rank count needs them equal
        scores = self.intercept + np.sum(np.atleast_2d(pts) * self.coefficients, axis=1)
        return scores if theta == 1 else -scores

    def edit(self, edit: Remove | Augment | Relabel) -> "LogisticStatistic":
        return LogisticStatistic(self.data.edit(edit))

    def edited_values(self, theta: int, kind: str, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The module-level ``edited_values``: ``_logistic_edited_values``
        on this one statistic, none flagged."""
        return _logistic_edited_values([self], theta, kind, [X])[0], np.zeros(len(X), dtype=bool)


def _logistic_edited_values(stats, theta: int, kind: str, Xs) -> list[np.ndarray]:
    """The module-level ``edited_values`` of each logistic statistic
    ``stats[s]`` at the edits ``Xs[s]``, from one batched IRLS over all their
    edited sets, which must have one size. Each set's rows are those of its
    statistic's ``data`` (and the query, for ``"augment"``) in the order of
    their features alone, the order that ``fit_logistic`` sorts by label, so
    every fit has the bits of ``fit_logistic`` on the edited data. The
    statistics' features are stacked, each set's rows offset by the rows
    before its statistic's, and the points are scored once the fits are
    made, so their arrays do not add to the IRLS's."""
    width = stats[0].data.n + {"augment": 1, "relabel": 0}.get(kind, -1)
    rows = np.empty((sum(map(len, Xs)), width), dtype=np.intp)
    labels = np.empty(rows.shape, dtype=np.int64)
    features, start, offset = [], 0, 0
    for stat, X in zip(stats, Xs):
        d, m = stat.data, len(X)
        stat_features, stat_labels = d.features, d.labels
        if kind == "augment":
            stat_features = np.vstack([stat_features, X])
            stat_labels = np.append(stat_labels, np.full(m, theta))
        order = _canonical_order(stat_features, np.zeros(len(stat_features)))
        set_rows = np.broadcast_to(order, (m, order.size))
        if kind == "augment":
            set_rows = set_rows[(set_rows < d.n) | (set_rows == d.n + np.arange(m)[:, None])].reshape(m, d.n + 1)
        elif kind != "relabel":
            set_rows = set_rows[set_rows != X[:, None]].reshape(m, d.n - 1)
        np.take(stat_labels, set_rows, out=labels[start : start + m])
        if kind == "relabel":
            labels[start : start + m][set_rows == X[:, None]] = theta
        np.add(set_rows, offset, out=rows[start : start + m])
        features.append(stat_features)
        start, offset = start + m, offset + len(stat_features)
    beta = _logistic_fits(np.vstack(features), rows, labels)[0]
    out, start = [], 0
    for stat, X in zip(stats, Xs):
        d, stat_beta = stat.data, beta[start : start + len(X)]
        start += len(X)
        pts = (X if kind == "augment" else d.features[X])[:, None, :]
        if kind != "loo":
            group = d.features[d.group(theta)]
            pts = np.concatenate([pts, np.broadcast_to(group, (len(X),) + group.shape)], axis=1)
        scores = stat_beta[:, :1] + np.sum(pts * stat_beta[:, None, 1:], axis=2)
        out.append(scores if theta == 1 else -scores)
    return out


_LOGISTIC_MAX_ITER = 100
_LOGISTIC_GRAD_TOL = 1e-8
_LOGISTIC_COEF_CAP = 30.0


def fit_logistic(d: TrainingSet) -> LogisticStatistic:
    """Fit log-odds of class 2 as an affine function of the features by IRLS:
    ``_logistic_fits`` on a batch of one. The statistic comes back fitted,
    so a singular design warns of its ridge here."""
    stat = LogisticStatistic(d)
    order = _canonical_order(d.features, np.zeros(d.n))
    beta, iterations, grad_norm, separated = _logistic_fits(d.features, order[None, :], d.labels[order][None, :])
    coefficients = beta[0, 1:].copy()
    coefficients.setflags(write=False)
    # the cached property's value, so that reading it fits nothing more
    vars(stat)["_fit"] = _LogisticFit(
        float(beta[0, 0]), coefficients, int(iterations[0]), float(grad_norm[0]), bool(separated[0]))
    return stat


def _logistic_fits(features: np.ndarray, rows: np.ndarray, labels: np.ndarray):
    """Logistic fits of B data sets at once: set b has the rows ``rows[b]``
    of ``features``, in the order of their features alone, with the labels
    ``labels[b]``. A stable sort by label puts each set in canonical order.

    IRLS from zero for every set, each stopping at its own iteration: at
    gradient norm ``_LOGISTIC_GRAD_TOL``, at a coefficient above
    ``_LOGISTIC_COEF_CAP`` (separated) or after ``_LOGISTIC_MAX_ITER``
    (separated, its gradient norm still above the tolerance). Every sum is
    a per-set matrix product, so a set's bits do not depend on its batch.
    Returns (B, q + 1) coefficients, intercept first, and the (B,)
    iterations, gradient norms and separated flags.
    """
    sets, by_label = np.arange(len(rows))[:, None], np.argsort(labels, axis=1, kind="stable")
    rows, labels = rows[sets, by_label], labels[sets, by_label]
    design = np.empty(rows.shape + (features.shape[1] + 1,))
    design[:, :, 0] = 1.0
    design[:, :, 1:] = features[rows]
    y = (labels == 2).astype(float)[:, :, None]
    count, _, width = design.shape
    # column vectors throughout, (B, n, 1) and (B, q + 1, 1); ``b`` holds
    # the coefficients of the sets still iterating, ``active`` their indices
    beta = np.zeros((count, width, 1))
    iterations = np.zeros(count, dtype=np.int64)
    grad_norm = np.zeros(count)
    separated = np.zeros(count, dtype=bool)
    active, b = np.arange(count), beta
    for iteration in range(1, _LOGISTIC_MAX_ITER + 1):
        iterations[active] = iteration
        # np.clip's values, without the cost of its Python wrapper
        p = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(design @ b, -36.0), 36.0)))
        grad = design.transpose(0, 2, 1) @ (y - p)
        norm = np.sqrt(grad.transpose(0, 2, 1) @ grad)[:, 0, 0]
        grad_norm[active] = norm
        moving = ~(norm <= _LOGISTIC_GRAD_TOL)
        if not moving.all():
            active, design, y, b, grad, p = (a[moving] for a in (active, design, y, b, grad, p))
        hessian = design.transpose(0, 2, 1) @ (design * (p * (1.0 - p)))
        b = b + _newton_steps(hessian, grad)
        beta[active] = b
        capped = np.abs(b).max(axis=(1, 2)) > _LOGISTIC_COEF_CAP
        if capped.any():
            separated[active[capped]] = True
            active, design, y, b = (a[~capped] for a in (active, design, y, b))
        if not active.size:
            break
    else:
        separated[active] = grad_norm[active] > _LOGISTIC_GRAD_TOL
    return beta[:, :, 0], iterations, grad_norm, separated


def _newton_steps(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Each set's Newton step; a singular weighted Hessian takes a ridge.

    ``solve`` factors each set on its own, so a set's step has the same bits
    in any batch. It raises on an exact zero pivot of the LU factorization,
    which ``slogdet``'s factorization reports as sign 0; only those sets take
    the ridge, and the batch is solved again in one call.
    """
    try:
        return np.linalg.solve(hessian, grad)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(hessian)[0] == 0
        for _ in range(np.count_nonzero(singular)):
            warnings.warn("singular weighted normal equations; adding ridge 1e-8", stacklevel=4)
        hessian = hessian.copy()
        hessian[singular] += 1e-8 * np.eye(hessian.shape[1])
        return np.linalg.solve(hessian, grad)


# ---------------------------------------------------------------------------
# The k-nearest-neighbor statistic
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KnnStatistic:
    """Negative k-NN posterior weight of the hypothesized class.

    With ``scale_features`` each feature is divided by its sample standard
    deviation over the training set. Caches are built lazily: plain
    evaluations need only distances from the query, while the fixed-metric
    ``edited_values`` uses the cached radii and counts.
    """

    data: TrainingSet
    k: int
    scale_features: bool = False

    @cached_property
    def caches(self) -> KnnCaches:
        # only the fixed-metric closed forms need the O(n^2) cache build
        return knn_fit(self.data, self.k)

    @cached_property
    def scales(self) -> np.ndarray:
        return _feature_scales(self.data) if self.scale_features else np.ones(self.data.q)

    def evaluate(self, theta: int, pts: np.ndarray) -> np.ndarray:
        """Minus the fraction of each point's k-ball that belongs to class
        theta, O(n q) per point. The ball is closed, so distance ties at the
        boundary radius are all included and it may hold more than k points."""
        check_label(theta, self.data.n_classes)
        dsq = _sq_dists(np.atleast_2d(pts) / self.scales, self.data.features / self.scales)
        radius_sq = np.partition(dsq, self.k - 1, axis=1)[:, self.k - 1]
        counts = _ball_counts(dsq, radius_sq, self.data.labels, self.data.n_classes)
        return -(counts[:, theta - 1] / counts.sum(axis=1))

    def edit(self, edit: Remove | Augment | Relabel) -> "KnnStatistic":
        return KnnStatistic(self.data.edit(edit), self.k, self.scale_features)

    def edited_values(self, theta: int, kind: str, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The closed form of the module-level ``edited_values``, as in
        ``GaussianStatistic.edited_values``, for a fixed metric.

        An augment is the one-class case of ``_augment_values``, which reads
        the cached counts through one (m, n) block of distances. A relabel
        moves no distance, so no radius moves and no ball total changes: a
        class-theta row j gains one theta-count exactly when its ball holds X_i,
        d^2(X_i, X_j) <= radius_sq[j], and X_i, which its own ball holds,
        gains one. That takes one (m, N) block of distances. A ``"loo"``
        removal takes one (m, n) block: X_i's radius in the data without it
        is its (k+1)-th smallest distance, as its own 0 is in the block, and
        its ball's counts lose X_i itself. A removal that scores the class
        rows moves their radii, and with feature scaling the scales move with
        the edited data, so those edits are all flagged.
        """
        group = self.data.group(theta)
        if self.scale_features or kind == "remove":
            return np.zeros((len(X), 1 if kind == "loo" else group.size + 1)), np.ones(len(X), dtype=bool)
        if kind == "loo":
            dsq = _sq_dists(self.data.features[X], self.data.features)
            # the (k+1)-th smallest distance, as the row's own 0 is in the block
            radius_sq = np.partition(dsq, self.k, axis=1)[:, self.k]
            counts = _ball_counts(dsq, radius_sq, self.data.labels, self.data.n_classes)
            counts[np.arange(len(X)), self.data.labels[X] - 1] -= 1
            return -(counts[:, theta - 1 : theta] / counts.sum(axis=1, keepdims=True)), np.zeros(len(X), dtype=bool)
        if kind == "augment":
            (query, members), = self._augment_values(X, range(theta, theta + 1))
            return np.column_stack([query, members]), np.zeros(len(X), dtype=bool)
        caches = self.caches
        values = np.empty((len(X), group.size + 1))
        totals = caches.counts_k.sum(axis=1)
        values[:, 0] = -((caches.counts_k[X, theta - 1] + 1) / totals[X])
        holds_i = _sq_dists(self.data.features[X], self.data.features[group]) <= caches.radius_sq[group]
        values[:, 1:] = -((caches.counts_k[group, theta - 1] + holds_i) / totals[group])
        return values, np.zeros(len(X), dtype=bool)

    @cached_property
    def _by_label(self) -> tuple[np.ndarray, ...]:
        """In the order of the rows sorted by label (stable): their features,
        and per row its squared k-radius and the own-class and total counts
        of its (k-1)- and k-balls."""
        d, caches = self.data, self.caches
        order = np.argsort(d.labels, kind="stable")
        rows, own = np.arange(d.n), d.labels[order] - 1
        km1, k = caches.counts_km1[order], caches.counts_k[order]
        return d.features[order], caches.radius_sq[order], km1[rows, own], k[rows, own], km1.sum(axis=1), k.sum(axis=1)

    def _augment_values(self, X: np.ndarray, classes: range) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each class theta of ``classes``, consecutive labels, the
        values under the fit augmented with (x, theta) at each query x of X
        and at the class-theta rows: an (m,) column and an (m, N_theta)
        block, the two parts of ``edited_values(theta, "augment", X)``.

        One (m, n) block of distances against the rows in label order, one
        partition at k - 2 and one in-ball mask serve every class. The
        query's own ball reaches its (k-1)-th nearest training point, since x
        itself sits at distance 0. A member j's value,
        -(own_j + holds_x) / (total_j + holds_x), depends on theta only
        through j's own class, so the members of all the classes are scored
        in one pass, and each class takes its slice: ``knn_augmented_counts``'
        case split, read through the own-class and total counts, where a row
        that x falls strictly inside takes its (k-1)-ball and x joins the
        ball of every row whose k-ball holds it.
        """
        columns, radius_sq, own_km1, own_k, total_km1, total_k = self._by_label
        dsq = _sq_dists(X, columns)
        radius_x = np.partition(dsq, self.k - 2, axis=1)[:, self.k - 2] if self.k >= 2 else np.zeros(len(X))
        in_ball = dsq <= radius_x[:, None]
        ball = in_ball.sum(axis=1) + 1
        bounds = [0, *itertools.accumulate(self.data.group(theta).size for theta in range(1, classes[-1] + 1))]
        span = slice(bounds[classes[0] - 1], bounds[-1])
        members, radius_sq = dsq[:, span], radius_sq[span]
        inside, holds_x = members < radius_sq, members <= radius_sq
        own_x = np.where(inside, own_km1[span], own_k[span])
        own_x += holds_x
        total_x = np.where(inside, total_km1[span], total_k[span])
        total_x += holds_x
        # the distances are read: the values take their memory
        values = np.divide(own_x, total_x, out=members)
        np.negative(values, out=values)
        out = []
        for theta in classes:
            lo, hi = bounds[theta - 1], bounds[theta]
            query = -((in_ball[:, lo:hi].sum(axis=1) + 1) / ball)
            out.append((query, values[:, lo - span.start : hi - span.start]))
        return out


# ---------------------------------------------------------------------------
# Edited values: the optional closed form and the refit fallback
# ---------------------------------------------------------------------------


_EDIT_KINDS = ("augment", "relabel", "remove", "loo")


def edited_values(stat, theta: int, kind: str, X: np.ndarray) -> np.ndarray:
    """(m, N + 1): for each of m single-point edits, the statistic at the
    edited point and at the class-theta rows under the edited fit. ``kind``
    names the edit of each row of X: ``"augment"`` adds the query x to class
    theta, ``"relabel"`` moves training row i (X holds row indices, all of
    one class) to class theta, and ``"remove"`` removes it; ``"loo"``
    removes it and scores it alone, (m, 1).

    The statistic's own ``edited_values`` method, where it has one, gives the
    values without making the edits and flags those it cannot score;
    without one every edit is flagged. Each flagged edit is then made in
    order by ``stat.edit`` and scored by ``evaluate``, so every value comes
    back finished. A degenerate edit raises DegenerateFitError, with the
    removed row as ``swap_index`` for ``"loo"``.
    """
    if kind not in _EDIT_KINDS:
        raise ValueError(f"unknown edit kind {kind!r}; expected one of {_EDIT_KINDS}")
    d = stat.data
    group = d.group(theta)
    closed_form = getattr(stat, "edited_values", None)
    if closed_form is not None:
        values, refit = closed_form(theta, kind, X)
    else:
        values, refit = np.zeros((len(X), 1 if kind == "loo" else group.size + 1)), np.ones(len(X), dtype=bool)
    for j in np.flatnonzero(refit):
        x = X[j]
        if kind == "augment":
            edit, pts = Augment(x, theta), np.vstack([x, d.features[group]])
        else:
            edit = Relabel(x, theta) if kind == "relabel" else Remove(x)
            pts = d.features[[x] if kind == "loo" else np.append(x, group)]
        try:
            values[j] = stat.edit(edit).evaluate(theta, pts)
        except DegenerateFitError as err:
            if kind == "loo":
                err.swap_index = int(x)
            raise
    return values
