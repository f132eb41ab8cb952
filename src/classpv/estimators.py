"""Fitted test-statistic families for the permutation engine. A fitted
statistic is its fit: it holds its training data and fitted parameters,
scores an (m, q) batch through one ``evaluate(theta, pts)``, and returns the
edited statistic from one ``edit`` method, for a single-point ``Remove``,
``Replace``, ``Augment`` or ``Relabel``. The pooled Gaussian statistic
applies every edit in O(q^2) as at most one add step followed by at most one
remove step (``gaussian_update``); the logistic and k-NN statistics refit.
Typicality is its own type, the pooled Gaussian fit read as exact-pivot
p-values. Identical rows of one ``evaluate`` call get identical bits, because
the rank count scores the query together with its class and needs their ties
exact.

A statistic needs only ``data``, ``edit`` and ``evaluate``. Every p-value
path scores single-point edits through the module-level ``edited_values``:
the statistic at the edited point and at the class-theta rows under each
edited fit. The edit adds a query to class theta (valid shortcut), or
relabels or removes a training row (leave-one-out; exact swap removes each
class-theta row of the data augmented with the query, so ``Replace`` serves
only references). An optional method of the same name gives the values in
closed form and flags the edits it cannot score; ``refit_values`` makes each
flagged edit in order, raising DegenerateFitError as the edit would. The
plug-in statistic has a closed form for every kind (a whitened rank-two
Woodbury solve), the fixed-metric k-NN statistic for augment and relabel.

Every fit computes its sums over a canonical row ordering, so the fitted
statistic is exactly symmetric in each class's training rows: shuffling the
rows of one group changes no output bit. That symmetry is what makes the
permutation p-values valid, so it is enforced structurally rather than
approximately.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import Augment, Relabel, Remove, Replace, TrainingSet, check_label
from .numerics import SingularMatrixError, SpdMatrix, f_cdf, log_sum_exp, mahalanobis_sq, whiten_rows
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
    "refit_values",
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


# Sherman-Morrison turns the augmented Mahalanobis form into a difference of
# two terms; beyond this value of a'|w_u|^2 that difference cancels badly, so
# the query takes the refit.
_FAR_QUERY = 1e4
# Removing a point divides by about 1 - h, h its leverage beta|w_v|^2; beyond
# this h that pivot cancels, so the row takes the refit.
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

    def edit(self, edit: Remove | Replace | Augment | Relabel) -> "GaussianStatistic":
        # through the module binding, which bench/tracing.py replaces to count edits
        return gaussian_update(self, edit)

    def edited_values(self, theta: int, kind: str, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The closed form of the module-level ``edited_values``: (m, N + 1),
        for each point x, the statistic at x and at the class-theta rows under
        the fit that adds (x, theta), unless ``kind`` is ``"remove"``, and then
        removes x from its class y, unless ``kind`` is ``"augment"``; and the
        (m,) mask of the points flagged for the refit, whose values are not to
        be used. X holds the queries for ``"augment"``, else training row
        indices, all of one class y (theta != y for ``"relabel"``).

        Adding x adds (N_theta/(N_theta+1)) u u^T to the scatter,
        u = x - mu_theta, and moves mu_theta by u/(N_theta+1). Removing it
        subtracts (N_y/(N_y-1)) v v^T, v = x - mu_y, and moves mu_y by
        -v/(N_y-1). In coordinates whitened by the pooled Cholesky factor the
        edited covariance is a multiple of I + a w_u w_u^T - beta w_v w_v^T,
        with a and beta the two coefficients over n - L. So by Woodbury every
        edited Mahalanobis form is c (|y|^2 - p^T M^-1 p), p = (y.w_u, y.w_v)
        and M 2x2, solved as one Sherman-Morrison step per term; c is the
        ratio of the old to the new divisor n - L. The competitor weights
        come from the edited group sizes, and the log determinant cancels from
        the statistic's ordering, so no edit, Cholesky factorization or row
        copy is needed. Queries and rows are whitened row by row and then
        share every operation, so a row equal to a query gets its bits.

        The refit checks its Cholesky pivots against 1e-12 times the largest
        diagonal entry of the edited covariance, which is read off the pooled
        diagonal, u^2 and v^2. Adding lowers no pivot, and the edited scatter
        is at least (1 - h) times the old one, h = beta |w_v|^2, so every
        pivot is at least (1 - h) times the pivot floor, rescaled to the new
        divisor. A query is flagged where that tolerance comes within a
        factor 2 of the bound, where a |w_u|^2 exceeds ``_FAR_QUERY`` (the add
        step cancels) or where h exceeds ``_HIGH_LEVERAGE`` (the remove step
        cancels).
        """
        n, n_classes = self.n, self.data.n_classes
        features_w, means_w = self._whitened
        group_w = features_w[self.data.group(theta)]
        add = kind != "remove"
        removed = None if kind == "augment" else int(self.data.labels[X[0]])
        if kind == "augment":
            wx = whiten_rows(self.sigma.chol_lower, X)
        else:
            X, wx = self.data.features[X], features_w[X]
        m, q = wx.shape
        sizes, new_n = self.group_sizes, n
        shifts = {}  # class index -> (m, q) whitened mean shift
        scatter_diag = (n - n_classes) * np.diag(self.sigma.matrix)
        refit = np.zeros(m, dtype=bool)
        leverage = 0.0
        if add:
            big_n = int(sizes[theta - 1])
            a = big_n / (big_n + 1.0) / (n - n_classes)
            wu = wx - means_w[theta - 1]
            shifts[theta - 1] = wu / (big_n + 1.0)
            spread = _row_dot(wu, wu)
            spread *= a
            refit |= spread > _FAR_QUERY
            u = X - self.means[theta - 1]
            scatter_diag = scatter_diag + u * u / (1.0 + 1.0 / big_n)
            sizes[theta - 1] += 1
            new_n += 1
        if removed is not None:
            big_n = int(sizes[removed - 1])
            beta = big_n / (big_n - 1.0) / (n - n_classes)
            wv = wx - means_w[removed - 1]
            shifts[removed - 1] = -wv / (big_n - 1.0)
            leverage = beta * _row_dot(wv, wv)
            refit |= leverage > _HIGH_LEVERAGE
            v = X - self.means[removed - 1]
            scatter_diag = scatter_diag - (big_n / (big_n - 1.0)) * v * v
            sizes[removed - 1] -= 1
            new_n -= 1
            if add:
                # the remove step's pivot 1 - beta v^T (I + a u u^T)^-1 v
                uv = _row_dot(wu, wv)
                cross = uv / (1.0 + spread)
                pivot = 1.0 - (leverage - beta * a * cross * uv)
            else:
                pivot = 1.0 - leverage
        tol = 1e-12 * np.max(scatter_diag, axis=1) / (new_n - n_classes)
        floor = self._pivot_floor * (n - n_classes) / (new_n - n_classes) * (1.0 - leverage)
        refit |= 2.0 * tol >= floor
        if removed is not None:
            # flagged rows are not used; keep their arithmetic finite
            pivot = np.where(refit, 1.0, pivot)
        c = (new_n - n_classes) / (n - n_classes)
        # one (m, N + 1) array per component, the query in column 0; sums over
        # components run elementwise in a fixed order, so equal rows stay equal
        points = [np.concatenate([wx[:, k, None], np.broadcast_to(group_w[:, k], (m, group_w.shape[0]))], axis=1)
                  for k in range(q)]
        maha = []
        for b in range(n_classes):
            sq = np.zeros((m, group_w.shape[0] + 1))
            proj_u, proj_v = np.zeros_like(sq), np.zeros_like(sq)
            for k in range(q):
                y = points[k] - means_w[b, k]
                if b in shifts:
                    y -= shifts[b][:, k, None]
                sq += y * y
                if add:
                    proj_u += y * wu[:, k, None]
                if removed is not None:
                    proj_v += y * wv[:, k, None]
            form = sq
            if add:
                form = sq - a * proj_u * proj_u / (1.0 + spread)[:, None]
            if removed is not None:
                if add:
                    proj_v -= a * proj_u * cross[:, None]
                form = form + beta * proj_v * proj_v / pivot[:, None]
            maha.append(c * form)
        # log sum_{b != theta} w_b exp(-(maha_b - maha_theta) / 2)
        weights = sizes / sizes[np.arange(n_classes) != theta - 1].sum()
        terms = [np.log(weights[b]) - 0.5 * (maha[b] - maha[theta - 1]) for b in range(n_classes) if b != theta - 1]
        return log_sum_exp(np.stack(terms), axis=0), refit


def _row_dot(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, q) arrays, components added in order."""
    out = np.zeros(left.shape[0])
    for k in range(left.shape[1]):
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
    return GaussianStatistic(data=d, means=means, sigma=sigma)


def gaussian_update(stat: GaussianStatistic, edit: Remove | Replace | Augment | Relabel) -> GaussianStatistic:
    """Apply a single-point edit to a pooled Gaussian statistic in O(q^2);
    the result has the type of ``stat``.

    Every edit is at most one add step followed by at most one remove step:
    ``Augment`` adds its point, ``Remove`` removes row i, ``Replace`` adds the
    new point to row i's class and then removes row i, and ``Relabel`` adds
    row i to its new class and then removes it from its old one. Adding
    first keeps a one-member class nonempty through a ``Replace``. The result
    matches a from-scratch refit of the edited data to within 1e-9 relative
    error. Removing the last member of a group is rejected, and an edit that
    drives the pooled covariance singular raises DegenerateFitError.
    """
    d = stat.data
    new_data = d.edit(edit)  # validates the edit
    if isinstance(edit, Remove):
        added = None
    elif isinstance(edit, Augment):
        added = (edit.point, edit.label)
    elif isinstance(edit, Replace):
        added = (edit.point, d.labels[edit.index])
    else:  # Relabel; d.edit rejected any other edit
        added = (d.features[edit.index], edit.label)
    removed = None if isinstance(edit, Augment) else edit.index
    scatter = (d.n - d.n_classes) * stat.sigma.matrix
    means = np.array(stat.means, copy=True)
    sizes = d.group_sizes
    if added is not None:
        x, theta = np.asarray(added[0], dtype=float), int(added[1])
        big_n = int(sizes[theta - 1])
        dev = x - means[theta - 1]
        scatter = scatter + np.outer(dev, dev) / (1.0 + 1.0 / big_n)
        means[theta - 1] = means[theta - 1] + dev / (big_n + 1.0)
        sizes[theta - 1] += 1
    if removed is not None:
        theta = int(d.labels[removed])
        big_n = int(sizes[theta - 1])
        dev = d.features[removed] - means[theta - 1]
        scatter = scatter - (big_n / (big_n - 1.0)) * np.outer(dev, dev)
        means[theta - 1] = means[theta - 1] - dev / (big_n - 1.0)
    n, n_classes = new_data.n, new_data.n_classes
    if n <= n_classes:
        raise ValueError(f"edit leaves n={n} <= L={n_classes}")
    try:
        sigma = SpdMatrix(scatter / (n - n_classes))
    except SingularMatrixError as err:
        raise DegenerateFitError(
            f"edited covariance is singular ({err})", pivot_index=err.pivot_index
        ) from err
    return replace(stat, data=new_data, means=means, sigma=sigma)


def typicality_index(stat: GaussianStatistic, theta: int, x: np.ndarray) -> np.ndarray | float:
    """Exact-pivot p-value from the scaled squared Mahalanobis distance to class theta.

    The scaling constant turns the distance into an F-distributed pivot, so the
    index is an exact p-value under a homoscedastic Gaussian model. x may be
    (q,) or (m, q); each row gets the same bits in any batch.
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
    out = np.array([1.0 - f_cdf(c_theta * float(v), q, d2) for v in msq])
    return float(out[0]) if x.ndim == 1 else out


# ---------------------------------------------------------------------------
# k-nearest-neighbor caches
# ---------------------------------------------------------------------------


def default_k(n: int) -> int:
    """ceil(n^(2/3)): grows without bound while k/n -> 0."""
    return max(1, math.ceil(n ** (2.0 / 3.0)))


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between rows of a and rows of b.

    The squared component differences are added one at a time, in order, so
    that distances between the same pair of points are bit-identical no
    matter which matrix they sit in; the tie cases in the augmented-count
    rule rely on exact comparisons. Every temporary is (len(a), len(b)).
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[:, k]
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
    """Per-point ball radii and per-class ball counts for the k-NN statistic.

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


def knn_fit(d: TrainingSet, k: int | None = None) -> KnnCaches:
    """Build the n(1 + 2L) cached numbers driving the O(n) augmented-data rule,
    in the unscaled metric."""
    if k is None:
        k = default_k(d.n)
    if not 1 <= k <= d.n:
        raise ValueError(f"k must lie in 1..n={d.n}, got {k}")
    dsq = _sq_dists(d.features, d.features)
    part = np.partition(dsq, k - 1, axis=1)
    radius_sq = part[:, k - 1]
    # partition puts the k - 1 smallest entries first, in no particular order
    radius_km1_sq = part[:, : k - 1].max(axis=1) if k >= 2 else np.zeros(d.n)
    counts_km1 = _ball_counts(dsq, radius_km1_sq, d.labels, d.n_classes)
    counts_k = _ball_counts(dsq, radius_sq, d.labels, d.n_classes)
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
    dsq = _sq_dists(np.asarray(x, dtype=float)[None, :], caches.data.features)
    return _augmented_counts(caches, dsq, np.arange(caches.data.n), theta)[0]


def _augmented_counts(caches: KnnCaches, dsq: np.ndarray, rows: np.ndarray, theta: int) -> np.ndarray:
    """(m, len(rows), L) counts at the training rows ``rows``, given their
    (m, len(rows)) squared distances to each query."""
    radius_sq = caches.radius_sq[rows]
    inside = dsq < radius_sq
    counts = np.where(inside[:, :, None], caches.counts_km1[rows], caches.counts_k[rows])
    counts[:, :, theta - 1] += inside | (dsq == radius_sq)
    return counts


# ---------------------------------------------------------------------------
# Logistic regression (two classes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LogisticStatistic:
    """Maximum-likelihood logistic fit for two classes, with separation
    handling, as the signed logistic score: the class-2 logit tests class 1
    and vice versa.

    On convergence the log-likelihood gradient norm is at most 1e-8. When the
    classes are (nearly) separable the coefficients are the capped-iteration
    output and `separated` is set; the statistic's ordering stays usable.
    """

    data: TrainingSet
    intercept: float
    coefficients: np.ndarray   # (q,)
    iterations: int
    gradient_norm: float
    separated: bool

    def __post_init__(self):
        self.coefficients.setflags(write=False)

    def evaluate(self, theta: int, pts: np.ndarray) -> np.ndarray:
        check_label(theta, 2)
        # an elementwise row sum, not a matrix product: BLAS may round identical
        # rows of one batch differently, and the rank count needs them equal
        scores = self.intercept + np.sum(np.atleast_2d(pts) * self.coefficients, axis=1)
        return scores if theta == 1 else -scores

    def edit(self, edit: Remove | Replace | Augment | Relabel) -> "LogisticStatistic":
        # through the module binding, which bench/tracing.py replaces to count fits
        return fit_logistic(self.data.edit(edit))


_LOGISTIC_MAX_ITER = 100
_LOGISTIC_GRAD_TOL = 1e-8
_LOGISTIC_COEF_CAP = 30.0


def fit_logistic(d: TrainingSet) -> LogisticStatistic:
    """Fit log-odds of class 2 as an affine function of the features by IRLS."""
    if d.n_classes != 2:
        raise ValueError(f"logistic statistic requires exactly 2 classes, got {d.n_classes}")
    order = _canonical_order(d.features, d.labels)
    feats = d.features[order]
    y = (d.labels[order] == 2).astype(float)
    design = np.hstack([np.ones((d.n, 1)), feats])
    beta = np.zeros(design.shape[1])
    grad_norm = math.inf
    separated = False
    prev_deviance = math.inf
    deviance = math.inf
    iterations = 0
    for iterations in range(1, _LOGISTIC_MAX_ITER + 1):
        eta = np.clip(design @ beta, -36.0, 36.0)
        p = 1.0 / (1.0 + np.exp(-eta))
        grad = design.T @ (y - p)
        grad_norm = float(np.linalg.norm(grad))
        prev_deviance = deviance
        deviance = -2.0 * float(y @ np.log(p) + (1.0 - y) @ np.log1p(-p))
        if grad_norm <= _LOGISTIC_GRAD_TOL:
            break
        weights = p * (1.0 - p)
        hessian = design.T @ (design * weights[:, None])
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            warnings.warn("singular weighted normal equations; adding ridge 1e-8", stacklevel=2)
            hessian = hessian + 1e-8 * np.eye(hessian.shape[0])
            step = np.linalg.solve(hessian, grad)
        beta = beta + step
        if float(np.max(np.abs(beta))) > _LOGISTIC_COEF_CAP:
            separated = True
            break
    else:
        if grad_norm > _LOGISTIC_GRAD_TOL and deviance < prev_deviance:
            separated = True
    return LogisticStatistic(
        data=d,
        intercept=float(beta[0]),
        coefficients=np.array(beta[1:]),
        iterations=iterations,
        gradient_norm=grad_norm,
        separated=separated,
    )


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

    def edit(self, edit: Remove | Replace | Augment | Relabel) -> "KnnStatistic":
        return KnnStatistic(self.data.edit(edit), self.k, self.scale_features)

    def edited_values(self, theta: int, kind: str, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The closed form of the module-level ``edited_values``, as in
        ``GaussianStatistic.edited_values``, for a fixed metric.

        An augment reads the cached counts through one (m, n) block of
        distances: the query's own ball reaches its (k-1)-th nearest training
        point, since x itself sits at distance 0, and the rows take
        ``knn_augmented_counts``' case split. A relabel moves no distance, so
        no radius moves and no ball total changes: a class-theta row j gains
        one theta-count exactly when its ball holds X_i,
        d^2(X_i, X_j) <= radius_sq[j], and X_i, which its own ball holds,
        gains one. That takes one (m, N) block of distances. A removal moves
        radii, and with feature scaling the scales move with the edited data,
        so those edits are all flagged.
        """
        group = self.data.group(theta)
        if self.scale_features or kind == "remove":
            return np.zeros((len(X), group.size + 1)), np.ones(len(X), dtype=bool)
        caches = self.caches
        if kind == "relabel":
            values = np.empty((len(X), group.size + 1))
            totals = caches.counts_k.sum(axis=1)
            values[:, 0] = -((caches.counts_k[X, theta - 1] + 1) / totals[X])
            holds_i = _sq_dists(self.data.features[X], self.data.features[group]) <= caches.radius_sq[group]
            values[:, 1:] = -((caches.counts_k[group, theta - 1] + holds_i) / totals[group])
            return values, np.zeros(len(X), dtype=bool)
        dsq = _sq_dists(X, self.data.features)
        radius_sq = np.partition(dsq, self.k - 2, axis=1)[:, self.k - 2] if self.k >= 2 else np.zeros(len(X))
        in_ball = dsq <= radius_sq[:, None]
        # allocated once the partition's copy is freed, so it can reuse that memory
        values = np.empty((len(X), group.size + 1))
        # the added point counts in its own ball and class
        values[:, 0] = -((in_ball[:, group].sum(axis=1) + 1) / (in_ball.sum(axis=1) + 1))
        counts = _augmented_counts(caches, dsq[:, group], group, theta)
        values[:, 1:] = -(counts[:, :, theta - 1] / counts.sum(axis=2))
        return values, np.zeros(len(X), dtype=bool)


# ---------------------------------------------------------------------------
# Edited values: the optional closed form and the refit fallback
# ---------------------------------------------------------------------------


def edited_values(stat, theta: int, kind: str, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, N + 1): for each of m single-point edits, the statistic at the
    edited point and at the class-theta rows under the edited fit; and the
    (m,) mask of the edits flagged for ``refit_values``, whose values are not
    to be used. ``kind`` names the edit of each row of X: ``"augment"`` adds
    the query x to class theta, ``"relabel"`` moves training row i (X holds
    row indices, all of one class) to class theta, and ``"remove"`` removes
    it. The statistic's own ``edited_values`` method, where it has one, gives
    them in closed form; otherwise every edit is flagged.
    """
    closed_form = getattr(stat, "edited_values", None)
    if closed_form is not None:
        return closed_form(theta, kind, X)
    return np.zeros((len(X), stat.data.group(theta).size + 1)), np.ones(len(X), dtype=bool)


def refit_values(stat, kind: str, entries) -> Iterator[np.ndarray]:
    """The refit behind ``edited_values``: for each (x, theta) of ``entries``,
    in order, the (N + 1,) values ``edited_values`` gives for x, from one
    ``stat.edit`` and one ``evaluate``. An edit equal to the one before is
    reused, so a removal serves every class of its row, and a degenerate edit
    raises DegenerateFitError at its entry.
    """
    d = stat.data
    last = edited = None
    for x, theta in entries:
        if kind == "augment":
            edit, point = Augment(x, theta), x
        elif kind == "relabel":
            edit, point = Relabel(x, theta), d.features[x]
        else:
            edit, point = Remove(x), d.features[x]
        if edit != last:
            last, edited = edit, stat.edit(edit)
        yield edited.evaluate(theta, np.concatenate([point[None, :], d.features[d.group(theta)]]))
