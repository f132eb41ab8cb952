"""Fitted test-statistic families for the permutation engine. A fitted
statistic is its fit: it holds its training data and fitted parameters,
scores an (m, q) batch through one ``evaluate(theta, pts)``, scores its own
training rows through ``evaluate_rows(theta, rows)``, and returns the edited
statistic from one ``edit`` method, for a single-point ``Remove``,
``Replace``, ``Augment`` or ``Relabel``. The pooled Gaussian statistic
applies every edit in O(q^2) as at most one add step followed by at most one
remove step (``gaussian_update``); the logistic statistic refits; the k-NN
caches carry over a relabel. Typicality is its own type, the pooled Gaussian
fit read as exact-pivot p-values. The plug-in and fixed-metric k-NN
statistics also score a batch of queries under each query's augmented data
through ``augmented_values``, without an edit.
Identical rows of one ``evaluate`` call get identical bits, because the rank
count scores the query together with its class and needs their ties exact.

Every fit computes its sums over a canonical row ordering, so the fitted
statistic is exactly symmetric in each class's training rows: shuffling the
rows of one group changes no output bit. That symmetry is what makes the
permutation p-values valid, so it is enforced structurally rather than
approximately.
"""

from __future__ import annotations

import math
import warnings
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
    "fit_logistic",
    "fit_pooled_gaussian",
    "gaussian_update",
    "knn_augmented_counts",
    "knn_fit",
    "knn_posterior",
    "typicality_index",
]


class DegenerateFitError(RuntimeError):
    """A fit's covariance (or normal equations) lost rank; carries the failing pivot."""

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


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

    def evaluate_rows(self, theta: int, rows: np.ndarray) -> np.ndarray:
        return self.evaluate(theta, self.data.features[rows])

    def edit(self, edit: Remove | Replace | Augment | Relabel) -> "GaussianStatistic":
        # through the module binding, which bench/tracing.py replaces to count edits
        return gaussian_update(self, edit)

    def augmented_values(self, theta: int, X: np.ndarray) -> np.ndarray:
        """(m, N + 1): for each query x, the statistic at x and at the
        class-theta rows under the fit augmented with (x, theta), in closed
        form.

        Augmenting adds (N/(N+1)) u u^T to the scatter, u = x - mu_theta, and
        moves mu_theta by u/(N+1). In coordinates whitened by the pooled
        Cholesky factor each augmented Mahalanobis form is, by
        Sherman-Morrison, c (|y|^2 - a' (y.w_u)^2 / (1 + a'|w_u|^2)) with
        a' = (N/(N+1))/(n-L) and c = (n+1-L)/(n-L). The competitor weights and
        the log determinant cancel from the statistic's ordering, so no edit,
        Cholesky factorization or row copy is needed. Queries and rows are
        whitened row by row and then share every operation, so a row equal to
        a query gets its bits. A query far enough out that the closed form
        cancels badly, or that the refit's pivot check could trip, takes the
        refit, which raises DegenerateFitError where the augmented fit is
        singular.
        """
        n, n_classes = self.n, self.data.n_classes
        big_n = int(self.group_sizes[theta - 1])
        a = big_n / (big_n + 1.0) / (n - n_classes)
        c = (n + 1.0 - n_classes) / (n - n_classes)
        features_w, means_w = self._whitened
        group_w = features_w[self.data.group(theta)]
        wx = whiten_rows(self.sigma.chol_lower, X)
        wu = wx - means_w[theta - 1]
        shift = wu / (big_n + 1.0)
        m, q = wx.shape
        # one (m, N + 1) array per component, the query in column 0; sums over
        # components run elementwise in a fixed order, so equal rows stay equal
        points = [np.concatenate([wx[:, k, None], np.broadcast_to(group_w[:, k], (m, group_w.shape[0]))], axis=1)
                  for k in range(q)]
        spread = np.zeros(m)
        for k in range(q):
            spread += wu[:, k] * wu[:, k]
        spread *= a
        maha = []
        for b in range(n_classes):
            sq = np.zeros((m, group_w.shape[0] + 1))
            proj = np.zeros_like(sq)
            for k in range(q):
                y = points[k] - means_w[b, k]
                if b == theta - 1:
                    y -= shift[:, k, None]
                sq += y * y
                proj += y * wu[:, k, None]
            maha.append(c * (sq - a * proj * proj / (1.0 + spread)[:, None]))
        # log sum_{b != theta} w_b exp(-(maha_b - maha_theta) / 2)
        weights = self.group_sizes / self.group_sizes[np.arange(n_classes) != theta - 1].sum()
        terms = [np.log(weights[b]) - 0.5 * (maha[b] - maha[theta - 1]) for b in range(n_classes) if b != theta - 1]
        values = log_sum_exp(np.stack(terms), axis=0)
        # The refit checks its Cholesky pivots against 1e-12 times the largest
        # diagonal entry of the augmented covariance. Where that tolerance
        # comes within a factor 2 of the pivot floor, the refit may find the
        # augmented fit singular and raise, so the query takes it.
        u = X - self.means[theta - 1]
        scatter_diag = (n - n_classes) * np.diag(self.sigma.matrix) + u * u / (1.0 + 1.0 / big_n)
        tol = 1e-12 * np.max(scatter_diag, axis=1) / (n + 1.0 - n_classes)
        floor = self._pivot_floor * (n - n_classes) / (n + 1.0 - n_classes)
        for i in np.flatnonzero((spread > _FAR_QUERY) | (2.0 * tol >= floor)):
            values[i] = _refit_values(self, theta, X[i])
        return values


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
# k-nearest-neighbor caches and posterior estimate
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


def _relabel_caches(caches: KnnCaches, data: TrainingSet, i: int) -> KnnCaches:
    """The caches of ``data``, which is ``caches.data`` with row i relabelled,
    in O(n q): the radii do not depend on labels, and a point whose (k-1)- or
    k-ball holds row i moves one count between the two class columns."""
    old, new = int(caches.data.labels[i]), int(data.labels[i])
    dsq = _sq_dists(data.features[i][None, :], data.features)[0]
    moved = []
    for counts, radius_sq in ((caches.counts_km1, caches.radius_km1_sq), (caches.counts_k, caches.radius_sq)):
        counts = np.array(counts, copy=True)
        holds_i = dsq <= radius_sq
        counts[holds_i, old - 1] -= 1
        counts[holds_i, new - 1] += 1
        moved.append(counts)
    return replace(caches, data=data, counts_km1=moved[0], counts_k=moved[1])


def _ball_counts(dsq: np.ndarray, radius_sq: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    in_ball = dsq <= radius_sq[:, None]
    counts = np.empty((dsq.shape[0], n_classes), dtype=np.int64)
    for b in range(1, n_classes + 1):
        counts[:, b - 1] = np.count_nonzero(in_ball[:, labels == b], axis=1)
    return counts


def _knn_weight(
    d: TrainingSet,
    features: np.ndarray,
    k: int,
    theta: int,
    pts: np.ndarray,
    class_weights: np.ndarray | None = None,
) -> np.ndarray:
    """k-NN posterior weight of class theta at each row of pts, with d's rows
    placed at ``features`` in the same metric; O(n q) per row.

    With no explicit class weights this is the plain count ratio; explicit
    weights go through the weighted empirical-measure form.
    """
    dsq = _sq_dists(pts, features)
    radius = np.partition(dsq, k - 1, axis=1)[:, k - 1]
    counts = _ball_counts(dsq, radius, d.labels, d.n_classes)
    if class_weights is not None:
        counts = class_weights[None, :] * counts / d.group_sizes[None, :]
    return counts[:, theta - 1] / counts.sum(axis=1)


def knn_posterior(
    caches: KnnCaches,
    theta: int,
    x: np.ndarray,
    class_weights: np.ndarray | None = None,
) -> float:
    """Fraction of the k-neighborhood of x belonging to class theta.

    The ball is closed, so distance ties at the boundary radius are all
    included and the neighborhood may hold more than k points.
    """
    d = caches.data
    check_label(theta, d.n_classes)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    out = _knn_weight(d, d.features, caches.k, theta, pts, class_weights)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


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


def _refit_values(stat, theta: int, x: np.ndarray) -> np.ndarray:
    """The statistic at x, then at the class-theta rows, refitted on the data
    augmented with (x, theta): the generic valid-shortcut path, (N + 1,)."""
    d = stat.data
    return stat.edit(Augment(x, theta)).evaluate(theta, np.vstack([x, d.features[d.group(theta)]]))


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

    def evaluate_rows(self, theta: int, rows: np.ndarray) -> np.ndarray:
        return self.evaluate(theta, self.data.features[rows])

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
    valid-shortcut path and ``evaluate_rows`` use the cached radii and
    counts, which a ``Relabel`` edit carries over.
    """

    data: TrainingSet
    k: int
    scale_features: bool = False

    @cached_property
    def caches(self) -> KnnCaches:
        # only the valid-shortcut path needs the O(n^2) cache build
        return knn_fit(self.data, self.k)

    @cached_property
    def scales(self) -> np.ndarray:
        return _feature_scales(self.data) if self.scale_features else np.ones(self.data.q)

    def evaluate(self, theta: int, pts: np.ndarray) -> np.ndarray:
        check_label(theta, self.data.n_classes)
        scaled = np.atleast_2d(pts) / self.scales
        return -_knn_weight(self.data, self.data.features / self.scales, self.k, theta, scaled)

    def evaluate_rows(self, theta: int, rows: np.ndarray) -> np.ndarray:
        """The statistic at training rows of its own data. A row's k-ball
        holds the row itself, so with a fixed metric these are the cached
        counts: the same bits as ``evaluate`` at those rows."""
        if self.scale_features:
            return self.evaluate(theta, self.data.features[rows])
        counts = self.caches.counts_k[rows]
        return -(counts[:, theta - 1] / counts.sum(axis=1))

    def edit(self, edit: Remove | Replace | Augment | Relabel) -> "KnnStatistic":
        edited = KnnStatistic(self.data.edit(edit), self.k, self.scale_features)
        if isinstance(edit, Relabel) and not self.scale_features:
            # seed the lazy caches: a relabel keeps every distance
            edited.__dict__["caches"] = _relabel_caches(self.caches, edited.data, edit.index)
        return edited

    def augmented_values(self, theta: int, X: np.ndarray) -> np.ndarray:
        """(m, N + 1): for each query x, the statistic at x and at the
        class-theta rows under the data augmented with (x, theta).

        With a fixed metric this reads the cached counts through one (m, n)
        block of distances: the query's own ball reaches its (k-1)-th nearest
        training point, since x itself sits at distance 0, and the rows take
        ``knn_augmented_counts``'s case split. With feature scaling the scales
        move with the augmented data, so each query takes the refit instead.
        """
        if self.scale_features:
            return np.array([_refit_values(self, theta, x) for x in X])
        caches, group = self.caches, self.data.group(theta)
        dsq = _sq_dists(X, self.data.features)
        radius_sq = np.partition(dsq, self.k - 2, axis=1)[:, self.k - 2] if self.k >= 2 else np.zeros(X.shape[0])
        in_ball = dsq <= radius_sq[:, None]
        values = np.empty((X.shape[0], group.size + 1))
        # the added point counts in its own ball and class
        values[:, 0] = -((in_ball[:, group].sum(axis=1) + 1) / (in_ball.sum(axis=1) + 1))
        counts = _augmented_counts(caches, dsq[:, group], group, theta)
        values[:, 1:] = -(counts[:, :, theta - 1] / counts.sum(axis=2))
        return values
