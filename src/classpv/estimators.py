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
path scores single-point edits through the module-level ``edited_values``,
on a block of statistics with one n and one set of group sizes: the
statistic at the edited point and at the class-theta rows under each
edited fit. The edit adds a query to class theta (valid shortcut), or
relabels or removes a training row (leave-one-out), or removes a row and
scores it alone (``"loo"``: exact swap ranks each class row's value under
the fit without it). An optional static ``edited_values_each`` of the
statistic's type gives the whole block's values in one call without the
edits and flags the edits it cannot score; ``edited_values`` makes each
flagged edit and evaluates it, raising DegenerateFitError as a loop over
the block's edits would, so its callers get finished values of every kind
and make no refit; one fit is a block of one. The plug-in statistic has a
closed form for every kind (Fisher's linear discriminant under each edit:
one small solve per edit, then q multiply-adds per point and competitor
class), the fixed-metric k-NN statistic for augment, relabel and loo (one
block of distances against its label-ordered cache), and the logistic
statistic fits every kind's edited sets in one batched IRLS. Each runs one
fit's arithmetic elementwise along the block's edits, so an edit's values
have the bits of its fit alone. ``knn_fit`` and ``fit_logistic`` are the
one-fit cases of the block fits ``_knn_fits`` and ``_fit_logistic_each``.

Every fit computes its sums over a canonical row ordering, so the fitted
statistic is exactly symmetric in each class's training rows: shuffling the
rows of one group changes no output bit. That symmetry is what makes the
permutation p-values valid, so it is enforced structurally rather than
approximately.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import Augment, Relabel, Remove, TrainingSet, check_finite, check_label, check_point
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


_PACKAGE_DIR = os.path.dirname(__file__)
_STDLIB_DIR = os.path.dirname(os.__file__)


def _caller_stacklevel() -> int:
    """The ``stacklevel`` at which a warning issued by this function's
    caller names the code that called into classpv: the first frame beyond
    the outermost frame of this package that is not in the standard library
    (a ``cached_property`` read runs the package through ``functools``),
    else the frame just beyond. Python 3.11's ``warnings.warn`` has no
    ``skip_file_prefixes``, so the frames are walked."""
    frame, level, last, outside = sys._getframe(1), 1, 1, None
    while frame is not None:
        where = os.path.dirname(frame.f_code.co_filename)
        if where == _PACKAGE_DIR:
            last, outside = level, None
        elif outside is None and where != _STDLIB_DIR:
            outside = level
        frame, level = frame.f_back, level + 1
    return outside or last + 1


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

    @staticmethod
    def edited_values_each(stats, theta: int, kind: str, Xs) -> tuple[np.ndarray, np.ndarray]:
        """The closed form of the module-level ``edited_values`` on a block
        of fits with one n and one set of group sizes: (m, N + 1), for each
        point x of ``Xs[0]``, then of ``Xs[1]``, ..., the statistic at x and
        at the class-theta rows under its fit ``stats[s]`` edited to add
        (x, theta), unless ``kind`` is ``"remove"``, and then to remove x
        from its class y, unless ``kind`` is ``"augment"``; (m, 1) for
        ``"loo"``, which removes x and scores x alone; and the (m,) mask of
        the points flagged for the refit, whose values are not to be used.
        Each ``Xs[s]`` holds queries for ``"augment"``, else training row
        indices, all of one class y, the same for every fit (theta != y for
        ``"relabel"``).

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

        A block runs one fit's arithmetic elementwise along its edits, each
        edit reading its own fit's factor, means, sums and pivot floor: one
        forward substitution per whitening, each column by its own factor in
        ``_forward_substitute``'s order (the rows and means of every fit not
        yet whitened among them), one stacked ``solve`` and one
        ``_log_sum_exp_rows``, so every value has the bits of its fit alone.
        """
        first = stats[0]
        n, n_classes = first.n, first.data.n_classes
        owner = np.repeat(np.arange(len(stats)), [len(X) for X in Xs]) if len(stats) > 1 else None

        def each(per_fit):  # each edit's entry of a per-fit quantity; a lone fit's broadcasts
            return np.stack(per_fit)[owner] if len(stats) > 1 else per_fit[0]

        def joined(parts):
            return np.concatenate(parts) if len(parts) > 1 else parts[0]

        missing = [s for s in stats if "_whitened" not in vars(s)]
        if len(missing) > 1:  # every fit's rows and means in one substitution, each by its own factor
            rows = np.concatenate([np.vstack([s.data.features, s.means]) for s in missing])
            factors = np.repeat(np.stack([s.sigma.chol_lower for s in missing]), n + n_classes, axis=0)
            for s, white in zip(missing, np.split(whiten_rows(factors.transpose(1, 2, 0), rows), len(missing))):
                vars(s)["_whitened"] = (white[:n], white[n:])  # the cached property's value
        # each edit's whitening factor, (q, q, m); a lone fit's (q, q) factor scales by scalars
        lower = np.stack([s.sigma.chol_lower for s in stats])[owner].transpose(1, 2, 0) if len(stats) > 1 else first.sigma.chol_lower
        means_w, means = each([s._whitened[1] for s in stats]), each([s.means for s in stats])
        add = kind in ("augment", "relabel")
        removed = None if kind == "augment" else int(first.data.labels[Xs[0][0]])
        if kind == "augment":
            X = joined(Xs)
            wx = whiten_rows(lower, X)
        else:
            X = joined([s.data.features[x] for s, x in zip(stats, Xs)])
            wx = joined([s._whitened[0][x] for s, x in zip(stats, Xs)])
        m, q = wx.shape
        sizes, new_n = first.group_sizes, n
        sums = np.empty((m, n_classes, q))  # the edited class sums
        sums[...] = each([s._sums for s in stats])
        scatter = np.eye(q)  # A, (m, q, q) from the first edit term on
        scatter_diag = (n - n_classes) * each([np.diag(s.sigma.matrix) for s in stats])
        refit = np.zeros(m, dtype=bool)
        leverage = 0.0
        if add:
            big_n = int(sizes[theta - 1])
            a = big_n / (big_n + 1.0) / (n - n_classes)
            wu = wx - means_w[..., theta - 1, :]
            sums[:, theta - 1] += X
            refit |= a * _row_dot(wu, wu) > _FAR_QUERY
            scatter = scatter + a * wu[:, :, None] * wu[:, None, :]
            u = X - means[..., theta - 1, :]
            scatter_diag = scatter_diag + u * u / (1.0 + 1.0 / big_n)
            sizes[theta - 1] += 1
            new_n += 1
        if removed is not None:
            big_n = int(sizes[removed - 1])
            beta = big_n / (big_n - 1.0) / (n - n_classes)
            wv = wx - means_w[..., removed - 1, :]
            sums[:, removed - 1] -= X
            leverage = beta * _row_dot(wv, wv)
            refit |= leverage > _HIGH_LEVERAGE
            scatter = scatter - beta * wv[:, :, None] * wv[:, None, :]
            v = X - means[..., removed - 1, :]
            scatter_diag = scatter_diag - (big_n / (big_n - 1.0)) * v * v
            sizes[removed - 1] -= 1
            new_n -= 1
        tol = 1e-12 * np.max(scatter_diag, axis=1) / (new_n - n_classes)
        floor = each([s._pivot_floor for s in stats]) * (n - n_classes) / (new_n - n_classes) * (1.0 - leverage)
        refit |= 2.0 * tol >= floor
        if refit.any():  # flagged rows are not used; keep their systems regular
            scatter[refit] = np.eye(q)
        sums /= sizes[:, None]
        if len(stats) > 1:  # a factor for each of an edit's L sums
            lower = np.repeat(lower, n_classes, axis=2)
        means = whiten_rows(lower, sums.reshape(-1, q)).reshape(sums.shape)
        others = [b for b in range(n_classes) if b != theta - 1]
        own, rivals = means[:, theta - 1 : theta], means[:, others]
        slopes = np.linalg.solve(scatter, np.swapaxes(rivals - own, 1, 2))  # (m, q, L - 1)
        slopes *= (new_n - n_classes) / (n - n_classes)
        mids = _row_dot(slopes, np.swapaxes(rivals + own, 1, 2))  # G_b . (m'_b + m'_theta)
        offsets = np.log(sizes[others] / (sizes.sum() - sizes[theta - 1])) - 0.5 * mids
        # "loo" scores the removed row alone
        group_size = 0 if kind == "loo" else first.data.group(theta).size
        buffer = np.empty((q + n_classes, m, group_size + 1))
        points, terms, spare = buffer[:q], buffer[q:-1], buffer[-1]
        points[:, :, 0] = wx.T
        start = 0
        for s, X in zip(stats, Xs):
            group_w = s._whitened[0][s.data.group(theta)[:group_size]]
            points[:, start : start + len(X), 1:] = group_w.T[:, None, :]
            start += len(X)
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
    sums it directly, so far points keep their order down to 1e-300. A NaN
    or infinite component of x raises ValueError.
    """
    n_classes = stat.data.n_classes
    check_label(theta, n_classes)
    n, q = stat.n, stat.q
    if n < n_classes + q:
        raise ValueError(f"typicality needs n >= L + q, got n={n}, L={n_classes}, q={q}")
    d2 = n - n_classes - q + 1
    c_theta = d2 / (q * (n - n_classes) * (1.0 + 1.0 / stat.group_sizes[theta - 1]))
    x = check_finite(x)
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
    """Squared euclidean distances between rows of a and rows of b: b is
    (n, q), or (len(a), n, q), each row of a against its own n rows, or
    (1, n, q).

    The squared component differences are added one at a time, in order, so
    that distances between the same pair of points are bit-identical no
    matter which matrix they sit in, in which row block or column order; the
    tie cases in the augmented-count rule rely on exact comparisons, and
    ``knn_fit`` on blocks of rows against reordered columns. The first
    square is the sum's first term (0 + d^2 is d^2, bit for bit), and one
    buffer takes each later one: two (len(a), n) arrays in all, so callers
    bound that product. A caller scoring many blocks may pass both, as
    ``out`` and ``diff``.
    """
    if out is None:
        out = np.empty((a.shape[0], b.shape[-2]))
    if a.shape[1] == 0:
        out[:] = 0.0
        return out
    np.subtract(a[:, :1], b[..., 0], out=out)
    out *= out
    if a.shape[1] > 1 and diff is None:
        diff = np.empty_like(out)
    for k in range(1, a.shape[1]):
        np.subtract(a[:, k : k + 1], b[..., k], out=diff)
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
            stacklevel=_caller_stacklevel(),
        )
        scales = np.where(zero, 1.0, scales)
    return scales


@dataclass(frozen=True, eq=False)
class KnnCaches:
    """Per-point ball radii and per-class ball counts for the k-NN statistic,
    built by ``knn_fit`` in O(n^2 q) time and memory of one row block.

    Every array is in label order: the training rows sorted by label
    (stable, ``_label_order``), so class b's rows are one slice, in the
    order of ``data.group(b)``. Radii are stored squared; every comparison
    in this module is done on squared distances so no square root ever
    enters a tie decision.
    """

    data: TrainingSet
    k: int
    features: np.ndarray        # (n, q), the training rows in label order
    radius_sq: np.ndarray       # (n,), squared k-th-neighbor radius per row
    counts_km1: np.ndarray      # (n, L), class counts within the (k-1)-radius
    counts_k: np.ndarray        # (n, L), class counts within the k-radius

    def __post_init__(self):
        for name in ("features", "radius_sq", "counts_km1", "counts_k"):
            getattr(self, name).setflags(write=False)


# elements of each temporary that one chunk of queries (``permutation._chunks``)
# or one k-NN fit block may build: 2**18 float64 are 2 MiB, a per-core L2
# cache; the timings that chose it are in CHANGES.md
_BLOCK_ELEMENTS = 2**18


def _label_order(d: TrainingSet) -> np.ndarray:
    """The rows of d sorted by label, stable: the order of a k-NN cache."""
    return np.argsort(d.labels, kind="stable")


def _class_counts(in_ball: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(rows, L): each row's in-ball columns counted per class, the columns
    in label order, so that class b is the b-th run of ``sizes[b - 1]``.
    Every class has a row, so each run is one nonempty ``reduceat`` slice."""
    return np.add.reduceat(in_ball, np.cumsum(sizes) - sizes, axis=1, dtype=np.int64)


def knn_fit(d: TrainingSet, k: int) -> KnnCaches:
    """Build the cached radii and counts driving the O(n) augmented-data
    rule, in the unscaled metric: ``_knn_fits`` on a block of one."""
    return _knn_fits([d], k)[0]


def _knn_fits(datas, k: int) -> list[KnnCaches]:
    """``knn_fit`` of each training set of a block with one n and one set of
    group sizes.

    The block's rows go in blocks, each row against the n points of its own
    set, rows and columns both in label order, so no n x n array is made,
    each class count is one contiguous slice and the caches come out in
    label order. A block's distances go into one (rows, n) buffer and its
    component difference, then its partition copy, into another, both made
    once per call rather than afresh for each block. With the in-ball masks
    a block holds about four (rows, n) arrays, so it takes a quarter of
    ``_BLOCK_ELEMENTS`` (timings in CHANGES.md). The time stays O(n^2 q) per
    set.

    A row's radii and counts do not depend on its block, its set's place in
    the block or the column order: ``_sq_dists`` gives each pair the same
    bits anywhere, and one partition at k - 1 puts the k - 1 smallest
    distances first, in no particular order, so their maximum is the
    (k-1)-th radius. (A partition at both k - 2 and k - 1 would place that
    radius too, but took 5x as long on a (32, 2000) block.)
    """
    first = datas[0]
    n, sizes = first.n, first.group_sizes
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..n={n}, got {k}")
    columns = np.stack([d.features[_label_order(d)] for d in datas])
    features = columns.reshape(-1, first.q)
    total = len(features)
    radius_sq = np.empty(total)
    counts_km1 = np.empty((total, first.n_classes), dtype=np.int64)
    counts_k = np.empty((total, first.n_classes), dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // (4 * n))
    buffers = np.empty((2, min(step, total), n))
    for start in range(0, total, step):
        rows = slice(start, start + step)
        dsq, part = buffers[:, : min(step, total - start)]
        against = columns if len(datas) == 1 else columns[np.arange(start, start + len(dsq)) // n]
        _sq_dists(features[rows], against, dsq, part)
        np.copyto(part, dsq)
        part.partition(k - 1, axis=1)
        radius_sq[rows] = part[:, k - 1]
        km1_radius_sq = part[:, : k - 1].max(axis=1) if k >= 2 else np.zeros(len(dsq))
        counts_km1[rows] = _class_counts(dsq <= km1_radius_sq[:, None], sizes)
        counts_k[rows] = _class_counts(dsq <= radius_sq[rows, None], sizes)
    per_set = (np.split(a, len(datas)) for a in (radius_sq, counts_km1, counts_k))
    return [KnnCaches(data=d, k=k, features=f, radius_sq=r, counts_km1=c1, counts_k=c)
            for d, f, r, c1, c in zip(datas, columns, *per_set)]


def knn_augmented_counts(caches: KnnCaches, x: np.ndarray, theta: int) -> np.ndarray:
    """Class counts N_{k,b} at every training point after adding (x, theta),
    (n, L) in the row order of ``caches.data``.

    Case split on the distance from each training point to x versus that
    point's cached k-th radius: strictly inside shrinks the ball to the
    (k-1)-radius, an exact tie keeps the k-radius, strictly outside leaves the
    counts untouched; the added point contributes to its own class whenever it
    is inside. O(n) per new point. Assumes the metric is held fixed. A point
    of the wrong length or with a NaN or infinite component raises
    ValueError.
    """
    d = caches.data
    check_label(theta, d.n_classes)
    dsq = _sq_dists(check_point(x, d.q)[None, :], caches.features)[0]
    counts = np.where((dsq < caches.radius_sq)[:, None], caches.counts_km1, caches.counts_k)
    counts[:, theta - 1] += dsq <= caches.radius_sq
    return counts[np.argsort(_label_order(d))]


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
    through the module-level ``fit_logistic``; ``edit`` and
    ``edited_values_each`` read only ``data``, so a statistic that is only
    edited is never fitted.
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

    @staticmethod
    def edited_values_each(stats, theta: int, kind: str, Xs) -> tuple[np.ndarray, np.ndarray]:
        """The module-level ``edited_values`` of each logistic statistic
        ``stats[s]`` at the edits ``Xs[s]``, none flagged, from one batched
        IRLS over all their edited sets, which must have one size. Each
        set's rows are those of its statistic's ``data`` (and the query, for
        ``"augment"``) in the order of their features alone, the order that
        ``fit_logistic`` sorts by label, so every fit has the bits of
        ``fit_logistic`` on the edited data. The statistics' features are
        stacked, each set's rows offset by the rows before its statistic's,
        and the points are scored once the fits are made, so their arrays do
        not add to the IRLS's."""
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
        values = np.empty((len(rows), 1 if kind == "loo" else stats[0].data.group(theta).size + 1))
        start = 0
        for stat, X in zip(stats, Xs):
            d, stat_beta = stat.data, beta[start : start + len(X)]
            pts = (X if kind == "augment" else d.features[X])[:, None, :]
            if kind != "loo":
                group = d.features[d.group(theta)]
                pts = np.concatenate([pts, np.broadcast_to(group, (len(X),) + group.shape)], axis=1)
            scores = stat_beta[:, :1] + np.sum(pts * stat_beta[:, None, 1:], axis=2)
            values[start : start + len(X)] = scores if theta == 1 else -scores
            start += len(X)
        return values, np.zeros(len(values), dtype=bool)


_LOGISTIC_MAX_ITER = 100
_LOGISTIC_GRAD_TOL = 1e-8
_LOGISTIC_COEF_CAP = 30.0


def fit_logistic(d: TrainingSet) -> LogisticStatistic:
    """Fit log-odds of class 2 as an affine function of the features by IRLS:
    ``_logistic_fits`` on a batch of one. The statistic comes back fitted,
    so a singular design warns of its ridge here."""
    stat = LogisticStatistic(d)
    _fit_logistic_each([stat])
    return stat


def _fit_logistic_each(stats) -> None:
    """Fit each statistic of ``stats``, of data with one n, not yet fitted,
    in one ``_logistic_fits`` call: each set's rows in the order of their
    features alone, offset by the rows of the sets before it, so each fit
    has the bits of ``fit_logistic`` on its data."""
    missing = [s for s in stats if "_fit" not in vars(s)]
    if not missing:
        return
    orders = [_canonical_order(s.data.features, np.zeros(s.data.n)) for s in missing]
    offsets = np.cumsum([0] + [s.data.n for s in missing[:-1]])
    beta, iterations, grad_norm, separated = _logistic_fits(
        np.vstack([s.data.features for s in missing]),
        np.stack(orders) + offsets[:, None],
        np.stack([s.data.labels[order] for s, order in zip(missing, orders)]))
    for b, stat in enumerate(missing):
        coefficients = beta[b, 1:].copy()
        coefficients.setflags(write=False)
        # the cached property's value, so that reading it fits nothing more
        vars(stat)["_fit"] = _LogisticFit(
            float(beta[b, 0]), coefficients, int(iterations[b]), float(grad_norm[b]), bool(separated[b]))


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
            warnings.warn("singular weighted normal equations; adding ridge 1e-8", stacklevel=_caller_stacklevel())
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
    ``edited_values_each`` uses the cached radii and counts.
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
        d = self.data
        check_label(theta, d.n_classes)
        dsq = _sq_dists(np.atleast_2d(pts) / self.scales, d.features[_label_order(d)] / self.scales)
        radius_sq = np.partition(dsq, self.k - 1, axis=1)[:, self.k - 1]
        counts = _class_counts(dsq <= radius_sq[:, None], d.group_sizes)
        return -(counts[:, theta - 1] / counts.sum(axis=1))

    def edit(self, edit: Remove | Augment | Relabel) -> "KnnStatistic":
        return KnnStatistic(self.data.edit(edit), self.k, self.scale_features)

    @staticmethod
    def edited_values_each(stats, theta: int, kind: str, Xs) -> tuple[np.ndarray, np.ndarray]:
        """The closed form of the module-level ``edited_values``, as in
        ``GaussianStatistic.edited_values_each``, for a fixed metric and a
        block of fits with one n, one set of group sizes and one k.

        An augment is the one-class case of ``_knn_augment_values``, which
        reads the cached counts through one (m, n) block of distances. A
        relabel moves no distance, so no radius moves and no ball total
        changes: a class-theta row j gains one theta-count exactly when its
        ball holds X_i, d^2(X_i, X_j) <= radius_sq[j], and X_i, which its own
        ball holds, gains one. That takes one (m, N) block of distances per
        fit, read off the cache at X_i's label position and class theta's
        slice. A ``"loo"`` removal takes one (m, n) block, each row against
        its own fit's rows in label order: X_i's radius in the data without
        it is its (k+1)-th smallest distance, as its own 0 is in the block,
        and its ball's counts lose X_i itself. A removal that scores the
        class rows moves their radii, and with feature scaling the scales
        move with the edited data, so those edits are all flagged.
        """
        first = stats[0]
        m, k, sizes = sum(len(X) for X in Xs), first.k, first.data.group_sizes
        group_size = int(sizes[theta - 1])
        if first.scale_features or kind == "remove":
            return np.zeros((m, 1 if kind == "loo" else group_size + 1)), np.ones(m, dtype=bool)
        unflagged = np.zeros(m, dtype=bool)
        if kind == "augment":
            (query, members), = _knn_augment_values(stats, Xs, range(theta, theta + 1))
            return np.column_stack([query, members]), unflagged
        if kind == "loo":
            columns = np.stack([s.data.features[_label_order(s.data)] for s in stats])
            if len(stats) > 1:
                columns = columns[np.repeat(np.arange(len(stats)), [len(X) for X in Xs])]
            dsq = _sq_dists(np.concatenate([s.data.features[X] for s, X in zip(stats, Xs)]), columns)
            # the (k+1)-th smallest distance, as the row's own 0 is in the block
            counts = _class_counts(dsq <= np.partition(dsq, k, axis=1)[:, k, None], sizes)
            counts[np.arange(m), np.concatenate([s.data.labels[X] for s, X in zip(stats, Xs)]) - 1] -= 1
            return -(counts[:, theta - 1 : theta] / counts.sum(axis=1, keepdims=True)), unflagged
        values = np.empty((m, group_size + 1))
        group = slice(int(sizes[: theta - 1].sum()), int(sizes[:theta].sum()))
        start = 0
        for stat, X in zip(stats, Xs):
            caches, rows = stat.caches, slice(start, start + len(X))
            at = np.argsort(_label_order(stat.data))[X]
            totals = caches.counts_k.sum(axis=1)
            values[rows, 0] = -((caches.counts_k[at, theta - 1] + 1) / totals[at])
            holds_i = _sq_dists(caches.features[at], caches.features[group]) <= caches.radius_sq[group]
            values[rows, 1:] = -((caches.counts_k[group, theta - 1] + holds_i) / totals[group])
            start += len(X)
        return values, unflagged


def _knn_augment_values(stats, Xs, classes: range) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each class theta of ``classes``, consecutive labels, the values
    under each fit ``stats[s]`` augmented with (x, theta) at each query x of
    ``Xs[s]`` and at the class-theta rows: an (m,) column and an
    (m, N_theta) block over the queries of every fit in turn, the two parts
    of ``edited_values`` of kind ``"augment"``. The fits share n, group sizes
    and k, and the caches of all those that lack them are built in one
    ``_knn_fits`` (a lone fit builds its own through ``knn_fit``).

    One (m, n) block of distances against each query's fit's cached rows,
    in label order, one partition at k - 2 and one in-ball mask serve every
    class. The query's own ball reaches its (k-1)-th nearest training point,
    since x itself sits at distance 0. A member j's value,
    -(own_j + holds_x) / (total_j + holds_x), depends on theta only through
    j's own class, so the members of all the classes are scored in one
    pass, and each class takes its slice: ``knn_augmented_counts``' case
    split, read through the own-class and total counts of the cache, where
    a row that x falls strictly inside takes its (k-1)-ball and x joins the
    ball of every row whose k-ball holds it.
    """
    first = stats[0]
    missing = [s for s in stats if "caches" not in vars(s)]
    if len(missing) > 1:
        for stat, caches in zip(missing, _knn_fits([s.data for s in missing], first.k)):
            vars(stat)["caches"] = caches  # the cached property's value
    sizes = first.data.group_sizes
    positions, own = np.arange(first.data.n), np.repeat(np.arange(first.data.n_classes), sizes)
    # the ball totals are row sums: einsum adds each short row in one loop,
    # where sum(axis=1) starts a reduction per row, the larger share of a
    # query chunk's set-up at n = 2000 (CHANGES.md)
    per_fit = [(c.features, c.radius_sq, c.counts_km1[positions, own], c.counts_k[positions, own],
                np.einsum("ij->i", c.counts_km1), np.einsum("ij->i", c.counts_k)) for c in (s.caches for s in stats)]
    owner = np.repeat(np.arange(len(stats)), [len(X) for X in Xs])

    def each(arrays):  # each query's row of a per-fit array; a lone fit's one row broadcasts
        return np.stack(arrays)[owner] if len(stats) > 1 else arrays[0][None]

    columns, radius_sq, own_km1, own_k, total_km1, total_k = map(each, zip(*per_fit))
    X, k = np.concatenate(Xs), first.k
    dsq = _sq_dists(X, columns)
    radius_x = np.partition(dsq, k - 2, axis=1)[:, k - 2] if k >= 2 else np.zeros(len(X))
    in_ball = dsq <= radius_x[:, None]
    ball = in_ball.sum(axis=1) + 1
    bounds = [0, *itertools.accumulate(sizes[: classes[-1]].tolist())]
    span = slice(bounds[classes[0] - 1], bounds[-1])
    members, radius_sq = dsq[:, span], radius_sq[:, span]
    inside, holds_x = members < radius_sq, members <= radius_sq
    own_x = np.where(inside, own_km1[:, span], own_k[:, span])
    own_x += holds_x
    total_x = np.where(inside, total_km1[:, span], total_k[:, span])
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


def edited_values(stats, theta: int, kind: str, Xs) -> np.ndarray:
    """(m, N + 1): for each single-point edit ``Xs[s]`` of each statistic
    ``stats[s]``, in order, the statistic at the edited point and at the
    class-theta rows under the edited fit. The statistics are of one type,
    with one n and one set of group sizes (and one k for k-NN). ``kind``
    names the edit of each row of ``Xs[s]``: ``"augment"`` adds the query x
    to class theta, ``"relabel"`` moves training row i (``Xs[s]`` holds row
    indices, all of one class, the same for every s) to class theta, and
    ``"remove"`` removes it; ``"loo"`` removes it and scores it alone,
    (m, 1). The one-fit case is ``edited_values([stat], theta, kind, [X])``.

    The type's static ``edited_values_each``, where it has one, gives the
    whole block's values in one call without making the edits and flags
    those it cannot score; without one every edit is flagged. Each flagged
    edit is then made by ``stat.edit`` and scored by ``evaluate``, statistic
    by statistic and edit by edit, so every value comes back finished, and
    a degenerate edit raises DegenerateFitError where a loop over the
    statistics would, with the removed row as ``swap_index`` for ``"loo"``.
    """
    if kind not in _EDIT_KINDS:
        raise ValueError(f"unknown edit kind {kind!r}; expected one of {_EDIT_KINDS}")
    closed_form = getattr(type(stats[0]), "edited_values_each", None)
    if closed_form is not None:
        values, refit = closed_form(stats, theta, kind, Xs)
    else:
        m = sum(len(X) for X in Xs)
        values = np.zeros((m, 1 if kind == "loo" else stats[0].data.group(theta).size + 1))
        refit = np.ones(m, dtype=bool)
    start = 0
    for stat, X in zip(stats, Xs):
        d, group = stat.data, stat.data.group(theta)
        for j in np.flatnonzero(refit[start : start + len(X)]):
            x = X[j]
            if kind == "augment":
                edit, pts = Augment(x, theta), np.vstack([x, d.features[group]])
            else:
                edit = Relabel(x, theta) if kind == "relabel" else Remove(x)
                pts = d.features[[x] if kind == "loo" else np.append(x, group)]
            try:
                values[start + j] = stat.edit(edit).evaluate(theta, pts)
            except DegenerateFitError as err:
                if kind == "loo":
                    err.swap_index = int(x)
                raise
        start += len(X)
    return values
