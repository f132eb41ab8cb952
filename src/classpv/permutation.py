"""Nonparametric p-values from group permutations, with three computation modes.

Under the hypothesis that a new observation belongs to class theta, the new
feature vector and the class-theta training features are exchangeable, so the
rank of the test statistic among its swapped-in versions is uniform. The
resulting p-value takes values on the grid {1/(N+1), ..., 1} where N is the
group size, and is valid for every sample size.

Modes:

* ``exact-swap``   - reference implementation: one refit per group member,
                     each on the data with that member swapped for the query.
* ``valid-shortcut`` - default: a single fit of the data augmented with
                     (query, theta), or its closed form; keeps the
                     finite-sample guarantee at a fraction of the cost.
* ``naive``        - compares against the unswapped training statistics; the
                     cheapest, asymptotically equivalent, but without the
                     finite-sample guarantee. Retained because many packages'
                     ROC machinery implicitly uses it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PValueVector, Replace, TrainingSet, check_label, check_point, rank_pvalue
from .estimators import (
    DegenerateFitError,
    GaussianStatistic,
    KnnStatistic,
    TypicalityStatistic,
    _refit_values,
    default_k,
    fit_logistic,
    fit_pooled_gaussian,
    typicality_index,
)

__all__ = [
    "MODES",
    "PermutationMethod",
    "STATISTICS",
    "pvalue",
    "pvalue_vector",
    "pvalues",
]

STATISTICS = ("plugin", "knn", "logistic", "typicality")
MODES = ("exact-swap", "valid-shortcut", "naive")


@dataclass(frozen=True)
class PermutationMethod:
    """A statistic family plus the computation mode and its configuration.

    ``exact-swap`` and ``valid-shortcut`` carry the finite-sample validity
    guarantee; ``naive`` does not. ``typicality`` is not a permutation
    statistic at all: it is an exact-pivot p-value evaluated directly, and the
    mode is ignored for it.
    """

    statistic: str = "plugin"
    mode: str = "valid-shortcut"
    k: int | None = None
    scale_features: bool = False

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}; expected one of {STATISTICS}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")

    def fit(self, d: TrainingSet):
        """Fit the configured statistic on d."""
        if self.statistic == "knn":
            k = self.k if self.k is not None else default_k(d.n)
            return KnnStatistic(d, k, self.scale_features)
        if self.statistic == "logistic":
            return fit_logistic(d)
        fit = fit_pooled_gaussian(d)
        return TypicalityStatistic(d, fit.means, fit.sigma) if self.statistic == "typicality" else fit


# elements of the largest temporary block one chunk of queries may build
_BLOCK_ELEMENTS = 2**20


def pvalues(fitted, mode: str, theta: int, X: np.ndarray) -> np.ndarray:
    """P-values for class theta at each row of the (m, q) batch X, from a
    statistic fitted on the training set; returns (m,).

    ``exact-swap`` refits once per group member, with that member replaced by
    the query, and evaluates the refit at the member; a degenerate swapped fit
    aborts the whole p-value (skipping an index would break exchangeability)
    and the offending swap index rides on the error. ``valid-shortcut``
    scores the query and the class under the fit augmented with (query,
    theta): in closed form for the plug-in statistic, from the cached ball
    counts for k-NN in a fixed metric, and by refitting otherwise. ``naive``
    compares against the unswapped training statistics, all queries in one
    evaluation. A ``TypicalityStatistic``, the pooled Gaussian fit as its own
    type, is an exact pivot, evaluated directly in every mode. Pass one fitted
    statistic (``PermutationMethod.fit``) to many calls to reuse it: the
    statistic is the fit, holding its training data and parameters.

    The fitted statistic's ``evaluate(theta, pts)`` maps an (m, q) batch to m
    values, larger meaning class theta is less plausible. It must be symmetric
    in the class's training rows and give identical rows of one call
    identical bits: outside exact-swap, queries and the class-theta rows are
    scored in one call, so a member equal to a query ties with it in the
    ``>=`` count. A row's value must not depend on the rest of the call
    either, so every query's p-value is the same in any batch, and so at any
    batch width, in every mode.
    """
    d = fitted.data
    check_label(theta, d.n_classes)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != d.q:
        raise ValueError(f"query batch has shape {X.shape}, expected (m, {d.q})")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature vector contains non-finite values")
    if isinstance(fitted, TypicalityStatistic):
        return typicality_index(fitted, theta, X)
    if mode == "exact-swap":
        return np.array([_exact_swap_pvalue(fitted, theta, x) for x in X])
    out = np.empty(X.shape[0])
    for chunk in _chunks(d, theta, X.shape[0]):
        reference, values = _scores(fitted, mode, theta, X[chunk])
        out[chunk] = rank_pvalue(values, reference)
    return out


def _chunks(d: TrainingSet, theta: int, m: int) -> list[slice]:
    """Slices of a batch of m queries for class theta, small enough that a
    chunk's temporaries hold about ``_BLOCK_ELEMENTS`` elements each."""
    per_query = max(d.n, (d.group(theta).size + 1) * d.n_classes) * max(1, d.q)
    step = max(1, _BLOCK_ELEMENTS // per_query)
    return [slice(start, start + step) for start in range(0, m, step)]


def _scores(fitted, mode: str, theta: int, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The statistic at the m queries, and at the class-theta rows: (N,)
    under the unedited fit in ``naive`` mode, else (m, N), one row under each
    query's augmented fit."""
    if mode == "naive":
        d = fitted.data
        values = fitted.evaluate(theta, np.vstack([X, d.features[d.group(theta)]]))
        return values[: X.shape[0]], values[X.shape[0] :]
    if isinstance(fitted, (GaussianStatistic, KnnStatistic)):
        values = fitted.augmented_values(theta, X)
    else:
        values = np.array([_refit_values(fitted, theta, x) for x in X])
    return values[:, 0], values[:, 1:]


def _exact_swap_pvalue(fitted, theta: int, x: np.ndarray) -> float:
    d = fitted.data
    group = d.group(theta)
    reference = fitted.evaluate(theta, x[None, :])[0]
    values = np.empty(group.size)
    for j, i in enumerate(group):
        try:
            swapped = fitted.edit(Replace(int(i), x))
        except DegenerateFitError as err:
            err.swap_index = int(i)
            raise
        values[j] = swapped.evaluate(theta, d.features[i][None, :])[0]
    return rank_pvalue(values, reference)


def pvalue(fitted, mode: str, theta: int, x: np.ndarray) -> float:
    """The p-value for class theta at the single point x: ``pvalues`` at m = 1."""
    return float(pvalues(fitted, mode, theta, np.asarray(x, dtype=float)[None, :])[0])


def warn_small_groups(d: TrainingSet, alphas: Sequence[float], left_out: int = 0) -> None:
    """Warn when some group is too small for its p-value ever to drop below alpha.

    ``left_out`` rows of a group are set aside before its p-value is computed:
    1 for ``crossval``, where a row's own-class p-value lies on {j/N}.
    """
    sizes = d.group_sizes - left_out
    for alpha in alphas:
        too_small = np.flatnonzero(sizes + 1 < 1.0 / alpha)
        for idx in too_small:
            points = f"{int(d.group_sizes[idx])} training points"
            if left_out:
                points += f", {int(sizes[idx])} once {left_out} is left out"
            warnings.warn(
                f"class {d.label_names[idx]!r} has {points}, so its "
                f"permutation p-value is never below 1/{int(sizes[idx]) + 1} and the class can "
                f"never be excluded at level alpha={alpha} "
                f"(need group size >= {int(np.ceil(1.0 / alpha)) - 1 + left_out})",
                stacklevel=3,
            )


def pvalue_vector(
    method: PermutationMethod,
    d: TrainingSet,
    x: np.ndarray,
    fitted=None,
) -> PValueVector:
    """P-values for every class at the query point x, per the method's mode.

    Pass ``fitted`` (from ``method.fit(d)``) to reuse one fit across many
    queries.
    """
    x = check_point(x, d.q)
    if fitted is None:
        fitted = method.fit(d)
    return PValueVector(np.array([pvalue(fitted, method.mode, theta, x) for theta in range(1, d.n_classes + 1)]))
