"""Nonparametric p-values from group permutations, with three computation modes.

Under the hypothesis that a new observation belongs to class theta, the new
feature vector and the class-theta training features are exchangeable, so the
rank of the test statistic among its swapped-in versions is uniform. The
resulting p-value takes values on the grid {1/(N+1), ..., 1} where N is the
group size, and is valid for every sample size.

Modes:

* ``exact-swap``   - reference implementation: leave-one-out of the data
                     augmented with (query, theta) swaps the query in.
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

from .core import Augment, PValueVector, TrainingSet, check_label, check_point, rank_pvalue
from .estimators import (
    _BLOCK_ELEMENTS,
    KnnStatistic,
    LogisticStatistic,
    TypicalityStatistic,
    default_k,
    edited_values,
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
        """Fit the configured statistic on d. The k-NN caches and the
        logistic fit are made when first read."""
        if self.statistic == "knn":
            k = self.k if self.k is not None else default_k(d.n)
            return KnnStatistic(d, k, self.scale_features)
        if self.statistic == "logistic":
            return LogisticStatistic(d)
        fit = fit_pooled_gaussian(d)
        return TypicalityStatistic(d, fit.means, fit.sigma) if self.statistic == "typicality" else fit


def pvalues(fitted, mode: str, theta: int, X: np.ndarray) -> np.ndarray:
    """P-values for class theta at each row of the (m, q) batch X, from a
    statistic fitted on the training set; returns (m,).

    ``valid-shortcut`` scores each query x and the class under the fit
    augmented with (x, theta). ``exact-swap`` edits the fit by
    ``Augment(x, theta)`` and ranks the ``"loo"`` value of x's row, x under
    the augmented fit less x (the unedited fit), among those of the class's
    members, each under the fit with x swapped in for it, the augmented fit
    less that member (``_swap_pvalues``). Both take their values from
    ``edited_values`` on each chunk of the batch or class: the statistic's
    closed form where it has one (the plug-in and fixed-metric k-NN, or one
    batched IRLS for the logistic), a refit for each edit that form flags.
    A logistic statistic fits when first read, and these two modes read only
    its ``data``, so neither fits ``fitted`` or the augmented set: the
    batched IRLS fits the edited sets whose values it returns, and no more.
    A degenerate removal aborts the p-value (skipping a member would break
    exchangeability) with the member's row as ``swap_index``. ``naive``
    scores against the unedited fit. A ``TypicalityStatistic`` is an exact
    pivot, evaluated directly in every mode. Pass one fitted statistic
    (``PermutationMethod.fit``) to many calls to reuse it.

    The statistic owes ``data``, ``edit`` and ``evaluate(theta, pts)``: m
    values for an (m, q) batch, larger meaning class theta is less plausible,
    symmetric in the class's rows, equal bits for equal rows of one call (a
    member equal to a query must tie with it) and a row's bits in any call
    (a p-value must not depend on its batch). ``edit(Augment(x, theta))`` and
    ``edit(Remove(i))`` return the statistic on ``data.augment(x, theta)``,
    x last, and on ``data.remove(i)``, as ``TrainingSet.edit`` gives them.
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
    out = np.empty(X.shape[0])
    if mode == "naive":
        for chunk in _chunks(d, theta, X.shape[0]):
            queries = X[chunk]
            values = fitted.evaluate(theta, np.vstack([queries, d.features[d.group(theta)]]))
            out[chunk] = rank_pvalue(values[len(queries) :], values[: len(queries)])
    elif mode == "valid-shortcut":
        for chunk in _chunks(d, theta, X.shape[0]):
            values = edited_values(fitted, theta, "augment", X[chunk])
            out[chunk] = rank_pvalue(values[:, 1:], values[:, 0])
    else:
        for i, x in enumerate(X):
            out[i] = _swap_pvalues(fitted.edit(Augment(x, theta)), theta, [d.n])[0]
    return out


def _swap_pvalues(edited, theta: int, rows) -> np.ndarray:
    """Exact-swap p-values of the class-theta ``rows`` of an edited fit, each
    its ``"loo"`` value ranked among those of the class's other rows. The
    ``"loo"`` value of a member is its value with the row swapped in for it,
    and the row's own is its value under the fit without it, so a member
    equal to the row ties with it."""
    members = edited.data.group(theta)
    loo = np.concatenate([edited_values(edited, theta, "loo", members[chunk])[:, 0]
                          for chunk in _chunks(edited.data, theta, members.size)])
    return _rank_in_group(loo)[np.searchsorted(members, rows)]


def _rank_in_group(values: np.ndarray) -> np.ndarray:
    """Rank p-value of each entry against the other entries of its class,
    #{values >= entry} / len(values) (the entry stands for its +1), from one
    sort."""
    ranked = np.sort(values)
    return (values.size - np.searchsorted(ranked, values, side="left")) / values.size


def _chunks(d: TrainingSet, theta: int, m: int) -> list[slice]:
    """Slices of a batch of m queries for class theta, small enough that a
    chunk's temporaries hold about ``_BLOCK_ELEMENTS`` elements each."""
    per_query = max(d.n, (d.group(theta).size + 1) * d.n_classes) * max(1, d.q)
    step = max(1, _BLOCK_ELEMENTS // per_query)
    return [slice(start, start + step) for start in range(0, m, step)]


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


def pvalue_vector(method: PermutationMethod, d: TrainingSet, x: np.ndarray) -> PValueVector:
    """P-values for every class at the query point x, per the method's mode."""
    x = check_point(x, d.q)
    fitted = method.fit(d)
    return PValueVector(np.array([pvalue(fitted, method.mode, theta, x) for theta in range(1, d.n_classes + 1)]))
