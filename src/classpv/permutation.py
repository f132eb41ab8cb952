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

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Augment, PValueVector, Relabel, TrainingSet, check_finite, check_label, check_point, rank_pvalue
from .estimators import (
    _BLOCK_ELEMENTS,
    KnnStatistic,
    LogisticStatistic,
    TypicalityStatistic,
    _logistic_edited_values,
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
    "pvalue_table",
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
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")

    def fit(self, d: TrainingSet):
        """Fit the configured statistic on d. The k-NN caches and the
        logistic fit are made when first read, so a k above n is rejected
        here, as ``knn_fit`` would reject it."""
        if self.statistic == "knn":
            k = self.k if self.k is not None else default_k(d.n)
            if k > d.n:
                raise ValueError(f"k must lie in 1..n={d.n}, got {k}")
            return KnnStatistic(d, k, self.scale_features)
        if self.statistic == "logistic":
            return LogisticStatistic(d)
        fit = fit_pooled_gaussian(d)
        return TypicalityStatistic(d, fit.means, fit.sigma) if self.statistic == "typicality" else fit


def pvalues(fitted, mode: str, theta: int, X: np.ndarray) -> np.ndarray:
    """P-values for class theta at each row of the (m, q) batch X, from a
    statistic fitted on the training set; returns (m,). The one-class entry
    point: ``pvalue_table`` gives every class's column at once.

    ``valid-shortcut`` scores each query x and the class under the fit
    augmented with (x, theta). ``exact-swap`` edits the fit by
    ``Augment(x, theta)`` and ranks the ``"loo"`` value of x's row, x under
    the augmented fit less x (the unedited fit), among those of the class's
    members, each under the fit with x swapped in for it, the augmented fit
    less that member: one ``Augment`` per query, all through one
    ``_swap_pvalues``. Both take their values from ``edited_values`` on each
    chunk of the batch or class: the statistic's closed form where it has one
    (the plug-in and fixed-metric k-NN, or the logistic's batched IRLS, which
    fits every edited set of a chunk at once, and in exact-swap mode the
    ``"loo"`` sets of several queries, up to half ``_BLOCK_ELEMENTS`` design
    elements), a refit for each edit that form flags, made in query order. A
    logistic statistic fits when first read, and these two modes read only its
    ``data``, so neither fits ``fitted`` or the augmented set: the batched
    IRLS fits the edited sets whose values it returns, and no more. A
    degenerate removal aborts the p-value (skipping a member would break
    exchangeability) with the member's row as ``swap_index``. ``naive`` scores
    the class once under the unedited fit and ranks each chunk of queries
    against those values. Every mode counts by ``rank_pvalue``, so all share
    one tie rule. A ``TypicalityStatistic`` is an exact pivot, evaluated
    directly in every mode. Pass one fitted statistic
    (``PermutationMethod.fit``) to many calls to reuse it.

    The statistic owes ``data``, ``edit`` and ``evaluate(theta, pts)``: m
    values for an (m, q) batch, larger meaning class theta is less plausible,
    symmetric in the class's rows, equal bits for equal rows of one call (a
    member equal to a query must tie with it) and a row's bits in any call
    (a p-value must not depend on its batch, and naive mode scores the
    class and the queries in separate calls). ``edit(Augment(x, theta))`` and
    ``edit(Remove(i))`` return the statistic on ``data.augment(x, theta)``,
    x last, and on ``data.remove(i)``, as ``TrainingSet.edit`` gives them.
    """
    check_label(theta, fitted.data.n_classes)
    return _pvalues_each([fitted], mode, theta, [_checked_batch(fitted, mode, X)])[0]


def pvalue_table(fitted, mode: str, X: np.ndarray) -> np.ndarray:
    """P-values for every class at each row of the (m, q) batch X: (m, L),
    column theta - 1 holding the bits of ``pvalues(fitted, mode, theta, X)``.

    Valid-shortcut fixed-metric k-NN scores every class of a chunk of
    queries from one (m, n) block of distances, one partition and one
    in-ball mask (``KnnStatistic._augment_values``). A chunk holds about
    four (m, n) arrays at a time, so it takes ``_BLOCK_ELEMENTS // (4 n)``
    queries, as a ``knn_fit`` block takes rows (page-fault counts in
    CHANGES.md). Every other statistic and mode takes each column from
    ``pvalues``' kernel.
    """
    X = _checked_batch(fitted, mode, X)
    classes = range(1, fitted.data.n_classes + 1)
    if mode == "valid-shortcut" and isinstance(fitted, KnnStatistic) and not fitted.scale_features:
        table = np.empty((len(X), len(classes)))
        step = max(1, _BLOCK_ELEMENTS // (4 * fitted.data.n))
        for start in range(0, len(X), step):
            rows = slice(start, start + step)
            for theta, (query, members) in zip(classes, fitted._augment_values(X[rows], classes)):
                table[rows, theta - 1] = rank_pvalue(members, query)
        return table
    return np.column_stack([_pvalues_each([fitted], mode, theta, [X])[0] for theta in classes])


def _checked_batch(fitted, mode: str, X: np.ndarray) -> np.ndarray:
    """The query batch X as a finite (m, q) float array, for a known mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != fitted.data.q:
        raise ValueError(f"query batch has shape {X.shape}, expected (m, {fitted.data.q})")
    return check_finite(X)


def _pvalues_each(fitted: Sequence, mode: str, theta: int, Xs: Sequence[np.ndarray], rows: bool = False) -> list[np.ndarray]:
    """``pvalues(fitted[s], mode, theta, Xs[s])`` for each s, the arguments
    unchecked, the statistics of one kind with data of one size. The two
    exchangeable modes score the edits of all the statistics together:
    valid-shortcut through ``_values_each``, and exact-swap through one
    ``_swap_pvalues``, so the edited sets of a block of logistic statistics
    share their batched IRLS.

    With ``rows``, each ``Xs[s]`` holds training rows of ``fitted[s]``, all
    of one class y, the same for every s, and each row i is scored as a
    future observation: in the exchangeable modes on D with y_i := theta
    (``Relabel(i, theta)``; D itself for y = theta, whose class values are
    ranked within the class), and in naive mode on D without row i
    (``"remove"``). That is the leave-one-out p-value of ``crossval_pvalues``.
    Typicality takes no rows."""
    if isinstance(fitted[0], TypicalityStatistic):
        return [typicality_index(f, theta, X) for f, X in zip(fitted, Xs)]
    own = rows and theta in fitted[0].data.labels[Xs[0]]
    if own and mode == "valid-shortcut":
        groups = [f.data.group(theta) for f in fitted]
        values = [f.evaluate(theta, f.data.features[group]) for f, group in zip(fitted, groups)]
        return [rank_pvalue(v, v[np.searchsorted(group, X)], own=True) for v, group, X in zip(values, groups, Xs)]
    if mode == "valid-shortcut":
        kind = "relabel" if rows else "augment"
        return _values_each(fitted, theta, kind, Xs, lambda values: rank_pvalue(values[:, 1:], values[:, 0]))
    if mode == "exact-swap":
        if own:
            swapped = _swap_pvalues(fitted, theta, Xs)
        else:  # a relabelled row keeps its index; a query is the augmented data's last row
            edits = [(f, x) for f, X in zip(fitted, Xs) for x in X]
            edited = (f.edit(Relabel(x, theta) if rows else Augment(x, theta)) for f, x in edits)
            swapped = _swap_pvalues(edited, theta, [x if rows else f.data.n for f, x in edits])
        return np.split(swapped, np.cumsum([len(X) for X in Xs])[:-1])
    if rows:
        return _values_each(fitted, theta, "remove", Xs, lambda values: rank_pvalue(values[:, 1:], values[:, 0], own=own))
    out = [np.empty(len(X)) for X in Xs]
    for f, X, pv in zip(fitted, Xs, out):
        members = f.evaluate(theta, f.data.features[f.data.group(theta)])
        for chunk in _chunks(f.data, theta, len(X)):
            pv[chunk] = rank_pvalue(members, f.evaluate(theta, X[chunk]))
    return out


def _swap_pvalues(edited: Iterable, theta: int, rows: Iterable) -> np.ndarray:
    """Exact-swap p-values of the class-theta rows ``rows[e]`` (an index or
    an array of them) of each edited fit ``edited[e]``, concatenated, each
    its ``"loo"`` value ranked among those of the class's other rows. The
    ``"loo"`` value of a member is its value with the row swapped in for it,
    and the row's own is its value under the fit without it, so a member
    equal to the row ties with it.

    ``edited`` may be a generator that makes each edit when drawn. A fit
    whose values can refit (any but the logistic) is scored as soon as it
    is drawn, so edits and refits keep the loop order. Logistic fits are
    held while their ``"loo"`` sets hold at most half ``_BLOCK_ELEMENTS``
    design elements, the batch size at which the IRLS ran fastest per set
    (timings in CHANGES.md); then every such set of the held fits goes
    through one batched IRLS, a chunk of ``_chunks`` at a time."""
    out, held = [], []

    def score():
        members = [stat.data.group(theta) for stat, _ in held]
        loo = _values_each([stat for stat, _ in held], theta, "loo", members, lambda values: values[:, 0])
        for values, group, (_, row) in zip(loo, members, held):
            out.append(rank_pvalue(values, values[np.searchsorted(group, np.atleast_1d(row))], own=True))
        held.clear()

    for stat, row in zip(edited, rows):
        held.append((stat, row))
        d = stat.data
        # a fit's "loo" sets: one per member, of n - 1 rows and q + 1 columns
        design = d.group(theta).size * (d.n - 1) * (d.q + 1)
        if not isinstance(stat, LogisticStatistic) or (len(held) + 1) * design > _BLOCK_ELEMENTS // 2:
            score()
    if held:
        score()
    return np.concatenate(out) if out else np.empty(0)


def _values_each(stats: Sequence, theta: int, kind: str, Xs: Sequence[np.ndarray], reduce) -> list[np.ndarray]:
    """For each statistic ``stats[s]``, ``reduce`` of its ``edited_values``
    at the edits ``Xs[s]``, a 1-D array of one entry per edit. The edits of
    all the statistics go in order, in chunks of ``_chunks`` on the first
    statistic's data, so one chunk may span statistics: a chunk of logistic
    statistics takes one ``_logistic_edited_values``, and any other
    statistic's part of it one ``edited_values``."""
    bounds = [0, *itertools.accumulate(len(X) for X in Xs)]
    out = np.empty(bounds[-1])
    for chunk in _chunks(stats[0].data, theta, bounds[-1]):
        start, stop = chunk.start, min(chunk.stop, bounds[-1])
        spanned = [s for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if lo < stop and hi > start]
        parts = [Xs[s][max(start - bounds[s], 0) : stop - bounds[s]] for s in spanned]
        if isinstance(stats[spanned[0]], LogisticStatistic):
            values = _logistic_edited_values([stats[s] for s in spanned], theta, kind, parts)
        else:
            values = [edited_values(stats[s], theta, kind, part) for s, part in zip(spanned, parts)]
        out[start:stop] = np.concatenate([reduce(v) for v in values])
    return [out[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


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
    """P-values for every class at the query point x, per the method's mode:
    the one row of ``pvalue_table`` on a fit of d."""
    x = check_point(x, d.q)
    return PValueVector(pvalue_table(method.fit(d), method.mode, x[None, :])[0])
