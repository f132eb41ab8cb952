"""Leave-one-out evaluation of a p-value method: the cross-validated p-value
matrix and the separability summaries built on it (inclusion probabilities,
pattern probabilities, empirical ROC step functions, empirical risk)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Remove, StructuralError, TrainingSet, check_label
from .permutation import PermutationMethod, _pvalues_each, pvalue_table

__all__ = [
    "CrossValMatrix",
    "RocCurve",
    "crossval_pvalues",
    "empirical_inclusion",
    "empirical_pattern",
    "empirical_risk",
    "roc_curve",
    "roc_sup_distance",
]


@dataclass(frozen=True, eq=False)
class CrossValMatrix:
    """n x L matrix of p-values, row i computed on the data without row i.

    Entry (i, theta) lives on the grid {j / (N'_theta + 1)} where N'_theta is
    the group size after removing row i, so the grid differs between rows of
    the hypothesized class and the others; ``grid_step`` records it.
    """

    pvalues: np.ndarray      # (n, L)
    labels: np.ndarray       # (n,)
    group_sizes: np.ndarray  # (L,), sizes of the full data
    method: PermutationMethod

    def __post_init__(self):
        for name in ("pvalues", "labels", "group_sizes"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return self.pvalues.shape[0]

    @property
    def n_classes(self) -> int:
        return self.pvalues.shape[1]

    def group(self, b: int) -> np.ndarray:
        check_label(b, self.n_classes)
        return np.flatnonzero(self.labels == b)

    def grid_step(self, i: int, theta: int) -> float:
        """Smallest attainable p-value for entry (i, theta)."""
        loo = int(self.group_sizes[theta - 1]) - (1 if int(self.labels[i]) == theta else 0)
        return 1.0 / (loo + 1)


def crossval_pvalues(d: TrainingSet, method: PermutationMethod) -> CrossValMatrix:
    """Treat each training row in turn as a future observation.

    Row i of the result holds the p-values of X_i on the training set without
    row i, each class theta scored on the leave-one-out set of its mode: D
    with y_i := theta in ``valid-shortcut`` and ``exact-swap`` (D itself for
    theta = y_i), D without row i in ``naive``, through
    ``_pvalues_each(..., rows=True)``, one class of rows at a time, the class
    theta first except in naive mode. Typicality, an exact pivot, scores X_i
    by ``pvalue_table`` on the fit without row i. Requires every class to
    keep at least one member after removal, and a k-NN k of at most n - 1,
    the rows of a leave-one-out set.
    """
    if np.any(d.group_sizes < 2):
        bad = int(np.argmin(d.group_sizes))
        raise StructuralError(
            f"class {d.label_names[bad]!r} has a single member; leave-one-out would empty it"
        )
    base = method.fit(d)
    if method.statistic == "knn" and base.k > d.n - 1:
        raise ValueError(f"k must lie in 1..n-1={d.n - 1} on leave-one-out sets, got {base.k}")
    out = np.empty((d.n, d.n_classes))
    classes = range(1, d.n_classes + 1)
    if method.statistic == "typicality":
        for i in range(d.n):
            out[i] = pvalue_table(base.edit(Remove(i)), method.mode, d.features[i : i + 1])[0]
    else:
        for theta in classes:
            # the exchangeable modes score class theta first, on D itself
            order = classes if method.mode == "naive" else [theta, *(y for y in classes if y != theta)]
            for y in order:
                rows = d.group(y)
                out[rows, theta - 1] = _pvalues_each([base], method.mode, theta, [rows], rows=True)[0]
    return CrossValMatrix(pvalues=out, labels=np.array(d.labels), group_sizes=d.group_sizes, method=method)


def empirical_inclusion(cv: CrossValMatrix, alpha: float, b: int, theta: int) -> float:
    """Fraction of class-b rows whose level-alpha region contains theta (strict >)."""
    check_label(theta, cv.n_classes)
    rows = cv.group(b)
    return float(np.count_nonzero(cv.pvalues[rows, theta - 1] > alpha)) / rows.size


def _region_masks(cv: CrossValMatrix, alpha: float, rows: np.ndarray) -> np.ndarray:
    return cv.pvalues[rows] > alpha


def empirical_pattern(cv: CrossValMatrix, alpha: float, b: int, pattern: frozenset[int] | set[int]) -> float:
    """Fraction of class-b rows whose level-alpha region equals the given label set."""
    rows = cv.group(b)
    want = np.zeros(cv.n_classes, dtype=bool)
    for theta in pattern:
        check_label(theta, cv.n_classes)
        want[theta - 1] = True
    masks = _region_masks(cv, alpha, rows)
    return float(np.count_nonzero(np.all(masks == want[None, :], axis=1))) / rows.size


def observed_patterns(cv: CrossValMatrix, alpha: float, b: int) -> list[frozenset[int]]:
    """Distinct regions realized by class-b rows at level alpha, sorted for stable reports."""
    # one np.unique over the region masks: a bit code per row would wrap past 63 classes
    distinct = np.unique(_region_masks(cv, alpha, cv.group(b)), axis=0)
    return [frozenset(t) for t in sorted(tuple(np.flatnonzero(m) + 1) for m in distinct)]


def empirical_risk(cv: CrossValMatrix, alpha: float) -> float:
    """Mean region size over all rows at level alpha."""
    return float(np.mean(np.count_nonzero(cv.pvalues > alpha, axis=1)))


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Right-continuous step function alpha -> fraction of p-values <= alpha.

    Breakpoints are the distinct p-values of the (b, theta) cell; the curve is
    the empirical CDF of those p-values, i.e. one minus the inclusion
    probability as a function of the level.
    """

    breakpoints: np.ndarray  # sorted distinct p-values
    values: np.ndarray       # curve value at each breakpoint

    def __post_init__(self):
        self.breakpoints.setflags(write=False)
        self.values.setflags(write=False)

    def __call__(self, alpha: float | np.ndarray) -> float | np.ndarray:
        idx = np.searchsorted(self.breakpoints, alpha, side="right")
        padded = np.concatenate([[0.0], self.values])
        out = padded[idx]
        return float(out) if np.ndim(alpha) == 0 else out

    @staticmethod
    def from_pvalues(pvalues: np.ndarray) -> "RocCurve":
        pvalues = np.sort(np.asarray(pvalues, dtype=float))
        breakpoints, last_index = np.unique(pvalues, return_index=True)
        counts = np.append(last_index[1:], pvalues.size)
        return RocCurve(breakpoints=breakpoints, values=counts / pvalues.size)


def roc_curve(cv: CrossValMatrix, b: int, theta: int) -> RocCurve:
    """Empirical ROC step function for hypothesis theta evaluated on class b."""
    check_label(theta, cv.n_classes)
    rows = cv.group(b)
    return RocCurve.from_pvalues(cv.pvalues[rows, theta - 1])


def roc_sup_distance(first: RocCurve, second: RocCurve) -> float:
    """Supremum over alpha in (0,1) of the absolute gap between two step curves."""
    grid = np.union1d(first.breakpoints, second.breakpoints)
    grid = grid[(grid > 0.0) & (grid < 1.0)] if grid.size else grid
    if grid.size == 0:
        return 0.0
    return float(np.max(np.abs(first(grid) - second(grid))))
