"""Leave-one-out evaluation of a p-value method: the cross-validated p-value
matrix and the separability summaries built on it (inclusion probabilities,
pattern probabilities, empirical ROC step functions, empirical risk)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Remove, StructuralError, TrainingSet, check_label
from .estimators import edited_values, refit_values
from .permutation import PermutationMethod, _chunks, pvalue

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

    Row i of the result holds the p-values of X_i computed on the training set
    without row i. Requires every class to keep at least one member after
    removal.

    In ``valid-shortcut`` mode the data without row i, augmented with
    (X_i, theta), is D with y_i := theta, so no row is removed: for
    theta = y_i it is D itself, scored once per class by the full fit, and
    for every other theta it is D edited by ``Relabel(i, theta)``. In naive
    mode row i's p-values come from D edited by ``Remove(i)``. Either way
    ``edited_values`` scores every row of one class against class theta at
    once, in chunks of rows, under each row's edit: in the statistic's closed
    form where it has one, without making the edit. Every (row, class) entry
    it flags goes through one ``refit_values`` loop in row order that reuses
    a row's edit across its classes, so a degenerate fit raises
    DegenerateFitError at the same row and pivot as a per-row loop would. In
    exact-swap mode, and for typicality, each row makes one ``Remove(i)`` and
    takes ``pvalue`` of the edited fit for each class.
    """
    if np.any(d.group_sizes < 2):
        bad = int(np.argmin(d.group_sizes))
        raise StructuralError(
            f"class {d.label_names[bad]!r} has a single member; leave-one-out would empty it"
        )
    base = method.fit(d)
    out = np.empty((d.n, d.n_classes))
    classes = range(1, d.n_classes + 1)
    if method.mode == "exact-swap" or method.statistic == "typicality":
        for i in range(d.n):
            reduced = base.edit(Remove(i))
            out[i] = [pvalue(reduced, method.mode, theta, d.features[i]) for theta in classes]
        return CrossValMatrix(pvalues=out, labels=np.array(d.labels), group_sizes=d.group_sizes, method=method)
    kind = "relabel" if method.mode == "valid-shortcut" else "remove"
    groups = [d.group(theta) for theta in classes]
    pending = []  # the (row, class) entries left to the refit
    for theta in classes:
        if kind == "relabel":
            out[groups[theta - 1], theta - 1] = _rank_in_group(base.evaluate(theta, d.features[groups[theta - 1]]))
        for y in classes:
            if kind == "relabel" and y == theta:
                continue
            rows = groups[y - 1]
            for chunk in _chunks(d, theta, rows.size):
                values, refit = edited_values(base, theta, kind, rows[chunk])
                out[rows[chunk], theta - 1] = _rank_query(values, own=y == theta)
                pending += [(int(i), theta) for i in rows[chunk][refit]]
    pending.sort()
    for (i, theta), values in zip(pending, refit_values(base, kind, pending)):
        out[i, theta - 1] = _rank_query(values[None, :], own=d.labels[i] == theta)[0]
    return CrossValMatrix(pvalues=out, labels=np.array(d.labels), group_sizes=d.group_sizes, method=method)


def _rank_query(values: np.ndarray, own: bool) -> np.ndarray:
    """Rank p-values of column 0, the query X_i, against the class rows in
    the other columns. With ``own`` those rows include row i itself, which
    ties with the query exactly and stands for its +1."""
    own = int(own)
    count = np.sum(values[:, 1:] >= values[:, :1], axis=1)
    return (count + 1 - own) / (values.shape[1] - own)


def _rank_in_group(values: np.ndarray) -> np.ndarray:
    """Rank p-value of each entry against the other entries of its class,
    #{values >= entry} / len(values) (the entry stands for its +1), from one
    sort."""
    ranked = np.sort(values)
    return (values.size - np.searchsorted(ranked, values, side="left")) / values.size


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
    rows = cv.group(b)
    masks = _region_masks(cv, alpha, rows)
    seen = {tuple(np.flatnonzero(m) + 1) for m in masks}
    return [frozenset(t) for t in sorted(seen)]


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
