"""Domain types shared by all modules: training sets, p-value vectors, prediction regions.

Class labels are canonical integers 1..L. External label names (e.g. strings
from a CSV) are mapped to canonical labels in first-appearance order and the
dictionary is carried on the TrainingSet. All types are immutable after
construction and safe to share across tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Augment",
    "PredictionRegion",
    "PValueVector",
    "Relabel",
    "Remove",
    "StructuralError",
    "TrainingSet",
    "rank_pvalue",
    "region_from_pvalues",
    "validate_training_set",
]


class StructuralError(ValueError):
    """The data violates a structural requirement (empty class, shape mismatch, bad file)."""


# Single-point edits, applied to training sets and to fitted statistics alike.


@dataclass(frozen=True)
class Remove:
    index: int


@dataclass(frozen=True, eq=False)
class Augment:
    point: np.ndarray
    label: int


@dataclass(frozen=True)
class Relabel:
    """Give row ``index`` the label ``label``. Removing row i and adding
    (X_i, theta) gives the same multiset, D with y_i := theta."""

    index: int
    label: int


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Labeled feature vectors with the per-class group index derived.

    features is an (n, q) float array, labels an (n,) int array with values in
    1..n_classes. Every class must be represented by at least one observation.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    label_names: tuple[str, ...]
    _groups: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise StructuralError(f"features must be a 2-D array, got ndim={features.ndim}")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise StructuralError(
                f"labels must be 1-D with one entry per row: {labels.shape} vs {features.shape[0]} rows"
            )
        if not np.all(np.isfinite(features)):
            raise StructuralError("features contain non-finite values")
        if self.n_classes < 2:
            raise StructuralError(f"need at least 2 classes, got {self.n_classes}")
        if len(self.label_names) != self.n_classes:
            raise StructuralError(
                f"{len(self.label_names)} label names for {self.n_classes} classes"
            )
        if labels.size and (labels.min() < 1 or labels.max() > self.n_classes):
            raise StructuralError("labels out of range 1..L")
        groups = tuple(np.flatnonzero(labels == theta) for theta in range(1, self.n_classes + 1))
        for theta, g in enumerate(groups, start=1):
            if g.size == 0:
                raise StructuralError(f"class {self.label_names[theta - 1]!r} (label {theta}) is empty")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_groups", groups)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def q(self) -> int:
        return self.features.shape[1]

    def group(self, theta: int) -> np.ndarray:
        """Row indices of class theta (1-based)."""
        return self._groups[theta - 1]

    @property
    def group_sizes(self) -> np.ndarray:
        return np.array([g.size for g in self._groups], dtype=np.int64)

    def name_of(self, theta: int) -> str:
        return self.label_names[theta - 1]

    # Single-point edits used by permutation tests and cross-validation.

    def edit(self, edit: Remove | Augment | Relabel) -> "TrainingSet":
        if isinstance(edit, Remove):
            return self.remove(edit.index)
        if isinstance(edit, Augment):
            return self.augment(edit.point, edit.label)
        if isinstance(edit, Relabel):
            return self.relabel(edit.index, edit.label)
        raise TypeError(f"unknown edit {edit!r}")

    def remove(self, i: int) -> "TrainingSet":
        keep = np.ones(self.n, dtype=bool)
        keep[i] = False
        theta = int(self.labels[i])
        if self.group(theta).size == 1:
            raise StructuralError(
                f"removing row {i} would empty class {self.name_of(theta)!r}"
            )
        return TrainingSet(self.features[keep], self.labels[keep], self.n_classes, self.label_names)

    def replace(self, i: int, x: np.ndarray) -> "TrainingSet":
        features = np.array(self.features, copy=True)
        features[i] = check_point(x, self.q)
        return TrainingSet(features, self.labels, self.n_classes, self.label_names)

    def augment(self, x: np.ndarray, theta: int) -> "TrainingSet":
        check_label(theta, self.n_classes)
        features = np.vstack([self.features, check_point(x, self.q)[None, :]])
        labels = np.append(self.labels, np.int64(theta))
        return TrainingSet(features, labels, self.n_classes, self.label_names)

    def relabel(self, i: int, theta: int) -> "TrainingSet":
        """Row i moved to class theta; the read-only features are shared, only
        the labels are copied."""
        check_label(theta, self.n_classes)
        old = int(self.labels[i])
        if old == theta:
            raise ValueError(f"row {i} already has label {theta}")
        if self.group(old).size == 1:
            raise StructuralError(
                f"relabelling row {i} would empty class {self.name_of(old)!r}"
            )
        labels = np.array(self.labels, copy=True)
        labels[i] = theta
        return TrainingSet(self.features, labels, self.n_classes, self.label_names)


def check_point(x: np.ndarray, q: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (q,):
        raise ValueError(f"feature vector has shape {x.shape}, expected ({q},)")
    return check_finite(x)


def check_finite(x: np.ndarray) -> np.ndarray:
    """x, a point or a batch of points, as a float array; ValueError on a NaN
    or infinite component, which no p-value could rank."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("feature vector contains non-finite values")
    return x


def rank_pvalue(values: np.ndarray, reference: float | np.ndarray, own: bool = False) -> float | np.ndarray:
    """(#{values >= reference} + 1) / (len(values) + 1): the rank p-value of
    every permutation path, the one tie rule of them all.

    A batch of m references takes (N,) values shared by all of them, counted
    by one sort, or (m, N) values, one row each, and gives m p-values. With
    ``own`` the values hold the reference's own entry, which ties with it
    exactly and stands for its +1: #{values >= reference} / len(values).
    """
    own = int(own)
    if np.ndim(reference) == 0:
        count = int(np.count_nonzero(values >= reference))
    elif np.ndim(values) == 1:
        count = values.size - np.searchsorted(np.sort(values), reference, side="left")
    else:
        count = np.sum(values >= reference[:, None], axis=-1)
    return (count + 1 - own) / (values.shape[-1] + 1 - own)


def check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float(alpha)


def check_label(theta: int, n_classes: int) -> int:
    if not 1 <= theta <= n_classes:
        raise ValueError(f"class label {theta} outside 1..{n_classes}")
    return int(theta)


def validate_training_set(
    features: Sequence[Sequence[float]] | np.ndarray,
    labels: Iterable,
    n_classes: int | None = None,
) -> TrainingSet:
    """Build a canonical TrainingSet from raw features and arbitrary label values.

    Labels are mapped to 1..L in first-appearance order. When n_classes is
    declared and some declared class has no observations, that is an error
    (every per-class computation divides by the group size).
    """
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    label_list = list(labels)
    if len(label_list) != features.shape[0]:
        raise StructuralError(
            f"{len(label_list)} labels for {features.shape[0]} feature rows"
        )
    names: list[str] = []
    index: dict[str, int] = {}
    canonical = np.empty(len(label_list), dtype=np.int64)
    for i, raw in enumerate(label_list):
        name = str(raw)
        if name not in index:
            index[name] = len(names) + 1
            names.append(name)
        canonical[i] = index[name]
    declared = n_classes if n_classes is not None else len(names)
    if declared < len(names):
        raise StructuralError(
            f"found {len(names)} distinct labels but only {declared} classes declared"
        )
    if declared > len(names):
        missing = declared - len(names)
        raise StructuralError(
            f"{missing} declared class(es) empty: only labels {names} observed"
        )
    return TrainingSet(features, canonical, declared, tuple(names))


@dataclass(frozen=True, eq=False)
class PValueVector:
    """One p-value per class label; entries need not sum to one."""

    values: np.ndarray  # (L,), values[theta - 1] is the p-value for class theta

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("p-values must form a 1-D array")
        if values.size < 2:
            raise ValueError("need one entry per class, at least two classes")
        if not np.all((values >= 0.0) & (values <= 1.0)):  # NaN fails too
            raise ValueError(f"p-values outside [0, 1]: {values}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_classes(self) -> int:
        return self.values.size

    def __getitem__(self, theta: int) -> float:
        check_label(theta, self.n_classes)
        return float(self.values[theta - 1])

    @staticmethod
    def from_mapping(values: Mapping[int, float]) -> "PValueVector":
        n = len(values)
        arr = np.empty(n, dtype=float)
        for theta in range(1, n + 1):
            if theta not in values:
                raise ValueError(f"missing p-value for class {theta}")
            arr[theta - 1] = values[theta]
        return PValueVector(arr)


@dataclass(frozen=True)
class PredictionRegion:
    """Set of class labels whose p-value strictly exceeds the level alpha."""

    level: float
    members: frozenset[int]

    def __contains__(self, theta: int) -> bool:
        return theta in self.members

    def __len__(self) -> int:
        return len(self.members)


def region_from_pvalues(pvals: PValueVector, alpha: float) -> PredictionRegion:
    """Threshold a p-value vector into the region {theta : p[theta] > alpha}.

    The inequality is strict: a p-value exactly equal to alpha is excluded.
    The region may be empty or contain every class.
    """
    check_alpha(alpha)
    members = frozenset(
        theta for theta in range(1, pvals.n_classes + 1) if pvals.values[theta - 1] > alpha
    )
    return PredictionRegion(level=float(alpha), members=members)
