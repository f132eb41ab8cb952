"""Seeded samplers and experiment harnesses: validity checks of the permutation
p-values, empirical convergence toward the known-model p-values, and region
maps over a 2-D lattice.

Every experiment is a pure function of its configuration including the master
seed. Replications draw their generators from seeds spawned off the master
seed, so results do not depend on how the replication loop is partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TrainingSet
from .numerics import SpdMatrix
from .oracle import (
    GaussianMixtureModel,
    OptimalMonteCarlo,
    optimal_pvalue_2class_closed,
)
from .estimators import _BLOCK_ELEMENTS, default_k
from .permutation import PermutationMethod, _pvalues_each, pvalue_table

__all__ = [
    "ConvergenceRow",
    "ExperimentConfig",
    "RegionMap",
    "ValidityCell",
    "ValidityResult",
    "convergence_experiment",
    "example22_model",
    "rank_uniformity_chisq",
    "region_map",
    "sample_gaussian_mixture",
    "standard_2class_model",
    "validity_experiment",
]


def example22_model() -> GaussianMixtureModel:
    """Three bivariate Gaussian classes with equal weights: two correlated
    components on the left, one tight isotropic component on the right."""
    weights = np.array([1.0, 1.0, 1.0]) / 3.0
    means = np.array([[-1.0, 1.0], [-1.0, -1.0], [2.0, 0.0]])
    sigma_left = SpdMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    sigma_right = SpdMatrix(np.array([[0.4, 0.0], [0.0, 0.4]]))
    return GaussianMixtureModel(weights, means, (sigma_left, sigma_left, sigma_right))


def standard_2class_model(delta: float = 2.0, q: int = 2, weights: tuple[float, float] = (0.5, 0.5)) -> GaussianMixtureModel:
    """Two homoscedastic unit-covariance classes separated by delta along the first axis."""
    means = np.zeros((2, q))
    means[1, 0] = delta
    cov = SpdMatrix(np.eye(q))
    return GaussianMixtureModel(np.asarray(weights, dtype=float), means, (cov, cov))


def _sample_training(model: GaussianMixtureModel, sizes: Sequence[int], rng: np.random.Generator) -> TrainingSet:
    blocks = []
    labels = []
    for theta, size in enumerate(sizes, start=1):
        blocks.append(model.sample(theta, int(size), rng))
        labels.extend([theta] * int(size))
    names = tuple(str(theta) for theta in range(1, len(sizes) + 1))
    return TrainingSet(np.vstack(blocks), np.array(labels, dtype=np.int64), len(sizes), names)


def sample_gaussian_mixture(model: GaussianMixtureModel, sizes: Sequence[int], seed: int = 0) -> TrainingSet:
    """Stratified sample: exactly sizes[theta] draws per class, labels fixed."""
    if len(sizes) != model.n_classes:
        raise ValueError(f"{len(sizes)} sizes for {model.n_classes} classes")
    if any(int(s) < 1 for s in sizes):
        raise ValueError("all class sizes must be at least 1")
    return _sample_training(model, sizes, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Validity experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    model: GaussianMixtureModel
    sizes: tuple[int, ...]
    methods: tuple[PermutationMethod, ...]
    alphas: tuple[float, ...] = (0.05, 0.10, 0.25)
    replications: int = 5000
    master_seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ValueError(f"alphas must lie in (0, 1): {self.alphas}")
        if len(self.sizes) != self.model.n_classes or any(s < 1 for s in self.sizes):
            raise ValueError("sizes must list one positive count per class")
        # the results are keyed by (statistic, mode), so a repeat would overwrite its cells
        pairs = [(m.statistic, m.mode) for m in self.methods]
        repeated = next((pair for i, pair in enumerate(pairs) if pair in pairs[:i]), None)
        if repeated is not None:
            raise ValueError(f"two methods share statistic and mode {repeated}")


@dataclass(frozen=True)
class ValidityCell:
    statistic: str
    mode: str
    theta: int
    alpha: float
    rate: float
    std_error: float
    bound: float
    ok: bool


@dataclass(frozen=True, eq=False)
class ValidityResult:
    config: ExperimentConfig
    cells: tuple[ValidityCell, ...]
    samples: dict[tuple[str, str, int], np.ndarray]

    def cell(self, statistic: str, mode: str, theta: int, alpha: float) -> ValidityCell:
        for c in self.cells:
            if (c.statistic, c.mode, c.theta, c.alpha) == (statistic, mode, theta, alpha):
                return c
        raise KeyError((statistic, mode, theta, alpha))


def validity_experiment(cfg: ExperimentConfig) -> ValidityResult:
    """Estimate P(p-value <= alpha | true class) over fresh (data, query) pairs.

    Each replication samples a training set and one query per class from that
    class's distribution, then computes the class's own p-value under every
    configured method. A cell passes when its exceedance rate stays below
    alpha + 3 binomial standard errors. The raw p-value samples are kept for
    rank-uniformity checks.

    Replication r draws from generator r of the master seed's spawned
    sequence. The replications are scored in blocks of about
    ``_BLOCK_ELEMENTS`` elements of exact-swap design, (n + L) sets of n rows
    and q + 1 columns each: one ``_pvalues_each`` call scores a block for
    each (method, class), so every family scores a chunk of the block's
    edited sets in one closed-form call, the logistic in one batched IRLS
    (naive logistic fits the block's sets in one). A p-value keeps its bits
    in any block, so the results do not depend on how the blocks are cut,
    and a shorter run is a prefix of a longer one.
    """
    n_reps = cfg.replications
    model = cfg.model
    classes = range(1, model.n_classes + 1)
    children = np.random.SeedSequence(cfg.master_seed).spawn(n_reps)
    samples = {
        (m.statistic, m.mode, theta): np.empty(n_reps)
        for m in cfg.methods
        for theta in classes
    }
    n = sum(cfg.sizes)
    per_block = max(1, _BLOCK_ELEMENTS // ((n + model.n_classes) * n * (model.q + 1)))
    for block in np.array_split(np.arange(n_reps), -(-n_reps // per_block)):
        draws = []
        for r in block:
            rng = np.random.default_rng(children[r])
            d = _sample_training(model, cfg.sizes, rng)
            draws.append((d, np.vstack([model.sample(theta, 1, rng) for theta in classes])))
        for method in cfg.methods:
            fitted = [method.fit(d) for d, _ in draws]
            for theta in classes:
                queries = [x[theta - 1 : theta] for _, x in draws]
                samples[(method.statistic, method.mode, theta)][block] = np.concatenate(
                    _pvalues_each(fitted, method.mode, theta, queries))
    cells = []
    for method in cfg.methods:
        for theta in classes:
            pv = samples[(method.statistic, method.mode, theta)]
            for alpha in cfg.alphas:
                rate = float(np.count_nonzero(pv <= alpha)) / n_reps
                se = math.sqrt(alpha * (1.0 - alpha) / n_reps)
                bound = alpha + 3.0 * se
                cells.append(
                    ValidityCell(
                        statistic=method.statistic,
                        mode=method.mode,
                        theta=theta,
                        alpha=alpha,
                        rate=rate,
                        std_error=se,
                        bound=bound,
                        ok=rate <= bound,
                    )
                )
    for arr in samples.values():
        arr.setflags(write=False)
    return ValidityResult(config=cfg, cells=tuple(cells), samples=samples)


def rank_uniformity_chisq(pvalues: np.ndarray, grid_size: int) -> float:
    """Chi-square goodness-of-fit of p-values against uniform on {1/g, ..., g/g}."""
    pvalues = np.asarray(pvalues, dtype=float)
    scaled = pvalues * grid_size
    ranks = np.rint(scaled).astype(int)
    if np.any(np.abs(scaled - ranks) > 1e-9) or np.any(ranks < 1) or np.any(ranks > grid_size):
        raise ValueError("p-values do not sit on the expected grid")
    observed = np.bincount(ranks, minlength=grid_size + 1)[1:]
    expected = pvalues.size / grid_size
    return float(np.sum((observed - expected) ** 2) / expected)


# ---------------------------------------------------------------------------
# Convergence experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    k: int
    mean_gap_knn: float
    mean_gap_plugin: float


def _oracle_evaluator(model: GaussianMixtureModel, mc_samples: int, seed: int | np.random.SeedSequence):
    if model.n_classes == 2 and model.has_common_covariance():
        return lambda theta, pts: optimal_pvalue_2class_closed(model, theta, pts)
    shared = OptimalMonteCarlo(model, mc_samples=mc_samples, seed=seed)
    return shared.pvalues


def convergence_experiment(
    model: GaussianMixtureModel,
    n_schedule: Sequence[int],
    seed: int = 0,
    n_queries: int = 200,
    mc_samples: int = 20_000,
) -> list[ConvergenceRow]:
    """Mean absolute gap between nonparametric and known-model p-values along a
    schedule of training sizes.

    At each n (total, split evenly over classes) a fresh training set and
    fresh mixture queries are drawn; the k-NN (k = ``default_k(n)``) and
    plug-in p-values (default valid-shortcut mode) at the queries are
    compared against the known-model p-values, evaluated in closed form where
    available and by shared-sample Monte Carlo otherwise. Each fitted
    statistic scores every class at once through one ``pvalue_table``.
    """
    if list(n_schedule) != sorted(set(int(n) for n in n_schedule)):
        raise ValueError("n_schedule must be strictly increasing")
    if n_queries < 1:
        raise ValueError(f"n_queries must be at least 1, got {n_queries}")
    children = np.random.SeedSequence(seed).spawn(len(n_schedule) + 1)
    oracle = _oracle_evaluator(model, mc_samples, children[-1])
    rows = []
    for idx, n_total in enumerate(n_schedule):
        rng = np.random.default_rng(children[idx])
        base, extra = divmod(int(n_total), model.n_classes)
        sizes = [base + (1 if b < extra else 0) for b in range(model.n_classes)]
        d = _sample_training(model, sizes, rng)
        query_labels = rng.choice(model.n_classes, size=n_queries, p=model.weights) + 1
        queries = np.vstack([model.sample(int(lbl), 1, rng) for lbl in query_labels])
        k = default_k(int(n_total))
        knn_method = PermutationMethod(statistic="knn", mode="valid-shortcut", k=k)
        plugin_method = PermutationMethod(statistic="plugin", mode="valid-shortcut")
        knn_fitted = knn_method.fit(d)
        plugin_fitted = plugin_method.fit(d)
        # (L, m), class-major as the gaps are averaged
        stars = np.array([oracle(theta, queries) for theta in range(1, model.n_classes + 1)])
        gaps_knn = np.abs(pvalue_table(knn_fitted, "valid-shortcut", queries).T - stars).ravel()
        gaps_plugin = np.abs(pvalue_table(plugin_fitted, "valid-shortcut", queries).T - stars).ravel()
        rows.append(
            ConvergenceRow(
                n=int(n_total),
                k=k,
                mean_gap_knn=float(np.mean(gaps_knn)),
                mean_gap_plugin=float(np.mean(gaps_plugin)),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Region maps
# ---------------------------------------------------------------------------


# subset-bitmask -> display color, matching the three-class legend
REGION_COLORS_3 = {
    0b000: "black",
    0b001: "red",
    0b010: "green",
    0b100: "darkblue",
    0b011: "yellow",
    0b110: "cyan",
    0b101: "magenta",
    0b111: "white",
}


def subset_code(members: Sequence[int]) -> int:
    return sum(1 << (theta - 1) for theta in members)


def code_members(code: int, n_classes: int) -> tuple[int, ...]:
    return tuple(theta for theta in range(1, n_classes + 1) if code & (1 << (theta - 1)))


@dataclass(frozen=True, eq=False)
class RegionMap:
    """P-values of every class over a 2-D lattice, thresholdable at any level."""

    xs: np.ndarray          # (nx,)
    ys: np.ndarray          # (ny,)
    pvalues: np.ndarray     # (ny, nx, L)

    def __post_init__(self):
        for name in ("xs", "ys", "pvalues"):
            getattr(self, name).setflags(write=False)

    @property
    def n_classes(self) -> int:
        return self.pvalues.shape[2]

    def subsets(self, alpha: float) -> np.ndarray:
        """(ny, nx) bitmask lattice of the level-alpha regions (strict >)."""
        masks = self.pvalues > alpha
        codes = np.zeros(self.pvalues.shape[:2], dtype=np.int64)
        for theta in range(1, self.n_classes + 1):
            codes |= masks[:, :, theta - 1].astype(np.int64) << (theta - 1)
        return codes

    def codes_present(self, alpha: float) -> set[int]:
        return set(int(c) for c in np.unique(self.subsets(alpha)))


def region_map(
    xs: np.ndarray,
    ys: np.ndarray,
    *,
    model: GaussianMixtureModel | None = None,
    training: TrainingSet | None = None,
    method: PermutationMethod | None = None,
    mc_samples: int = 20_000,
    seed: int = 0,
) -> RegionMap:
    """Evaluate a p-value family on the grid xs x ys (2-D feature space only),
    each axis strictly ascending.

    Exactly one of ``model`` (known-model p-values: closed form for two
    homoscedastic classes, otherwise one seeded Monte Carlo sample per class)
    or ``training`` + ``method`` (data-driven p-values) must be given. The
    Monte Carlo map is one ``OptimalMonteCarlo.pvalue_table`` call, which
    drops each class's sample once the lattice is scored, so the map holds
    one class's M statistics at a time and caches none.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    for name, axis in (("xs", xs), ("ys", ys)):
        if axis.size == 0:
            raise ValueError(f"{name} is empty; a region map needs at least one lattice point per axis")
        if not np.all(np.diff(axis) > 0):
            # row 0 of the map and of its SVG is the smallest y
            raise ValueError(f"{name} must be strictly ascending")
    if (model is None) == (training is None):
        raise ValueError("give either a model or training data with a method")
    grid = np.column_stack([np.tile(xs, ys.size), np.repeat(ys, xs.size)])
    if model is not None:
        if model.q != 2:
            raise ValueError(f"region maps need 2-D features, model has q={model.q}")
        if model.n_classes == 2 and model.has_common_covariance():
            cube = np.column_stack([optimal_pvalue_2class_closed(model, theta, grid) for theta in (1, 2)])
        else:
            cube = OptimalMonteCarlo(model, mc_samples=mc_samples, seed=seed).pvalue_table(grid)
        return RegionMap(xs=xs, ys=ys, pvalues=cube.reshape(ys.size, xs.size, model.n_classes))
    if method is None:
        raise ValueError("a method is required with training data")
    if training.q != 2:
        raise ValueError(f"region maps need 2-D features, data has q={training.q}")
    fitted = method.fit(training)
    cube = pvalue_table(fitted, method.mode, grid)
    return RegionMap(xs=xs, ys=ys, pvalues=cube.reshape(ys.size, xs.size, training.n_classes))
