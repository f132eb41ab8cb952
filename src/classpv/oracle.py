"""P-values for a fully known Gaussian mixture: the gold standard the data-driven
methods are measured against.

Densities are evaluated in log space throughout; the weighted likelihood-ratio
statistic uses a max-shifted sum so well-separated classes in moderate
dimension do not underflow. Every Monte Carlo p-value (optimal, compromise,
inflated) comes from one engine, ``OptimalMonteCarlo``: class theta is drawn
once, on its first query, from child theta - 1 of
``SeedSequence(seed).spawn(L)``, its statistics are sorted, and a query is
counted with the (count + 1)/(M + 1) convention, so the estimates remain
valid p-values themselves and are deterministic given the seed. The draws
and the queries are scored in blocks of ``_BLOCK`` rows, which give the
bits one batch of all the rows gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import check_alpha, check_finite, check_label
from .numerics import (
    SpdMatrix,
    _log_sum_exp_rows,
    chisq_sf,
    log_sum_exp,
    mahalanobis_sq,
    mahalanobis_sq_columns,
    solve_lower,
    std_normal_cdf,
)

__all__ = [
    "GaussianMixtureModel",
    "OptimalMonteCarlo",
    "RiskEstimate",
    "compromise_pvalue",
    "inflated_pvalue",
    "optimal_pvalue_2class_closed",
    "optimal_pvalue_mc",
    "optimal_statistic",
    "risk_alpha",
    "typicality_known",
]

_LOG_2PI = math.log(2.0 * math.pi)
# rows drawn or scored at a time by ``OptimalMonteCarlo``: a block's
# temporaries stay in cache where a whole M-row batch's would not
_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class GaussianMixtureModel:
    """Known prior weights, class means and class covariances."""

    weights: np.ndarray          # (L,), positive, sums to 1
    means: np.ndarray            # (L, q)
    covariances: tuple[SpdMatrix, ...]

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        means = np.asarray(self.means, dtype=float)
        covariances = tuple(self.covariances)
        object.__setattr__(self, "covariances", covariances)
        if weights.ndim != 1 or weights.size < 2:
            raise ValueError("need at least two classes")
        if np.any(weights <= 0.0):
            raise ValueError("prior weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"prior weights sum to {weights.sum()}, not 1")
        if len(covariances) != weights.size or means.shape != (weights.size, covariances[0].dim):
            raise ValueError("means/covariances inconsistent with the number of classes")
        same = all(
            np.array_equal(means[b], means[0]) and np.array_equal(self.covariances[b].matrix, self.covariances[0].matrix)
            for b in range(weights.size)
        )
        if same:
            raise ValueError("all class distributions identical; likelihood ratios would be degenerate")
        weights.setflags(write=False)
        means.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)

    @property
    def n_classes(self) -> int:
        return self.weights.size

    @property
    def q(self) -> int:
        return self.means.shape[1]

    def has_common_covariance(self) -> bool:
        first = self.covariances[0].matrix
        return all(np.array_equal(c.matrix, first) for c in self.covariances[1:])

    def log_density(self, theta: int, x: np.ndarray) -> np.ndarray | float:
        """log of the class-theta Gaussian density at x (single vector or (m, q) batch)."""
        check_label(theta, self.n_classes)
        cov = self.covariances[theta - 1]
        msq = mahalanobis_sq(x, self.means[theta - 1], cov)
        return -0.5 * (self.q * _LOG_2PI + cov.log_det + msq)

    def sample(self, theta: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """size draws from the class-theta Gaussian, via the cached Cholesky factor.

        The standard normals fill rows in order, and a row gets the same bits
        in any draw of two or more rows, so two draws of n1 and n2 rows give
        the rows of one draw of n1 + n2. A one-row draw takes numpy's
        matrix-vector product instead, whose bits can differ.
        """
        check_label(theta, self.n_classes)
        z = rng.standard_normal((size, self.q))
        out = z @ self.covariances[theta - 1].chol_lower.T
        # a column at a time: a row broadcast over a (size, q) block is slower
        for column, mu in zip(out.T, self.means[theta - 1]):
            column += mu
        return out


def log_weighted_lr(
    weights: np.ndarray,
    means: np.ndarray,
    covariances: Sequence[SpdMatrix],
    theta: int,
    x: np.ndarray,
) -> np.ndarray | float:
    """log of sum_{b != theta} w_{b,theta} f_b(x) / f_theta(x).

    The competitor weights w_{b,theta} = w_b / sum_{c != theta} w_c depend only
    on ratios among the non-theta weights. Shared kernel for the known-model
    statistic and the plug-in statistic, so the two agree exactly when handed
    the same parameters. x may be (q,) or (m, q).

    Every class is scored from one split of x into component columns, and
    the L - 1 terms go into one buffer made once per call, which
    ``numerics._log_sum_exp_rows`` sums in place with the operations of
    ``log_sum_exp``: a row gets the same bits alone and in any batch.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    columns = np.ascontiguousarray(pts.T)
    q = pts.shape[1]
    log_dens = []
    for mu, cov in zip(means, covariances):
        msq = mahalanobis_sq_columns(columns, mu, cov)
        msq += q * _LOG_2PI + cov.log_det
        msq *= -0.5
        log_dens.append(msq)
    others = [b for b in range(len(covariances)) if b != theta - 1]
    log_norm = math.log(float(np.sum(weights[others])))
    terms = np.empty((len(others), pts.shape[0]))
    for row, b, log_w in zip(terms, others, np.log(weights[others]) - log_norm):
        np.add(log_dens[b], log_w, out=row)
        row -= log_dens[theta - 1]
    out = _log_sum_exp_rows(terms)
    return float(out[0]) if single else out


def optimal_statistic(model: GaussianMixtureModel, theta: int, x: np.ndarray) -> float:
    """Weighted likelihood-ratio statistic against class theta; small means plausible."""
    check_label(theta, model.n_classes)
    return math.exp(log_weighted_lr(model.weights, model.means, model.covariances, theta, check_finite(x)))


def optimal_pvalue_mc(
    model: GaussianMixtureModel,
    theta: int,
    x: np.ndarray,
    mc_samples: int = 20_000,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of the optimal p-value for class theta at x.

    Counts how often the statistic at mc_samples class-theta draws reaches
    the statistic at x; the +1 convention keeps the estimate a valid
    p-value. One ``OptimalMonteCarlo`` evaluation, deterministic given the
    seed.
    """
    check_label(theta, model.n_classes)
    return OptimalMonteCarlo(model, mc_samples, seed).pvalues(theta, x)


class OptimalMonteCarlo:
    """Shared-sample evaluator for the known-model Monte Carlo p-values.

    One seeded sample per class, class theta from child theta - 1 of
    ``SeedSequence(seed).spawn(L)``, is drawn on the class's first query, so
    a per-point call draws its own class only. Only the threshold statistic
    depends on the query point, so the same draws serve arbitrarily many
    later evaluations (region maps, risk estimates, ROC curves) at O(log M)
    per point. ``log_stat(theta, pts)`` maps an
    (m, q) batch to m values, larger meaning class theta is less plausible;
    the default, ``log_weighted_lr``, gives the optimal p-values and splits
    each block into component columns once for all classes. It is called on
    blocks of at most about ``_BLOCK`` rows, so it must give a row the same
    bits in any batch, as ``mahalanobis_sq_columns`` does; the class then
    holds M statistics and one block's temporaries. A query with a NaN or
    infinite component raises ``ValueError`` before any draw.
    """

    def __init__(
        self,
        model: GaussianMixtureModel,
        mc_samples: int = 20_000,
        seed: int | np.random.SeedSequence = 0,
        log_stat: Callable[[int, np.ndarray], np.ndarray] | None = None,
    ):
        if mc_samples < 1:
            raise ValueError("mc_samples must be positive")
        self.model = model
        self.mc_samples = mc_samples
        # the module binding is looked up per call, which bench/tracing.py replaces to count calls
        self.log_stat = log_stat or (
            lambda theta, pts: log_weighted_lr(model.weights, model.means, model.covariances, theta, pts)
        )
        sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self._children = sequence.spawn(model.n_classes)
        self._sorted_stats = {}  # class -> sorted statistics of its draws

    def pvalues(self, theta: int, x: np.ndarray) -> np.ndarray | float:
        """P-values for class theta at x, a single point (q,) or each row of
        a batch (m, q); ValueError on a non-finite component."""
        check_label(theta, self.model.n_classes)
        x = check_finite(x)
        stats = self._sorted_stats.get(theta)
        if stats is None:
            # each block is drawn and scored before the next is drawn, so the
            # class holds its M statistics and one block's draws at a time
            rng = np.random.default_rng(self._children[theta - 1])
            stats = _in_blocks(
                self.mc_samples, lambda lo, hi: self.log_stat(theta, self.model.sample(theta, hi - lo, rng))
            )
            stats.sort()
            self._sorted_stats[theta] = stats
        pts = np.atleast_2d(x)

        def below(lo: int, hi: int) -> np.ndarray:
            # a block's scores are searched in sorted order, whose searches
            # walk the statistics in order, and their counts scattered back
            scores = self.log_stat(theta, pts[lo:hi])
            order = np.argsort(scores)
            counts = np.empty(scores.size, dtype=np.intp)
            counts[order] = np.searchsorted(stats, scores[order], side="left")
            return counts

        out = (stats.size - _in_blocks(pts.shape[0], below) + 1.0) / (stats.size + 1.0)
        return float(out[0]) if x.ndim == 1 else out


def _in_blocks(size: int, block_values: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """The size values that ``block_values(lo, hi)`` gives for rows lo..hi - 1,
    asked for in order, _BLOCK rows at a time."""
    out = np.empty(size)
    lo = 0
    while lo < size:
        hi = min(lo + _BLOCK, size)
        if size - hi == 1:
            # a one-row block would be drawn by a matrix-vector product,
            # which can give its row other bits than a larger draw does
            hi = size
        out[lo:hi] = block_values(lo, hi)
        lo = hi
    return out


def optimal_pvalue_2class_closed(model: GaussianMixtureModel, theta: int, x: np.ndarray) -> np.ndarray | float:
    """Closed-form optimal p-value for two classes with a common covariance.

    x may be a single point (q,) or a batch (m, q).
    """
    if model.n_classes != 2:
        raise ValueError("closed form requires exactly two classes")
    check_label(theta, 2)
    if not model.has_common_covariance():
        raise ValueError("closed form requires a common covariance matrix")
    cov = model.covariances[0]
    mu1, mu2 = model.means
    delta_sq = mahalanobis_sq(mu1, mu2, cov)
    if delta_sq <= 0.0:
        raise ValueError("class means coincide; the discriminant direction is undefined")
    delta = math.sqrt(delta_sq)
    x = check_finite(x)
    pts = np.atleast_2d(x)
    midpoint = 0.5 * (mu1 + mu2)
    # z(x) = (x - midpoint)^T Sigma^{-1} (mu2 - mu1) / delta via two triangular solves
    y_dir = solve_lower(cov.chol_lower, mu2 - mu1)
    y_pts = solve_lower(cov.chol_lower, (pts - midpoint).T)
    z = (y_dir @ y_pts) / delta
    sign = -1.0 if theta == 1 else 1.0
    out = np.array([std_normal_cdf(sign * zi - 0.5 * delta) for zi in z])
    return float(out[0]) if x.ndim == 1 else out


def typicality_known(model: GaussianMixtureModel, theta: int, x: np.ndarray) -> float:
    """Outlyingness p-value of x with respect to the class-theta distribution alone."""
    check_label(theta, model.n_classes)
    msq = mahalanobis_sq(check_finite(x), model.means[theta - 1], model.covariances[theta - 1])
    return chisq_sf(float(msq), model.q)


def compromise_pvalue(
    model: GaussianMixtureModel,
    w0: float,
    theta: int,
    x: np.ndarray,
    mc_samples: int = 20_000,
    seed: int = 0,
) -> float:
    """Monte Carlo p-value interpolating between the optimal p-value and typicality.

    An artificial background class with constant density 1 and weight w0 is
    added to the mixture; small w0 recovers the optimal p-value, large w0 the
    typicality index. The constant density is taken literally in the data's
    units, so the interpolation point depends on the measurement scale.
    """
    check_label(theta, model.n_classes)
    if w0 <= 0.0:
        raise ValueError(f"background weight must be positive, got {w0}")

    def neg_score(theta: int, pts: np.ndarray) -> np.ndarray:
        # the score is low where x looks atypical for theta relative to the
        # padded mixture; negated so that larger means less plausible
        log_dens = np.stack([np.atleast_1d(model.log_density(b, pts)) for b in range(1, model.n_classes + 1)])
        terms = np.vstack([np.log(model.weights)[:, None] + log_dens, np.full((1, pts.shape[0]), math.log(w0))])
        log_mix = np.atleast_1d(log_sum_exp(terms, axis=0))
        return -(log_dens[theta - 1] - log_mix)

    return OptimalMonteCarlo(model, mc_samples, seed, neg_score).pvalues(theta, x)


def inflated_pvalue(
    model: GaussianMixtureModel,
    c: float,
    theta: int,
    x: np.ndarray,
    mc_samples: int = 20_000,
    seed: int = 0,
) -> float:
    """Monte Carlo p-value for the homoscedastic variant that widens the competing
    classes' covariance by the factor c > 1, making the p-value fall off for
    points far from every class."""
    check_label(theta, model.n_classes)
    if c <= 1.0:
        raise ValueError(f"inflation factor must exceed 1, got {c}")
    if not model.has_common_covariance():
        raise ValueError("covariance inflation is defined for a common covariance matrix")
    return OptimalMonteCarlo(
        model, mc_samples, seed, lambda t, pts: log_inflated_statistic(model, c, t, pts)
    ).pvalues(theta, x)


def log_inflated_statistic(model: GaussianMixtureModel, c: float, theta: int, pts: np.ndarray) -> np.ndarray:
    """log of the inflated-covariance statistic, via the recentered quadratic form."""
    cov = model.covariances[0]
    mu_theta = model.means[theta - 1]
    others_norm = float(np.sum(np.delete(model.weights, theta - 1)))
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    terms = np.empty((model.n_classes, pts.shape[0]))
    for b in range(model.n_classes):
        mu_b = model.means[b]
        nu = mu_theta - (mu_b - mu_theta) / (c - 1.0)
        msq_nu = np.atleast_1d(mahalanobis_sq(pts, nu, cov))
        msq_means = float(mahalanobis_sq(mu_b, mu_theta, cov))
        terms[b] = (
            math.log(model.weights[b] / others_norm)
            + 0.5 * (1.0 - 1.0 / c) * msq_nu
            - 0.5 * msq_means / (c - 1.0)
        )
    return np.atleast_1d(log_sum_exp(terms, axis=0))


@dataclass(frozen=True, eq=False)
class RiskEstimate:
    """Expected prediction-region size at level alpha, with the per-class split."""

    alpha: float
    total: float
    per_class: np.ndarray  # per_class[theta - 1] = P(p-value for theta exceeds alpha)
    mc_samples: int

    def __post_init__(self):
        self.per_class.setflags(write=False)


def risk_alpha(
    pvalue_fn: Callable[[int, np.ndarray], float],
    model: GaussianMixtureModel,
    alpha: float,
    mc_samples: int = 2_000,
    seed: int = 0,
) -> RiskEstimate:
    """Monte Carlo estimate of the expected region size under the full mixture.

    pvalue_fn(theta, x) supplies the p-value family under study; the total risk
    is the sum over classes of the per-class exceedance probabilities.
    """
    check_alpha(alpha)
    if mc_samples < 1:
        raise ValueError("mc_samples must be positive")
    rng = np.random.default_rng(seed)
    labels = rng.choice(model.n_classes, size=mc_samples, p=model.weights) + 1
    exceed = np.zeros(model.n_classes)
    for j in range(mc_samples):
        x = model.sample(int(labels[j]), 1, rng)[0]
        for theta in range(1, model.n_classes + 1):
            if pvalue_fn(theta, x) > alpha:
                exceed[theta - 1] += 1
    per_class = exceed / mc_samples
    return RiskEstimate(alpha=alpha, total=float(per_class.sum()), per_class=per_class, mc_samples=mc_samples)
