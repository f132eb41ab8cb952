"""Deterministic references for the acceptance tests, independent of the Monte
Carlo engine in ``classpv.oracle``.

* ``quadrature_pvalues``: known-model optimal p-values of a 2-D Gaussian
  mixture by midpoint quadrature on an h-grid, for checking Monte Carlo region
  maps against the exact mathematics.
* ``rank_pvalue_cdf``: the CDF, at the achievable levels j/(N+1), of the rank
  p-value that an N-point class sample would give with the *true* statistic.
  This is what a valid N-point permutation p-value can at best reach, as
  opposed to the continuous CDF of the known-model p-value.
* ``refit_pvalue``: one query's permutation p-value by the plain edit
  protocol, refitting where the mode says so, for checking the batch kernel
  ``classpv.pvalues`` and its closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from classpv import Augment, GaussianMixtureModel, Remove
from classpv.core import rank_pvalue
from classpv.estimators import TypicalityStatistic
from classpv.numerics import f_cdf, mahalanobis_sq
from classpv.oracle import log_weighted_lr

_CHUNK_POINTS = 250_000
# marginal standard deviations the grid spans on each side of the class mean;
# the mass left out is below 1e-8
_RADIUS = 6.0


def quadrature_pvalues(
    model: GaussianMixtureModel,
    theta: int,
    points: np.ndarray,
    h: float = 0.01,
) -> np.ndarray:
    """P(T_theta(X) >= T_theta(x)) for X ~ class theta, at each row x of points.

    T_theta is the weighted likelihood-ratio statistic (``log_weighted_lr``).
    The class-theta density is integrated by the midpoint rule over the cells
    of side h covering mean +/- 6 marginal standard deviations, with cell
    centres half a step off the mean. The grid is streamed in chunks, so
    memory stays small for any h. The error is O(h), from the cells that the
    level set cuts.
    """
    if model.q != 2:
        raise ValueError(f"quadrature is implemented for 2-D models, got q={model.q}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    thresholds = np.atleast_1d(log_weighted_lr(model.weights, model.means, model.covariances, theta, points))
    mean = model.means[theta - 1]
    sd = np.sqrt(np.diag(model.covariances[theta - 1].matrix))
    half = np.ceil(_RADIUS * sd / h).astype(int)
    axes = [mean[i] + (np.arange(-half[i], half[i]) + 0.5) * h for i in range(2)]
    rows_per_chunk = max(1, _CHUNK_POINTS // axes[1].size)
    exceed = np.zeros(thresholds.size)
    total = 0.0
    for start in range(0, axes[0].size, rows_per_chunk):
        gx, gy = np.meshgrid(axes[0][start : start + rows_per_chunk], axes[1], indexing="ij")
        cells = np.column_stack([gx.ravel(), gy.ravel()])
        stat = log_weighted_lr(model.weights, model.means, model.covariances, theta, cells)
        mass = np.exp(model.log_density(theta, cells)) * (h * h)
        order = np.argsort(stat)
        below_mass = np.concatenate([[0.0], np.cumsum(mass[order])])
        below = np.searchsorted(stat[order], thresholds, side="left")
        exceed += below_mass[-1] - below_mass[below]
        total += below_mass[-1]
    return exceed / total


def rank_pvalue_cdf(star: np.ndarray, n: int) -> np.ndarray:
    """CDF at the levels j/(n+1), j = 1..n+1, of the ideal n-point rank p-value.

    ``star`` holds known-model p-values pi*(X) at draws X of the query's class.
    With the true statistic, the count of class members at least as extreme
    as the query is Binomial(n, pi*(x)) given x, so the rank p-value
    (count + 1)/(n + 1) is at most j/(n+1) with probability
    E[P(Bin(n, pi*(X)) <= j - 1)]. When pi*(X) is uniform (the query's own
    class) this is exactly j/(n+1).
    """
    u = np.asarray(star, dtype=float)[:, None]
    k = np.arange(n + 1, dtype=float)[None, :]
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in range(n + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0 * log(0) is taken as 0, so pi* = 0 or 1 give point masses
        log_hit = np.where(k > 0, k * np.log(u), 0.0)
        log_miss = np.where(k < n, (n - k) * np.log1p(-u), 0.0)
    pmf = np.exp(log_choose[None, :] + log_hit + log_miss)
    return np.mean(np.cumsum(pmf, axis=1), axis=0)


def refit_pvalue(fitted, mode: str, theta: int, x: np.ndarray) -> float:
    """P-value for class theta at one point x, with no shortcut.

    ``valid-shortcut`` applies the statistic's ``Augment(x, theta)`` edit and
    scores x with the class-theta rows in one ``evaluate``; ``naive`` does
    the same on the unedited fit; ``exact-swap`` swaps x in for each member
    by ``Augment(x, theta)`` and then ``Remove`` of the member, except at a
    member equal to x, which that swap leaves as it is: there the unedited
    fit scores it. Typicality is the F tail of the
    scaled squared Mahalanobis distance, one point at a time through
    ``mahalanobis_sq``.
    """
    d = fitted.data
    x = np.asarray(x, dtype=float)
    group = d.group(theta)
    if isinstance(fitted, TypicalityStatistic):
        n, n_classes, q = fitted.n, d.n_classes, fitted.q
        d2 = n - n_classes - q + 1
        c_theta = d2 / (q * (n - n_classes) * (1.0 + 1.0 / fitted.group_sizes[theta - 1]))
        return 1.0 - f_cdf(c_theta * mahalanobis_sq(x, fitted.means[theta - 1], fitted.sigma), q, d2)
    if mode == "exact-swap":
        reference = fitted.evaluate(theta, x[None, :])[0]
        augmented = fitted.edit(Augment(x, theta))
        values = [
            (fitted if np.array_equal(d.features[i], x) else augmented.edit(Remove(int(i))))
            .evaluate(theta, d.features[i][None, :])[0]
            for i in group
        ]
        return rank_pvalue(np.array(values), reference)
    if mode == "valid-shortcut":
        fitted = fitted.edit(Augment(x, theta))
    values = fitted.evaluate(theta, np.vstack([x, d.features[group]]))
    return rank_pvalue(values[1:], values[0])
