"""Independent references for the benchmark's output checks.

Plain numpy (and scipy for the F tail); nothing here imports classpv, so a
fault in the package cannot hide in its own yardstick. Every statistic is
refit from scratch for every p-value:

* plug-in: class means and pooled covariance (divisor n - L) by numpy, the
  weighted likelihood-ratio statistic by ``numpy.linalg.solve``;
* k-NN: the closed k-ball counted directly from all pairwise distances;
* logistic: Newton-Raphson from zero, until the step is below 1e-13;
* typicality: ``scipy.stats.f.sf`` of the scaled Mahalanobis distance;
* known-model p-values: polar quadrature of the class density over the set
  where the likelihood-ratio statistic is at least its value at x.

One model of a known fault sits beside them
(``knn_valid_shortcut_slot_model``): it says which k-NN p-values the
program's unsorted (k-1)-th radius changes, so that the checks excuse those
and nothing else.

Rank p-values count with ``>=``. Each one is returned as ``(p, lo, hi)``:
``p`` counts exactly, ``lo`` and ``hi`` count the statistics that lie 1e-9
above and below the reference value, so a disagreement that ``lo <= p <= hi``
explains is a float tie, not a fault. k-NN statistics are ratios of integer
counts, equal bit for bit in program and reference, so for them
``lo = p = hi``.
"""

from __future__ import annotations

import math

import numpy as np

TIE_TOL = 1e-9
EXAMPLE22_WEIGHTS = np.full(3, 1.0 / 3.0)
EXAMPLE22_MEANS = np.array([[-1.0, 1.0], [-1.0, -1.0], [2.0, 0.0]])
EXAMPLE22_COVS = np.array([[[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.5], [0.5, 1.0]], [[0.4, 0.0], [0.0, 0.4]]])


def default_k(n: int) -> int:
    """ceil(n^(2/3)), the k-NN neighbourhood size when none is given."""
    return max(1, math.ceil(n ** (2.0 / 3.0)))


def rank_pvalue(values: np.ndarray, reference: float, exact: bool = False) -> tuple[float, float, float]:
    """(count + 1)/(N + 1) with count = #{values >= reference}, plus the tie range.

    With ``exact`` the statistic is computed bit for bit as the program does
    (k-NN: ratios of integer counts), so the range is the count itself.
    """
    values = np.asarray(values, dtype=float)
    tol = 0.0 if exact else TIE_TOL * max(1.0, abs(reference))
    denom = values.size + 1.0
    exact = np.count_nonzero(values >= reference)
    lo = np.count_nonzero(values >= reference + tol)
    hi = np.count_nonzero(values >= reference - tol)
    return (exact + 1) / denom, (lo + 1) / denom, (hi + 1) / denom


def agrees(p: float, ref: tuple[float, float, float], tol: float = 1e-9) -> str:
    """'equal', 'tie' (explained by statistics within 1e-9) or 'differ'."""
    exact, lo, hi = ref
    if abs(p - exact) <= tol:
        return "equal"
    if lo - tol <= p <= hi + tol:
        return "tie"
    return "differ"


# ---------------------------------------------------------------------------
# Gaussian plug-in
# ---------------------------------------------------------------------------


def _pooled(X: np.ndarray, y: np.ndarray, n_classes: int):
    means = np.array([X[y == b].mean(axis=0) for b in range(1, n_classes + 1)])
    resid = X - means[y - 1]
    cov = resid.T @ resid / (X.shape[0] - n_classes)
    sizes = np.array([np.count_nonzero(y == b) for b in range(1, n_classes + 1)], dtype=float)
    return means, cov, sizes


def _log_lr(weights, means, covs, theta, pts):
    """log sum_{b != theta} (w_b / W) f_b(x) / f_theta(x) for Gaussian f_b."""
    pts = np.atleast_2d(pts)
    log_f = []
    for mean, cov in zip(means, covs):
        diff = pts - mean
        maha = np.einsum("ij,ji->i", diff, np.linalg.solve(cov, diff.T))
        log_f.append(-0.5 * (np.linalg.slogdet(cov)[1] + maha))
    log_f = np.array(log_f)
    others = [b for b in range(len(means)) if b != theta - 1]
    w = np.asarray(weights, dtype=float)[others]
    terms = np.log(w / w.sum())[:, None] + log_f[others] - log_f[theta - 1]
    top = terms.max(axis=0)
    return top + np.log(np.exp(terms - top).sum(axis=0))


def plugin_statistic(X, y, n_classes, theta, pts):
    """Plug-in statistic fit on (X, y), evaluated at pts; larger is less plausible."""
    means, cov, sizes = _pooled(X, y, n_classes)
    return _log_lr(sizes / sizes.sum(), means, [cov] * n_classes, theta, pts)


# ---------------------------------------------------------------------------
# k-nearest neighbours
# ---------------------------------------------------------------------------


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances, summed coordinate by coordinate in order."""
    out = (A[:, None, 0] - B[None, :, 0]) ** 2
    for j in range(1, A.shape[1]):
        out += (A[:, None, j] - B[None, :, j]) ** 2
    return out


def knn_statistic(X, y, n_classes, k, theta, pts):
    """Minus the share of class theta in the closed k-ball of each point.

    The ball's radius is the k-th smallest distance from the point to the
    rows of X; a point that is itself a row of X counts itself at distance 0.
    """
    d = _sq_dists(np.atleast_2d(pts), X)
    radius = np.partition(d, k - 1, axis=1)[:, k - 1]
    ball = d <= radius[:, None]
    return -np.count_nonzero(ball & (y == theta)[None, :], axis=1) / np.count_nonzero(ball, axis=1)


def knn_valid_shortcut_slot_model(X, y, theta, x, k, radius_km1="partition"):
    """Model of a known fault: the valid-shortcut k-NN p-value as it comes out
    when each training point's (k-1)-th radius is read the way
    ``classpv.estimators.knn_fit`` reads it, from
    ``np.partition(d, k - 1)[:, k - 2]``, a slot that partition leaves unsorted.

    When x falls strictly inside the k-ball of a member, the member's ball
    in the augmented data is its ball of the (k-1)-th radius plus x; on a tie
    it keeps its k-ball plus x; otherwise its k-ball is unchanged. With
    ``radius_km1="sorted"`` the radius is the true (k-1)-th one and the model
    equals ``valid_shortcut("knn", ...)`` wherever no distances tie. The
    distances go into ``np.partition`` with the bits the program gives them
    (for q = 2 both add the two squared differences), so the model
    reproduces the program's slot; it is not a reference, only a way to name
    the (row, class) pairs that the fault predicts to be wrong.
    """
    d = _sq_dists(X, X)
    part = np.partition(d, k - 1, axis=1) if radius_km1 == "partition" else np.sort(d, axis=1)
    r_k, r_km1 = part[:, k - 1], part[:, k - 2]
    dx = _sq_dists(np.atleast_2d(x), X)[0]
    group = np.flatnonzero(y == theta)
    radius = np.where(dx < r_k, r_km1, r_k)[group]
    ball = d[group] <= radius[:, None]
    with_x = (dx <= r_k)[group]
    swapped = -(np.count_nonzero(ball & (y == theta)[None, :], axis=1) + with_x) / (
        np.count_nonzero(ball, axis=1) + with_x)
    query = knn_statistic(np.vstack([X, x]), np.append(y, theta), None, k, theta, x)[0]
    return float(rank_pvalue(swapped, float(query), exact=True)[0])


# ---------------------------------------------------------------------------
# Two-class logistic regression
# ---------------------------------------------------------------------------


class Separated(Exception):
    """Newton-Raphson did not converge: the maximum-likelihood fit does not exist."""


def logistic_coefficients(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Maximum-likelihood (intercept, slopes) of the class-2 log-odds."""
    design = np.column_stack([np.ones(X.shape[0]), X])
    target = (y == 2).astype(float)
    beta = np.zeros(design.shape[1])
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(design @ beta)))
        hess = design.T @ (design * (p * (1.0 - p))[:, None])
        step = np.linalg.solve(hess, design.T @ (target - p))
        beta = beta + step
        if np.max(np.abs(beta)) > 30.0:
            raise Separated
        if np.max(np.abs(step)) <= 1e-13 * max(1.0, float(np.max(np.abs(beta)))):
            return beta
    raise Separated


def logistic_statistic(X, y, n_classes, theta, pts):
    """Class-2 log-odds for theta = 1, its negative for theta = 2."""
    beta = logistic_coefficients(X, y)
    score = beta[0] + np.atleast_2d(pts) @ beta[1:]
    return score if theta == 1 else -score


# ---------------------------------------------------------------------------
# Rank p-values by mode, refitting from scratch
# ---------------------------------------------------------------------------


def _evaluate(statistic, X, y, n_classes, k, theta, pts):
    if statistic == "plugin":
        return plugin_statistic(X, y, n_classes, theta, pts)
    if statistic == "logistic":
        return logistic_statistic(X, y, n_classes, theta, pts)
    if statistic == "knn":
        return knn_statistic(X, y, n_classes, k, theta, pts)
    raise ValueError(f"no reference for statistic {statistic!r}")


def valid_shortcut(statistic, X, y, n_classes, theta, x, k=None):
    """One fit on the data augmented with (x, theta); x ranks among class theta."""
    Xa = np.vstack([X, x])
    ya = np.append(y, theta)
    group = np.flatnonzero(y == theta)
    stats = _evaluate(statistic, Xa, ya, n_classes, k, theta, np.vstack([x, X[group]]))
    return rank_pvalue(stats[1:], float(stats[0]), exact=statistic == "knn")


def exact_swap(statistic, X, y, n_classes, theta, x, k=None):
    """One fit per class-theta member, with that member replaced by x."""
    group = np.flatnonzero(y == theta)
    reference = float(_evaluate(statistic, X, y, n_classes, k, theta, x)[0])
    swapped = np.empty(group.size)
    for j, i in enumerate(group):
        Xs = X.copy()
        Xs[i] = x
        swapped[j] = _evaluate(statistic, Xs, y, n_classes, k, theta, X[i])[0]
    return rank_pvalue(swapped, reference, exact=statistic == "knn")


def leave_one_out(statistic, X, y, n_classes, i, theta, k=None):
    """Valid-shortcut p-value of row i for class theta on the data without row i."""
    keep = np.arange(X.shape[0]) != i
    return valid_shortcut(statistic, X[keep], y[keep], n_classes, theta, X[i], k)


# ---------------------------------------------------------------------------
# Typicality: the F tail of the scaled Mahalanobis distance
# ---------------------------------------------------------------------------


def typicality(X, y, n_classes, theta, pts) -> np.ndarray:
    """The F(q, n - L - q + 1) tail of the scaled Mahalanobis distance to class theta."""
    from scipy.stats import f  # loaded by the checks only, so it stays out of peak_rss_mib

    means, cov, sizes = _pooled(X, y, n_classes)
    n, q = X.shape
    d2 = n - n_classes - q + 1
    scale = d2 / (q * (n - n_classes) * (1.0 + 1.0 / sizes[theta - 1]))
    diff = np.atleast_2d(pts) - means[theta - 1]
    maha = np.einsum("ij,ji->i", diff, np.linalg.solve(cov, diff.T))
    return f.sf(scale * maha, q, d2)


# ---------------------------------------------------------------------------
# Known-model p-values by quadrature
# ---------------------------------------------------------------------------


def quadrature_pvalues(weights, means, covs, theta, pts, n_angles=1024, r_max=7.5, dr=0.01):
    """P(T_theta(Z) >= T_theta(x)) for Z ~ class theta, by polar quadrature.

    Z = mean + L r (cos phi, sin phi) with L the Cholesky factor of the class
    covariance, so r has density r exp(-r^2/2) and phi is uniform. Along each
    of ``n_angles`` rays T is sampled every ``dr``; where T - t changes sign
    the crossing is placed by linear interpolation, and the radial mass of
    every stretch with T >= t is integrated exactly as exp(-a^2/2) -
    exp(-b^2/2). The mass beyond ``r_max`` is exp(-r_max^2/2) < 1e-12.

    On the example-2.2 model this agrees with 8192 angles and dr = 0.002
    within 1e-6 wherever p < 0.2. Larger p can be off by up to 1e-4: when
    the level set of T passes close to the class mean, rays nearly parallel
    to it are too few.
    """
    pts = np.atleast_2d(pts)
    thresholds = _log_lr(weights, means, covs, theta, pts)
    chol = np.linalg.cholesky(covs[theta - 1])
    phi = (np.arange(n_angles) + 0.5) * (2.0 * math.pi / n_angles)
    radii = np.arange(0.0, r_max + 0.5 * dr, dr)
    rays = np.column_stack([np.cos(phi), np.sin(phi)]) @ chol.T
    z = means[theta - 1] + radii[None, :, None] * rays[:, None, :]
    stat = _log_lr(weights, means, covs, theta, z.reshape(-1, 2)).reshape(n_angles, radii.size)
    lo, hi = stat[:, :-1].ravel(), stat[:, 1:].ravel()
    r0 = np.broadcast_to(radii[:-1], stat[:, :-1].shape).ravel()
    r1 = r0 + dr
    mass = np.exp(-0.5 * r0 ** 2) - np.exp(-0.5 * r1 ** 2)
    # stretches lying wholly above t, summed through a sort on their minimum
    low, high = np.minimum(lo, hi), np.maximum(lo, hi)
    order = np.argsort(low)
    low_sorted = low[order]
    tail = np.concatenate([np.cumsum(mass[order][::-1])[::-1], [0.0]])
    out = np.empty(thresholds.size)
    for j, t in enumerate(thresholds):
        whole = tail[np.searchsorted(low_sorted, t, side="left")]
        cut = np.flatnonzero((low < t) & (high >= t))
        a, b = lo[cut] - t, hi[cut] - t
        g_cross = np.exp(-0.5 * (r0[cut] + dr * a / (a - b)) ** 2)
        part = np.where(a >= 0, np.exp(-0.5 * r0[cut] ** 2) - g_cross, g_cross - np.exp(-0.5 * r1[cut] ** 2))
        out[j] = (whole + part.sum()) / n_angles
    return out


def two_class_closed_form(delta: float, theta: int, pts) -> np.ndarray:
    """Known-model p-value for N(0, I) vs N(delta e1, I) with equal weights.

    The statistic is monotone in the first coordinate, so the p-value is a
    normal tail: P(Z1 >= x1) = Phi(-x1) for theta = 1 and
    P(Z1 <= x1) = Phi(x1 - delta) for theta = 2.
    """
    x1 = np.atleast_2d(pts)[:, 0]
    z = -x1 if theta == 1 else x1 - delta
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])
