"""Special functions and small SPD-matrix linear algebra used by all statistical modules.

The distribution functions are computed from the regularized incomplete
gamma/beta functions (series vs. continued-fraction switching) so the
package carries no dependency beyond numpy and produces bit-reproducible
values across platforms. There is one continued fraction for the
incomplete beta, ``_beta_cf``, elementwise over a batch: each element goes
through the scalar recurrence's IEEE operations and leaves the batch when it
converges, and its log prefactor comes from ``math``. ``_f_cdf_each`` runs
a batch of F-distribution CDFs or upper tails through it, and ``f_cdf`` and
``f_sf`` are its one-element cases, so a value has the same bits alone as in
a batch.

``log_sum_exp`` is max-shifted; ``_log_sum_exp_rows`` does its operations
in the caller's buffer of stacked terms, for the plug-in closed form and
``oracle.log_weighted_lr``.

There is one forward substitution, ``_forward_substitute``: row j adds its
terms L[j, k] y[k] for k = 0, 1, ..., j - 1, then subtracts and divides,
elementwise across the points, on component columns less mu,
``x[:, j] - mu[j]`` with no (m, q) difference or transposed copy.
``solve_lower`` runs it on the columns of its right-hand side with mu = 0,
and ``whiten_rows`` is its row-major view; ``mahalanobis_sq_columns`` runs
it and sums the squared components one at a time, and ``mahalanobis_sq``
is its one-class case. A point therefore gets the same bits alone as in a
batch of any width, which the rank p-values need: a training row equal to a
query must tie with it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SingularMatrixError",
    "SpdMatrix",
    "cholesky",
    "chisq_cdf",
    "chisq_sf",
    "f_cdf",
    "f_sf",
    "log_sum_exp",
    "mahalanobis_sq",
    "mahalanobis_sq_columns",
    "solve_lower",
    "std_normal_cdf",
    "whiten_rows",
]

_MAX_ITER = 500
_EPS = 1e-16
_TINY = 1e-300


class SingularMatrixError(ValueError):
    """Cholesky pivot fell below tolerance; the matrix is not numerically SPD."""

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF, absolute error below 1e-12; saturates at 0/1 for extreme z."""
    return 0.5 * math.erfc(-float(z) / math.sqrt(2.0))


def _gamma_reg(a: float, x: float, upper: bool) -> float:
    """Regularized incomplete gamma for a > 0, x >= 0: Q(a, x) if upper, else
    P(a, x). The series gives P where x < a + 1 and the continued fraction
    gives Q elsewhere; the other is one minus it, so a tail Q far below P's
    rounding keeps its digits."""
    if x < 0.0:
        raise ValueError(f"negative argument x={x}")
    if x == 0.0:
        return 1.0 if upper else 0.0
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        # series: P(a,x) = e^{-x} x^a / Gamma(a) * sum_n x^n / (a(a+1)...(a+n))
        term = 1.0 / a
        total = term
        for n in range(1, _MAX_ITER):
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        lower = min(1.0, math.exp(log_prefactor) * total)
        return 1.0 - lower if upper else lower
    # continued fraction for Q(a,x), modified Lentz
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    tail = math.exp(log_prefactor) * h
    return tail if upper else max(0.0, 1.0 - tail)


def _beta_cf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz), elementwise.

    Each element goes through the IEEE operations of the scalar recurrence
    and leaves the active set on the step at which it converges, so it gets
    the same bits alone as in any batch.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d[np.abs(d) < _TINY] = _TINY
    d = 1.0 / d
    h = d.copy()
    out = np.empty_like(x)
    active = np.arange(x.size)
    for m in range(1, _MAX_ITER):
        if not active.size:
            break
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < _TINY] = _TINY
        c = 1.0 + aa / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < _TINY] = _TINY
        c = 1.0 + aa / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            out[active[done]] = h[done]
            going = ~done
            active, a, b, x, qab, qap, qam, c, d, h = (
                v[going] for v in (active, a, b, x, qab, qap, qam, c, d, h)
            )
    out[active] = h
    return out


def _f_cdf_each(x: np.ndarray, d1: int, d2: int, upper: bool = False) -> np.ndarray:
    """``f_cdf``, or with ``upper`` ``f_sf``, at each element of the array
    x >= 0, the arguments unchecked: I_z(d1/2, d2/2) at z = d1 x/(d1 x + d2)
    or its complement, every element through one ``_beta_cf``. The back of
    the range takes the fraction of I_w(b, a), w = d2/(d1 x + d2) = 1 - z
    free of z's rounding, which is the upper tail itself, so a tail keeps its
    digits down to 1e-300. Each log prefactor comes from ``math``, whose exp
    and log may round otherwise than numpy's."""
    a, b = 0.5 * d1, 0.5 * d2
    z, w = d1 * x / (d1 * x + d2), d2 / (d1 * x + d2)
    out = np.where(z <= 0.0, float(upper), float(not upper))
    inner = np.flatnonzero((z > 0.0) & (w > 0.0))
    z, w = z[inner], w[inner]
    front = z < (a + 1.0) / (a + b + 2.0)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    bt = np.array([math.exp(log_norm + a * math.log(v) + b * (math.log1p(-v) if f else math.log(u)))
                   for v, u, f in zip(z.tolist(), w.tolist(), front.tolist())])
    cf = _beta_cf(np.where(front, a, b), np.where(front, b, a), np.where(front, z, w))
    cf *= bt
    cf /= np.where(front, a, b)
    out[inner] = np.where(front != upper, cf, 1.0 - cf)
    return out


def _chisq_gamma(x: float, q: int, upper: bool) -> float:
    if q < 1:
        raise ValueError(f"degrees of freedom must be positive, got {q}")
    if x < 0.0:
        raise ValueError(f"chi-square argument must be nonnegative, got {x}")
    return _gamma_reg(0.5 * q, 0.5 * x, upper)


def chisq_cdf(x: float, q: int) -> float:
    """Chi-square CDF with q degrees of freedom; absolute error below 1e-10."""
    return _chisq_gamma(x, q, upper=False)


def chisq_sf(x: float, q: int) -> float:
    """Chi-square upper tail 1 - CDF with q degrees of freedom. The tail is
    summed directly, not taken as 1 - CDF, so it keeps a relative error near
    1e-13 down to 1e-300, where 1 - CDF would round to 0."""
    return _chisq_gamma(x, q, upper=True)


def _f_checked(x: float, d1: int, d2: int, upper: bool) -> float:
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be positive, got ({d1}, {d2})")
    if x < 0.0:
        raise ValueError(f"F argument must be nonnegative, got {x}")
    return float(_f_cdf_each(np.array([x], dtype=float), d1, d2, upper)[0])


def f_cdf(x: float, d1: int, d2: int) -> float:
    """F-distribution CDF with (d1, d2) degrees of freedom; absolute error
    below 1e-10. The one-element case of ``_f_cdf_each``."""
    return _f_checked(x, d1, d2, upper=False)


def f_sf(x: float, d1: int, d2: int) -> float:
    """F-distribution upper tail 1 - CDF with (d1, d2) degrees of freedom,
    summed directly: a relative error near 1e-13 down to 1e-300 for d2 up
    to a few hundred, where 1 - CDF would round to 0."""
    return _f_checked(x, d1, d2, upper=True)


def log_sum_exp(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Max-shifted log(sum(exp(values))); tolerates -inf entries; returns a one-term axis as a view."""
    values = np.asarray(values, dtype=float)
    if axis is not None and values.shape[axis] == 1:
        return np.squeeze(values, axis=axis)
    shift = np.max(values, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    summed = np.sum(np.exp(values - shift), axis=axis, keepdims=True)
    out = np.log(summed) + shift
    if axis is None:
        return out.reshape(()).item()
    return np.squeeze(out, axis=axis)


def _log_sum_exp_rows(terms: np.ndarray) -> np.ndarray:
    """``log_sum_exp(terms, axis=0)`` of a C-ordered float array, computed
    in the caller's buffer ``terms``, which it overwrites: one term is
    returned as a view, and more are shifted, exponentiated, summed and
    logged in ``log_sum_exp``'s order of operations, with its bits."""
    if terms.shape[0] == 1:
        return terms[0]
    shift = np.max(terms, axis=0)
    shift[~np.isfinite(shift)] = 0.0
    terms -= shift
    out = np.sum(np.exp(terms, out=terms), axis=0)
    np.log(out, out=out)
    out += shift
    return out


def cholesky(matrix: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix.

    Pivots are checked against 1e-12 times the largest diagonal entry, so the
    tolerance follows the matrix scale. Raises SingularMatrixError with the
    failing pivot index otherwise.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    q = m.shape[0]
    if q == 0:
        return np.zeros((0, 0))
    scale = float(np.max(np.abs(m)))
    if scale > 0.0 and float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12 relative tolerance")
    tol = 1e-12 * max(float(np.max(np.diag(m))), 0.0)
    lower = np.zeros_like(m)
    for j in range(q):
        pivot = m[j, j] - float(lower[j, :j] @ lower[j, :j])
        if pivot <= tol:
            raise SingularMatrixError(
                f"pivot {pivot:.6g} at index {j} below tolerance {tol:.6g}", pivot_index=j
            )
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < q:
            lower[j + 1 :, j] = (m[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def solve_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution for L y = rhs; rhs may be (q,) or (q, m).

    The substitution runs elementwise across the m columns, and row j adds
    its terms L[j, k] y[k] in the order k = 0, 1, ..., j - 1 before the
    subtraction. So a column gets the same bits whatever the other columns
    hold and however many there are.
    """
    q = lower.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    vec = rhs.ndim == 1
    columns = rhs[:, None] if vec else rhs
    if columns.shape[0] != q:
        raise ValueError(f"dimension mismatch: factor is {q}x{q}, rhs has {columns.shape[0]} rows")
    y = _forward_substitute(lower, columns, np.zeros(q))
    return y[:, 0] if vec else y


def _forward_substitute(lower: np.ndarray, columns: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The (q, m) solution y of L y = columns - mu, each component
    ``columns[j] - mu[j]`` made in its row of y, with no difference array."""
    y = np.empty((lower.shape[0], columns.shape[1]))
    for j in range(lower.shape[0]):
        np.subtract(columns[j], mu[j], out=y[j])
        if j > 0:
            terms = lower[j, 0] * y[0]
            for k in range(1, j):
                terms += lower[j, k] * y[k]
            y[j] -= terms
        y[j] /= lower[j, j]
    return y


def whiten_rows(lower: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``solve_lower`` for each row of an (m, q) batch, as rows: (m, q)."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"expected an (m, q) batch of rows, got shape {rows.shape}")
    return solve_lower(lower, rows.T).T


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric positive-definite matrix with its Cholesky factor cached."""

    matrix: np.ndarray
    chol_lower: np.ndarray = field(init=False, repr=False)
    log_det: float = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        lower = cholesky(m)
        m.setflags(write=False)
        lower.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "chol_lower", lower)
        object.__setattr__(self, "log_det", 2.0 * float(np.sum(np.log(np.diag(lower)))) if m.shape[0] else 0.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def mahalanobis_sq(x: np.ndarray, mu: np.ndarray, sigma: SpdMatrix) -> np.ndarray | float:
    """Squared Mahalanobis norm of x - mu against the cached factor.

    x may be a single vector (q,) or a batch (m, q); batches return an (m,)
    array, whose entry for a point has the bits that point gets alone.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    out = mahalanobis_sq_columns(pts.T, np.asarray(mu, dtype=float), sigma)
    return float(out[0]) if single else out


def mahalanobis_sq_columns(columns: np.ndarray, mu: np.ndarray, sigma: SpdMatrix) -> np.ndarray:
    """Squared Mahalanobis norms of m points given as a (q, m) array of
    component columns, which a caller scoring several classes splits once.

    The substitution and the sum of squares go in ``solve_lower``'s order of
    operations, so a point gets the bits of ``solve_lower`` on its difference,
    alone or in any batch.
    """
    if columns.shape[0] != sigma.dim:
        raise ValueError(f"dimension mismatch: points have {columns.shape[0]} components, matrix is {sigma.dim}x{sigma.dim}")
    out = np.zeros(columns.shape[1])
    for y in _forward_substitute(sigma.chol_lower, columns, mu):
        y *= y
        out += y
    return out
