"""Special functions and small SPD-matrix linear algebra used by all statistical modules.

The distribution functions are computed from the regularized incomplete
gamma/beta functions (series vs. continued-fraction switching) so the
package carries no dependency beyond numpy and produces bit-reproducible
values across platforms.

There is one order of forward substitution: row j adds its terms
L[j, k] y[k] for k = 0, 1, ..., j - 1, then subtracts and divides,
elementwise across the points. ``solve_lower`` runs it on the columns of its
right-hand side and ``whiten_rows`` is its row-major view.
``mahalanobis_sq_columns`` runs it on component columns, ``x[:, j] - mu[j]``
with no (m, q) difference or transposed copy, and sums the squared
components one at a time; ``mahalanobis_sq`` is its one-class case. A point
therefore gets the same bits alone as in a batch of any width, which the
rank p-values need: a training row equal to a query must tie with it
exactly.
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


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _beta_inc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, 0 <= x <= 1."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(log_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _beta_cf(a, b, x) / a
    return 1.0 - bt * _beta_cf(b, a, 1.0 - x) / b


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


def f_cdf(x: float, d1: int, d2: int) -> float:
    """F-distribution CDF with (d1, d2) degrees of freedom; absolute error below 1e-10."""
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be positive, got ({d1}, {d2})")
    if x < 0.0:
        raise ValueError(f"F argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    return _beta_inc_reg(0.5 * d1, 0.5 * d2, d1 * x / (d1 * x + d2))


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
    y = np.array(rhs, dtype=float, order="C")
    vec = y.ndim == 1
    if vec:
        y = y[:, None]
    if y.shape[0] != q:
        raise ValueError(f"dimension mismatch: factor is {q}x{q}, rhs has {y.shape[0]} rows")
    for j in range(q):
        if j > 0:
            terms = lower[j, 0] * y[0]
            for k in range(1, j):
                terms += lower[j, k] * y[k]
            y[j] -= terms
        y[j] /= lower[j, j]
    return y[:, 0] if vec else y


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
    lower = sigma.chol_lower
    if columns.shape[0] != sigma.dim:
        raise ValueError(f"dimension mismatch: points have {columns.shape[0]} components, matrix is {sigma.dim}x{sigma.dim}")
    whitened = []
    for j in range(sigma.dim):
        y = columns[j] - mu[j]
        if j > 0:
            terms = lower[j, 0] * whitened[0]
            for k in range(1, j):
                terms += lower[j, k] * whitened[k]
            y -= terms
        y /= lower[j, j]
        whitened.append(y)
    out = np.zeros(columns.shape[1])
    for y in whitened:
        y *= y
        out += y
    return out
