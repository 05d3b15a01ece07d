"""A 50-digit reference for the two-matrix functions and the equivalent
equation, for tests only.

Each function takes the stored float entries of its inputs as exact values,
evaluates the formula of the paper in ``DIGITS``-digit mpmath arithmetic
(spectral functions through ``mpmath.eigsy``), and rounds the result to
float once.  A float result is so held to the exact value of its own inputs,
not of the matrices they were drawn to approximate.  Matrices may be given
as arrays or as objects with ``entries``.
"""

import mpmath
import numpy as np

DIGITS = 50


def _mp(m) -> mpmath.matrix:
    return mpmath.matrix(np.asarray(getattr(m, "entries", m), dtype=float).tolist())


def _float(m: mpmath.matrix) -> np.ndarray:
    return np.array(m.tolist(), dtype=float)


def _spectral(m: mpmath.matrix, f) -> mpmath.matrix:
    """Q diag(f(lam)) Q^T of the symmetric matrix m."""
    lam, q = mpmath.eigsy((m + m.T) / 2)
    return q * mpmath.diag([f(v) for v in lam]) * q.T


def _geometric_mean(a: mpmath.matrix, b: mpmath.matrix, t) -> mpmath.matrix:
    """A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}."""
    root, inv_root = _spectral(a, mpmath.sqrt), _spectral(a, lambda v: 1 / mpmath.sqrt(v))
    return root * _spectral(inv_root * b * inv_root, lambda v: v ** mpmath.mpf(t)) * root


def geometric_mean(a, b, t: float = 0.5) -> np.ndarray:
    """A #_t B."""
    with mpmath.workdps(DIGITS):
        return _float(_geometric_mean(_mp(a), _mp(b), t))


def wasserstein_distance(a, b) -> float:
    """[tr((A+B)/2) - tr(A^{1/2} B A^{1/2})^{1/2}]^{1/2}; the traces cancel in
    float, not in 50 digits."""
    with mpmath.workdps(DIGITS):
        a, b = _mp(a), _mp(b)
        root = _spectral(a, mpmath.sqrt)
        lam, _ = mpmath.eigsy(root * b * root)
        fidelity = mpmath.fsum(mpmath.sqrt(v) for v in lam)
        half_sum = mpmath.fsum(a[i, i] + b[i, i] for i in range(a.rows)) / 2
        return float(mpmath.sqrt(max(half_sum - fidelity, 0)))


def equivalent_residual(matrices, weights, x) -> float:
    """||I - sum_j w_j (A_j # X^{-1})||_F, the residual of the equivalent
    equation of the Wasserstein mean at X, with the weights as stored."""
    with mpmath.workdps(DIGITS):
        inv_x = mpmath.inverse(_mp(x))
        acc = mpmath.eye(inv_x.rows)
        for a, w in zip(matrices, np.asarray(getattr(weights, "values", weights), dtype=float)):
            acc -= mpmath.mpf(float(w)) * _geometric_mean(_mp(a), inv_x, 0.5)
        return float(mpmath.mnorm(acc, "f"))
