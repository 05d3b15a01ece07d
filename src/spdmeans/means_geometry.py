"""Two-matrix means and metrics on the SPD cone.

Provides the weighted geometric mean (the trace-metric geodesic), the
Riemannian trace distance, the optimal-transport (Bures) distance with an
independent brute-force minimizer for 2x2 input, the transport geodesic, and
the geodesic perturbation bound report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spd_core import (
    NumericalBreakdownError,
    SpdMatrix,
    apply_spectral,
    congruence,
    frobenius_norm,
    scale_exponent,
    trace,
)

# tr((A+B)/2) - fidelity can dip microscopically negative when A is close to
# B; values inside this window clamp to zero, anything lower is a breakdown.
RADICAND_CLAMP = 1e-12

# Angles in the coarse grid and in each refinement window of the 2x2 oracle.
ORACLE_GRID = 720


def _check_pair(a: SpdMatrix, b: SpdMatrix) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _check_unit_interval(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {t!r}")
    return t


def geometric_mean(a: SpdMatrix, b: SpdMatrix, t: float = 0.5) -> SpdMatrix:
    """Weighted geometric mean A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}.

    At t = 1/2 this is the unique SPD solution of the Riccati equation
    X A^{-1} X = B.
    """
    _check_pair(a, b)
    t = _check_unit_interval(t)
    inner = SpdMatrix(congruence(apply_spectral(a, "inv_sqrt").entries, b))
    inner_pow = apply_spectral(inner, "power", t)
    return SpdMatrix(congruence(apply_spectral(a, "sqrt").entries, inner_pow))


def riemannian_distance(a: SpdMatrix, b: SpdMatrix) -> float:
    """Trace-metric distance ||log(A^{-1/2} B A^{-1/2})||_F."""
    _check_pair(a, b)
    inner = SpdMatrix(congruence(apply_spectral(a, "inv_sqrt").entries, b))
    return math.sqrt(float(np.sum(np.log(inner.eigen.lam) ** 2)))


def wasserstein_distance(a: SpdMatrix, b: SpdMatrix) -> float:
    """Optimal-transport distance [tr((A+B)/2) - tr(A^{1/2} B A^{1/2})^{1/2}]^{1/2}.

    The cross term tr(A^{1/2} B A^{1/2})^{1/2} is the fidelity of the pair.
    It is taken from the product times 16^-s (s from ``scale_exponent``,
    exact, so the product neither overflows nor underflows) and scaled back,
    so the clamp window below applies to the unscaled radicand.
    Equal inputs return exactly zero: the trace difference cancels
    catastrophically there, so the formula path would only report the
    cancellation noise inflated by the outer square root.
    """
    _check_pair(a, b)
    if np.array_equal(a.entries, b.entries):
        return 0.0
    s = scale_exponent(a.entries, b.entries)
    mixed = SpdMatrix(congruence(np.ldexp(apply_spectral(a, "sqrt").entries, -2 * s), b))
    fidelity = math.ldexp(float(np.sum(np.sqrt(mixed.eigen.lam))), 2 * s)
    radicand = 0.5 * (trace(a) + trace(b)) - fidelity
    if radicand < -RADICAND_CLAMP:
        raise NumericalBreakdownError(
            f"squared distance evaluated to {radicand:.6e}, below the clamp window"
        )
    return math.sqrt(max(radicand, 0.0))


def wasserstein_distance_oracle_2x2(a: SpdMatrix, b: SpdMatrix) -> float:
    """Brute-force distance for 2x2 input: minimize ||A^{1/2} - B^{1/2} U||_F / sqrt(2)
    over the real orthogonal group.

    The group is sampled as rotations and rotation-reflections on an angle
    grid, then refined twice on a shrinking window around the best angle.
    Serves as an implementation-independent cross-check of
    ``wasserstein_distance``; it shares only the matrix square root with it.
    """
    _check_pair(a, b)
    if a.dim != 2:
        raise ValueError("oracle is only defined for 2x2 matrices")
    sqrt_a = apply_spectral(a, "sqrt").entries
    sqrt_b = apply_spectral(b, "sqrt").entries

    def best_on(thetas: np.ndarray) -> tuple[float, float]:
        c, s = np.cos(thetas), np.sin(thetas)
        # rotations [[c, -s], [s, c]] and reflections [[c, s], [s, -c]]
        u = np.empty((2, thetas.size, 2, 2))
        u[0, :, 0, 0] = c
        u[0, :, 0, 1] = -s
        u[0, :, 1, 0] = s
        u[0, :, 1, 1] = c
        u[1, :, 0, 0] = c
        u[1, :, 0, 1] = s
        u[1, :, 1, 0] = s
        u[1, :, 1, 1] = -c
        residual = sqrt_a[None, None] - np.einsum("ij,bnjk->bnik", sqrt_b, u)
        norms = np.sqrt(np.sum(residual * residual, axis=(2, 3)))
        flat = int(np.argmin(norms))
        branch, idx = divmod(flat, thetas.size)
        return float(norms[branch, idx]), float(thetas[idx])

    thetas = np.arange(ORACLE_GRID) * (2.0 * math.pi / ORACLE_GRID)
    best_val, best_theta = best_on(thetas)
    window = 2.0 * math.pi / ORACLE_GRID
    for _ in range(2):
        refined = best_theta + np.linspace(-window, window, ORACLE_GRID)
        val, theta = best_on(refined)
        if val < best_val:
            best_val, best_theta = val, theta
        window = 2.0 * window / ORACLE_GRID
    return best_val / math.sqrt(2.0)


def wasserstein_geodesic(a: SpdMatrix, b: SpdMatrix, t: float) -> SpdMatrix:
    """Transport geodesic (1-t)^2 A + t^2 B + t(1-t) [(AB)^{1/2} + (BA)^{1/2}].

    Endpoints are exact.  (AB)^{1/2} is evaluated through the similarity
    reduction A^{1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}, which keeps every
    square root inside the symmetric eigensolver's domain.  The inner product
    is formed times 16^-s, as in ``wasserstein_distance``, and its root
    scaled back.
    """
    _check_pair(a, b)
    t = _check_unit_interval(t)
    if t == 0.0:
        return a
    if t == 1.0:
        return b
    sqrt_a = apply_spectral(a, "sqrt").entries
    inv_sqrt_a = apply_spectral(a, "inv_sqrt").entries
    s = scale_exponent(a.entries, b.entries)
    mixed = SpdMatrix(congruence(np.ldexp(sqrt_a, -2 * s), b))
    cross = np.ldexp(sqrt_a @ apply_spectral(mixed, "sqrt").entries @ inv_sqrt_a, 2 * s)
    g = (1.0 - t) ** 2 * a.entries + t**2 * b.entries + t * (1.0 - t) * (cross + cross.T)
    return SpdMatrix(g)


@dataclass(frozen=True)
class DistanceBoundReport:
    """Both sides of the geodesic perturbation bound, plus the eigenvalue in
    its constant.  No inequality is asserted here; consumers compare
    ``lhs <= rhs`` themselves so that violations surface as data."""

    lhs: float
    rhs: float
    lambda1: float


def geodesic_perturbation_bound(
    a: SpdMatrix, b: SpdMatrix, c: SpdMatrix, t: float
) -> DistanceBoundReport:
    """Report d(A <>_t B, A <>_t C) against t sqrt(lambda_1(A)/2) ||A^{-1}#B - A^{-1}#C||_F."""
    _check_pair(a, b)
    _check_pair(a, c)
    t = _check_unit_interval(t)
    lhs = wasserstein_distance(wasserstein_geodesic(a, b, t), wasserstein_geodesic(a, c, t))
    inv_a = apply_spectral(a, "inverse")
    mid_b = geometric_mean(inv_a, b)
    mid_c = geometric_mean(inv_a, c)
    lambda1 = float(a.eigen.lam[0])
    rhs = t * math.sqrt(lambda1 / 2.0) * frobenius_norm(mid_b.entries - mid_c.entries)
    return DistanceBoundReport(lhs=lhs, rhs=rhs, lambda1=lambda1)
