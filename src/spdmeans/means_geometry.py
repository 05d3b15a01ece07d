"""Two-matrix means and metrics on the SPD cone.

Provides the weighted geometric mean (the trace-metric geodesic), the
Riemannian trace distance, the optimal-transport (Bures) distance with an
independent brute-force minimizer for 2x2 input, the transport geodesic, and
the geodesic perturbation bound report.

Each function that solves is written once, as a run step for
``spd_core._lockstep`` (``_geometric_mean``, ``_wasserstein_distance`` and
so on), and the public function is derived from it by ``spd_core._public``.
A step yields the Cholesky factor L of its base point A = L L^T
(``spd_core._cholesky``), then the admissions of its inner or transport
product and of its result, so that the steps of many callers share their
rounds.  L stands in for A^{1/2}, exactly: L = A^{1/2} U, U orthogonal.  The
transport distance and geodesic share one factor M = C^{1/2} L^{-1},
C = L^T B L (``_transport``), so neither subtracts traces.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .spd_core import (
    Run,
    SpdMatrix,
    _admitted,
    _applied,
    _check_pair,
    _cholesky,
    _is_real,
    _public,
    _solved,
    apply_spectral,
    congruence,
    frobenius_norm,
    scale_exponent,
)

# Angles in the coarse grid and in each refinement window of the 2x2 oracle.
ORACLE_GRID = 720


def _check_unit_interval(t) -> float:
    if not _is_real(t):
        raise ValueError(f"geodesic parameter must be a real number, got {t!r}")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {t!r}")
    return t


def _inner(a: SpdMatrix, b: SpdMatrix) -> Generator:
    """Run step: L with A = L L^T, and L^{-1} B L^{-T}, admitted."""
    lower, inv = yield from _cholesky(a.entries)
    (inner,) = yield from _admitted([congruence(inv, b)])
    return lower, inner


def _transport(a: SpdMatrix, b: SpdMatrix) -> Generator:
    """Run step: L^T and M = C^{1/2} L^{-1}, C = L^T B L, as arrays, for
    A = L L^T; M^T M = B and L M = (AB)^{1/2}.  C is formed times 16^-s, s
    from ``scale_exponent``: exact, so it neither overflows nor underflows,
    and its root scales back by 4^s.  Only the root is admitted: kappa(C)
    can reach kappa(A) kappa(B), and lambda_min(C) <= 0 raises SpectralDomainError."""
    lower, inv = yield from _cholesky(a.entries)
    s = scale_exponent(a.entries, b.entries)
    (root_c,) = yield from _applied([congruence(np.ldexp(lower.T, -2 * s), b)], "sqrt")
    return lower.T, np.ldexp(root_c.entries, 2 * s) @ inv


def _geometric_mean(a: SpdMatrix, b: SpdMatrix, t: float = 0.5) -> Run[SpdMatrix]:
    """Weighted geometric mean A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}.

    At t = 1/2 this is the unique SPD solution of the Riccati equation
    X A^{-1} X = B.  Evaluated as L (L^{-1} B L^{-T})^t L^T, L from ``_inner``.
    """
    _check_pair(a, b)
    t = _check_unit_interval(t)
    lower, inner = yield from _inner(a, b)
    (mean,) = yield from _admitted([congruence(lower, apply_spectral(inner, "power", t))])
    return mean


def _riemannian_distance(a: SpdMatrix, b: SpdMatrix) -> Run[float]:
    """Trace-metric distance ||log(A^{-1/2} B A^{-1/2})||_F."""
    _check_pair(a, b)
    _, inner = yield from _inner(a, b)
    return math.sqrt(float(np.sum(np.log(inner.eigen.lam) ** 2)))


def _wasserstein_distance(a: SpdMatrix, b: SpdMatrix) -> Run[float]:
    """Optimal-transport distance [tr((A+B)/2) - tr(A^{1/2} B A^{1/2})^{1/2}]^{1/2}.

    Evaluated in its polar form ||L^T - M||_F / sqrt(2), with L^T and M from
    ``_transport``: M = V B^{1/2} for the orthogonal V that minimizes
    ||L^T - V B^{1/2}||_F.  No traces are subtracted, so near-equal
    inputs keep their relative accuracy; equal inputs return exactly zero.
    """
    _check_pair(a, b)
    if np.array_equal(a.entries, b.entries):
        return 0.0
    upper, m = yield from _transport(a, b)
    return frobenius_norm(upper - m) / math.sqrt(2.0)


def wasserstein_distance_oracle_2x2(a: SpdMatrix, b: SpdMatrix) -> float:
    """Brute-force distance for 2x2 input: minimize ||A^{1/2} - B^{1/2} U||_F / sqrt(2)
    over the real orthogonal group.

    The group is sampled as rotations and rotation-reflections on an angle
    grid, then refined twice on a shrinking window around the best angle.
    Serves as an implementation-independent cross-check of
    ``wasserstein_distance``, which takes no root of A or B: none is shared.
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


def _wasserstein_geodesic(a: SpdMatrix, b: SpdMatrix, t: float) -> Run[SpdMatrix]:
    """Transport geodesic (1-t)^2 A + t^2 B + t(1-t) [(AB)^{1/2} + (BA)^{1/2}].

    Endpoints are exact.  Inside, it is N^T N with N = (1-t) L^T + t M and
    L^T and M from ``_transport``: L L^T = A, M^T M = B and L M = (AB)^{1/2}.
    """
    _check_pair(a, b)
    t = _check_unit_interval(t)
    if t == 0.0:
        return a
    if t == 1.0:
        return b
    upper, m = yield from _transport(a, b)
    n = (1.0 - t) * upper + t * m
    (geodesic,) = yield from _admitted([n.T @ n])
    return geodesic


@dataclass(frozen=True)
class DistanceBoundReport:
    """Both sides of the geodesic perturbation bound, plus the eigenvalue in
    its constant.  No inequality is asserted here; consumers compare
    ``lhs <= rhs`` themselves so that violations surface as data."""

    lhs: float
    rhs: float
    lambda1: float


def _geodesic_perturbation_bound(
    a: SpdMatrix, b: SpdMatrix, c: SpdMatrix, t: float
) -> Run[DistanceBoundReport]:
    """Report d(A <>_t B, A <>_t C) against t sqrt(lambda_1(A)/2) ||A^{-1}#B - A^{-1}#C||_F."""
    # both geodesics and both means share their rounds, and a failure is
    # raised in the order of the formula (the geodesics, their distance,
    # then the means)
    _check_pair(a, b)
    _check_pair(a, c)
    t = _check_unit_interval(t)

    def means() -> Generator:
        inv_a = apply_spectral(a, "inverse")
        return tuple(map(_solved, (yield [_geometric_mean(inv_a, b), _geometric_mean(inv_a, c)])))

    geo_b, geo_c, mids = yield [_wasserstein_geodesic(a, b, t), _wasserstein_geodesic(a, c, t), means()]
    lhs = yield from _wasserstein_distance(_solved(geo_b), _solved(geo_c))
    mid_b, mid_c = _solved(mids)
    lambda1 = float(a.eigen.lam[0])
    rhs = t * math.sqrt(lambda1 / 2.0) * frobenius_norm(mid_b.entries - mid_c.entries)
    return DistanceBoundReport(lhs=lhs, rhs=rhs, lambda1=lambda1)


# The public functions, each its run step driven as a batch of one.
geometric_mean = _public(_geometric_mean)
riemannian_distance = _public(_riemannian_distance)
wasserstein_distance = _public(_wasserstein_distance)
wasserstein_geodesic = _public(_wasserstein_geodesic)
geodesic_perturbation_bound = _public(_geodesic_perturbation_bound)
