"""n-matrix means on the SPD cone and the inequality reports around them.

The transport barycenter is computed by fixed-point iteration on the
nonlinear matrix equation X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2}; the
Riemannian (Karcher) mean by the unit-step gradient fixed point.  Convergence
is always certified by the residual of the defining equation, never by step
size.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .means_geometry import geometric_mean
from .spd_core import (
    NotPositiveDefiniteError,
    SpdMatrix,
    SymMatrix,
    apply_spectral,
    congruence,
    determinant,
    frobenius_norm,
    identity,
    loewner_geq,
    operator_norm,
    spd_stack,
)


# Relative slack of every Loewner verdict on the bounds.
LOEWNER_TOL = 1e-8


class SolverError(Exception):
    """Iteration produced a non-SPD intermediate or was asked not to tolerate
    non-convergence."""


@dataclass(frozen=True)
class WeightVector:
    """Positive probability vector.

    Construction normalizes the sum to one; input that already sums to one
    within 1e-12 is kept bit for bit, so normalization is idempotent and
    serialized weights round-trip exactly.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.values, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if not np.isfinite(w).all() or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            w = w / total
        w.flags.writeable = False
        object.__setattr__(self, "values", w)

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return self.values.size

    def combine(self, terms: Iterable) -> np.ndarray | float:
        """sum_j w_j t_j over scalars or arrays, accumulated left to right in
        input order, so every weighted sum in the package rounds the same way."""
        acc = 0.0
        for w, t in zip(self.values, terms, strict=True):
            acc = acc + w * t
        return acc


@dataclass(frozen=True)
class MeanProblem:
    """A tuple of SPD matrices of equal dimension with matching weights."""

    matrices: tuple[SpdMatrix, ...]
    weights: WeightVector

    def __post_init__(self) -> None:
        if len(self.matrices) < 1:
            raise ValueError("n >= 1 required: at least one matrix")
        if len(self.weights) != len(self.matrices):
            raise ValueError(
                f"{len(self.weights)} weights for {len(self.matrices)} matrices"
            )
        dims = {a.dim for a in self.matrices}
        if len(dims) != 1:
            raise ValueError(f"matrices must share one dimension, got {sorted(dims)}")
        object.__setattr__(self, "matrices", tuple(self.matrices))

    @property
    def dim(self) -> int:
        return self.matrices[0].dim

    @property
    def n(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the fixed-point solvers; ``initial`` is "arithmetic_mean" or
    "identity"."""

    rel_tol: float = 1e-12
    max_iter: int = 500
    initial: str = "arithmetic_mean"

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.initial not in ("arithmetic_mean", "identity"):
            raise ValueError(f"unknown initial point {self.initial!r}")


@dataclass(frozen=True)
class SolverResult:
    """Converged (or truncated) mean with its full residual history.

    ``iterations`` counts applied fixed-point updates; ``converged`` requires
    the final residual to satisfy the tolerance strictly.
    """

    mean: SpdMatrix
    iterations: int
    residual: float
    converged: bool
    residual_history: tuple[float, ...] = field(repr=False)


def arithmetic_mean(p: MeanProblem) -> SpdMatrix:
    return SpdMatrix(p.weights.combine(a.entries for a in p.matrices))


def _inverse_mixture(p: MeanProblem) -> np.ndarray:
    """sum_j w_j A_j^{-1} as a raw array."""
    return p.weights.combine(apply_spectral(a, "inverse").entries for a in p.matrices)


def harmonic_mean(p: MeanProblem) -> SpdMatrix:
    return apply_spectral(SpdMatrix(_inverse_mixture(p)), "inverse")


def _residual_mixture(x: SpdMatrix, p: MeanProblem) -> tuple[float, np.ndarray]:
    """Relative Frobenius residual of X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2}
    at x, and the right-hand side at x as a raw array."""
    sqrt_x = apply_spectral(x, "sqrt").entries
    s = p.weights.combine(
        apply_spectral(c, "sqrt").entries
        for c in spd_stack(congruence(sqrt_x, a) for a in p.matrices)
    )
    return frobenius_norm(x.entries - s) / frobenius_norm(x.entries), s


def residual(x: SpdMatrix, p: MeanProblem) -> float:
    """Relative Frobenius residual of X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2} at x."""
    if x.dim != p.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {p.dim}")
    return _residual_mixture(x, p)[0]


def equivalent_equation_residual(x: SpdMatrix, p: MeanProblem) -> float:
    """Frobenius residual of the equivalent form I = sum_j w_j (A_j # x^{-1})."""
    if x.dim != p.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {p.dim}")
    inv_x = apply_spectral(x, "inverse")
    acc = p.weights.combine(geometric_mean(a, inv_x).entries for a in p.matrices)
    return frobenius_norm(np.eye(p.dim) - acc)


def _fixed_point(p: MeanProblem, cfg: SolverConfig | None, measure, step) -> SolverResult:
    """Shared loop of both means: ``measure(x)`` returns the certificate
    residual r and an array ``aux`` that ``step(x, aux)`` turns into the raw
    next iterate.  Converged only when r <= rel_tol; after max_iter updates
    the last iterate is returned unconverged.  A matrix that fails SPD
    admission while measuring or stepping raises SolverError."""
    cfg = cfg or SolverConfig()
    x = identity(p.dim) if cfg.initial == "identity" else arithmetic_mean(p)
    history: list[float] = []
    for k in range(cfg.max_iter + 1):
        try:
            r, aux = measure(x)
            history.append(r)
            if r <= cfg.rel_tol or k == cfg.max_iter:
                return SolverResult(x, k, r, r <= cfg.rel_tol, tuple(history))
            x = SpdMatrix(step(x, aux))
        except NotPositiveDefiniteError as exc:
            raise SolverError(f"non-SPD intermediate at iteration {k}: {exc}") from exc


def wasserstein_mean(p: MeanProblem, cfg: SolverConfig | None = None) -> SolverResult:
    """Solve X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2} by fixed-point iteration.

    The update X <- X^{-1/2} (sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2})^2 X^{-1/2}
    preserves positive definiteness and has the equation's solutions as its
    fixed points; convergence is measured by the equation's own relative
    residual, so a converged result is a certificate independent of the
    update rule.
    """

    def step(x: SpdMatrix, s: np.ndarray) -> np.ndarray:
        inv_sqrt_x = apply_spectral(x, "inv_sqrt").entries
        return inv_sqrt_x @ s @ s @ inv_sqrt_x

    return _fixed_point(p, cfg, lambda x: _residual_mixture(x, p), step)


def karcher_mean(p: MeanProblem, cfg: SolverConfig | None = None) -> SolverResult:
    """Riemannian (trace-metric) mean by the unit-step gradient fixed point
    X <- X^{1/2} exp(sum_j w_j log(X^{-1/2} A_j X^{-1/2})) X^{1/2}.

    Converged when the gradient term's Frobenius norm falls below rel_tol;
    the residual history records that norm, which is scale free.
    """

    def measure(x: SpdMatrix) -> tuple[float, np.ndarray]:
        inv_sqrt_x = apply_spectral(x, "inv_sqrt").entries
        grad = p.weights.combine(
            apply_spectral(c, "log").entries
            for c in spd_stack(congruence(inv_sqrt_x, a) for a in p.matrices)
        )
        return frobenius_norm(grad), grad

    def step(x: SpdMatrix, grad: np.ndarray) -> np.ndarray:
        sqrt_x = apply_spectral(x, "sqrt").entries
        return sqrt_x @ apply_spectral(SymMatrix(grad), "exp_of_sym").entries @ sqrt_x

    return _fixed_point(p, cfg, measure, step)


@dataclass(frozen=True)
class BoundsReport:
    """The computable bounds around the transport barycenter.

    ``lower_lie_trotter`` is 2I - sum_j w_j A_j^{-1} (symmetric, possibly
    indefinite).  ``upper_inverse`` is [2I - sum_j w_j A_j]^{-1}, present only
    when sum_j w_j A_j < 2I strictly.  ``opnorm_bound`` is
    (sum_j w_j ||A_j||^{1/2})^2 for the operator norm.
    """

    lower_lie_trotter: SymMatrix
    upper_arithmetic: SpdMatrix
    upper_inverse: SpdMatrix | None
    opnorm_bound: float


def bounds_report(p: MeanProblem) -> BoundsReport:
    eye = np.eye(p.dim)
    arith = arithmetic_mean(p)
    opnorm_root = p.weights.combine(math.sqrt(operator_norm(a)) for a in p.matrices)
    lower = SymMatrix(2.0 * eye - _inverse_mixture(p))
    try:
        upper_inverse = apply_spectral(SpdMatrix(2.0 * eye - arith.entries), "inverse")
    except NotPositiveDefiniteError:
        # the gap 2I - sum_j w_j A_j is indefinite, or positive but below the
        # admission threshold and so not invertible at working precision
        upper_inverse = None
    return BoundsReport(
        lower_lie_trotter=lower,
        upper_arithmetic=arith,
        upper_inverse=upper_inverse,
        opnorm_bound=opnorm_root**2,
    )


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality with its scalar witness (the margin that makes
    it true; negative means violated beyond tolerance)."""

    check_id: str
    holds: bool
    witness: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "holds", bool(self.holds))
        object.__setattr__(self, "witness", float(self.witness))


def check_bounds(p: MeanProblem, report: BoundsReport, mean: SpdMatrix) -> tuple[BoundCheck, ...]:
    """Every bound verdict: first each bound in ``report`` (= bounds_report(p))
    against a computed mean, then the chains relating the bounds to each other.

    Chains: 2I - sum w_j A_j^{-1} <= [sum w_j A_j^{-1}]^{-1} (the harmonic
    mean), and the scalar sharpness (sum w_j ||A_j||^{1/2})^2 <= sum w_j ||A_j||;
    when sum w_j A_j < 2I also [2I - sum w_j A_j]^{-1} >= sum w_j A_j.
    """

    def loewner(check_id: str, a: SymMatrix, b: SymMatrix) -> BoundCheck:
        cmp = loewner_geq(a, b, LOEWNER_TOL)
        return BoundCheck(check_id, cmp.holds, cmp.witness)

    inverse = report.upper_inverse
    checks = [
        loewner("arithmetic_upper", report.upper_arithmetic, mean),
        loewner("lie_trotter_lower", mean, report.lower_lie_trotter),
    ]
    slack = report.opnorm_bound + 1e-9 - operator_norm(mean)
    checks.append(BoundCheck("operator_norm", slack >= 0.0, slack))
    if inverse is not None:
        checks.append(loewner("inverse_upper", inverse, mean))
    checks.append(loewner("harmonic_above_lower", harmonic_mean(p), report.lower_lie_trotter))
    opnorm_mix = p.weights.combine(operator_norm(a) for a in p.matrices)
    slack = opnorm_mix - report.opnorm_bound
    tol = LOEWNER_TOL * max(1.0, opnorm_mix)
    checks.append(BoundCheck("opnorm_bound_sharper", slack >= -tol, slack))
    if inverse is not None:
        checks.append(loewner("inverse_above_arithmetic", inverse, report.upper_arithmetic))
    return tuple(checks)


@dataclass(frozen=True)
class DetInequalityReport:
    """Determinant of a computed mean against the weighted geometric product
    of the input determinants, with the log of that product."""

    det_mean: float
    det_geo_product: float
    log_det_geo_product: float
    holds: bool


def det_inequality_check(p: MeanProblem, mean: SpdMatrix) -> DetInequalityReport:
    """det(mean) >= prod_j det(A_j)^{w_j}, up to 1e-9 of the product's scale.

    Determinants come from eigenvalue products; the geometric product is
    accumulated in log space for stability.
    """
    det_mean = determinant(mean)
    log_geo = p.weights.combine(float(np.sum(np.log(a.eigen.lam))) for a in p.matrices)
    det_geo = math.exp(log_geo)
    holds = det_mean >= det_geo - 1e-9 * max(1.0, det_geo)
    return DetInequalityReport(det_mean, det_geo, log_geo, holds)
