"""n-matrix means on the SPD cone and the inequality reports around them.

The transport barycenter, X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2}, and the
Riemannian (Karcher) mean, sum_j w_j log(X^{-1/2} A_j X^{-1/2}) = 0, are
computed by one Anderson-accelerated fixed-point loop.
Convergence is always certified by the residual of the defining equation,
solved cold, never by step size.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterable
from dataclasses import dataclass, field

import numpy as np

from .means_geometry import _geometric_mean
from .spd_core import (
    NonPositivePivotError,
    NotPositiveDefiniteError,
    Run,
    SolverError,
    SpdMatrix,
    SymMatrix,
    _admitted,
    _applied,
    _check_pair,
    _congruences,
    _cholesky,
    _frobenius_norms,
    _is_integer,
    _is_real,
    _loewner_geq,
    _public,
    _solved,
    _spectra,
    apply_spectral,
    determinant,
    frobenius_norm,
    operator_norm,
    scale_exponent,
)


# Relative slack of every Loewner verdict on the bounds.
LOEWNER_TOL = 1e-8
# Anderson mixing runs while r_k > MIX_GATE r_{k-1} (``_anderson``).
MIX_GATE = 0.05
MIX_DEPENDENCE = 1e-10
# A warm transport root takes CHORD_STEPS chord-Newton steps and is accepted
# when its last step is at most CHORD_ACCEPT of the root (``_chord_roots``).
CHORD_STEPS = 8
CHORD_ACCEPT = 1e-15


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
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            w = w / total
        if not np.all(w > 0.0):
            raise ValueError(f"a normalized weight is zero: the weights sum to {total!r}")
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
        if not all(isinstance(a, SpdMatrix) for a in self.matrices):
            raise ValueError("matrices must be SpdMatrix objects")
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
        if not _is_real(self.rel_tol):
            raise ValueError(f"rel_tol must be a real number, got {self.rel_tol!r}")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be finite and positive")
        if not _is_integer(self.max_iter):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
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


def _arithmetic_mean(p: MeanProblem) -> Run[SpdMatrix]:
    """Weighted arithmetic mean sum_j w_j A_j."""
    (mean,) = yield from _admitted([p.weights.combine(a.entries for a in p.matrices)])
    return mean


def _inverse_mixture(p: MeanProblem) -> np.ndarray:
    """sum_j w_j A_j^{-1} as a raw array."""
    return p.weights.combine(apply_spectral(a, "inverse").entries for a in p.matrices)


def _harmonic_mean(p: MeanProblem) -> Run[SpdMatrix]:
    """Weighted harmonic mean [sum_j w_j A_j^{-1}]^{-1}."""
    (mixture,) = yield from _admitted([_inverse_mixture(p)])
    return apply_spectral(mixture, "inverse")


def _scaled(p: MeanProblem) -> tuple[int, np.ndarray]:
    """t = scale_exponent of the matrices of p, and the (n, d, d) stack of
    those matrices times 4^-t."""
    mats = np.stack([a.entries for a in p.matrices])
    t = scale_exponent(mats)
    return t, np.ldexp(mats, -2 * t)


def _first_order_roots(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T_ii = sqrt(m_ii), T_ik = m_ik / (sqrt(m_ii) + sqrt(m_kk)) over a stack of M, and those sums."""
    root = np.sqrt(np.diagonal(m, 0, -2, -1))
    den = root[..., :, None] + root[..., None, :]
    t = m / den
    diag = np.arange(m.shape[-1])
    t[..., diag, diag] = root
    return t, den


def _in_basis(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Q T Q^T over a stack, symmetrized as (Y + Y^T)/2."""
    y = q @ t @ q.swapaxes(-1, -2)
    return (y + y.swapaxes(-1, -2)) / 2.0


def _chord_roots(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked kernel: square roots T of a (k, d, d) stack of symmetric,
    near-diagonal M, and per slice whether T is accepted.  From the
    first-order root, CHORD_STEPS chord-Newton steps T <- T + sym(E), E =
    (M - T^2) / (sqrt(m_ii) + sqrt(m_kk)) (Higham, *Functions of Matrices*,
    SIAM 2008, ch. 6); accepted when the last E is finite and ||E||_F <=
    CHORD_ACCEPT ||T||_F, else rejected without a warning.  Every slice
    takes the same steps, so it has the bits of a lone call."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        t, den = _first_order_roots(m)
        for _ in range(CHORD_STEPS):
            e = (m - t @ t) / den
            t = t + (e + e.swapaxes(-1, -2)) / 2.0
        norms = _frobenius_norms(t)
        return t, (_frobenius_norms(e) <= CHORD_ACCEPT * norms) & (norms < math.inf)


def _residual(x: SpdMatrix, p: MeanProblem) -> Run[float]:
    """Relative Frobenius residual of X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2} at x.

    The cold measurement of ``wasserstein_mean`` (``_Transport.measured``)
    at the Cholesky factor of x, on x and p scaled by 4^-t, so at a returned
    mean it is that result's ``residual`` bit for bit.
    """
    _check_pair(x, p)
    t, mats = _scaled(p)
    l, l_inv = yield from _cholesky(np.ldexp(x.entries, -2 * t))
    r, _, _ = yield from _Transport.measured(l, l_inv, mats, p.weights)
    return r


def _equivalent_equation_residual(x: SpdMatrix, p: MeanProblem) -> Run[float]:
    """Frobenius residual of the equivalent form I = sum_j w_j (A_j # x^{-1})."""
    _check_pair(x, p)
    inv_x = apply_spectral(x, "inverse")
    # the n means share their rounds, and the first that fails, in input order, raises
    outcomes = yield [_geometric_mean(a, inv_x) for a in p.matrices]
    acc = p.weights.combine(_solved(outcome).entries for outcome in outcomes)
    return frobenius_norm(np.eye(p.dim) - acc)


def _newton_schulz(q: np.ndarray) -> np.ndarray:
    """(3Q - Q Q^T Q) / 2 over a stack: a Newton-Schulz step that makes Q orthogonal."""
    return (3.0 * q - q @ (q.swapaxes(-1, -2) @ q)) / 2.0


def _jacobi_roots(q: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Roots Q T Q^T of a stack of C_j from their Jacobi eigenvectors Q, T the
    first-order root of the near-diagonal M = Q^T C_j Q.  Jacobi leaves up to
    1e-14 ||C_j||_F off the diagonal, and Q diag(sqrt(lambda)) Q^T, which drops
    it, is wrong by up to that over 2 sqrt(lambda_min): about 1e-10 relative
    when lambda_min / lambda_max is 1e-11, where this root is correct to roundoff."""
    t, _ = _first_order_roots(q.swapaxes(-1, -2) @ cs @ q)
    return _in_basis(q, t)


class _Transport:
    """The transport map of ``wasserstein_mean``: ``measured`` roots the
    congruences L^T A_j L at X = L L^T into the residual and S, and ``step``
    returns the next iterate L^{-T} S^2 L^{-1}."""

    @staticmethod
    def warm(q: np.ndarray, m: np.ndarray) -> Generator:
        """Run step: the roots of the slices of M that ``_chord_roots`` accepts, and which."""
        t, taken = yield _chord_roots, m
        roots = np.empty_like(m)
        roots[taken] = _in_basis(q[taken], t[taken])
        return roots, taken

    @staticmethod
    def measured(l: np.ndarray, l_inv: np.ndarray, mats: np.ndarray, weights: WeightVector, q_prev=None) -> Generator:
        """Run step: r, S and the eigenvectors at L, the C_j solved cold, or warm
        from Q = q_prev: slices that ``warm`` takes keep Q, the others get Q Q_jac."""
        cs = _congruences(l.T, mats)
        if q_prev is None:
            q, _ = yield from _spectra(cs)
            roots = _jacobi_roots(q, cs)
        else:
            m, q = _in_basis(q_prev.swapaxes(-1, -2), cs), q_prev.copy()  # M_j = Q^T C_j Q
            roots, taken = yield from _Transport.warm(q_prev, m)
            if not taken.all():
                q_jac, _ = yield from _spectra(m[~taken])
                q[~taken] = q_prev[~taken] @ q_jac
                roots[~taken] = _jacobi_roots(q[~taken], cs[~taken])
        # L^T stands in for X^{1/2}: L^T = U X^{1/2} with U orthogonal turns X
        # and the right-hand side into L^T L and S = sum_j w_j (L^T A_j L)^{1/2},
        # so ||L^T L - S||_F / ||L^T L||_F is the residual in exact arithmetic.
        s = weights.combine(roots)
        ref = l.T @ l
        return frobenius_norm(ref - s) / frobenius_norm(ref), s, _newton_schulz(q)

    @staticmethod
    def step(l: np.ndarray, l_inv: np.ndarray, s: np.ndarray) -> Generator:
        b = s @ l_inv
        return b.T @ b
        yield  # a run step that solves nothing


class _Karcher:
    """The gradient map of ``karcher_mean``: ``measured`` solves the
    congruences L^{-1} A_j L^{-T}, always cold, into the gradient G = sum_j w_j
    log of them, with ||G||_F as residual, and ``step`` returns L exp(G) L^T,
    solving G in a round of its own."""

    @staticmethod
    def measured(l: np.ndarray, l_inv: np.ndarray, mats: np.ndarray, weights: WeightVector, q_prev=None) -> Generator:
        """Run step: ||G||_F, G and no eigenvectors at L, the C_j solved cold."""
        q, lam = yield from _spectra(_congruences(l_inv, mats))
        logs = (q * np.log(lam)[:, None, :]) @ q.swapaxes(-1, -2)
        grad = weights.combine((logs + logs.swapaxes(-1, -2)) / 2.0)
        return frobenius_norm(grad), grad, None

    @staticmethod
    def step(l: np.ndarray, l_inv: np.ndarray, grad: np.ndarray) -> Generator:
        (exp,) = yield from _applied([grad], "exp_of_sym")
        return _congruences(l, exp.entries)


def _anderson(pairs: list) -> np.ndarray:
    """Type-II Anderson mixing of the pairs (X_i, G(X_i)), oldest first: with
    F_i = G(X_i) - X_i and dF = Q R by modified Gram-Schmidt, G(X_k) - dG R^{-1} Q^T F_k,
    symmetrized (R^{-1} Q^T F_k minimizes ||F_k - dF gamma||_F); G(X_k) itself when
    a column of dF keeps at most MIX_DEPENDENCE of its norm off those before it."""
    fs = [(g - x).ravel() for x, g in pairs]
    basis = []  # the columns of Q and of dG R^{-1}
    for j in range(1, len(pairs)):
        v, w = fs[j] - fs[j - 1], pairs[j][1] - pairs[j - 1][1]
        norm = math.sqrt(v @ v)
        for u, z in basis:
            r = u @ v
            v, w = v - r * u, w - r * z
        r = math.sqrt(v @ v)
        if not r > MIX_DEPENDENCE * norm:
            return pairs[-1][1]
        basis.append((v / r, w / r))
    mixed = pairs[-1][1] - sum((u @ fs[-1]) * z for u, z in basis)
    return (mixed + mixed.T) / 2.0


def _fixed_point(p: MeanProblem, cfg: SolverConfig | None, method: type) -> Generator:
    """The loop of both means (``method`` is ``_Transport`` or ``_Karcher``)
    as a generator, on the problem scaled by the power of four 4^-t that
    brings its largest entry into [1/4, 1).

    Both means are homogeneous of degree 1 and the scaling is exact (square
    roots scale by 2^-t), so only a run whose unscaled iterates would overflow
    or underflow gets other bits.  Each iterate X is carried as its Cholesky
    factor L (X = L L^T) and L^{-1}, factored within a round (``_cholesky``)
    and never diagonalized, and is read by ``method.measured`` and updated by
    ``method.step``.  The certificate is a cold solve.  A measurement that may
    be the last is cold: the first two (no rate is known before the third),
    and the one after max_iter updates or one that the rate of the two before
    puts at r <= rel_tol, which are forked with the admission of the mean,
    scaled back, into one round.  The others start warm from the eigenvectors
    of the measurement before, if it returned any (a Karcher one returns
    none); the mean is admitted in the round after a reading r <= rel_tol, and
    a reading that started warm is then solved again cold with it.  Converged
    only when the cold r <= rel_tol; after max_iter updates the last iterate
    is returned unconverged.  While r_k > MIX_GATE r_{k-1}, G(X_k) is mixed
    with the three pairs before it (``_anderson``); a mixed iterate with a
    non-positive pivot, or whose measurement fails SPD admission, gives way to
    G(X_k) and clears them.  Otherwise either failure, and any other failed
    SPD admission, raises SolverError.
    """
    cfg = cfg or SolverConfig()
    t, mats = _scaled(p)
    if cfg.initial == "identity":
        x = np.ldexp(np.eye(p.dim), -2 * t)
    else:
        x = p.weights.combine(mats)
    g, history, pairs = x, [], []  # G(X_k) (at first the start), the residuals, the last pairs (X_i, G(X_i))
    k = 0  # the index of X_k once it factors: a failed update names the iteration that made it
    try:
        while True:
            try:
                l, l_inv = yield from _cholesky(x)
                k = len(history)
                last = k == cfg.max_iter or k >= 2 and history[-1] ** 2 <= cfg.rel_tol * history[-2]
                q_prev = q if k >= 2 and not last else None  # a Karcher q is None: it reads cold
                measuring = [method.measured(l, l_inv, mats, p.weights, q_prev)]
                if not last:
                    r, aux, q = yield from measuring.pop()
                    if q_prev is not None and r <= cfg.rel_tol:  # a warm reading at rel_tol is solved again cold
                        measuring = [method.measured(l, l_inv, mats, p.weights)]
                if last or r <= cfg.rel_tol:
                    *measuring, mean = yield [*measuring, _admitted([np.ldexp(x, 2 * t)])]
                    for outcome in measuring:
                        r, aux, q = _solved(outcome)
            except (NonPositivePivotError, NotPositiveDefiniteError):
                if x is g:
                    raise
                x, pairs = g, []
                continue
            history.append(r)
            if r <= cfg.rel_tol or k == cfg.max_iter:
                (mean,) = _solved(mean)
                return SolverResult(mean, k, r, r <= cfg.rel_tol, tuple(history))
            g = yield from method.step(l, l_inv, aux)
            pairs = [*pairs, (x, g)][-4:]
            x = _anderson(pairs) if len(pairs) > 1 and history[-1] > MIX_GATE * history[-2] else g
    except (NotPositiveDefiniteError, NonPositivePivotError) as exc:
        raise SolverError(f"non-SPD intermediate at iteration {k}: {exc}") from exc


def _wasserstein_mean(p: MeanProblem, cfg: SolverConfig | None = None) -> Run[SolverResult]:
    """Solve X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2} by fixed-point iteration.

    The update X <- X^{-1/2} (sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2})^2 X^{-1/2}
    preserves positive definiteness and has the equation's solutions as its
    fixed points; convergence is measured by the equation's own relative
    residual, so a converged result is a certificate independent of the
    update rule.  The Cholesky factor L of X stands in for X^{1/2}: with
    S = sum_j w_j (L^T A_j L)^{1/2} the residual is ||L^T L - S||_F / ||L^T L||_F
    and the update is L^{-T} S^2 L^{-1}, both equal to their X^{1/2} forms in
    exact arithmetic (A_j # X^{-1} is the optimal transport map).  While the
    residual falls by less than 20x per step, the update is Anderson-mixed with
    the three before it (Walker & Ni, SIAM J. Numer. Anal. 2011) when that is SPD.
    """
    return _fixed_point(p, cfg, _Transport)


def _karcher_mean(p: MeanProblem, cfg: SolverConfig | None = None) -> Run[SolverResult]:
    """Riemannian (trace-metric) mean by the Anderson-mixed gradient fixed
    point X <- X^{1/2} exp(sum_j w_j log(X^{-1/2} A_j X^{-1/2})) X^{1/2}, with
    the Cholesky factor L of X in place of X^{1/2}:
    G = sum_j w_j log(L^{-1} A_j L^{-T}) and X <- L exp(G) L^T.

    Converged when ||G||_F, measured cold and independent of the factor,
    falls below rel_tol; the residual history records that scale-free norm.
    """
    return _fixed_point(p, cfg, _Karcher)


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


def _bounds_report(p: MeanProblem) -> Run[BoundsReport]:
    """The bounds of ``BoundsReport`` for the problem p."""
    eye = np.eye(p.dim)
    arith = yield from _arithmetic_mean(p)
    opnorm_root = p.weights.combine(math.sqrt(operator_norm(a)) for a in p.matrices)
    lower = SymMatrix(2.0 * eye - _inverse_mixture(p))
    try:
        (gap,) = yield from _admitted([2.0 * eye - arith.entries])
        upper_inverse = apply_spectral(gap, "inverse")
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


def _check_bounds(p: MeanProblem, report: BoundsReport, mean: SpdMatrix) -> Run[tuple[BoundCheck, ...]]:
    """Every bound verdict: first each bound in ``report`` (= bounds_report(p))
    against a computed mean, then the chains relating the bounds to each other.

    Chains: 2I - sum w_j A_j^{-1} <= [sum w_j A_j^{-1}]^{-1} (the harmonic
    mean), and the scalar sharpness (sum w_j ||A_j||^{1/2})^2 <= sum w_j ||A_j||;
    when sum w_j A_j < 2I also [2I - sum w_j A_j]^{-1} >= sum w_j A_j.
    """
    # the Loewner comparisons, and the harmonic mean one of them compares,
    # share their rounds; the first that fails, in verdict order, raises
    lower, arith, inverse = report.lower_lie_trotter, report.upper_arithmetic, report.upper_inverse

    def harmonic_above_lower() -> Generator:
        harmonic = yield from _harmonic_mean(p)
        return (yield from _loewner_geq(harmonic, lower, LOEWNER_TOL))

    runs = {
        "arithmetic_upper": _loewner_geq(arith, mean, LOEWNER_TOL),
        "lie_trotter_lower": _loewner_geq(mean, lower, LOEWNER_TOL),
    }
    if inverse is not None:
        runs["inverse_upper"] = _loewner_geq(inverse, mean, LOEWNER_TOL)
    runs["harmonic_above_lower"] = harmonic_above_lower()
    if inverse is not None:
        runs["inverse_above_arithmetic"] = _loewner_geq(inverse, arith, LOEWNER_TOL)
    outcomes = yield list(runs.values())
    verdicts = {
        check_id: BoundCheck(check_id, cmp.holds, cmp.witness)
        for check_id, cmp in zip(runs, map(_solved, outcomes))
    }
    checks = [verdicts["arithmetic_upper"], verdicts["lie_trotter_lower"]]
    slack = report.opnorm_bound + 1e-9 - operator_norm(mean)
    checks.append(BoundCheck("operator_norm", slack >= 0.0, slack))
    if inverse is not None:
        checks.append(verdicts["inverse_upper"])
    checks.append(verdicts["harmonic_above_lower"])
    opnorm_mix = p.weights.combine(operator_norm(a) for a in p.matrices)
    slack = opnorm_mix - report.opnorm_bound
    tol = LOEWNER_TOL * max(1.0, opnorm_mix)
    checks.append(BoundCheck("opnorm_bound_sharper", slack >= -tol, slack))
    if inverse is not None:
        checks.append(verdicts["inverse_above_arithmetic"])
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


# The public functions, each its run step driven as a batch of one.
arithmetic_mean = _public(_arithmetic_mean)
harmonic_mean = _public(_harmonic_mean)
residual = _public(_residual)
equivalent_equation_residual = _public(_equivalent_equation_residual)
wasserstein_mean = _public(_wasserstein_mean)
karcher_mean = _public(_karcher_mean)
bounds_report = _public(_bounds_report)
check_bounds = _public(_check_bounds)
