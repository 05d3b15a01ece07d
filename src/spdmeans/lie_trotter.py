"""Small-parameter limit experiments for the transport barycenter.

For differentiable SPD-valued curves through the identity, the barycenter of
the curve points raised to the power 1/s converges, as s -> 0, to
exp(sum_j w_j gamma_j'(0)).  This module evaluates that limit numerically
over dyadic schedules and checks the first-order derivative of the barycenter
map at the identity tuple by finite differences.  Each public function is
its run step (``_evaluate_curve`` and so on) driven as one run of
``_lockstep``: the curve points and target of a whole schedule share a round.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .barycenter import (
    MeanProblem,
    SolverConfig,
    SolverError,
    WeightVector,
    _is_integer,
    _is_real,
    _wasserstein_mean,
)
from .spd_core import (
    NotPositiveDefiniteError,
    Run,
    SpdMatrix,
    SpectralDomainError,
    SymMatrix,
    _admitted,
    _applied,
    _decompositions,
    _public,
    _radius,
    _solved,
    apply_spectral,
    frobenius_norm,
    identity,
    operator_norm,
)

CURVE_KINDS = ("power", "affine", "exp_line")

# Failures that make a limit trace record its parameter in ``failed_s``.
_POINT_FAILURES = (SolverError, SpectralDomainError, NotPositiveDefiniteError)

# Fixed-point error must stay well below the discretization error of the
# limit, so every solve in this module uses this tightened tolerance.
TRACE_SOLVER_CONFIG = SolverConfig(rel_tol=1e-13, max_iter=500)


@dataclass(frozen=True)
class CurveSpec:
    """A differentiable SPD-valued curve with gamma(0) = I.

    Kinds: ``power`` is s -> G^s for an SPD generator G, ``affine`` is
    s -> I + s * G (admissible only while |s| * ||G|| < 1), ``exp_line`` is
    s -> exp(s * G).  ``derivative_at_zero`` is stored at construction (log G
    for ``power``, G itself otherwise).
    """

    kind: str
    generator: SymMatrix
    derivative_at_zero: SymMatrix

    @classmethod
    def power(cls, base: SpdMatrix) -> "CurveSpec":
        return cls("power", base, apply_spectral(base, "log"))

    @classmethod
    def affine(cls, direction: SymMatrix) -> "CurveSpec":
        return cls("affine", direction, direction)

    @classmethod
    def exp_line(cls, direction: SymMatrix) -> "CurveSpec":
        return cls("exp_line", direction, direction)

    def __post_init__(self) -> None:
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.derivative_at_zero.dim

    @cached_property
    def _generator_norm(self) -> float:
        """||G|| of an affine curve, solved once per curve on first use."""
        return operator_norm(self.generator)

    def admissible(self, s: float) -> bool:
        if self.kind == "affine":
            return abs(s) * self._generator_norm < 1.0
        return True


def _parameter(s) -> float:
    """s as a float; ValueError unless it is a finite real number (a bool
    or a string is not)."""
    if not _is_real(s):
        raise ValueError(f"s must be a real number, got {s!r}")
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    return s


def _evaluate_curve(c: CurveSpec, s: float) -> Run[SpdMatrix]:
    """gamma(s); exact identity at s = 0 for every kind.  An s that is not a
    finite real number raises ValueError."""
    # affine and exp_line points are solved in one round; a power point (of
    # an SPD generator) solves nothing
    s = _parameter(s)
    if s == 0.0:
        return identity(c.dim)
    if c.kind == "power":
        return (yield from _applied([c.generator], "power", s))[0]
    if c.kind == "affine":
        if not c.admissible(s):
            raise ValueError(f"s={s!r} outside the admissible interval of the affine curve")
        return (yield from _admitted([np.eye(c.dim) + s * c.generator.entries]))[0]
    return (yield from _applied([SymMatrix(s * c.generator.entries)], "exp_of_sym"))[0]


def _check_matched(w: WeightVector, items, noun: str) -> tuple:
    """``items`` (curves or directions) as a tuple, one per weight, all of one
    dimension; ``noun`` names them in the error messages."""
    items = tuple(items)
    if len(items) != len(w):
        raise ValueError(f"{len(w)} weights for {len(items)} {noun}")
    dims = {item.dim for item in items}
    if len(dims) != 1:
        raise ValueError(f"{noun} must share one dimension, got {sorted(dims)}")
    return items


def _converged_mean(w: WeightVector, points: tuple[SpdMatrix, ...], at: str) -> Generator:
    """Run step: ``wasserstein_mean`` of the points under TRACE_SOLVER_CONFIG;
    a SolverError naming the parameter ``at`` when it does not converge."""
    result = yield from _wasserstein_mean(MeanProblem(points, w), TRACE_SOLVER_CONFIG)
    if not result.converged:
        raise SolverError(f"barycenter did not converge at {at} (residual {result.residual:.3e})")
    return result.mean


def _lie_trotter_value(
    w: WeightVector, curves: tuple[CurveSpec, ...] | list[CurveSpec], s: float
) -> Run[SpdMatrix]:
    """Barycenter of the curve points at parameter s, raised to the power 1/s."""
    # the points are solved in one round, and the first failing curve in
    # curve order raises
    curves = _check_matched(w, curves, "curves")
    s = _parameter(s)
    if s == 0.0:
        raise ValueError("s must be nonzero")
    points = tuple(map(_solved, (yield [_evaluate_curve(c, s) for c in curves])))
    mean = yield from _converged_mean(w, points, f"s={s!r}")
    return (yield from _applied([mean], "power", 1.0 / s))[0]


def _lie_trotter_target(
    w: WeightVector, curves: tuple[CurveSpec, ...] | list[CurveSpec]
) -> Run[SpdMatrix]:
    """exp(sum_j w_j gamma_j'(0)), from the derivatives stored on the curves."""
    acc = w.combine(c.derivative_at_zero.entries for c in _check_matched(w, curves, "curves"))
    return (yield from _applied([SymMatrix(acc)], "exp_of_sym"))[0]


def dyadic_schedule(depth: int) -> tuple[float, ...]:
    """s = 2^-1, ..., 2^-depth (descending); every s is a nonzero double."""
    if not _is_integer(depth):
        raise ValueError(f"depth must be an integer, got {depth!r}")
    if not 1 <= depth <= 1074:  # 2^-1075 rounds to zero
        raise ValueError(f"depth must lie in [1, 1074], got {depth}")
    return tuple(2.0**-k for k in range(1, depth + 1))


def _schedule(values) -> tuple[float, ...]:
    """``values`` as a tuple of floats, or ``dyadic_schedule(10)`` when None;
    ValueError unless it is nonempty and every entry is a real number, finite
    and > 0."""
    schedule = dyadic_schedule(10) if values is None else tuple(values)
    if not all(map(_is_real, schedule)):
        raise ValueError(f"schedule entries must be real numbers, got {schedule}")
    schedule = tuple(map(float, schedule))
    if not schedule or not all(0.0 < v < math.inf for v in schedule):
        raise ValueError(f"schedule must be nonempty, finite and positive, got {schedule}")
    return schedule


@dataclass(frozen=True)
class LieTrotterTrace:
    """Error of the powered barycenter against the limit target along a
    descending schedule of positive parameters.

    ``negated`` records that the curve points were evaluated at -s.  Points
    where the solver failed, where the powered mean overflows or is not SPD,
    or where the error is not finite, are listed in ``failed_s`` and omitted from the (matching-length)
    ``s_values``/``errors`` lists.
    """

    s_values: tuple[float, ...]
    errors: tuple[float, ...]
    target: SpdMatrix
    negated: bool = False
    failed_s: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.s_values) != len(self.errors):
            raise ValueError("s_values and errors length mismatch")
        if any(not np.isfinite(e) for e in self.errors):
            raise ValueError("trace errors must be finite")


def _convergence_trace(
    w: WeightVector,
    curves: tuple[CurveSpec, ...] | list[CurveSpec],
    s_schedule: tuple[float, ...] | list[float] | None = None,
    negate: bool = False,
) -> Run[LieTrotterTrace]:
    """Evaluate the limit error along a schedule; set ``negate`` for the
    mirrored one-sided limit s -> 0^-."""
    curves = _check_matched(w, curves, "curves")
    schedule = _schedule(s_schedule)
    if any(schedule[i] <= schedule[i + 1] for i in range(len(schedule) - 1)):
        raise ValueError(f"schedule must be strictly descending, got {schedule}")
    if not isinstance(negate, (bool, np.bool_)):
        raise ValueError(f"negate must be a bool, got {negate!r}")
    runs = [_lie_trotter_value(w, curves, -s if negate else s) for s in schedule]
    target, *outcomes = yield [_lie_trotter_target(w, curves), *runs]
    target = _solved(target)
    s_ok: list[float] = []
    errors: list[float] = []
    failed: list[float] = []
    for s, outcome in zip(schedule, outcomes):
        try:
            with np.errstate(over="ignore"):
                error = frobenius_norm(_solved(outcome).entries - target.entries)
        except _POINT_FAILURES:
            error = np.inf
        if np.isfinite(error):
            s_ok.append(s)
            errors.append(error)
        else:
            failed.append(s)
    return LieTrotterTrace(
        s_values=tuple(s_ok),
        errors=tuple(errors),
        target=target,
        negated=bool(negate),
        failed_s=tuple(failed),
    )


@dataclass(frozen=True)
class DerivativeCheckReport:
    """Finite-difference errors of the barycenter's derivative at the
    identity tuple against the weighted direction sum, for both signs of the
    step."""

    errors_pos: tuple[float, ...]
    errors_neg: tuple[float, ...]


def _derivative_at_identity_check(
    w: WeightVector,
    directions: tuple[SymMatrix, ...] | list[SymMatrix],
    t_schedule: tuple[float, ...] | list[float] | None = None,
) -> Run[DerivativeCheckReport]:
    """Compare (barycenter(I + t X_1, ..., I + t X_n) - I) / t with
    sum_j w_j X_j over a schedule of steps t, both signs."""
    directions = _check_matched(w, directions, "directions")
    schedule = _schedule(t_schedule)
    radius = max(_radius(eigen.lam) for eigen in (yield from _decompositions(directions)))
    if radius > 0.0 and max(schedule) * radius >= 1.0:
        raise ValueError("largest step leaves the SPD cone for these directions")
    target = w.combine(d.entries for d in directions)
    eye = np.eye(directions[0].dim)

    def quotient_error(step: float) -> Generator:
        # I + t X_j is exactly symmetric, so admission keeps its bits
        points = yield from _admitted([eye + step * d.entries for d in directions])
        mean = yield from _converged_mean(w, points, f"t={step!r}")
        return frobenius_norm((mean.entries - eye) / step - target)

    outcomes = yield [quotient_error(sign * t) for t in schedule for sign in (1.0, -1.0)]
    # the first failure in (t, sign) order is raised, as stepping one point
    # at a time raises it
    errors = [_solved(outcome) for outcome in outcomes]
    return DerivativeCheckReport(tuple(errors[0::2]), tuple(errors[1::2]))


# The public functions, each its run step driven as a batch of one.
evaluate_curve = _public(_evaluate_curve)
lie_trotter_value = _public(_lie_trotter_value)
lie_trotter_target = _public(_lie_trotter_target)
convergence_trace = _public(_convergence_trace)
derivative_at_identity_check = _public(_derivative_at_identity_check)
