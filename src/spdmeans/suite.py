"""Seeded verification suite.

Every inequality, identity, and limit statement handled by this package is
re-checked here over deterministic random ensembles.  Checks are grouped in
families selectable from the CLI; each instance derives its own 64-bit seed
from (suite seed, stream name, index) so that any failing record can be
reproduced in isolation.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import barycenter as bc
from . import lie_trotter as lt
from . import means_geometry as mg
from .problem_io import derive_seed, dumps_canonical, random_orthogonal, spd_array_from_rng
from .spd_core import (
    Run,
    SymMatrix,
    _applied,
    _decompositions,
    _is_integer,
    _lockstep,
    _loewner_geq,
    _public,
    _radius,
    apply_spectral,
    congruence,
    determinant,
    frobenius_norm,
)

REL_TOL = 1e-9

# Largest condition number an ensemble may draw.  Above it the transport
# solves of the default draws meet near-singular congruences: at 1e7, 12 of
# the 20 runs at count 4, seeds 0-19, raise a non-SPD intermediate (10 in the
# det stream, 2 in geomean), 11 of them at the start's own congruences.
CONDITION_MAX_LIMIT = 1e6


@dataclass(frozen=True)
class EnsembleSpec:
    """Deterministic ensemble description; identical spec, identical ensemble."""

    seed: int = 42
    count: int = 200
    n_range: tuple[int, int] = (2, 5)
    dim_range: tuple[int, int] = (2, 8)
    condition_max: float = 100.0

    def __post_init__(self) -> None:
        for name in ("seed", "count"):
            value = getattr(self, name)
            if not bc._is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("n_range", "dim_range"):
            bounds = getattr(self, name)
            if not (isinstance(bounds, tuple) and len(bounds) == 2 and all(map(bc._is_integer, bounds))):
                raise ValueError(f"{name} must be a pair of integers, got {bounds!r}")
            if bounds[0] < 1 or bounds[0] > bounds[1]:
                raise ValueError(f"bad {name} {bounds}")
        if not bc._is_real(self.condition_max):
            raise ValueError(f"condition_max must be a real number, got {self.condition_max!r}")
        if self.condition_max < 1.0:
            raise ValueError("condition_max must be at least 1")
        if not self.condition_max <= CONDITION_MAX_LIMIT:
            raise ValueError(f"condition_max must be at most {CONDITION_MAX_LIMIT:.0e}")


@dataclass(frozen=True)
class CheckRecord:
    """One verified statement on one instance.

    ``stream`` plus ``instance_seed`` is enough to re-run the instance;
    ``witness`` holds the scalars that decided the verdict.
    """

    check_id: str
    stream: str
    index: int
    instance_seed: int
    passed: bool
    witness: dict[str, float]


@dataclass(frozen=True)
class SuiteReport:
    spec: EnsembleSpec
    families: tuple[str, ...]
    records: tuple[CheckRecord, ...] = field(repr=False)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def passes(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def failures(self) -> int:
        return self.total - self.passes

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> str:
        doc = {
            "schema_version": 1,
            "ensemble": asdict(self.spec),
            "families": list(self.families),
            "checks": [asdict(r) for r in self.records],
            "summary": {
                "total": self.total,
                "passes": self.passes,
                "failures": self.failures,
            },
        }
        return dumps_canonical(doc) + "\n"

    def summary_line(self) -> str:
        verdict = "PASS" if self.all_passed else "FAIL"
        return (
            f"{verdict}: {self.passes}/{self.total} checks passed "
            f"(families: {', '.join(self.families)}; seed={self.spec.seed}, "
            f"count={self.spec.count})"
        )


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    return frobenius_norm(a - b) / max(frobenius_norm(b), 1e-300)


def _draw_spd(rng: np.random.Generator, spec: EnsembleSpec, dim: int, count: int) -> Generator:
    """Run step: ``count`` SPD draws of dimension dim, admitted in one round."""
    arrays = [spd_array_from_rng(rng, dim, spec.condition_max) for _ in range(count)]
    return (yield from bc._admitted(arrays))


def _draw_problem(rng: np.random.Generator, spec: EnsembleSpec) -> Generator:
    """Run step: a drawn mean problem."""
    n = int(rng.integers(spec.n_range[0], spec.n_range[1] + 1))
    dim = int(rng.integers(spec.dim_range[0], spec.dim_range[1] + 1))
    mats = yield from _draw_spd(rng, spec, dim, n)
    return bc.MeanProblem(mats, bc.WeightVector(rng.uniform(0.2, 1.0, size=n)))


def _check(name: str, passed, witness: dict[str, float]) -> tuple[str, bool, dict[str, float]]:
    return name, bool(passed), {k: float(v) for k, v in witness.items()}


# ---------------------------------------------------------------------------
# metric family


def _run_metric_axioms(rng: np.random.Generator, spec: EnsembleSpec) -> Generator:
    dim = int(rng.integers(spec.dim_range[0], spec.dim_range[1] + 1))
    a, b, c = yield from _draw_spd(rng, spec, dim, 3)
    # the four distances share a round with the admission of an
    # independently rebuilt copy of a (fresh eigensolve) for the self distance
    distances = [mg._wasserstein_distance(x, y) for x, y in ((a, b), (b, a), (b, c), (a, c))]
    outcomes = yield [*distances, bc._admitted([np.array(a.entries)])]
    d_ab, d_ba, d_bc, d_ac, (copy,) = map(bc._solved, outcomes)
    checks = [
        _check("metric.symmetry", abs(d_ab - d_ba) <= 1e-10, {"diff": abs(d_ab - d_ba)})
    ]
    d_self = yield from mg._wasserstein_distance(a, copy)
    indiscernible = True
    if d_ab <= 1e-12:
        indiscernible = frobenius_norm(a.entries - b.entries) <= 1e-8 * frobenius_norm(a.entries)
    checks.append(
        _check(
            "metric.identity",
            d_self <= 1e-10 and indiscernible,
            {"self_distance": d_self, "cross_distance": d_ab},
        )
    )
    slack = d_ab + d_bc - d_ac
    checks.append(_check("metric.triangle", slack >= -1e-9, {"slack": slack}))
    return checks


def _run_metric_oracle(rng: np.random.Generator, spec: EnsembleSpec) -> Generator:
    a, b = yield from _draw_spd(rng, spec, 2, 2)
    formula = yield from mg._wasserstein_distance(a, b)
    oracle = mg.wasserstein_distance_oracle_2x2(a, b)
    diff = abs(formula - oracle)
    return [_check("metric.oracle_2x2", diff <= 1e-6, {"diff": diff, "formula": formula})]


def _capped_draw(rng: np.random.Generator, lo: int, hi: int, cap: int) -> int:
    """Integer in [lo, min(hi, cap)], or lo itself when the cap falls below it."""
    return int(rng.integers(lo, max(lo, min(hi, cap)) + 1))


def _run_metric_perturbation(rng: np.random.Generator, spec: EnsembleSpec) -> Generator:
    dim = _capped_draw(rng, *spec.dim_range, 6)
    a, b, c = yield from _draw_spd(rng, spec, dim, 3)
    t = float(rng.uniform(0.0, 1.0))
    rep = yield from mg._geodesic_perturbation_bound(a, b, c, t)
    return [
        _check(
            "metric.geodesic_perturbation",
            rep.lhs <= rep.rhs + 1e-9,
            {"lhs": rep.lhs, "rhs": rep.rhs, "lambda1": rep.lambda1, "t": t},
        )
    ]


# ---------------------------------------------------------------------------
# geomean family


def _run_geomean_pair(rng: np.random.Generator, spec: EnsembleSpec) -> Generator:
    dim = int(rng.integers(spec.dim_range[0], spec.dim_range[1] + 1))
    a, b = yield from _draw_spd(rng, spec, dim, 2)
    t = float(rng.uniform(0.05, 0.95))
    # the two-point solve shares its rounds with the checks, and its outcome
    # is taken after theirs, where a check-by-check evaluation reaches it
    problem = bc.MeanProblem((a, b), bc.WeightVector(np.array([1.0 - t, t])))
    outcomes = yield [_geomean_checks(rng, a, b, t), bc._wasserstein_mean(problem)]
    checks, geo = bc._solved(outcomes[0])
    # two-point closed form: the barycenter solver must land on the geodesic
    solved = bc._solved(outcomes[1])
    two_point = _rel_diff(solved.mean.entries, geo.entries)
    checks.append(
        _check(
            "geomean.two_point_solver",
            solved.converged and two_point <= 1e-8,
            {"diff": two_point, "iterations": solved.iterations, "t": t},
        )
    )
    return checks


def _geomean_checks(rng: np.random.Generator, a, b, t: float) -> Generator:
    """Run step: the geomean checks of the pair but the two-point solve, and
    the geodesic point at t.  Consecutive solves share a round; their
    outcomes are taken in check order, so the first failure in that order is
    raised."""
    dim = a.dim
    checks = []
    means = [mg._geometric_mean(a, b), mg._geometric_mean(a, b, t), mg._geometric_mean(b, a, 1.0 - t)]
    mid, gm_t, reversed_mean = map(bc._solved, (yield means))
    inv_a, inv_b = apply_spectral(a, "inverse"), apply_spectral(b, "inverse")
    riccati = _rel_diff(mid.entries @ inv_a.entries @ mid.entries, b.entries)
    checks.append(_check("geomean.riccati", riccati <= 1e-10, {"residual": riccati}))

    rev = _rel_diff(gm_t.entries, reversed_mean.entries)
    checks.append(_check("geomean.reversal", rev <= REL_TOL, {"diff": rev}))

    # congruence invariance under a random nonsingular transform
    x = random_orthogonal(rng, dim) * np.exp(rng.uniform(-1.0, 1.0, size=dim))
    xa, xb = yield from bc._admitted([congruence(x, a), congruence(x, b)])
    moved = congruence(x, gm_t)
    outcomes = yield [mg._geometric_mean(xa, xb, t), mg._geometric_mean(inv_a, inv_b, t)]
    transformed, inv_pair = map(bc._solved, outcomes)
    cong = _rel_diff(moved, transformed.entries)
    checks.append(_check("geomean.congruence", cong <= REL_TOL, {"diff": cong}))

    inv_mean = apply_spectral(gm_t, "inverse").entries
    inv = _rel_diff(inv_mean, inv_pair.entries)
    checks.append(_check("geomean.inverse", inv <= REL_TOL, {"diff": inv}))

    det_lhs = determinant(gm_t)
    det_rhs = determinant(a) ** (1.0 - t) * determinant(b) ** t
    det_err = abs(det_lhs - det_rhs) / max(1.0, abs(det_rhs))
    checks.append(_check("geomean.determinant", det_err <= REL_TOL, {"diff": det_err}))

    arith, inv_mix = yield from bc._admitted(
        [(1.0 - t) * a.entries + t * b.entries, (1.0 - t) * inv_a.entries + t * inv_b.entries]
    )
    harm = apply_spectral(inv_mix, "inverse")
    outcomes = yield [_loewner_geq(arith, gm_t, REL_TOL), _loewner_geq(gm_t, harm, REL_TOL)]
    upper, lower = map(bc._solved, outcomes)
    checks.append(
        _check(
            "geomean.agh_sandwich",
            upper.holds and lower.holds,
            {"upper_witness": upper.witness, "lower_witness": lower.witness},
        )
    )

    s, u = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))
    ends = (t, s, (1.0 - u) * s + u * t)
    geo, at_s, right = yield [mg._wasserstein_geodesic(a, b, end) for end in ends]
    geo, at_s = bc._solved(geo), bc._solved(at_s)
    left = yield from mg._wasserstein_geodesic(at_s, geo, u)
    affine = _rel_diff(left.entries, bc._solved(right).entries)
    checks.append(_check("geomean.geodesic_affine", affine <= REL_TOL, {"diff": affine, "s": s, "u": u}))
    return checks, geo


# ---------------------------------------------------------------------------
# bounds family


def _run_bounds_golden(rng: np.random.Generator, spec: EnsembleSpec) -> Generator:
    """Fixed worked 2x2 pair with known means and determinants, reproduced
    regardless of the ensemble parameters."""
    pair = [np.array([[1.0, 2.0], [2.0, 5.0]]), np.array([[4.0, 4.0], [4.0, 5.0]])]
    a, b = yield from bc._admitted(pair)
    problem = bc.MeanProblem((a, b), bc.WeightVector.uniform(2))
    outcomes = yield [bc._wasserstein_mean(problem), bc._karcher_mean(problem)]
    result, karcher = map(bc._solved, outcomes)
    golden = np.array([[9.0, 12.0], [12.0, 20.0]]) / 4.0
    mean_err = float(np.max(np.abs(result.mean.entries - golden)))
    det_mean = determinant(result.mean)
    checks = [
        _check(
            "bounds.golden_mean",
            result.converged and mean_err <= 1e-8,
            {"max_abs_err": mean_err},
        ),
        _check("bounds.golden_det", abs(det_mean - 2.25) <= 1e-8, {"det": det_mean}),
    ]
    karcher_err = float(
        np.max(np.abs(karcher.mean.entries - np.array([[1.6641, 2.2188], [2.2188, 4.1603]])))
    )
    det_karcher = determinant(karcher.mean)
    checks.append(
        _check(
            "bounds.golden_karcher",
            karcher.converged and karcher_err <= 5e-4 and abs(det_karcher - 2.0) <= 1e-3,
            {"max_abs_err": karcher_err, "det": det_karcher},
        )
    )
    return checks


def _run_bounds_problem(rng: np.random.Generator, spec: EnsembleSpec) -> Generator:
    problem = yield from _draw_problem(rng, spec)
    # the bounds need no mean, so they share the mean's rounds; each outcome
    # is taken where a check-by-check evaluation reaches it
    outcome, report = yield [bc._wasserstein_mean(problem), bc._bounds_report(problem)]
    result = bc._solved(outcome)
    checks = [
        _check(
            "bounds.fixed_point_residual",
            result.converged and result.residual <= 1e-12,
            {"residual": result.residual, "iterations": result.iterations},
        )
    ]

    def verdicts() -> Generator:
        return (yield from bc._check_bounds(problem, bc._solved(report), result.mean))

    eq_res, items = yield [bc._equivalent_equation_residual(result.mean, problem), verdicts()]
    eq_res = bc._solved(eq_res)
    checks.append(
        _check("bounds.equivalent_residual", eq_res <= 1e-10, {"residual": eq_res})
    )
    for item in bc._solved(items):
        checks.append(_check(f"bounds.{item.check_id}", item.holds, {"witness": item.witness}))
    return checks


# ---------------------------------------------------------------------------
# det family


def _run_det_problem(rng: np.random.Generator, spec: EnsembleSpec) -> Generator:
    problem = yield from _draw_problem(rng, spec)
    # equality case: all matrices equal forces equality of the determinants
    first = problem.matrices[0]
    equal_problem = bc.MeanProblem((first,) * problem.n, problem.weights)
    runs = [bc._wasserstein_mean(problem), bc._wasserstein_mean(equal_problem), bc._arithmetic_mean(problem)]
    outcome, equal_outcome, arith = yield runs
    result = bc._solved(outcome)
    rep = bc.det_inequality_check(problem, result.mean)
    checks = [
        _check(
            "det.mean_inequality",
            result.converged and rep.holds,
            {"det_mean": rep.det_mean, "det_geo_product": rep.det_geo_product},
        )
    ]
    log_det_arith = float(np.sum(np.log(bc._solved(arith).eigen.lam)))
    margin = log_det_arith - rep.log_det_geo_product
    checks.append(_check("det.logdet_concavity", margin >= -1e-9, {"margin": margin}))

    equal_rep = bc.det_inequality_check(equal_problem, bc._solved(equal_outcome).mean)
    gap = abs(equal_rep.det_mean - equal_rep.det_geo_product)
    tol = 1e-10 * max(1.0, abs(equal_rep.det_geo_product))
    checks.append(_check("det.equal_case", gap <= tol, {"gap": gap}))
    return checks


# ---------------------------------------------------------------------------
# invariance family


def _run_invariance_problem(rng: np.random.Generator, spec: EnsembleSpec) -> Generator:
    problem = yield from _draw_problem(rng, spec)
    perm = rng.permutation(problem.n)
    permuted = bc.MeanProblem(
        tuple(problem.matrices[i] for i in perm),
        bc.WeightVector(problem.weights.values[perm]),
    )
    repeated = bc.MeanProblem(
        problem.matrices * 2,
        bc.WeightVector(np.concatenate([problem.weights.values] * 2) / 2.0),
    )
    q = random_orthogonal(rng, problem.dim)
    # the matrices scaled by 0.1 and 3, and rotated by q, admitted in one round
    mats, n = problem.matrices, problem.n
    arrays = [alpha * a.entries for alpha in (0.1, 3.0) for a in mats] + [congruence(q, a) for a in mats]
    admitted = yield from bc._admitted(arrays)
    *scaled, rotated = (bc.MeanProblem(admitted[k * n : (k + 1) * n], problem.weights) for k in range(3))
    # the seven means are solved in lockstep; the first failure in order is raised
    runs = [bc._wasserstein_mean(p) for p in (problem, *scaled, permuted, repeated, rotated)]
    outcomes = yield [*runs, bc._wasserstein_mean(problem, bc.SolverConfig(initial="identity"))]
    base, *scaled_means, perm_mean, rep_mean, rot_mean, identity_mean = (
        bc._solved(outcome).mean for outcome in outcomes
    )
    checks = []

    worst_hom = 0.0
    for alpha, scaled_mean in zip((0.1, 3.0), scaled_means):
        worst_hom = max(worst_hom, _rel_diff(scaled_mean.entries, alpha * base.entries))
    checks.append(_check("invariance.homogeneity", worst_hom <= REL_TOL, {"diff": worst_hom}))

    perm_diff = _rel_diff(perm_mean.entries, base.entries)
    checks.append(_check("invariance.permutation", perm_diff <= REL_TOL, {"diff": perm_diff}))

    rep_diff = _rel_diff(rep_mean.entries, base.entries)
    checks.append(_check("invariance.repetition", rep_diff <= REL_TOL, {"diff": rep_diff}))

    rot_diff = _rel_diff(rot_mean.entries, congruence(q, base))
    checks.append(_check("invariance.congruence", rot_diff <= REL_TOL, {"diff": rot_diff}))

    init_diff = _rel_diff(identity_mean.entries, base.entries)
    checks.append(_check("invariance.init_agreement", init_diff <= 1e-8, {"diff": init_diff}))
    return checks


# ---------------------------------------------------------------------------
# lie-trotter family


def _direction_draw(rng: np.random.Generator, dim: int) -> tuple[SymMatrix, float]:
    """A normal symmetric draw and the operator norm it is to be scaled to."""
    return SymMatrix(rng.normal(size=(dim, dim))), float(rng.uniform(0.25, 0.6))


def _directions(draws) -> Generator:
    """Run step: each ``_direction_draw`` scaled to its norm; the norms of
    the draws are solved in one round."""
    eigens = yield from _decompositions([sym for sym, _ in draws])
    scales = (norm / max(_radius(eigen.lam), 1e-12) for (_, norm), eigen in zip(draws, eigens))
    return [SymMatrix(sym.entries * scale) for (sym, _), scale in zip(draws, scales)]


def _draw_curves(rng: np.random.Generator, n: int, dim: int) -> Generator:
    """Run step: n curves, each made by the CurveSpec constructor named by its
    drawn kind; a power curve's base is the exponential of its direction."""
    drawn = [(lt.CURVE_KINDS[int(rng.integers(0, 3))], _direction_draw(rng, dim)) for _ in range(n)]
    kinds = [kind for kind, _ in drawn]
    directions = yield from _directions([draw for _, draw in drawn])
    bases = iter((yield from _applied([d for k, d in zip(kinds, directions) if k == "power"], "exp_of_sym")))
    return tuple(
        getattr(lt.CurveSpec, k)(next(bases) if k == "power" else d) for k, d in zip(kinds, directions)
    )


def _ratio_window(errors: tuple[float, ...], last: int = 4) -> tuple[bool, float, float]:
    ratios = [
        errors[i + 1] / errors[i] for i in range(len(errors) - 1) if errors[i] > 0.0
    ]
    tail = ratios[-last:]
    if not tail:
        return False, 0.0, 0.0
    return all(0.25 <= r <= 0.75 for r in tail), min(tail), max(tail)


def _run_lie_trotter_instance(rng: np.random.Generator, spec: EnsembleSpec) -> Generator:
    n = _capped_draw(rng, 2, spec.n_range[1], 4)
    dim = _capped_draw(rng, *spec.dim_range, 6)
    curves = yield from _draw_curves(rng, n, dim)
    weights = bc.WeightVector(rng.uniform(0.2, 1.0, size=n))
    directions = tuple(c.derivative_at_zero for c in curves)
    runs = [lt._convergence_trace(weights, curves, negate=negate) for negate in (False, True)]
    outcomes = yield [*runs, lt._derivative_at_identity_check(weights, directions)]
    trace_pos, trace_neg, deriv = map(bc._solved, outcomes)
    checks = []

    complete = not trace_pos.failed_s and not trace_neg.failed_s
    checks.append(
        _check(
            "lie_trotter.trace_complete",
            complete and len(trace_pos.errors) == 10,
            {"failed_points": len(trace_pos.failed_s) + len(trace_neg.failed_s)},
        )
    )
    errs = trace_pos.errors
    half = len(errs) // 2
    tail_monotone = all(errs[i + 1] < errs[i] for i in range(half, len(errs) - 1))
    checks.append(
        _check(
            "lie_trotter.trace_monotone",
            tail_monotone,
            {"initial_error": errs[0], "final_error": errs[-1]},
        )
    )
    reduction = errs[-1] / errs[0] if errs[0] > 0 else 0.0
    checks.append(_check("lie_trotter.trace_reduction", reduction <= 1e-2, {"ratio": reduction}))
    ratio_ok, rmin, rmax = _ratio_window(errs)
    checks.append(
        _check("lie_trotter.trace_ratio", ratio_ok, {"min_ratio": rmin, "max_ratio": rmax})
    )
    final_pos, final_neg = trace_pos.errors[-1], trace_neg.errors[-1]
    two_sided = max(final_pos, final_neg) <= 2.0 * min(final_pos, final_neg)
    checks.append(
        _check(
            "lie_trotter.two_sided",
            two_sided,
            {"final_pos": final_pos, "final_neg": final_neg},
        )
    )

    ok_pos, dmin, dmax = _ratio_window(deriv.errors_pos)
    ok_neg, nmin, nmax = _ratio_window(deriv.errors_neg)
    checks.append(
        _check(
            "lie_trotter.derivative_ratio",
            ok_pos and ok_neg,
            {"min_ratio": min(dmin, nmin), "max_ratio": max(dmax, nmax)},
        )
    )

    # all-power specialization: the stored-derivative target must coincide
    # bit for bit with the independently assembled log-Euclidean mean
    directions = yield from _directions([_direction_draw(rng, dim) for _ in range(n)])
    bases = yield from _applied(directions, "exp_of_sym")
    power_curves = tuple(lt.CurveSpec.power(b) for b in bases)
    acc = np.zeros((dim, dim))
    for wj, base in zip(weights.values, bases):
        acc = acc + wj * apply_spectral(base, "log").entries
    outcomes = yield [lt._lie_trotter_target(weights, power_curves), _applied([acc], "exp_of_sym")]
    target, (independent,) = map(bc._solved, outcomes)
    exact = bool(np.array_equal(target.entries, independent.entries))
    gap = float(np.max(np.abs(target.entries - independent.entries)))
    checks.append(_check("lie_trotter.power_target_exact", exact, {"max_abs_diff": gap}))
    return checks


# ---------------------------------------------------------------------------
# registry and runner


@dataclass(frozen=True)
class CheckStream:
    stream_id: str
    family: str
    count_of: Callable[[int], int]
    # a ``_lockstep`` run that returns the checks of one instance
    run: Callable[[np.random.Generator, EnsembleSpec], Generator]


STREAMS: tuple[CheckStream, ...] = (
    CheckStream("metric.axioms", "metric", lambda c: c, _run_metric_axioms),
    CheckStream("metric.oracle", "metric", lambda c: c // 4, _run_metric_oracle),
    CheckStream("metric.perturbation", "metric", lambda c: c // 2, _run_metric_perturbation),
    CheckStream("geomean.pair", "geomean", lambda c: c // 2, _run_geomean_pair),
    CheckStream("bounds.golden", "bounds", lambda c: min(c, 1), _run_bounds_golden),
    CheckStream("bounds.problem", "bounds", lambda c: c, _run_bounds_problem),
    CheckStream("det.problem", "det", lambda c: c, _run_det_problem),
    CheckStream("invariance.problem", "invariance", lambda c: c // 4, _run_invariance_problem),
    CheckStream("lie_trotter.instance", "lie-trotter", lambda c: c // 10, _run_lie_trotter_instance),
)

# The families of the streams, in stream order.
FAMILIES = tuple(dict.fromkeys(s.family for s in STREAMS))


def expand_families(selection) -> tuple[str, ...]:
    """The families named by ``selection``, a name or names ("all" for every
    family); ValueError when it is empty or names an unknown family."""
    selection = (selection,) if isinstance(selection, str) else tuple(selection)
    if not selection:
        raise ValueError(f"select at least one suite family from {FAMILIES} or 'all'")
    for name in selection:
        if name != "all" and name not in FAMILIES:
            raise ValueError(f"unknown suite family {name!r}; choose from {FAMILIES} or 'all'")
    return FAMILIES if "all" in selection else tuple(dict.fromkeys(selection))


def _run_instance(
    stream_id: str, instance_seed: int, spec: EnsembleSpec, index: int = -1
) -> Run[list[CheckRecord]]:
    """Re-run one instance of one stream from its recorded seed, as a batch
    of one."""
    stream = next((s for s in STREAMS if s.stream_id == stream_id), None)
    if stream is None:
        raise ValueError(f"unknown stream {stream_id!r}")
    if not _is_integer(instance_seed) or instance_seed < 0:
        raise ValueError(f"instance seed must be a non-negative integer, got {instance_seed!r}")
    checks = yield from stream.run(np.random.default_rng(instance_seed), spec)
    return [
        CheckRecord(check_id, stream.stream_id, index, instance_seed, passed, witness)
        for check_id, passed, witness in checks
    ]


run_instance = _public(_run_instance)


def run_suite(spec: EnsembleSpec, families="all") -> SuiteReport:
    """Run the selected check families over the spec's ensemble.

    Per-stream instance counts scale from ``spec.count`` (at the default 200:
    200 axiom triples, 50 oracle pairs, 100 perturbation quadruples, 100
    two-matrix instances, one golden worked-pair reproduction, 200 bound
    problems, 200 determinant problems, 50 invariance instances, 20 limit
    instances).  Every instance is a run of one ``_lockstep`` call, so
    the means of all instances share their eigensolve rounds; each draws
    from its own generator, so the records are those of ``run_instance``.
    Once all have ended, the SolverError or LinearAlgebraError of the first
    failing instance in stream and index order is raised again as a
    SolverError that names the stream, index and instance seed, so
    ``run_instance`` can reproduce it; a ValueError is raised as it is.
    """
    chosen = expand_families(families)
    instances = [
        (stream, index, derive_seed(spec.seed, stream.stream_id, index))
        for stream in STREAMS
        if stream.family in chosen
        for index in range(stream.count_of(spec.count))
    ]
    outcomes = _lockstep([_run_instance(s.stream_id, seed, spec, i) for s, i, seed in instances])
    records: list[CheckRecord] = []
    for (stream, index, seed), outcome in zip(instances, outcomes):
        if isinstance(outcome, ValueError):
            raise outcome
        if isinstance(outcome, Exception):
            raise bc.SolverError(
                f"stream {stream.stream_id} index {index} (instance seed {seed}): {outcome}"
            ) from outcome
        records.extend(outcome)
    return SuiteReport(spec=spec, families=chosen, records=tuple(records))
