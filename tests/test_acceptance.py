"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.  Criteria 2, 4 and 5 share one 200-problem ensemble (module
fixture); criterion 9 exercises the CLI end to end, twice, and compares
bytes.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from spdmeans import (
    CurveSpec,
    EnsembleSpec,
    MeanProblem,
    SolverConfig,
    SpdMatrix,
    SymMatrix,
    WeightVector,
    apply_spectral,
    bounds_report,
    check_bounds,
    congruence,
    convergence_trace,
    derivative_at_identity_check,
    det_inequality_check,
    equivalent_equation_residual,
    frobenius_norm,
    geodesic_perturbation_bound,
    karcher_mean,
    operator_norm,
    residual,
    wasserstein_distance,
    wasserstein_distance_oracle_2x2,
    wasserstein_geodesic,
    wasserstein_mean,
)
from spdmeans.cli import EXIT_OK, main
from spdmeans.problem_io import derive_seed, random_orthogonal, spd_from_rng
from spdmeans.spd_core import _lockstep, _solved
from spdmeans.suite import _direction_draw, _directions

SEED = 42
ENSEMBLE_COUNT = 200


@contextmanager
def criterion(num: int, desc: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL: {desc}")
        raise
    else:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {num} PASS: {desc} [{elapsed:.1f}s]")


def rel_diff(a, b):
    return frobenius_norm(a - b) / frobenius_norm(b)


def draw_problem(rng) -> MeanProblem:
    n = int(rng.integers(2, 6))
    dim = int(rng.integers(2, 9))
    mats = tuple(spd_from_rng(rng, dim, 100.0) for _ in range(n))
    return MeanProblem(mats, WeightVector(rng.uniform(0.2, 1.0, n)))


@pytest.fixture(scope="module")
def ensemble200():
    """200 seeded problems (n <= 5, dim <= 8, condition <= 100) with their
    converged transport barycenters; shared by criteria 2, 4 and 5.  The
    build time is recorded so criterion 2 can bound generation plus solving
    plus certification together."""
    solved = []
    start = time.perf_counter()
    for index in range(ENSEMBLE_COUNT):
        rng = np.random.default_rng(derive_seed(SEED, "acceptance.problem", index))
        problem = draw_problem(rng)
        solved.append((problem, wasserstein_mean(problem)))
    return solved, time.perf_counter() - start


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked 2x2 example: both means and their determinants"):
        a = SpdMatrix([[1.0, 2.0], [2.0, 5.0]])
        b = SpdMatrix([[4.0, 4.0], [4.0, 5.0]])
        problem = MeanProblem((a, b), WeightVector.uniform(2))

        transport = wasserstein_mean(problem)
        assert transport.converged
        np.testing.assert_allclose(
            transport.mean.entries, np.array([[9.0, 12.0], [12.0, 20.0]]) / 4.0, atol=1e-8
        )
        det_transport = float(np.prod(transport.mean.eigen.lam))
        assert abs(det_transport - 2.25) <= 1e-8

        riemannian = karcher_mean(problem)
        assert riemannian.converged
        np.testing.assert_allclose(
            riemannian.mean.entries,
            [[1.6641, 2.2188], [2.2188, 4.1603]],
            atol=5e-4,
        )
        det_riemannian = float(np.prod(riemannian.mean.eigen.lam))
        assert abs(det_riemannian - 2.0) <= 1e-3


def test_criterion_2_fixed_point_certification(ensemble200):
    with criterion(2, "200 converged barycenters certified by both residuals"):
        solved, build_seconds = ensemble200
        start = time.perf_counter()
        for problem, result in solved:
            assert result.converged
            assert result.residual <= 1e-12
            assert residual(result.mean, problem) <= 1e-12
            assert equivalent_equation_residual(result.mean, problem) <= 1e-10
        assert build_seconds + (time.perf_counter() - start) < 60.0


def test_criterion_3_two_point_closed_form():
    with criterion(3, "solver equals the closed-form geodesic on 100 pairs"):
        for index in range(100):
            rng = np.random.default_rng(derive_seed(SEED, "acceptance.two_point", index))
            dim = int(rng.integers(2, 9))
            a, b = spd_from_rng(rng, dim, 100.0), spd_from_rng(rng, dim, 100.0)
            t = float(rng.uniform(0.05, 0.95))
            solved = wasserstein_mean(
                MeanProblem((a, b), WeightVector(np.array([1.0 - t, t])))
            )
            assert solved.converged
            assert rel_diff(solved.mean.entries, wasserstein_geodesic(a, b, t).entries) <= 1e-8


def test_criterion_4_bound_suite(ensemble200):
    with criterion(4, "all bounds hold on the 200-problem ensemble, zero failures"):
        conditional_hits = 0
        for problem, result in ensemble200[0]:
            report = bounds_report(problem)
            verdicts = {c.check_id: c for c in check_bounds(problem, report, result.mean)}
            assert verdicts["arithmetic_upper"].holds
            assert verdicts["lie_trotter_lower"].holds
            assert operator_norm(result.mean) <= report.opnorm_bound + 1e-9
            if report.upper_inverse is not None:
                conditional_hits += 1
                assert verdicts["inverse_upper"].holds
        print(f"  (conditional upper bound applicable on {conditional_hits} instances)")


def test_criterion_5_determinant_inequality(ensemble200):
    with criterion(5, "determinant inequality on the ensemble, equality when equal"):
        for problem, result in ensemble200[0]:
            rep = det_inequality_check(problem, result.mean)
            assert rep.holds
            assert rep.det_mean >= rep.det_geo_product - 1e-9 * max(1.0, rep.det_geo_product)
        # equality case
        for index in range(20):
            rng = np.random.default_rng(derive_seed(SEED, "acceptance.det_equal", index))
            x = spd_from_rng(rng, int(rng.integers(2, 9)), 100.0)
            n = int(rng.integers(2, 6))
            problem = MeanProblem((x,) * n, WeightVector(rng.uniform(0.2, 1.0, n)))
            rep = det_inequality_check(problem, wasserstein_mean(problem).mean)
            assert abs(rep.det_mean - rep.det_geo_product) <= 1e-10 * max(
                1.0, rep.det_geo_product
            )


def test_criterion_6_metric_verification():
    with criterion(6, "formula vs oracle, symmetry, triangle, perturbation bound"):
        for index in range(50):
            rng = np.random.default_rng(derive_seed(SEED, "acceptance.oracle", index))
            a, b = spd_from_rng(rng, 2, 100.0), spd_from_rng(rng, 2, 100.0)
            assert abs(
                wasserstein_distance(a, b) - wasserstein_distance_oracle_2x2(a, b)
            ) <= 1e-6
        for index in range(200):
            rng = np.random.default_rng(derive_seed(SEED, "acceptance.triple", index))
            dim = int(rng.integers(2, 9))
            a, b, c = (spd_from_rng(rng, dim, 100.0) for _ in range(3))
            assert abs(wasserstein_distance(a, b) - wasserstein_distance(b, a)) <= 1e-10
            slack = wasserstein_distance(a, b) + wasserstein_distance(b, c) - wasserstein_distance(a, c)
            assert slack >= -1e-9
        for index in range(100):
            rng = np.random.default_rng(derive_seed(SEED, "acceptance.quadruple", index))
            dim = int(rng.integers(2, 7))
            a, b, c = (spd_from_rng(rng, dim, 100.0) for _ in range(3))
            rep = geodesic_perturbation_bound(a, b, c, float(rng.uniform(0.0, 1.0)))
            assert rep.lhs <= rep.rhs + 1e-9


def test_criterion_7_invariances():
    with criterion(7, "homogeneity, permutation, repetition, congruence, dual init"):
        for index in range(50):
            rng = np.random.default_rng(derive_seed(SEED, "acceptance.invariance", index))
            problem = draw_problem(rng)
            base = wasserstein_mean(problem).mean.entries
            for alpha in (0.1, 3.0):
                scaled = MeanProblem(
                    tuple(SpdMatrix(alpha * m.entries) for m in problem.matrices),
                    problem.weights,
                )
                assert rel_diff(wasserstein_mean(scaled).mean.entries, alpha * base) <= 1e-9
            perm = rng.permutation(problem.n)
            permuted = MeanProblem(
                tuple(problem.matrices[i] for i in perm),
                WeightVector(problem.weights.values[perm]),
            )
            assert rel_diff(wasserstein_mean(permuted).mean.entries, base) <= 1e-9
            repeated = MeanProblem(
                problem.matrices * 2,
                WeightVector(np.concatenate([problem.weights.values] * 2) / 2.0),
            )
            assert rel_diff(wasserstein_mean(repeated).mean.entries, base) <= 1e-9
            q = random_orthogonal(rng, problem.dim)
            rotated = MeanProblem(
                tuple(SpdMatrix(congruence(q, m)) for m in problem.matrices),
                problem.weights,
            )
            assert (
                rel_diff(
                    wasserstein_mean(rotated).mean.entries,
                    congruence(q, SymMatrix(base)),
                )
                <= 1e-9
            )
            from_identity = wasserstein_mean(problem, SolverConfig(initial="identity"))
            assert rel_diff(from_identity.mean.entries, base) <= 1e-8


def test_criterion_8_lie_trotter_limit():
    with criterion(8, "dyadic limit traces and identity derivative, 20 instances"):
        start = time.perf_counter()
        for index in range(20):
            rng = np.random.default_rng(derive_seed(SEED, "acceptance.lie_trotter", index))
            n = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 7))
            curves = []
            for _ in range(n):
                kind = ("power", "affine", "exp_line")[int(rng.integers(0, 3))]
                (direction,) = _solved(_lockstep([_directions([_direction_draw(rng, dim)])])[0])
                if kind == "power":
                    curves.append(CurveSpec.power(apply_spectral(direction, "exp_of_sym")))
                elif kind == "affine":
                    curves.append(CurveSpec.affine(direction))
                else:
                    curves.append(CurveSpec.exp_line(direction))
            weights = WeightVector(rng.uniform(0.2, 1.0, n))

            trace = convergence_trace(weights, tuple(curves))
            assert not trace.failed_s
            errs = trace.errors
            half = len(errs) // 2
            assert all(errs[i + 1] < errs[i] for i in range(half, len(errs) - 1))
            assert errs[-1] <= 1e-2 * errs[0]
            for i in range(len(errs) - 4, len(errs) - 1):
                assert 0.25 <= errs[i + 1] / errs[i] <= 0.75

            deriv = derivative_at_identity_check(
                weights, tuple(c.derivative_at_zero for c in curves)
            )
            for errors in (deriv.errors_pos, deriv.errors_neg):
                for i in range(len(errors) - 4, len(errors) - 1):
                    assert 0.25 <= errors[i + 1] / errors[i] <= 0.75
        assert time.perf_counter() - start < 120.0


def test_criterion_9_verify_cli_deterministic(tmp_path, capsys):
    with criterion(9, "verify --suite all --seed 42 --count 200 exits 0, twice, byte-equal"):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--suite", "all", "--seed", "42", "--count", "200"]
        code_a = main(argv + ["--out", str(out_a)])
        code_b = main(argv + ["--out", str(out_b)])
        capsys.readouterr()
        assert code_a == EXIT_OK
        assert code_b == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
