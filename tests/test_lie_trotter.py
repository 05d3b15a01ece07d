import math
import warnings

import numpy as np
import pytest

from spdmeans import (
    CurveSpec,
    SolverError,
    SpdMatrix,
    SymMatrix,
    WeightVector,
    apply_spectral,
    convergence_trace,
    derivative_at_identity_check,
    dyadic_schedule,
    evaluate_curve,
    frobenius_norm,
    identity,
    lie_trotter_target,
    lie_trotter_value,
    wasserstein_geodesic,
)


def bounded_sym(rng, dim, radius):
    g = rng.normal(size=(dim, dim))
    sym = (g + g.T) / 2.0
    lam = np.abs(np.linalg.eigvalsh(sym)).max()
    return SymMatrix(sym * (radius / lam))


@pytest.fixture
def mixed_instance():
    rng = np.random.default_rng(90)
    dim = 4
    curves = (
        CurveSpec.power(apply_spectral(bounded_sym(rng, dim, 0.5), "exp_of_sym")),
        CurveSpec.affine(bounded_sym(rng, dim, 0.5)),
        CurveSpec.exp_line(bounded_sym(rng, dim, 0.4)),
    )
    return WeightVector(np.array([0.5, 0.25, 0.25])), curves


# ---------------------------------------------------------------------------
# curves


def test_curves_pass_through_identity():
    rng = np.random.default_rng(1)
    d = bounded_sym(rng, 3, 0.5)
    for curve in (
        CurveSpec.power(apply_spectral(d, "exp_of_sym")),
        CurveSpec.affine(d),
        CurveSpec.exp_line(d),
    ):
        np.testing.assert_array_equal(evaluate_curve(curve, 0.0).entries, np.eye(3))


def test_power_curve_values():
    base = SpdMatrix(np.diag([4.0, 9.0]))
    curve = CurveSpec.power(base)
    np.testing.assert_allclose(evaluate_curve(curve, 1.0).entries, base.entries, atol=1e-14)
    np.testing.assert_allclose(
        evaluate_curve(curve, 0.5).entries, np.diag([2.0, 3.0]), atol=1e-14
    )
    np.testing.assert_allclose(
        curve.derivative_at_zero.entries, np.diag(np.log([4.0, 9.0])), atol=1e-14
    )


def test_affine_curve_admissibility():
    direction = SymMatrix(np.diag([2.0, -1.0]))
    curve = CurveSpec.affine(direction)
    assert curve.admissible(0.4)
    assert not curve.admissible(0.5)
    with pytest.raises(ValueError):
        evaluate_curve(curve, 0.6)
    np.testing.assert_allclose(
        evaluate_curve(curve, 0.25).entries, np.diag([1.5, 0.75]), atol=1e-15
    )


def test_affine_admissibility_solves_direction_once(monkeypatch):
    import spdmeans.spd_core as core

    rng = np.random.default_rng(5)
    direction = bounded_sym(rng, 3, 0.5)
    curves = (
        CurveSpec.affine(direction),
        CurveSpec.power(apply_spectral(bounded_sym(rng, 3, 0.5), "exp_of_sym")),
    )
    real_jacobi = core._jacobi
    direction_solves = []

    def counted(matrix):
        if np.array_equal(matrix, direction.entries):
            direction_solves.append(1)
        return real_jacobi(matrix)

    monkeypatch.setattr(core, "_jacobi", counted)
    w = WeightVector.uniform(2)
    schedule = dyadic_schedule(10)
    for negate in (False, True):
        trace = convergence_trace(w, curves, schedule, negate=negate)
        assert not trace.failed_s
    assert len(direction_solves) == 1


def test_exp_line_curve():
    direction = SymMatrix(np.diag([1.0, -1.0]))
    point = evaluate_curve(CurveSpec.exp_line(direction), 0.5)
    np.testing.assert_allclose(point.entries, np.diag([math.e**0.5, math.e**-0.5]), rtol=1e-14)


def _outcome(compute):
    try:
        return compute()
    except Exception as exc:
        return exc


def test_curve_point_batch_gives_the_lone_results():
    # one lockstep batch of curve points over dimensions 2-6, all kinds and
    # s in {0, +-2^-k}, against the point formed and solved on its own; the
    # errors of the batch keep their type and message
    from spdmeans import lie_trotter as module
    from spdmeans.spd_core import SpectralDomainError, _lockstep

    rng = np.random.default_rng(17)
    cases = []
    for dim in range(2, 7):
        generator = bounded_sym(rng, dim, 0.5)
        curves = (
            CurveSpec.power(apply_spectral(generator, "exp_of_sym")),
            CurveSpec.affine(generator),
            CurveSpec.exp_line(generator),
        )
        for curve in curves:
            for s in (0.0, 0.5, -0.5, 0.125, -2.0**-10):
                if s == 0.0:
                    expected = identity(dim)
                elif curve.kind == "power":
                    expected = apply_spectral(curve.generator, "power", s)
                elif curve.kind == "affine":
                    expected = SpdMatrix(np.eye(dim) + s * generator.entries)
                else:
                    expected = apply_spectral(SymMatrix(s * generator.entries), "exp_of_sym")
                cases.append((curve, s, expected))
    wide = CurveSpec.affine(SymMatrix(np.diag([3.0, -1.0, 0.5])))
    steep = SymMatrix(np.diag([2000.0, 1.0, -1.0]))
    failures = [
        (wide, True, ValueError("s must be a real number, got True")),
        (wide, math.nan, ValueError("s must be finite, got nan")),
        (wide, -math.inf, ValueError("s must be finite, got -inf")),
        (wide, 0.5, ValueError("s=0.5 outside the admissible interval of the affine curve")),
        (CurveSpec.exp_line(steep), 0.5, _outcome(lambda: apply_spectral(SymMatrix(0.5 * steep.entries), "exp_of_sym"))),
    ]
    assert isinstance(failures[-1][2], SpectralDomainError)
    cases[3:3] = failures[:3]
    cases += failures[3:]
    outcomes = _lockstep([module._evaluate_curve(curve, s) for curve, s, _ in cases])
    for (curve, s, expected), got in zip(cases, outcomes):
        if isinstance(expected, Exception):
            assert type(got) is type(expected) and str(got) == str(expected), (curve.kind, s)
            continue
        assert type(got) is SpdMatrix, (curve.kind, s)
        np.testing.assert_array_equal(got.entries, expected.entries)
        np.testing.assert_array_equal(got.eigen.q, expected.eigen.q)
        np.testing.assert_array_equal(got.eigen.lam, expected.eigen.lam)


def test_curve_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        CurveSpec(kind="spline", generator=SymMatrix(np.eye(2)), derivative_at_zero=SymMatrix(np.eye(2)))


# ---------------------------------------------------------------------------
# value and target


def test_single_power_curve_recovers_base():
    base = SpdMatrix([[2.0, 0.3], [0.3, 1.0]])
    w = WeightVector.uniform(1)
    curves = (CurveSpec.power(base),)
    for s in (0.5, 0.125, 2.0 ** -8):
        value = lie_trotter_value(w, curves, s)
        assert frobenius_norm(value.entries - base.entries) <= 1e-12
    trace = convergence_trace(w, curves)
    assert max(trace.errors) <= 1e-12


def test_value_rejects_bad_input(mixed_instance):
    w, curves = mixed_instance
    with pytest.raises(ValueError):
        lie_trotter_value(w, curves, 0.0)
    with pytest.raises(ValueError):
        lie_trotter_value(WeightVector.uniform(2), curves, 0.5)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_parameter_is_an_input_error(mixed_instance, s):
    # rejected before any curve arithmetic, so no numpy warning precedes it
    _, curves = mixed_instance
    assert [c.kind for c in curves] == ["power", "affine", "exp_line"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for curve in curves:
            with pytest.raises(ValueError, match="^s must be finite, got "):
                evaluate_curve(curve, s)
            with pytest.raises(ValueError, match="^s must be finite, got "):
                lie_trotter_value(WeightVector.uniform(1), (curve,), s)


def test_commuting_diagonal_scalar_oracle():
    # diagonal power curves decouple: entry i of the barycenter at s is
    # (sum_j w_j a_ji^{s/2})^2, then the 1/s power acts entrywise
    rng = np.random.default_rng(17)
    diags = rng.uniform(0.5, 2.0, size=(3, 4))
    w = rng.uniform(0.2, 1.0, 3)
    w = w / w.sum()
    curves = tuple(CurveSpec.power(SpdMatrix(np.diag(d))) for d in diags)
    for s in (0.5, 0.0625):
        expected = np.array(
            [
                (np.sum(w * diags[:, i] ** (s / 2.0)) ** 2) ** (1.0 / s)
                for i in range(4)
            ]
        )
        value = lie_trotter_value(WeightVector(w), curves, s)
        np.testing.assert_allclose(np.diag(value.entries), expected, rtol=1e-10)


def test_value_at_s_one_is_geodesic_midpoint():
    rng = np.random.default_rng(23)
    a = apply_spectral(bounded_sym(rng, 3, 0.5), "exp_of_sym")
    b = apply_spectral(bounded_sym(rng, 3, 0.5), "exp_of_sym")
    value = lie_trotter_value(
        WeightVector.uniform(2), (CurveSpec.power(a), CurveSpec.power(b)), 1.0
    )
    target = wasserstein_geodesic(a, b, 0.5)
    assert frobenius_norm(value.entries - target.entries) <= 1e-10


def test_target_values():
    a = SpdMatrix([[2.0, 0.5], [0.5, 3.0]])
    w1 = WeightVector.uniform(2)
    same = lie_trotter_target(w1, (CurveSpec.power(a), CurveSpec.power(a)))
    assert frobenius_norm(same.entries - a.entries) / frobenius_norm(a.entries) <= 1e-13
    da, db = np.array([1.0, 4.0]), np.array([9.0, 2.0])
    tgt = lie_trotter_target(
        w1,
        (CurveSpec.power(SpdMatrix(np.diag(da))), CurveSpec.power(SpdMatrix(np.diag(db)))),
    )
    np.testing.assert_allclose(np.diag(tgt.entries), np.sqrt(da * db), rtol=1e-13)


def test_target_matches_independent_log_euclidean_path(mixed_instance):
    w, _ = mixed_instance
    rng = np.random.default_rng(55)
    bases = tuple(apply_spectral(bounded_sym(rng, 4, 0.5), "exp_of_sym") for _ in range(3))
    target = lie_trotter_target(w, tuple(CurveSpec.power(b) for b in bases))
    acc = np.zeros((4, 4))
    for wj, base in zip(w.values, bases):
        acc = acc + wj * apply_spectral(base, "log").entries
    independent = apply_spectral(SymMatrix(acc), "exp_of_sym")
    np.testing.assert_array_equal(target.entries, independent.entries)


# ---------------------------------------------------------------------------
# convergence traces


def test_trace_first_order_convergence(mixed_instance):
    w, curves = mixed_instance
    trace = convergence_trace(w, curves)
    assert trace.s_values == dyadic_schedule(10)
    assert not trace.failed_s
    errs = trace.errors
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    assert errs[-1] <= 1e-2 * errs[0]
    for i in range(len(errs) - 4, len(errs) - 1):
        assert 0.25 <= errs[i + 1] / errs[i] <= 0.75


def test_trace_two_sided_limits_agree(mixed_instance):
    w, curves = mixed_instance
    pos = convergence_trace(w, curves)
    neg = convergence_trace(w, curves, negate=True)
    assert neg.negated
    assert max(pos.errors[-1], neg.errors[-1]) <= 2.0 * min(pos.errors[-1], neg.errors[-1])


INADMISSIBLE_SCHEDULES = [(), [], (-0.5,), (0.0,), (0.5, 0.0), (math.nan,), (0.5, math.nan), (math.inf,)]


def test_trace_schedule_validation(mixed_instance):
    w, curves = mixed_instance
    with pytest.raises(ValueError, match="strictly descending"):
        convergence_trace(w, curves, (0.5, 0.5))
    with pytest.raises(ValueError, match="strictly descending"):
        convergence_trace(w, curves, (0.25, 0.5))
    # None is the one way to select the default schedule
    for schedule in INADMISSIBLE_SCHEDULES:
        with pytest.raises(ValueError, match="nonempty, finite and positive"):
            convergence_trace(w, curves, schedule)
    # entries follow the SolverConfig rule: Python or numpy reals only
    for schedule in [(0.5, "0.25"), (True,), (0.5, None), (0.5, 0.25j)]:
        with pytest.raises(ValueError, match="must be real numbers"):
            convergence_trace(w, curves, schedule)
    assert convergence_trace(w, curves, (np.float64(0.5), np.float32(0.25), 1 / 8)).s_values == (
        0.5,
        0.25,
        0.125,
    )
    for negate in ("yes", 1, None):
        with pytest.raises(ValueError, match="negate must be a bool"):
            convergence_trace(w, curves, negate=negate)


def test_trace_records_solver_failures(mixed_instance, monkeypatch):
    # the trace forks one run per schedule point; the rig makes the run of
    # |s| = 0.25, the second of the four, end in a SolverError after its solve
    w, curves = mixed_instance
    from spdmeans import lie_trotter as module

    real = module._powered_mean
    forked = []

    def flaky(w, curves, s):
        index = len(forked)
        forked.append(s)
        powered = yield from real(w, curves, s)
        if index == 1:
            raise SolverError("rigged failure")
        return powered

    monkeypatch.setattr(module, "_powered_mean", flaky)
    for negate in (False, True):
        forked.clear()
        trace = module.convergence_trace(w, curves, dyadic_schedule(4), negate=negate)
        assert trace.failed_s == (0.25,)
        assert trace.s_values == (0.5, 0.125, 0.0625)
        assert forked == [-s if negate else s for s in dyadic_schedule(4)]


def test_trace_records_the_first_failing_curve(monkeypatch):
    # at s = 1 the exp_line point overflows (at s = -1 it is not admitted)
    # and the affine point is not admissible; the first curve's failure is
    # the one recorded, while the affine curve's ValueError would be raised
    # out of the trace
    w = WeightVector(np.array([0.02, 0.98]))
    curves = (
        CurveSpec.exp_line(SymMatrix(np.diag([720.0, 0.0]))),
        CurveSpec.affine(SymMatrix(np.diag([1.5, 0.0]))),
    )
    for negate in (False, True):
        trace = convergence_trace(w, curves, (1.0, 2.0**-10), negate=negate)
        assert trace.failed_s == (1.0,)
        assert trace.s_values == (2.0**-10,)
    with pytest.raises(ValueError, match="outside the admissible interval"):
        convergence_trace(WeightVector(w.values[::-1]), curves[::-1], (1.0, 2.0**-10))


def test_trace_solves_no_curve_point_alone(mixed_instance, monkeypatch):
    # with the affine generator norm cached, a trace makes no lone solve: its
    # first stacked round holds the target and the affine and exp_line
    # points at every s (a power point of an SPD generator solves nothing)
    from spdmeans import spd_core

    w, curves = mixed_instance
    assert [c.kind for c in curves] == ["power", "affine", "exp_line"]
    assert curves[1].admissible(0.5)
    stacks, lone = [], []
    real_stack, real_lone = spd_core._jacobi_stack, spd_core._jacobi

    def counting_stack(arrays):
        stacks.append(len(arrays))
        return real_stack(arrays)

    def counting_lone(matrix):
        lone.append(matrix)
        return real_lone(matrix)

    monkeypatch.setattr(spd_core, "_jacobi_stack", counting_stack)
    monkeypatch.setattr(spd_core, "_jacobi", counting_lone)
    steps = 5
    trace = convergence_trace(w, curves, dyadic_schedule(steps))
    assert not lone
    assert stacks[0] == 1 + 2 * steps
    assert len(trace.errors) == steps


def test_dyadic_schedule():
    assert dyadic_schedule(3) == (0.5, 0.25, 0.125)
    assert dyadic_schedule(1074)[-1] > 0.0
    assert dyadic_schedule(np.int64(2)) == (0.5, 0.25)
    for depth in (0, 1075):
        with pytest.raises(ValueError, match="must lie in"):
            dyadic_schedule(depth)
    for depth in (2.5, "3", True, None):
        with pytest.raises(ValueError, match="must be an integer"):
            dyadic_schedule(depth)


# ---------------------------------------------------------------------------
# derivative at the identity tuple


def test_derivative_zero_directions_are_exact():
    w = WeightVector.uniform(2)
    zero = SymMatrix(np.zeros((3, 3)))
    report = derivative_at_identity_check(w, (zero, zero), dyadic_schedule(4))
    assert report.errors_pos == (0.0,) * 4
    assert report.errors_neg == (0.0,) * 4


def test_derivative_diagonal_scalar_oracle():
    # diagonal directions decouple; the quotient must match the scalar
    # derivative of (sum_j w_j sqrt(1 + t x_j))^2 evaluated numerically
    w = WeightVector(np.array([0.3, 0.7]))
    xs = np.array([[0.4, -0.2], [-0.3, 0.5]])
    directions = tuple(SymMatrix(np.diag(x)) for x in xs)
    t = 2.0**-6
    report = derivative_at_identity_check(w, directions, (t,))
    expected_quotient = np.array(
        [
            ((np.sum(w.values * np.sqrt(1.0 + t * xs[:, i]))) ** 2 - 1.0) / t
            for i in range(2)
        ]
    )
    target = np.sum(w.values[:, None] * xs, axis=0)
    assert report.errors_pos[0] == pytest.approx(
        float(np.linalg.norm(expected_quotient - target)), rel=1e-6
    )


def test_derivative_first_order_ratios(mixed_instance):
    w, curves = mixed_instance
    report = derivative_at_identity_check(w, tuple(c.derivative_at_zero for c in curves))
    for errors in (report.errors_pos, report.errors_neg):
        for i in range(len(errors) - 4, len(errors) - 1):
            assert 0.25 <= errors[i + 1] / errors[i] <= 0.75


def test_derivative_rejects_inadmissible_steps():
    w = WeightVector.uniform(1)
    big = SymMatrix(np.diag([3.0, -3.0]))
    with pytest.raises(ValueError, match="leaves the SPD cone"):
        derivative_at_identity_check(w, (big,), (0.5,))
    small = SymMatrix(np.diag([0.3, -0.3]))
    for schedule in INADMISSIBLE_SCHEDULES:
        with pytest.raises(ValueError, match="nonempty, finite and positive"):
            derivative_at_identity_check(w, (small,), schedule)


def test_derivative_check_admits_and_solves_in_one_lockstep_call(monkeypatch):
    # the check is one run of one lockstep call; its first stacked round
    # holds the n direction spectra that bound the steps, the next all
    # 2 T n points, and nothing is solved alone
    from spdmeans import spd_core

    calls, solves = [], []
    real_lockstep, real_stack, real_lone = spd_core._lockstep, spd_core._jacobi_stack, spd_core._jacobi

    def counted_lockstep(runs):
        calls.append(len(runs))
        return real_lockstep(runs)

    def counting_stack(arrays):
        solves.append(len(arrays))
        return real_stack(arrays)

    def counting_lone(matrix):
        solves.append("lone")
        return real_lone(matrix)

    # the public function drives its run step through the ``spd_core`` binding
    monkeypatch.setattr(spd_core, "_lockstep", counted_lockstep)
    monkeypatch.setattr(spd_core, "_jacobi_stack", counting_stack)
    monkeypatch.setattr(spd_core, "_jacobi", counting_lone)
    rng = np.random.default_rng(31)
    n, steps = 3, 5
    directions = tuple(bounded_sym(rng, 4, 0.5) for _ in range(n))
    derivative_at_identity_check(WeightVector.uniform(n), directions, dyadic_schedule(steps))
    assert calls == [1]
    assert solves[:2] == [n, 2 * steps * n]
    assert "lone" not in solves


def test_derivative_raises_the_failure_of_the_earliest_step(monkeypatch):
    # every step is solved in one lockstep call, yet the error raised is the
    # one of the earliest step in (t, sign) order, as when each step is
    # formed and solved in turn: an inadmissible point at a later step does
    # not hide an unconverged solve at an earlier one, nor the reverse
    from spdmeans import lie_trotter as module
    from spdmeans.spd_core import NotPositiveDefiniteError

    unconverged = module.SolverConfig(rel_tol=1e-300, max_iter=1)
    monkeypatch.setattr(module, "TRACE_SOLVER_CONFIG", unconverged)
    w = WeightVector.uniform(2)
    directions = (SymMatrix(np.diag([1.0, -1.0])), SymMatrix([[0.0, 0.5], [0.5, 0.0]]))
    edge = 1.0 - 1e-13  # I + edge X_1 has lambda_min 1e-13: not admitted
    with pytest.raises(SolverError, match=r"^barycenter did not converge at t=0\.5 "):
        derivative_at_identity_check(w, directions, (0.5, edge))
    with pytest.raises(NotPositiveDefiniteError):
        derivative_at_identity_check(w, directions, (edge, 0.5))
