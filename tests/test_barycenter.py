import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmeans import (
    EigenDecomposition,
    MeanProblem,
    SolverConfig,
    SolverError,
    SpdMatrix,
    SymMatrix,
    WeightVector,
    apply_spectral,
    arithmetic_mean,
    bounds_report,
    check_bounds,
    det_inequality_check,
    equivalent_equation_residual,
    frobenius_norm,
    geodesic_perturbation_bound,
    geometric_mean,
    harmonic_mean,
    identity,
    loewner_geq,
    operator_norm,
    residual,
    riemannian_distance,
    karcher_mean,
    wasserstein_distance,
    wasserstein_geodesic,
    wasserstein_mean,
)
from spdmeans import barycenter, spd_core
from spdmeans import means_geometry as mg
from spdmeans.problem_io import random_orthogonal, spd_array_from_rng, spd_from_rng

seeds = st.integers(min_value=0, max_value=2**32 - 1)

GOLDEN_MEAN = np.array([[9.0, 12.0], [12.0, 20.0]]) / 4.0
GOLDEN_KARCHER = np.array([[1.6641, 2.2188], [2.2188, 4.1603]])


def rel_diff(a, b):
    return frobenius_norm(a - b) / frobenius_norm(b)


def random_problem(rng, n=None, dim=None, condition_max=100.0):
    n = n or int(rng.integers(2, 6))
    dim = dim or int(rng.integers(2, 9))
    mats = tuple(spd_from_rng(rng, dim, condition_max) for _ in range(n))
    return MeanProblem(mats, WeightVector(rng.uniform(0.2, 1.0, n)))


# ---------------------------------------------------------------------------
# problem types


def test_weight_vector_normalizes():
    w = WeightVector(np.array([2.0, 2.0]))
    np.testing.assert_allclose(w.values, [0.5, 0.5])
    assert w.values.sum() == pytest.approx(1.0, abs=1e-12)


def test_weight_vector_combine_matches_hand_loop():
    rng = np.random.default_rng(17)
    for n in (1, 2, 5):
        w = WeightVector(rng.uniform(0.2, 1.0, n))
        mats = [rng.normal(size=(4, 4)) for _ in range(n)]
        expected = np.zeros((4, 4))
        for wj, m in zip(w.values, mats):
            expected = expected + wj * m
        assert np.array_equal(w.combine(mats), expected)
        scalars = [float(x) for x in rng.normal(size=n)]
        total = 0.0
        for wj, x in zip(w.values, scalars):
            total = total + wj * x
        assert np.array_equal(w.combine(scalars), total)
    with pytest.raises(ValueError):
        w.combine(mats[:-1])


def test_weight_vector_rejects_bad_input():
    for bad in ([], [0.0, 1.0], [-1.0, 2.0], [math.nan, 1.0]):
        with pytest.raises(ValueError):
            WeightVector(np.array(bad, dtype=float))


def test_mean_problem_validation():
    a = identity(2)
    with pytest.raises(ValueError, match="n >= 1"):
        MeanProblem((), WeightVector.uniform(1))
    with pytest.raises(ValueError):
        MeanProblem((a, identity(3)), WeightVector.uniform(2))
    with pytest.raises(ValueError):
        MeanProblem((a,), WeightVector.uniform(2))
    # a symmetric matrix that is not an SpdMatrix has no cached spectrum
    # for the solvers and reports to read
    sym = (SymMatrix(np.eye(2)), SymMatrix(np.diag([2.0, 3.0])))
    with pytest.raises(ValueError, match="SpdMatrix"):
        MeanProblem(sym, WeightVector.uniform(2))
    with pytest.raises(ValueError, match="SpdMatrix"):
        MeanProblem((a, np.eye(2)), WeightVector.uniform(2))


def test_solver_config_validation():
    for bad_tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverConfig(rel_tol=bad_tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    # integers only; numpy integers count as integers
    for bad_iter in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="^max_iter must be an integer, got "):
            SolverConfig(max_iter=bad_iter)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3
    with pytest.raises(ValueError):
        SolverConfig(initial="best_guess")
    with pytest.raises(ValueError):
        SolverConfig(initial=identity(2))  # only the two named starts exist


@pytest.mark.parametrize("bad", [True, "1e-3", None, 1e-3j], ids=["bool", "str", "none", "complex"])
def test_solver_config_rel_tol_must_be_real(bad):
    with pytest.raises(ValueError, match="^rel_tol must be a real number, got "):
        SolverConfig(rel_tol=bad)


@pytest.mark.parametrize("good", [np.float64(1e-3), np.float32(1e-3), 1e-3])
def test_solver_config_rel_tol_accepts_python_and_numpy_reals(good):
    assert SolverConfig(rel_tol=good).rel_tol == good


# ---------------------------------------------------------------------------
# arithmetic and harmonic means


def test_arithmetic_harmonic_trivial_cases():
    x = SpdMatrix([[2.0, 1.0], [1.0, 3.0]])
    p = MeanProblem((x, x, x), WeightVector(np.array([0.2, 0.5, 0.3])))
    assert rel_diff(arithmetic_mean(p).entries, x.entries) <= 1e-14
    assert rel_diff(harmonic_mean(p).entries, x.entries) <= 1e-13
    p2 = MeanProblem(
        (identity(2), SpdMatrix(3.0 * np.eye(2))), WeightVector.uniform(2)
    )
    np.testing.assert_allclose(arithmetic_mean(p2).entries, 2.0 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(harmonic_mean(p2).entries, 1.5 * np.eye(2), atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_harmonic_below_arithmetic(seed):
    p = random_problem(np.random.default_rng(seed))
    assert loewner_geq(arithmetic_mean(p), harmonic_mean(p), 1e-10).holds


# ---------------------------------------------------------------------------
# transport barycenter


def test_wasserstein_mean_idempotent():
    x = SpdMatrix([[2.0, 0.5], [0.5, 1.0]])
    p = MeanProblem((x, x, x, x), WeightVector(np.array([0.1, 0.2, 0.3, 0.4])))
    result = wasserstein_mean(p)
    assert result.converged
    assert result.iterations <= 2
    assert rel_diff(result.mean.entries, x.entries) <= 1e-12


def test_wasserstein_mean_golden_pair(example_problem):
    result = wasserstein_mean(example_problem)
    assert result.converged
    np.testing.assert_allclose(result.mean.entries, GOLDEN_MEAN, atol=1e-8)
    assert result.residual <= 1e-12
    assert len(result.residual_history) == result.iterations + 1


def test_wasserstein_mean_commuting_scalar_oracle():
    # diagonal problems decouple into scalars: each entry solves
    # x = (sum_j w_j sqrt(a_j))^2, computed here independently
    rng = np.random.default_rng(31)
    n, dim = 4, 3
    diags = rng.uniform(0.2, 5.0, size=(n, dim))
    w = rng.uniform(0.2, 1.0, n)
    w = w / w.sum()
    expected = np.array(
        [(np.sum(w * np.sqrt(diags[:, i]))) ** 2 for i in range(dim)]
    )
    p = MeanProblem(tuple(SpdMatrix(np.diag(d)) for d in diags), WeightVector(w))
    result = wasserstein_mean(p)
    np.testing.assert_allclose(np.sort(np.diag(result.mean.entries)), np.sort(expected), rtol=1e-11)
    np.testing.assert_allclose(
        result.mean.entries, np.diag(np.diag(result.mean.entries)), atol=1e-11
    )


def test_wasserstein_mean_example_case():
    p = MeanProblem(
        (SpdMatrix(np.diag([1.0, 4.0])), SpdMatrix(np.diag([9.0, 16.0]))),
        WeightVector.uniform(2),
    )
    np.testing.assert_allclose(
        wasserstein_mean(p).mean.entries, np.diag([4.0, 9.0]), atol=1e-11
    )


SOLVERS = pytest.mark.parametrize(
    "solve", [wasserstein_mean, karcher_mean], ids=["wasserstein", "karcher"]
)


@SOLVERS
def test_solver_nonconvergence_reports(solve):
    # one Karcher step already solves the golden pair, so use three matrices
    p = random_problem(np.random.default_rng(3), n=3, dim=3)
    result = solve(p, SolverConfig(rel_tol=1e-15, max_iter=1))
    assert not result.converged
    assert result.iterations == 1
    assert len(result.residual_history) == 2
    assert result.residual > 1e-15


@SOLVERS
def test_solver_maps_non_spd_update_to_solver_error(solve, example_problem, monkeypatch):
    real_cholesky = spd_core._cholesky_stack
    calls = []

    def rigged_cholesky(arrays):
        # the second factorization is the first update's: flip the sign of its
        # last diagonal entry, so that its last pivot is negative
        calls.append(None)
        if len(calls) == 2:
            arrays = arrays.copy()
            arrays[:, -1, -1] = -arrays[:, -1, -1]
        return real_cholesky(arrays)

    monkeypatch.setattr(spd_core, "_cholesky_stack", rigged_cholesky)
    with pytest.raises(SolverError) as info:
        solve(example_problem)
    message = str(info.value)
    assert message.startswith("non-SPD intermediate at iteration 0: Cholesky pivot 1 is -")
    assert message.endswith(", not positive and finite")
    assert isinstance(info.value.__cause__, spd_core.NonPositivePivotError)


# SPD admission fails inside the residual's congruences X^{1/2} A_j X^{1/2}
# (Karcher: X^{-1/2} A_j X^{-1/2}), not in the update itself
NEAR_SINGULAR = MeanProblem(
    (
        SpdMatrix([[1.0, 0.999999, 0.0], [0.999999, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        SpdMatrix(np.diag([1e-11, 1.0, 1e-11])),
        SpdMatrix(np.diag([1.0, 1e-11, 1.0])),
    ),
    WeightVector(np.array([0.3, 0.3, 0.4])),
)


@SOLVERS
def test_solver_maps_non_spd_residual_to_solver_error(solve):
    with pytest.raises(SolverError, match="non-SPD intermediate"):
        solve(NEAR_SINGULAR)


def _rotated(q, diag):
    return SpdMatrix((q * np.array(diag)) @ q.T)


def test_second_congruence_failing_admission_gives_the_loop_message():
    # L^T A_0 L is admitted, L^T A_1 L is not; the message is the one the
    # one-congruence-at-a-time loop produces.  The solver works on the problem
    # scaled by 4^-1 (largest entry 2 -> 1/2), so the congruences and their
    # eigenvalues are scaled by 16^-1: lambda_max is 4/16.
    q = random_orthogonal(np.random.default_rng(3), 3)
    p = MeanProblem(
        (_rotated(q, [1.0, 1e-3, 2.0]), _rotated(q, [1.0, 3e-12, 2.0])), WeightVector.uniform(2)
    )
    with pytest.raises(SolverError) as info:
        wasserstein_mean(p)
    assert str(info.value) == (
        "non-SPD intermediate at iteration 0: matrix is not positive definite: "
        "lambda_min=9.374859e-17, lambda_max=2.500000e-01"
    )


def _kernel_calls(patch, calls, by_dimension=False):
    """Patch the three kernels of ``_lockstep`` to append, per call, a
    Counter of the slices handed to it ("jacobi", "cholesky" or "chord"), of
    the slices the chord kernel accepted ("accepted") and of those whose
    factorization failed ("failed") to ``calls``; ``by_dimension``, of the
    call itself under (kernel, dimension) instead."""
    real_stack, real_cholesky, real_chord = spd_core._jacobi_stack, spd_core._cholesky_stack, barycenter._chord_roots

    def record(kernel, stack, **verdicts):
        calls.append(Counter({(kernel, stack.shape[-1]): 1} if by_dimension else {kernel: len(stack), **verdicts}))

    def jacobi(arrays):
        record("jacobi", arrays)
        return real_stack(arrays)

    def cholesky(arrays):
        lower, inv, errors = real_cholesky(arrays)
        record("cholesky", arrays, failed=sum(error is not None for error in errors))
        return lower, inv, errors

    def chord(m):
        t, taken = real_chord(m)
        record("chord", m, accepted=int(taken.sum()))
        return t, taken

    patch.setattr(spd_core, "_jacobi_stack", jacobi)
    patch.setattr(spd_core, "_cholesky_stack", cholesky)
    patch.setattr(barycenter, "_chord_roots", chord)


def _is_jacobi(call):
    """Whether a Counter of ``_kernel_calls`` records a Jacobi call."""
    return any((key[0] if isinstance(key, tuple) else key) == "jacobi" for key in call)


def _verdicts(calls):
    """Iterators, in call order, over the slices each chord call in
    ``calls`` accepted and over the slices each Cholesky call failed."""
    return iter([call["accepted"] for call in calls if "chord" in call]), iter(
        [call["failed"] for call in calls if "cholesky" in call]
    )


def _loop_calls(n, cold, verdicts, method, max_iter):
    """The kernel calls of the measurements of one loop alone, cold or warm
    as in ``cold``.  Each measurement follows the Cholesky factorization of
    its iterate, and each but the first the update before it (Karcher:
    exp(G), a Jacobi call of one); an update's mixed iterate whose
    factorization fails gives way to the plain step, factored next.  A cold
    measurement, and a warm Karcher one, solve the n congruences by Jacobi;
    a cold one that the rate or max_iter puts last (any after the first two,
    and the one at max_iter) solves the admission of the mean with them.  A
    warm transport one hands them to the chord kernel and solves the ones it
    rejects by Jacobi.  The verdicts, accepted slices and failed
    factorizations, are taken in turn from the iterators ``verdicts``."""
    accepted, failed = verdicts
    update = [Counter(jacobi=1)] if method is barycenter._Karcher else []
    want = []
    for i, is_cold in enumerate(cold):
        want += update if i else []
        if next(failed) and i:
            want.append(Counter(cholesky=1, failed=1))
            next(failed)
        want.append(Counter(cholesky=1))
        if is_cold or method is barycenter._Karcher:
            last = is_cold and (i >= 2 or i == max_iter)
            want.append(Counter(jacobi=n + last))
            continue
        a = next(accepted)
        want += [Counter(chord=n, accepted=a)] + ([Counter(jacobi=n - a)] if a < n else [])
    return want


def _loop_rounds(calls):
    """The rounds of one run alone from its kernel calls: Jacobi is the one
    barrier of a round, so each round ends with a Jacobi call and holds the
    Cholesky and chord calls made since the one before."""
    rounds = [Counter()]
    for call in calls:
        rounds[-1] += call
        if _is_jacobi(call):
            rounds.append(Counter())
    return rounds if rounds[-1] else rounds[:-1]


@pytest.mark.parametrize(
    "solve, method",
    [(wasserstein_mean, barycenter._Transport), (karcher_mean, barycenter._Karcher)],
    ids=["wasserstein", "karcher"],
)
def test_each_iteration_solves_its_congruences_as_one_stack(monkeypatch, solve, method):
    # the iterate is carried as a Cholesky factor, factored by the stacked
    # kernel; the last measurement, cold at max_iter, is solved with the
    # admission of the returned mean; the Karcher update solves exp(G) in a
    # call of one, and no solve is a lone one
    calls, lone = [], []
    real_lone = spd_core._jacobi

    def counting_lone(matrix):
        lone.append(matrix.shape)
        return real_lone(matrix)

    _kernel_calls(monkeypatch, calls)
    monkeypatch.setattr(spd_core, "_jacobi", counting_lone)
    p = random_problem(np.random.default_rng(12), n=4, dim=5)
    for max_iter in (1, 2, 5):
        calls.clear()
        lone.clear()
        result = solve(p, SolverConfig(rel_tol=1e-300, max_iter=max_iter))
        assert result.iterations == max_iter
        # one factorization and one measurement per iterate, the start
        # included; rel_tol is never met, so only the first two and the last
        # are cold, and the last admits the returned mean
        cold = [i < 2 or i == max_iter for i in range(max_iter + 1)]
        assert calls == _loop_calls(4, cold, _verdicts(calls), method, max_iter)
        assert lone == []
    if method is barycenter._Transport:
        assert any(call["accepted"] for call in calls)


@pytest.mark.parametrize(
    "solve, spd_per_iteration, eigen_per_iteration",
    [(wasserstein_mean, 0, 0), (karcher_mean, 1, 2)],
    ids=["wasserstein", "karcher"],
)
def test_iterations_build_no_matrix_objects(
    monkeypatch, solve, spd_per_iteration, eigen_per_iteration
):
    # the loop works on arrays: the returned mean is the one SpdMatrix (and
    # EigenDecomposition) a transport solve builds; Karcher adds exp(G), whose
    # decomposition is solved and then reordered, in each iteration.  The
    # package builds them through its private constructor, never through
    # the checking public ones.
    built = {SpdMatrix: 0, EigenDecomposition: 0}
    public_inits = []
    real_frozen = spd_core._frozen

    def frozen(obj, **fields):
        if type(obj) in built:
            built[type(obj)] += 1
        return real_frozen(obj, **fields)

    def counting_init(cls):
        real = cls.__init__

        def init(self, *args, **kwargs):
            public_inits.append(cls)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    monkeypatch.setattr(spd_core, "_frozen", frozen)
    counting_init(SpdMatrix)
    counting_init(EigenDecomposition)
    p = random_problem(np.random.default_rng(12), n=4, dim=5)
    for max_iter in (1, 2, 5):
        built[SpdMatrix] = built[EigenDecomposition] = 0
        public_inits.clear()
        result = solve(p, SolverConfig(rel_tol=1e-300, max_iter=max_iter))
        assert result.iterations == max_iter
        assert built[SpdMatrix] == 1 + spd_per_iteration * max_iter
        assert built[EigenDecomposition] == 1 + eigen_per_iteration * max_iter
        assert public_inits == []


@SOLVERS
def test_stacked_congruences_give_the_loop_bits(monkeypatch, solve):
    rng = np.random.default_rng(21)
    problems = [
        random_problem(rng, n=n, dim=d, condition_max=1e4) for n, d in ((2, 3), (3, 5), (5, 8))
    ]
    cfg = SolverConfig(max_iter=40)
    stacked = [solve(p, cfg) for p in problems]

    real_stack = spd_core._jacobi_stack

    def lone_stacks(arrays):
        solved = [real_stack(a[None]) for a in arrays]
        q, lam, errors = zip(*solved)
        return np.concatenate(q), np.concatenate(lam), [e for (e,) in errors]

    monkeypatch.setattr(spd_core, "_jacobi_stack", lone_stacks)
    for p, got in zip(problems, stacked):
        want = solve(p, cfg)
        assert got.iterations == want.iterations
        assert got.residual_history == want.residual_history
        assert got.mean.entries.tobytes() == want.mean.entries.tobytes()


LOCKSTEP = pytest.mark.parametrize(
    "solve, method",
    [(wasserstein_mean, barycenter._Transport), (karcher_mean, barycenter._Karcher)],
    ids=["wasserstein", "karcher"],
)


def _lockstep_batch():
    """Problems of dimension 3: NEAR_SINGULAR ends in a SolverError, and at
    max_iter 12 some others converge and some stop unconverged."""
    rng = np.random.default_rng(5)
    drawn = [
        random_problem(rng, n=n, dim=3, condition_max=kappa)
        for n, kappa in ((2, 1e2), (4, 1e6), (3, 1e4), (5, 1e2), (2, 1e6))
    ]
    return [drawn[0], drawn[1], NEAR_SINGULAR, *drawn[2:]], SolverConfig(max_iter=12)


def _outcome_of(solve, p, cfg):
    try:
        return solve(p, cfg)
    except SolverError as exc:
        return exc


def _assert_same_outcomes(got_outcomes, want_outcomes):
    assert len(got_outcomes) == len(want_outcomes)
    for got, want in zip(got_outcomes, want_outcomes):
        assert type(got) is type(want)
        if isinstance(want, SolverError):
            assert str(got) == str(want)
            assert type(got.__cause__) is type(want.__cause__)
            continue
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.residual_history == want.residual_history
        assert got.mean.entries.tobytes() == want.mean.entries.tobytes()


@LOCKSTEP
def test_lockstep_loop_gives_the_sequential_results(solve, method):
    problems, cfg = _lockstep_batch()
    batch = spd_core._lockstep([barycenter._fixed_point(p, cfg, method) for p in problems])
    _assert_same_outcomes(batch, [_outcome_of(solve, p, cfg) for p in problems])
    # the batch holds a failure, a truncated solve and a converged one
    assert isinstance(batch[2], SolverError)
    assert str(batch[2]).startswith("non-SPD intermediate at iteration ")
    results = [r for r in batch if isinstance(r, barycenter.SolverResult)]
    assert any(not r.converged and r.iterations == cfg.max_iter for r in results)
    assert any(r.converged and r.iterations < cfg.max_iter for r in results)

    # each run carries its own config: identity starts, other iteration caps
    # and the default config share one batch
    configs = [
        SolverConfig(max_iter=12, initial="identity"),
        SolverConfig(max_iter=3),
        None,
        SolverConfig(max_iter=7, initial="identity"),
        cfg,
        SolverConfig(rel_tol=1e-8, max_iter=5),
        None,
    ]
    batch = spd_core._lockstep(
        [barycenter._fixed_point(p, c, method) for p, c in zip(problems, configs)]
    )
    _assert_same_outcomes(batch, [_outcome_of(solve, p, c) for p, c in zip(problems, configs)])
    assert batch[1].iterations == 3


def _rounds(monkeypatch, runs, by_dimension=False):
    """Outcomes of one ``_lockstep`` call, its rounds in order, each the sum
    of the Counters of its kernel calls, and those calls (``_kernel_calls``).
    A round ends where the runs are resumed after its Jacobi calls."""
    calls = []  # the kernel calls, and None each time a run is resumed

    def logged(run):
        reply = None
        while True:
            calls.append(None)
            try:
                got = run.send(reply)
            except StopIteration as stop:
                return stop.value
            reply = yield got

    with monkeypatch.context() as patch:
        _kernel_calls(patch, calls, by_dimension)
        outcomes = spd_core._lockstep([logged(run) for run in runs])
    rounds, solved = [Counter()], False
    for call in calls:
        if call is None:
            if solved:
                rounds.append(Counter())
            solved = False
            continue
        rounds[-1] += call
        solved = solved or _is_jacobi(call)
    return outcomes, (rounds if rounds[-1] else rounds[:-1]), [call for call in calls if call is not None]


@LOCKSTEP
def test_lockstep_solves_all_live_congruences_as_one_stack(monkeypatch, solve, method):
    problems, cfg = _lockstep_batch()
    batch, rounds, _ = _rounds(monkeypatch, [barycenter._fixed_point(p, cfg, method) for p in problems])
    # alone, a problem measures up to the iteration it ends in
    # (``_loop_calls``).  A measurement is cold when it is one of the first
    # two, the one at max_iter, or one the rate of the two before puts at
    # rel_tol; such a last one admits the returned mean with it.  Otherwise
    # the round after the last measurement admits the mean: alone when that
    # measurement was cold, and with the n congruences solved again cold
    # when it was warm
    update = [Counter(jacobi=1)] if method is barycenter._Karcher else []
    alone = []
    for p, outcome in zip(problems, batch):
        got, sizes, calls = _rounds(monkeypatch, [barycenter._fixed_point(p, cfg, method)])
        _assert_same_outcomes(got, [outcome])
        verdicts = _verdicts(calls)
        if isinstance(outcome, SolverError):
            # its residuals stay far above rel_tol, so only the first two
            # measurements are cold; the update of the last may follow, and
            # the factorization of its result
            last = int(str(outcome).split("iteration ")[1].split(":")[0])
            measured = _loop_calls(p.n, [i < 2 for i in range(last + 1)], verdicts, method, cfg.max_iter)
            assert calls[: len(measured)] == measured
            assert len(calls) <= len(measured) + len(update) + 1
        else:
            h, k = outcome.residual_history, outcome.iterations
            cold = [i < 2 or i == cfg.max_iter or h[i - 1] ** 2 <= cfg.rel_tol * h[i - 2] for i in range(k + 1)]
            admitted = [] if cold[-1] and (k >= 2 or k == cfg.max_iter) else [Counter(jacobi=1 if cold[-1] else p.n + 1)]
            assert calls == _loop_calls(p.n, cold, verdicts, method, cfg.max_iter) + admitted
        assert sizes == _loop_rounds(calls)
        alone.append(sizes)
    # in the batch, round k stacks, per kernel, what every problem asks of
    # that kernel alone in its own round k
    assert rounds == [sum((s[k] for s in alone if k < len(s)), Counter()) for k in range(max(map(len, alone)))]
    if method is barycenter._Transport:
        assert any(r["accepted"] for r in rounds) and any(r["chord"] > r["accepted"] for r in rounds)
    # a first, cold measurement that converges is its own certificate
    same = MeanProblem((problems[0].matrices[0],) * 3, WeightVector.uniform(3))
    (result,), sizes, _ = _rounds(monkeypatch, [barycenter._fixed_point(same, cfg, method)])
    assert (result.iterations, result.converged) == (0, True)
    assert sizes == [Counter(cholesky=1, jacobi=3), Counter(jacobi=1)]


@LOCKSTEP
def test_a_warm_residual_below_tolerance_is_solved_again_cold(monkeypatch, solve, method):
    # the third measurement is warm (the rate of the two before does not put
    # it at rel_tol); its reading is forced to 0, so the round after solves
    # the congruences again cold together with the admission of the mean.
    # The cold residual misses rel_tol: it is the one recorded, the
    # admission is dropped and the loop goes on from the cold solve, with a
    # warm measurement
    p, cfg = _lockstep_batch()[0][4], SolverConfig(max_iter=12)
    readings = []
    real_measure = method.measure

    def measure(l, cs, q, spectrum, weights):
        r, aux = real_measure(l, cs, q, spectrum, weights)
        readings.append(r)
        return (0.0 if len(readings) == 3 else r), aux

    monkeypatch.setattr(method, "measure", staticmethod(measure))
    (result,), _, calls = _rounds(monkeypatch, [barycenter._fixed_point(p, cfg, method)])
    update = [Counter(jacobi=1)] if method is barycenter._Karcher else []
    verdicts = _verdicts(calls)
    first = _loop_calls(p.n, [True, True, False], verdicts, method, cfg.max_iter)
    then = _loop_calls(p.n, [False], verdicts, method, cfg.max_iter)
    want = first + [Counter(jacobi=p.n + 1)] + update + then
    assert calls[: len(want)] == want
    assert result.residual_history[2] == readings[3] > cfg.rel_tol
    assert result.converged and result.iterations > 3
    if method is barycenter._Transport:
        assert residual(result.mean, p) == result.residual


@LOCKSTEP
def test_lockstep_batch_of_two_dimensions_gives_the_sequential_results(monkeypatch, solve, method):
    # the dimension-3 batch (a failure, truncated and converged solves)
    # interleaved with dimension-4 problems: each round ends in one Jacobi
    # call per dimension, after the Cholesky and, for warm transport
    # measurements, chord calls made within it; the first factors every
    # start in one call per dimension; every outcome keeps the bits of a
    # lone solve
    problems, cfg = _lockstep_batch()
    rng = np.random.default_rng(6)
    others = [random_problem(rng, n=n, dim=4, condition_max=1e4) for n in (2, 4, 3)]
    mixed = [others[0], *problems[:3], others[1], *problems[3:], others[2]]
    want = [_outcome_of(solve, p, cfg) for p in mixed]
    batch, rounds, _ = _rounds(monkeypatch, [barycenter._fixed_point(p, cfg, method) for p in mixed], True)
    _assert_same_outcomes(batch, want)
    assert all(count == 1 for calls in rounds for (kernel, _), count in calls.items() if kernel == "jacobi")
    assert rounds[0] == Counter({(kernel, d): 1 for kernel in ("cholesky", "jacobi") for d in (3, 4)})
    kernels = ("jacobi", "cholesky", "chord") if method is barycenter._Transport else ("jacobi", "cholesky")
    assert {(kernel, d) for kernel in kernels for d in (3, 4)} in [set(calls) for calls in rounds]
    assert spd_core._lockstep([]) == []


def test_rejected_chord_roots_add_no_round_to_their_loop(monkeypatch):
    # a warm transport measurement whose chord kernel rejects slices solves
    # them by Jacobi in the round of the chord call, so its loop stays in
    # step with a loop that measures cold three times (max_iter 2): the
    # batch makes as many Jacobi calls as the longer loop alone
    problems, cfg = _lockstep_batch()

    def loops():
        return [
            barycenter._fixed_point(problems[5], cfg, barycenter._Transport),
            barycenter._fixed_point(problems[3], SolverConfig(max_iter=2), barycenter._Transport),
        ]

    alone = [_rounds(monkeypatch, [loop]) for loop in loops()]
    batch, _, calls = _rounds(monkeypatch, loops())
    _assert_same_outcomes(batch, [outcome for (outcome,), _, _ in alone])
    (_, warm, warm_calls), (_, cold, cold_calls) = alone
    # the warm loop rejects slices while the cold one still runs
    assert any(r["chord"] > r["accepted"] for r in warm[: len(cold)])
    assert not any("chord" in call for call in cold_calls)
    jacobi_calls = [sum(map(_is_jacobi, c)) for c in (calls, warm_calls, cold_calls)]
    assert jacobi_calls[0] == max(jacobi_calls[1:]) == len(warm)


def test_lockstep_forks_child_runs_and_joins_their_outcomes():
    problems, cfg = _lockstep_batch()
    other = random_problem(np.random.default_rng(6), n=2, dim=4)
    want = [_outcome_of(wasserstein_mean, p, cfg) for p in problems]
    other_want = _outcome_of(wasserstein_mean, other, cfg)
    seen = []

    def parent():
        # a fork of forks, a solve run inline between forks, and an empty fork
        outer = yield [child(problems[:3]), barycenter._wasserstein_mean(problems[3], cfg), child(problems[4:])]
        inline = yield from barycenter._wasserstein_mean(other, cfg)
        seen.append((outer, inline, (yield [])))
        return "done"

    def child(ps):
        return (yield [barycenter._wasserstein_mean(p, cfg) for p in ps])

    def failing():
        yield [barycenter._wasserstein_mean(problems[0], cfg)]
        raise SolverError("after the join")

    done, failed, lone = spd_core._lockstep([parent(), failing(), barycenter._wasserstein_mean(other, cfg)])
    assert done == "done"
    assert str(failed) == "after the join"
    _assert_same_outcomes([lone], [other_want])
    (outer, inline, empty), = seen
    _assert_same_outcomes([*outer[0], outer[1], *outer[2], inline], [*want, other_want])
    assert empty == []


def _bits(value):
    """A value as nested tuples of bytes and plain values, so two results
    compare equal exactly when they are bit for bit the same."""
    if isinstance(value, SpdMatrix):
        return ("spd", value.entries.tobytes(), value.eigen.q.tobytes(), value.eigen.lam.tobytes())
    if isinstance(value, spd_core.SymMatrix):
        return ("sym", value.entries.tobytes())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(_bits(getattr(value, f.name)) for f in dataclasses.fields(value)))
    return value


def _assert_same_values(got_outcomes, want_outcomes):
    assert len(got_outcomes) == len(want_outcomes)
    for i, (got, want) in enumerate(zip(got_outcomes, want_outcomes)):
        assert type(got) is type(want), i
        if isinstance(want, Exception):
            assert str(got) == str(want), i
            assert type(got.__cause__) is type(want.__cause__), i
        else:
            assert _bits(got) == _bits(want), i


def _lone_outcome(call):
    try:
        return call()
    except (SolverError, spd_core.LinearAlgebraError, ValueError) as exc:
        return exc


def _two_matrix_cases():
    """(run step, the public call it stands for) pairs over dimensions 2-8,
    with equal inputs to the distance, t in {0, 1}, a pair whose inner
    congruence fails admission, negative Loewner witnesses on matrices with
    and without a cached decomposition, and a dimension mismatch."""
    rng = np.random.default_rng(17)
    cases = []
    for dim in range(2, 9):
        a, b, c = (spd_from_rng(rng, dim, 1e3) for _ in range(3))
        t = float(rng.uniform(0.05, 0.95))
        sym_a, sym_b = spd_core.SymMatrix(a.entries), spd_core.SymMatrix(b.entries)
        p = random_problem(rng, dim=dim)
        small = MeanProblem(tuple(SpdMatrix(0.25 * m.entries) for m in p.matrices), p.weights)
        mean = wasserstein_mean(p).mean
        cases += [
            (mg._geometric_mean(a, b, t), lambda a=a, b=b, t=t: geometric_mean(a, b, t)),
            (mg._geometric_mean(a, b), lambda a=a, b=b: geometric_mean(a, b)),
            (mg._geometric_mean(a, b, 0.0), lambda a=a, b=b: geometric_mean(a, b, 0.0)),
            (mg._geometric_mean(a, b, 1.0), lambda a=a, b=b: geometric_mean(a, b, 1.0)),
            (mg._riemannian_distance(a, b), lambda a=a, b=b: riemannian_distance(a, b)),
            (mg._wasserstein_distance(a, b), lambda a=a, b=b: wasserstein_distance(a, b)),
            (mg._wasserstein_distance(a, a), lambda a=a: wasserstein_distance(a, a)),
            (mg._wasserstein_geodesic(a, b, t), lambda a=a, b=b, t=t: wasserstein_geodesic(a, b, t)),
            (mg._wasserstein_geodesic(a, b, 0.0), lambda a=a, b=b: wasserstein_geodesic(a, b, 0.0)),
            (mg._wasserstein_geodesic(a, b, 1.0), lambda a=a, b=b: wasserstein_geodesic(a, b, 1.0)),
            (
                mg._geodesic_perturbation_bound(a, b, c, t),
                lambda a=a, b=b, c=c, t=t: geodesic_perturbation_bound(a, b, c, t),
            ),
            (spd_core._loewner_geq(a, b, 1e-8), lambda a=a, b=b: loewner_geq(a, b, 1e-8)),
            (spd_core._loewner_geq(sym_a, sym_b, 1e-8), lambda a=sym_a, b=sym_b: loewner_geq(a, b, 1e-8)),
            (spd_core._loewner_geq(a, sym_b), lambda a=a, b=sym_b: loewner_geq(a, b)),
            (barycenter._arithmetic_mean(p), lambda p=p: arithmetic_mean(p)),
            (barycenter._harmonic_mean(p), lambda p=p: harmonic_mean(p)),
            (barycenter._bounds_report(p), lambda p=p: bounds_report(p)),
            (barycenter._bounds_report(small), lambda p=small: bounds_report(p)),
            (
                barycenter._check_bounds(p, bounds_report(p), mean),
                lambda p=p, m=mean: check_bounds(p, bounds_report(p), m),
            ),
            (
                barycenter._check_bounds(small, bounds_report(small), mean),
                lambda p=small, m=mean: check_bounds(p, bounds_report(p), m),
            ),
            (barycenter._equivalent_equation_residual(mean, p), lambda p=p, m=mean: equivalent_equation_residual(m, p)),
        ]
    # A^{-1/2} B A^{-1/2} = diag(1e-7, 1e7) is not admitted, and the
    # mismatched pair is an input error
    a, b = SpdMatrix(np.diag([1.0, 1e-7])), SpdMatrix(np.diag([1e-7, 1.0]))
    c = SpdMatrix(np.eye(3))
    cases += [
        (mg._geometric_mean(a, b), lambda: geometric_mean(a, b)),
        (mg._riemannian_distance(a, b), lambda: riemannian_distance(a, b)),
        (mg._geodesic_perturbation_bound(a, a, b, 0.5), lambda: geodesic_perturbation_bound(a, a, b, 0.5)),
        (mg._geometric_mean(a, c), lambda: geometric_mean(a, c)),
    ]
    return cases


def test_two_matrix_run_steps_in_one_batch_give_the_lone_results():
    cases = _two_matrix_cases()
    want = [_lone_outcome(call) for _, call in cases]
    batch = spd_core._lockstep([step for step, _ in cases])
    _assert_same_values(batch, want)
    # the batch holds each kind of edge it is meant to
    assert any(isinstance(w, spd_core.NotPositiveDefiniteError) for w in want)
    assert any(isinstance(w, ValueError) for w in want)
    assert any(w == 0.0 for w in want if isinstance(w, float))
    assert any(w.upper_inverse is None for w in want if isinstance(w, barycenter.BoundsReport))
    assert any(w.upper_inverse is not None for w in want if isinstance(w, barycenter.BoundsReport))
    witnesses = [w.witness for w in want if isinstance(w, spd_core.LoewnerComparison)]
    assert min(witnesses) < 0.0


def _symmetric_factor_residual(x, p):
    """The transport residual with X^{1/2} itself as the factor, formed by an
    eigensolve of x, where the solver uses the Cholesky factor of X."""
    sqrt_x = apply_spectral(x, "sqrt").entries
    cs = np.stack([spd_core.congruence(sqrt_x, a) for a in p.matrices])
    q, lam = barycenter._solved(spd_core._lockstep([spd_core._spectra(cs)])[0])
    s = p.weights.combine(barycenter._Transport.spectrum(q, lam, cs))
    return frobenius_norm(x.entries - s) / frobenius_norm(x.entries)


@pytest.mark.parametrize("condition_max, gap", [(1e2, 1e-13), (1e6, 5e-12)], ids=["k1e2", "k1e6"])
def test_factored_certificate_agrees_with_the_symmetric_factor(condition_max, gap):
    # the public residual evaluates the certificate itself; the symmetric
    # factor X^{1/2} gives the same residual up to roundoff
    rng = np.random.default_rng(41)
    for _ in range(24):
        p = random_problem(rng, condition_max=condition_max)
        result = wasserstein_mean(p)
        assert result.converged
        assert residual(result.mean, p) == result.residual
        symmetric = _symmetric_factor_residual(result.mean, p)
        assert abs(symmetric - result.residual) <= gap
        assert symmetric <= 5e-11


@pytest.mark.parametrize("condition_max", [1e2, 1e6], ids=["k1e2", "k1e6"])
def test_warm_started_spectra_agree_with_lapack_as_tightly_as_cold(monkeypatch, condition_max):
    # LAPACK eigh is the oracle: the eigenvalues of every measurement, warm
    # started from the previous eigenvectors or cold, against those of the
    # unrotated congruences C_j, relative to the largest of each C_j.  A
    # transport measurement is handed the roots of the C_j, chord or Jacobi,
    # so its eigenvalues are those of its roots, squared
    errors = {True: [], False: []}
    solved = []  # every stack handed to the eigensolver
    real_spectra = barycenter._spectra

    def spectra(stack, admit=True):
        solved.append(stack)
        return real_spectra(stack, admit)

    def measuring(real_measure):
        def measure(l, cs, q, spectrum, weights):
            # a warm measurement solved Q^T C_j Q, never the C_j themselves
            warm = not any(stack is cs for stack in solved)
            want = np.linalg.eigvalsh(cs)[:, ::-1]
            lam = spectrum if spectrum.ndim == 2 else np.linalg.eigvalsh(spectrum)[:, ::-1] ** 2
            errors[warm].append(float((np.abs(lam - want).max(axis=-1) / want[:, 0]).max()))
            return real_measure(l, cs, q, spectrum, weights)

        return staticmethod(measure)

    monkeypatch.setattr(barycenter, "_spectra", spectra)
    for method in (barycenter._Transport, barycenter._Karcher):
        monkeypatch.setattr(method, "measure", measuring(method.measure))
    rng = np.random.default_rng(43)
    for _ in range(6):
        p = random_problem(rng, condition_max=condition_max)
        wasserstein_mean(p, SolverConfig(max_iter=60))
        karcher_mean(p, SolverConfig(max_iter=60))
    # each of the 12 solves measures cold at least twice, at its start and
    # for its certificate, and warm in between
    assert len(errors[True]) > len(errors[False]) >= 24
    assert max(errors[True]) <= 2.0 * max(errors[False]) <= 2e-14


def test_warm_starts_keep_the_jacobi_work_of_a_solve_down(monkeypatch):
    # a deterministic work count: the Jacobi rounds with an active plane over
    # one kappa 1e4 solve (20 iterations).  Warm started it takes 347 of
    # them; solved cold at every measurement it takes 549, so a silent fall
    # back to cold solves fails here without any wall clock
    calls = []
    real_rotations = spd_core._rotations

    def rotations(*args):
        calls.append(None)
        return real_rotations(*args)

    monkeypatch.setattr(spd_core, "_rotations", rotations)
    p = random_problem(np.random.default_rng(44), n=4, dim=6, condition_max=1e4)
    result = wasserstein_mean(p)
    assert (result.iterations, result.converged) == (20, True)
    assert len(calls) <= 347

    calls.clear()
    real_measured = barycenter._measured

    def cold(method, l, cs, weights, q_prev=None):
        return real_measured(method, l, cs, weights)

    monkeypatch.setattr(barycenter, "_measured", cold)
    result = wasserstein_mean(p)
    assert (result.iterations, result.converged) == (20, True)
    assert len(calls) <= 549


def _seed_11_problems(condition_max):
    """The 28 problems of one condition number, one per (d, n) with d in 2-8
    and n in 2-5, drawn in that order from seed 11."""
    rng = np.random.default_rng(11)
    return [
        random_problem(rng, n=n, dim=d, condition_max=condition_max)
        for d in range(2, 9)
        for n in range(2, 6)
    ]


@pytest.mark.parametrize("condition_max, most_mean_iterations", [(1e2, 12), (1e4, 16), (1e6, 16)])
def test_anderson_mixing_converges_on_every_seed_11_problem(condition_max, most_mean_iterations):
    # the plain fixed-point map takes 14.7 / 25.4 / 33.6 iterations on
    # average here at kappa 1e2 / 1e4 / 1e6; mixed, 9.2 / 12.8 / 14.4
    problems = _seed_11_problems(condition_max)
    results = [wasserstein_mean(p) for p in problems]
    assert all(r.converged for r in results)
    assert np.mean([r.iterations for r in results]) <= most_mean_iterations
    for p, r in zip(problems, results):
        assert residual(r.mean, p) == r.residual


def test_anderson_mixing_does_not_wander_at_the_roundoff_floor():
    # rel_tol 1e-300 is never met, so every solve runs 200 updates, most of
    # them at the floor, where the differences of F_i are roundoff
    rng = np.random.default_rng(5)
    for condition_max in (1e2, 1e4, 1e6):
        for dim in range(3, 9):
            p = random_problem(rng, dim=dim, condition_max=condition_max)
            result = wasserstein_mean(p, SolverConfig(rel_tol=1e-300, max_iter=200))
            assert result.iterations == 200
            assert max(result.residual_history[-100:]) <= 1e-13


def test_an_indefinite_mixed_iterate_takes_the_plain_step_and_clears_the_memory(monkeypatch):
    # the second mixed iterate is negated, so its first pivot is negative:
    # the loop factors the plain step G(X_k) instead, and the next mixing
    # starts from it, with no pair from before
    p = random_problem(np.random.default_rng(44), n=4, dim=6, condition_max=1e4)
    real_anderson, real_cholesky = barycenter._anderson, spd_core._cholesky_stack
    mixings, factored = [], []

    def anderson(pairs):
        mixed = real_anderson(pairs)
        mixings.append((list(pairs), -mixed if len(mixings) == 1 else mixed))
        return mixings[-1][1]

    def cholesky(arrays):
        factored.append(arrays.base)  # a lone run's stack is x[None], a view of x
        return real_cholesky(arrays)

    monkeypatch.setattr(barycenter, "_anderson", anderson)
    monkeypatch.setattr(spd_core, "_cholesky_stack", cholesky)
    result = wasserstein_mean(p)
    assert result.converged and residual(result.mean, p) == result.residual
    (pairs, rigged), (later, _) = mixings[1], mixings[2]
    plain = pairs[-1][1]
    at = next(i for i, x in enumerate(factored) if x is rigged)
    assert factored[at + 1] is plain
    assert later[0][0] is plain


def test_the_karcher_loop_is_never_mixed(monkeypatch):
    def anderson(pairs):
        raise AssertionError("a Karcher iterate was mixed")

    monkeypatch.setattr(barycenter, "_anderson", anderson)
    for p in _seed_11_problems(1e2)[::5]:
        karcher_mean(p, SolverConfig(max_iter=40))


def test_congruence_roots_take_in_what_jacobi_leaves_off_the_diagonal():
    # a decomposition that leaves eps between two small eigenvalues, as
    # Jacobi's stopping test (off-diagonal mass <= 1e-14 ||C||_F) allows:
    # Q diag(sqrt(lambda)) Q^T drops eps and errs by eps / (sqrt(l1) + sqrt(l2));
    # the root of the transport residual is exact to first order in eps
    l1, l2, eps = 4e-10, 1e-10, 1e-15
    c = np.diag([1.0, l1, l2])
    c[1, 2] = c[2, 1] = eps
    lam = np.array([1.0, l1, l2])
    spd_core._admit(lam)
    eigen = spd_core._frozen(object.__new__(EigenDecomposition), q=np.eye(3), lam=lam)
    leaky = spd_core._frozen(object.__new__(SpdMatrix), _entries=c, _eigen=eigen)
    sqrt_det = math.sqrt(l1 * l2 - eps * eps)  # closed-form root of the 2x2 block
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    want[1:, 1:] = (c[1:, 1:] + sqrt_det * np.eye(2)) / math.sqrt(l1 + l2 + 2.0 * sqrt_det)
    (root,) = barycenter._Transport.spectrum(leaky.eigen.q[None], leaky.eigen.lam[None], leaky.entries[None])
    assert np.array_equal(root, root.T)
    assert np.abs(root - want).max() <= 1e-15
    assert np.abs(apply_spectral(leaky, "sqrt").entries - want).max() > 3e-11


def _warm_stack(rng, condition_max, drift, k=8, dim=5):
    """k congruences C_j drawn at condition_max, and the eigenvectors Q_j of
    C_j + drift (E + E^T), E standard normal (LAPACK, test oracle): a warm
    start's basis, as (C, Q, sym(Q^T C Q)) stacks."""
    cs = np.stack([spd_array_from_rng(rng, dim, condition_max) for _ in range(k)])
    noise = rng.standard_normal(cs.shape)
    _, q = np.linalg.eigh(cs + drift * (noise + noise.swapaxes(-1, -2)))
    m = q.swapaxes(-1, -2) @ cs @ q
    return cs, q, (m + m.swapaxes(-1, -2)) / 2.0


def _lapack_roots(m):
    """Square roots of a stack of SPD arrays by LAPACK eigh (test oracle)."""
    lam, v = np.linalg.eigh(m)
    return (v * np.sqrt(lam)[..., None, :]) @ v.swapaxes(-1, -2)


def test_chord_roots_of_a_slice_have_its_bits_alone_and_in_any_stack():
    rng = np.random.default_rng(61)
    m = np.concatenate([_warm_stack(rng, kappa, drift)[2] for kappa, drift in ((1e2, 1e-6), (1e6, 1e-4), (1e4, 1e-1))])
    t, taken = barycenter._chord_roots(m)
    assert 0 < taken.sum() < len(m)
    for order in (np.arange(len(m))[::-1], rng.permutation(len(m))[:7]):
        t_part, taken_part = barycenter._chord_roots(m[order])
        assert t_part.tobytes() == t[order].tobytes()
        assert np.array_equal(taken_part, taken[order])
    for j in range(len(m)):
        t_j, (taken_j,) = barycenter._chord_roots(m[j : j + 1])
        assert t_j.tobytes() == t[j : j + 1].tobytes() and taken_j == taken[j]


@pytest.mark.parametrize("condition_max", [1e2, 1e4, 1e6])
def test_accepted_chord_roots_match_the_lapack_root(condition_max):
    # relative to the root's own conditioning: u sqrt(kappa) is about what
    # the oracle itself can resolve
    rng = np.random.default_rng(62)
    bound = 4.0 * np.finfo(float).eps / 2.0 * math.sqrt(condition_max)
    for drift in (1e-10, 1e-8, 1e-6, 1e-4):
        _, _, m = _warm_stack(rng, condition_max, drift)
        t, taken = barycenter._chord_roots(m)
        assert taken.sum() >= len(m) // 2
        want = _lapack_roots(m[taken])
        errors = np.linalg.norm(t[taken] - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
        assert errors.max() <= bound


def test_a_rejected_slice_is_measured_as_the_jacobi_path_measures_it():
    # a congruence with no relation to its basis (Q = I) is far from
    # diagonal: the chord kernel rejects it, and the warm measurement solves
    # it by Jacobi from Q, as every warm slice was solved before the kernel
    rng = np.random.default_rng(63)
    near, q_near, _ = _warm_stack(rng, 1e4, 1e-8, k=2)
    far = np.stack([spd_array_from_rng(rng, 5, 1e4) for _ in range(2)])
    l = spd_core.cholesky(spd_array_from_rng(rng, 5, 10.0))[0]
    weights = WeightVector(np.array([0.1, 0.2, 0.3, 0.4]))

    def jacobi_path(cs, q_prev):
        m = q_prev.swapaxes(-1, -2) @ cs @ q_prev
        q_jac, lam = spd_core._solved(spd_core._lockstep([spd_core._spectra((m + m.swapaxes(-1, -2)) / 2.0)])[0])
        q = q_prev @ q_jac
        return q, barycenter._Transport.spectrum(q, lam, cs)

    def warm_measurement(cs, q_prev):
        seen = []
        real = barycenter._Transport.measure

        def measure(l, cs, q, roots, weights):
            seen.append(roots)
            return real(l, cs, q, roots, weights)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(barycenter._Transport, "measure", staticmethod(measure))
            run = barycenter._measured(barycenter._Transport, l, cs, weights, q_prev)
            return spd_core._solved(spd_core._lockstep([run])[0]), seen[0]

    eyes = np.broadcast_to(np.eye(5), far.shape)
    cs, q_prev = np.concatenate([far, far]), np.concatenate([eyes, eyes])
    assert not barycenter._chord_roots(cs)[1].any()  # Q = I: M_j = C_j
    (r, s, q), _ = warm_measurement(cs, q_prev)
    want_q, want_roots = jacobi_path(cs, q_prev)
    want_r, want_s = barycenter._Transport.measure(l, cs, want_q, want_roots, weights)
    want_q = (3.0 * want_q - want_q @ (want_q.swapaxes(-1, -2) @ want_q)) / 2.0
    assert (r.hex(), s.tobytes(), q.tobytes()) == (want_r.hex(), want_s.tobytes(), want_q.tobytes())
    # next to accepted slices, a rejected one keeps its Jacobi root bit for bit
    cs, q_prev = np.concatenate([near, far]), np.concatenate([q_near, eyes])
    _, roots = warm_measurement(cs, q_prev)
    _, want_roots = jacobi_path(far, eyes)
    assert roots[2:].tobytes() == want_roots.tobytes()
    assert np.abs(roots[:2] - _lapack_roots(near)).max() <= 1e-13


def test_a_non_finite_slice_is_rejected_without_a_warning():
    rng = np.random.default_rng(64)
    _, _, m = _warm_stack(rng, 1e2, 1e-8, k=1)
    bad = [m[0].copy() for _ in range(4)]
    bad[0][1, 2] = bad[0][2, 1] = np.nan
    bad[1][3, 3] = -bad[1][3, 3]
    bad[2][0, 0] = 0.0
    bad[3][4, 1] = bad[3][1, 4] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, taken = barycenter._chord_roots(np.stack([m[0], *bad]))
    assert taken.tolist() == [True, False, False, False, False]
    assert t[0].tobytes() == barycenter._chord_roots(m)[0][0].tobytes()


def test_initial_point_options(example_problem):
    base = wasserstein_mean(example_problem)
    from_id = wasserstein_mean(example_problem, SolverConfig(initial="identity"))
    assert rel_diff(from_id.mean.entries, base.mean.entries) <= 1e-8


# ---------------------------------------------------------------------------
# residuals


def test_residual_certifies_the_equation(example_problem):
    golden = SpdMatrix(GOLDEN_MEAN)
    assert residual(golden, example_problem) <= 1e-10
    assert equivalent_equation_residual(golden, example_problem) <= 1e-10
    arith = arithmetic_mean(example_problem)
    assert residual(arith, example_problem) > 1e-12
    far = SpdMatrix(np.diag([10.0, 0.1]))
    assert equivalent_equation_residual(far, example_problem) > 1e-3


def test_residual_zero_for_idempotent_problem():
    x = SpdMatrix([[3.0, 1.0], [1.0, 2.0]])
    p = MeanProblem((x, x), WeightVector.uniform(2))
    assert residual(x, p) <= 1e-14
    assert equivalent_equation_residual(x, p) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_two_point_solver_equals_geodesic(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    a, b = spd_from_rng(rng, dim), spd_from_rng(rng, dim)
    t = float(rng.uniform(0.05, 0.95))
    solved = wasserstein_mean(MeanProblem((a, b), WeightVector(np.array([1 - t, t]))))
    assert solved.converged
    assert rel_diff(solved.mean.entries, wasserstein_geodesic(a, b, t).entries) <= 1e-8


# ---------------------------------------------------------------------------
# Karcher mean


def test_karcher_mean_idempotent():
    x = SpdMatrix([[2.0, 1.0], [1.0, 4.0]])
    p = MeanProblem((x, x), WeightVector.uniform(2))
    result = karcher_mean(p)
    assert result.converged
    assert rel_diff(result.mean.entries, x.entries) <= 1e-12


def test_karcher_mean_golden_pair(example_problem):
    result = karcher_mean(example_problem)
    assert result.converged
    np.testing.assert_allclose(result.mean.entries, GOLDEN_KARCHER, atol=5e-4)
    det = float(np.prod(result.mean.eigen.lam))
    assert det == pytest.approx(2.0, abs=1e-3)


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_karcher_two_point_closed_form(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    a, b = spd_from_rng(rng, dim), spd_from_rng(rng, dim)
    t = float(rng.uniform(0.1, 0.9))
    result = karcher_mean(MeanProblem((a, b), WeightVector(np.array([1 - t, t]))))
    assert result.converged
    assert rel_diff(result.mean.entries, geometric_mean(a, b, t).entries) <= 1e-9


# ---------------------------------------------------------------------------
# bounds


def test_bounds_all_identity():
    p = MeanProblem((identity(3),) * 3, WeightVector.uniform(3))
    rep = bounds_report(p)
    np.testing.assert_allclose(rep.lower_lie_trotter.entries, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(rep.upper_arithmetic.entries, np.eye(3), atol=1e-14)
    assert rep.upper_inverse is not None
    np.testing.assert_allclose(rep.upper_inverse.entries, np.eye(3), atol=1e-13)
    assert rep.opnorm_bound == pytest.approx(1.0)
    mean = wasserstein_mean(p).mean
    checks = {c.check_id: c for c in check_bounds(p, rep, mean)}
    assert all(c.holds for c in checks.values())
    # every bound is tight here: Loewner witnesses vanish and the operator
    # norm slack is exactly its built-in 1e-9 allowance
    assert abs(checks["arithmetic_upper"].witness) <= 1e-12
    assert abs(checks["lie_trotter_lower"].witness) <= 1e-12
    assert abs(checks["inverse_upper"].witness) <= 1e-12
    assert checks["operator_norm"].witness == pytest.approx(1e-9, abs=1e-12)


def test_bounds_golden_lower(example_problem):
    rep = bounds_report(example_problem)
    np.testing.assert_allclose(
        rep.lower_lie_trotter.entries, [[-1.125, 1.5], [1.5, 1.0]], atol=1e-12
    )
    assert rep.upper_inverse is None  # arithmetic mean is not below 2I here
    mean = wasserstein_mean(example_problem).mean
    assert all(c.holds for c in check_bounds(example_problem, rep, mean))


def test_bounds_conditional_upper_inverse():
    # commuting pair chosen so the weighted arithmetic mean stays below 2I
    p = MeanProblem(
        (SpdMatrix(np.diag([0.5, 0.5])), SpdMatrix(np.diag([1.0, 1.5]))),
        WeightVector.uniform(2),
    )
    rep = bounds_report(p)
    assert rep.upper_inverse is not None
    np.testing.assert_allclose(rep.upper_inverse.entries, np.diag([0.8, 1.0]), atol=1e-13)
    # scalar closed form of the commuting barycenter, computed independently
    expected = np.diag(
        [
            ((math.sqrt(0.5) + math.sqrt(1.0)) / 2.0) ** 2,
            ((math.sqrt(0.5) + math.sqrt(1.5)) / 2.0) ** 2,
        ]
    )
    result = wasserstein_mean(p)
    np.testing.assert_allclose(result.mean.entries, expected, atol=1e-11)
    assert loewner_geq(rep.upper_inverse, result.mean, 1e-10).holds
    checks = {c.check_id: c for c in check_bounds(p, rep, result.mean)}
    assert checks["inverse_upper"].holds


def _expected_verdicts(p, rep, mean):
    """(check_id, witness) of every bound verdict, assembled by hand."""

    def loewner(check_id, a, b):
        return check_id, loewner_geq(a, b, 1e-8).witness

    out = [
        loewner("arithmetic_upper", rep.upper_arithmetic, mean),
        loewner("lie_trotter_lower", mean, rep.lower_lie_trotter),
        ("operator_norm", rep.opnorm_bound + 1e-9 - operator_norm(mean)),
    ]
    if rep.upper_inverse is not None:
        out.append(loewner("inverse_upper", rep.upper_inverse, mean))
    out.append(loewner("harmonic_above_lower", harmonic_mean(p), rep.lower_lie_trotter))
    opnorm_mix = p.weights.combine(operator_norm(a) for a in p.matrices)
    out.append(("opnorm_bound_sharper", opnorm_mix - rep.opnorm_bound))
    if rep.upper_inverse is not None:
        out.append(loewner("inverse_above_arithmetic", rep.upper_inverse, rep.upper_arithmetic))
    return out


def test_check_bounds_ids_and_order(example_problem):
    commuting = MeanProblem(
        (SpdMatrix(np.diag([0.5, 0.5])), SpdMatrix(np.diag([1.0, 1.5]))),
        WeightVector.uniform(2),
    )
    base_ids = ["arithmetic_upper", "lie_trotter_lower", "operator_norm"]
    chain_ids = ["harmonic_above_lower", "opnorm_bound_sharper"]
    for p, with_inverse in ((example_problem, False), (commuting, True)):
        rep = bounds_report(p)
        assert (rep.upper_inverse is not None) == with_inverse
        mean = wasserstein_mean(p).mean
        got = check_bounds(p, rep, mean)
        expected_ids = (
            base_ids + ["inverse_upper"] + chain_ids + ["inverse_above_arithmetic"]
            if with_inverse
            else base_ids + chain_ids
        )
        assert [c.check_id for c in got] == expected_ids
        assert [(c.check_id, c.witness) for c in got] == _expected_verdicts(p, rep, mean)
        assert all(c.holds for c in got)


def test_check_bounds_skips_lower_bound_norm(example_problem, monkeypatch):
    # with both lower-bound witnesses nonnegative, no verdict needs the
    # operator norm of the (indefinite, uncached) lower bound
    import spdmeans.spd_core as core

    rep = bounds_report(example_problem)
    mean = wasserstein_mean(example_problem).mean
    real_stack = core._jacobi_stack
    lower_solves = []

    def counted(arrays):
        lower_solves.extend(1 for a in arrays if np.array_equal(a, rep.lower_lie_trotter.entries))
        return real_stack(arrays)

    monkeypatch.setattr(core, "_jacobi_stack", counted)
    by_id = {c.check_id: c for c in check_bounds(example_problem, rep, mean)}
    assert by_id["lie_trotter_lower"].witness >= 0.0
    assert by_id["harmonic_above_lower"].witness >= 0.0
    assert lower_solves == []


def test_bound_ordering_scalar_case():
    p = MeanProblem(
        (SpdMatrix([[0.5]]), SpdMatrix([[1.5]])), WeightVector.uniform(2)
    )
    rep = bounds_report(p)
    # harmonic mean 0.75 sits above the lower bound 2 - 4/3
    assert rep.lower_lie_trotter.entries[0, 0] == pytest.approx(2.0 - 4.0 / 3.0)
    assert harmonic_mean(p).entries[0, 0] == pytest.approx(0.75)
    ordering = check_bounds(p, rep, wasserstein_mean(p).mean)
    assert all(c.holds for c in ordering)
    by_id = {c.check_id: c for c in ordering}
    assert by_id["harmonic_above_lower"].witness == pytest.approx(0.75 - 2.0 / 3.0, abs=1e-12)
    # sum w_j A_j = 1 < 2 so the inverse chain is present: (2 - 1)^{-1} = 1 >= 1
    assert by_id["inverse_above_arithmetic"].witness == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_bounds_hold_on_random_problems(seed):
    p = random_problem(np.random.default_rng(seed))
    result = wasserstein_mean(p)
    assert result.converged
    rep = bounds_report(p)
    assert all(c.holds for c in check_bounds(p, rep, result.mean))


# ---------------------------------------------------------------------------
# determinant inequality


def test_det_inequality_golden(example_problem):
    result = wasserstein_mean(example_problem)
    rep = det_inequality_check(example_problem, result.mean)
    assert rep.holds
    assert rep.det_mean == pytest.approx(2.25, abs=1e-8)
    assert rep.det_geo_product == pytest.approx(2.0, abs=1e-12)


def test_det_equality_when_all_equal():
    x = SpdMatrix([[2.0, 1.0], [1.0, 3.0]])
    p = MeanProblem((x, x, x), WeightVector(np.array([0.5, 0.3, 0.2])))
    rep = det_inequality_check(p, wasserstein_mean(p).mean)
    assert abs(rep.det_mean - rep.det_geo_product) <= 1e-10 * max(1.0, rep.det_geo_product)


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_det_inequality_on_random_problems(seed):
    p = random_problem(np.random.default_rng(seed))
    assert det_inequality_check(p, wasserstein_mean(p).mean).holds
