import hashlib
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmeans import (
    EigenDecomposition,
    NotPositiveDefiniteError,
    SpdMatrix,
    SpectralDomainError,
    SymMatrix,
    apply_spectral,
    congruence,
    determinant,
    eigh,
    frobenius_norm,
    harmonic_mean,
    identity,
    loewner_geq,
    operator_norm,
    parse_problem,
    trace,
)
from spdmeans import spd_core
from spdmeans.problem_io import random_orthogonal, random_spd, spd_array_from_rng, spd_from_rng
from spdmeans.spd_core import EighConvergenceError, LinearAlgebraError

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=10)


# ---------------------------------------------------------------------------
# construction


def test_symmatrix_symmetrizes_exactly():
    m = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
    assert m.entries[0, 1] == m.entries[1, 0] == 1.0


def test_symmatrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        SymMatrix([[math.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        SymMatrix([[math.nan]])


def test_symmetrizing_overflow_is_rejected_without_warnings():
    # every entry is finite, but (M + M^T)/2 overflows on the diagonal; the
    # message names the symmetrization, not the entries
    overflow = r"symmetrization \(M \+ M\^T\)/2 overflows"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=overflow):
            SpdMatrix([[1.7e308, 1e308], [1e308, 1.7e308]])
        with pytest.raises(ValueError, match=overflow):
            SpdMatrix(np.diag([1.7e308, 1.0]))
        with pytest.raises(ValueError, match=overflow):
            SymMatrix(np.diag([1.7e308, 1.0]))
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            SymMatrix([[1.0, math.inf], [-math.inf, 1.0]])


def test_spd_admission_rejects_nan_spectrum():
    # every SpdMatrix the package builds has its spectrum through ``_admit``
    # before the private constructor, and a NaN spectrum fails there
    nan = np.array([math.nan, math.nan])
    nan_eigen = spd_core._frozen(object.__new__(EigenDecomposition), q=np.eye(2), lam=nan)
    with pytest.raises(NotPositiveDefiniteError):
        spd_core._admit(nan_eigen.lam)


def test_symmatrix_entries_frozen():
    m = SymMatrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_spd_rejects_indefinite_and_near_singular():
    with pytest.raises(NotPositiveDefiniteError) as info:
        SpdMatrix([[1.0, 0.0], [0.0, -1.0]])
    assert info.value.lambda_min == pytest.approx(-1.0)
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, 1e-14]))
    SpdMatrix(np.diag([1.0, 1e-10]))  # above the admission threshold


def test_identity_matches_solved_identity():
    for d in range(1, 17):
        built, solved = identity(d).eigen, SpdMatrix(np.eye(d)).eigen
        assert np.array_equal(built.q, solved.q)
        assert np.array_equal(built.lam, solved.lam)


def test_spd_caches_its_decomposition():
    a = SpdMatrix(np.diag([3.0, 1.0]))
    assert eigh(a) is a.eigen
    np.testing.assert_allclose(a.eigen.lam, [3.0, 1.0])


# ---------------------------------------------------------------------------
# eigensolver


def test_eigh_diagonal_is_exact():
    e = eigh(SymMatrix(np.diag([3.0, 1.0])))
    np.testing.assert_array_equal(e.lam, [3.0, 1.0])
    np.testing.assert_array_equal(e.q, np.eye(2))


def test_eigh_offdiagonal_2x2():
    e = eigh(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(e.lam, [1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(np.abs(e.q), np.full((2, 2), 1.0 / math.sqrt(2)), atol=1e-15)


def test_eigh_deterministic():
    rng = np.random.default_rng(11)
    a = SymMatrix(rng.normal(size=(6, 6)))
    e1, e2 = eigh(a), eigh(SymMatrix(np.array(a.entries)))
    np.testing.assert_array_equal(e1.lam, e2.lam)
    np.testing.assert_array_equal(e1.q, e2.q)


def test_eigh_seeded_8x8_reconstruction():
    rng = np.random.default_rng(2024)
    a = SymMatrix(rng.normal(size=(8, 8)))
    e = eigh(a)
    rel = frobenius_norm(e.recompose() - a.entries) / frobenius_norm(a)
    assert rel <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=seeds, dim=dims)
def test_eigh_invariants_on_random_symmetric(seed, dim):
    rng = np.random.default_rng(seed)
    a = SymMatrix(rng.normal(size=(dim, dim)))
    e = eigh(a)
    assert np.all(np.diff(e.lam) <= 0)
    assert frobenius_norm(e.q.T @ e.q - np.eye(dim)) <= 1e-12 * dim
    scale = max(frobenius_norm(a), 1e-300)
    assert frobenius_norm(e.recompose() - a.entries) / scale <= 1e-12


@pytest.mark.parametrize("k", [520, 1000, -540, -1000])
@pytest.mark.parametrize("dim", [3, 5])
def test_eigh_is_exact_under_power_of_two_scaling(k, dim):
    # ||2^k A||_F overflows (k > 0) or underflows (k < 0) in the unscaled sum
    # of squares; the solver must still return 2^k times the spectrum of A
    a = spd_from_rng(np.random.default_rng(dim), dim)
    base = eigh(SymMatrix(a.entries))
    scaled = eigh(SymMatrix(np.ldexp(a.entries, k)))
    assert np.array_equal(scaled.lam, np.ldexp(base.lam, k))
    assert np.array_equal(scaled.q, base.q)


@pytest.mark.parametrize("k", [520, -520])
def test_scaled_singular_matrix_is_rejected(k):
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.ldexp(singular, k))


def test_tiny_2x2_coupling_rotates_without_warnings():
    # the Jacobi angle's theta overflows to -inf, which gives the identity
    # rotation; it must do so silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = SpdMatrix([[1.0, 1e-320], [1e-320, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            SpdMatrix([[1.0, 1e-320], [1e-320, 1e-300]])
    assert a.eigen.lam.tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# stacked eigensolver


def _stack_slice(rng, dim, kind):
    """One symmetric array of a kind that stresses a different solver path."""
    if kind == "spd":
        return spd_from_rng(rng, dim, 10.0 ** rng.uniform(0.0, 6.0)).entries
    if kind == "indefinite":
        return SymMatrix(rng.normal(size=(dim, dim))).entries
    if kind == "diagonal":
        return np.diag(rng.uniform(0.1, 3.0, dim))
    if kind == "zero":
        return np.zeros((dim, dim))
    if kind == "nearly_diagonal":
        a = np.diag(rng.uniform(0.1, 3.0, dim))
        a[0, -1] = a[-1, 0] = 1e-9 * a[0, 0]
        return a
    if kind == "signed_zero":
        # -0.0 entries, and a tiny entry below the skip level, so the slice
        # sits out rounds while the rest of the stack rotates
        a = np.diag(rng.uniform(0.5, 2.0, dim) * rng.choice([1.0, -1.0], dim))
        a[-1, -1] = -0.0
        if dim > 2:
            a[0, 1:] = a[1:, 0] = -0.0
            a[0, -1] = a[-1, 0] = 1e-17
            a[1, 2] = a[2, 1] = rng.uniform(0.1, 1.0)
        return a
    if kind == "repeated":
        q = random_orthogonal(rng, dim)
        return SymMatrix((q * rng.choice([1.0, 2.0], dim)) @ q.T).entries
    # scaled by 2^±520, where the unscaled sum of squares over- or underflows
    return np.ldexp(spd_from_rng(rng, dim).entries, int(rng.choice([-520, 520])))


STACK_KINDS = (
    "spd", "indefinite", "diagonal", "zero", "nearly_diagonal", "signed_zero", "repeated", "scaled"
)

# SHA-256 of q.tobytes() + lam.tobytes() over the solves of _pinned_pool(dim).
# Lone and stacked solves share one loop, so comparing them cannot show that
# the loop's bits changed; these fixed hashes can.  Lone and stacked solves of
# the pool must both reproduce them.
SOLVER_PINS = {
    1: "d3966c996f45b235d796b19769dd0883e98cdc528c002e7a0020684f17f71b0c",
    2: "cfd9cc858592cc5d11139de206e0531c94b71e43737d89220e8023ee86e9a712",
    3: "3ba7c5095be0af6f70b9bcafd7cfb2192a1933fb0686b9bc51964bed6a0ded80",
    4: "c8b5895c601516bcad8b38e7afd246b2a40d7d51fe751fff09831e4a93aa159e",
    5: "ef55bf20ad66be0f88ad458a22d97c9046969751ad83800d9c3547d263abb611",
    6: "e519b22b79db07e13b8c723e836ccce25f90adc35dd96154a14e42627c8060e2",
    7: "6d13271f41dfc0a0b90a98c45abcc11c676cca2faf0651c97fa679d5b9dad5c7",
    8: "4afa05c3a2f2a4d98dc1e17bbd804ab0b193625f90ccfc6f8fcb474c75c98d0d",
}


def _pinned_pool(dim):
    """Stacks of k = 1..6 slices, twice over, cycling through every kind."""
    rng = np.random.default_rng(1000 + dim)
    kinds = iter(STACK_KINDS * 6)
    sizes = [k for k in range(1, 7) for _ in range(2)]
    return [[_stack_slice(rng, dim, next(kinds)) for _ in range(k)] for k in sizes]


def _digest(pairs):
    h = hashlib.sha256()
    for q, lam in pairs:
        h.update(q.tobytes())
        h.update(lam.tobytes())
    return h.hexdigest()


def _solved(arrays):
    """(q, lam) of each slice of one stacked solve, which must converge."""
    q, lam, errors = spd_core._jacobi_stack(np.stack(arrays))
    assert errors == [None] * len(arrays)
    return list(zip(q, lam))


@pytest.mark.parametrize("dim", range(1, 9))
def test_solver_bits_are_pinned(dim):
    # the d = 2 pin holds the bits of the 2x2 closed form, which stays: the
    # generic sweeps take about twice as long on a lone 2x2
    stacks = _pinned_pool(dim)
    lone = [(e.q, e.lam) for e in (spd_core._jacobi(a) for arrays in stacks for a in arrays)]
    stacked = [pair for arrays in stacks for pair in _solved(arrays)]
    assert _digest(lone) == SOLVER_PINS[dim]
    assert _digest(stacked) == SOLVER_PINS[dim]


def test_rotations_pin_the_angle_at_a_zero_and_an_overflowing_theta():
    # equal diagonals give theta = +0.0 for a_pr > 0 and -0.0 for a_pr < 0,
    # both a 45 degree rotation (t = 1); a tiny a_pr overflows theta to inf,
    # the identity (t = 0); the 2x2 closed form agrees
    a_pp, a_rr, a_pr = np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 2.0]), np.array([0.5, -0.5, 1e-320])
    with np.errstate(over="ignore"):
        c, s = spd_core._rotations(a_pp, a_rr, a_pr)
    half = 1.0 / math.sqrt(2.0)
    assert c.tobytes() == np.array([half, half, 1.0]).tobytes()
    assert s.tobytes() == np.array([half, half, 0.0]).tobytes()
    closed = [spd_core._rotation_params(*map(float, args)) for args in zip(a_pp, a_rr, a_pr)]
    assert closed == list(zip(c.tolist(), s.tolist()))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jacobi_stack_is_bitwise_the_lone_solver(seed):
    # a lone solve is a stack of one; mixed kinds in one stack converge in
    # different sweeps and leave the stack at different times, which
    # re-indexes the rest; the suite solves stacks of about 400 slices;
    # tobytes() also compares the sign of zero.  test_solver_bits_are_pinned
    # ties both to fixed hashes.
    rng = np.random.default_rng(seed)
    for dim in range(1, 9):
        for k in (*range(1, 7), 40, 400):
            kinds = rng.choice(STACK_KINDS, size=k)
            arrays = [_stack_slice(rng, dim, kind) for kind in kinds]
            for a, (q, lam) in zip(arrays, _solved(arrays), strict=True):
                ((want_q, want_lam),) = _solved([a])
                assert q.tobytes() == want_q.tobytes(), (dim, k)
                assert lam.tobytes() == want_lam.tobytes(), (dim, k)


def test_jacobi_stack_matches_lapack_like_the_lone_solver():
    # LAPACK serves only as an oracle here
    rng = np.random.default_rng(9)
    for dim in range(3, 9):
        arrays = [spd_from_rng(rng, dim, 1e4).entries for _ in range(5)]
        for a, (_, lam) in zip(arrays, _solved(arrays)):
            oracle = np.linalg.eigvalsh(a)[::-1]
            err = np.max(np.abs(lam - oracle)) / oracle[0]
            ((_, alone),) = _solved([a])
            lone = np.max(np.abs(alone - oracle)) / oracle[0]
            assert err == lone
            assert err <= 1e-13


def test_frobenius_norms_match_frobenius_norm_bitwise():
    rng = np.random.default_rng(4)
    for dim in range(1, 17):
        w = rng.normal(size=(5, dim, dim)) * np.exp(rng.uniform(-5.0, 5.0, size=(5, dim, dim)))
        got = spd_core._frobenius_norms(w)
        assert [float(x) for x in got] == [frobenius_norm(x) for x in w]
        assert [float(spd_core._frobenius_norms(x)) for x in w] == [float(x) for x in got]


def test_frobenius_norm_does_not_depend_on_memory_order():
    # a transposed view is column-major; its squares are summed in the order
    # of its contiguous copy, so the two norms have the same bits
    rng = np.random.default_rng(4)
    for dim in range(2, 17):
        w = rng.normal(size=(dim, dim)) * np.exp(rng.uniform(-5.0, 5.0, size=(dim, dim)))
        assert frobenius_norm(w.T) == frobenius_norm(np.ascontiguousarray(w.T))


# An SPD stack is a (k, d, d) stack of symmetric arrays admitted slice by
# slice in one lockstep round, as the fixed-point loops admit their
# congruences.


def spd_spectra(cs):
    """Admitted spectra of the stack cs: the run step ``_spectra`` driven as
    a batch of one."""
    return spd_core._solved(spd_core._lockstep([spd_core._spectra(cs)])[0])


def test_spd_stack_equals_lone_constructions():
    rng = np.random.default_rng(8)
    arrays = [rng.normal(size=(5, 5)) + 6.0 * np.eye(5) for _ in range(4)]  # not symmetric
    syms = np.stack([SymMatrix(a).entries for a in arrays])
    q, lam = spd_spectra(syms)
    for got_q, got_lam, a in zip(q, lam, arrays, strict=True):
        want = SpdMatrix(a)
        assert got_q.tobytes() == want.eigen.q.tobytes()
        assert got_lam.tobytes() == want.eigen.lam.tobytes()
    q, lam = spd_spectra(np.empty((0, 5, 5)))
    assert q.shape == (0, 5, 5) and lam.shape == (0, 5)


def _first_error(build):
    try:
        build()
    except (ValueError, LinearAlgebraError) as exc:
        return type(exc), str(exc)
    return None


GOOD = np.diag([2.0, 1.0, 3.0])
NOT_PD = np.diag([1.0, -1.0, 2.0])
NOT_FINITE = np.diag([1.0, math.nan, 2.0])
DENSE = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 4.0]])


@pytest.mark.parametrize(
    "arrays, sweep_limit, raised",
    [
        ((GOOD, NOT_PD, NOT_FINITE), spd_core.SWEEP_LIMIT, NotPositiveDefiniteError),
        ((GOOD, NOT_FINITE, NOT_PD), spd_core.SWEEP_LIMIT, EighConvergenceError),
        ((DENSE, GOOD, NOT_PD), spd_core.SWEEP_LIMIT, NotPositiveDefiniteError),
        ((NOT_PD, DENSE), 0, NotPositiveDefiniteError),
        ((DENSE, GOOD, NOT_PD), 0, EighConvergenceError),
        ((GOOD, DENSE, NOT_FINITE), 0, EighConvergenceError),
    ],
)
def test_spd_stack_raises_what_the_loop_raises(monkeypatch, arrays, sweep_limit, raised):
    # the first failing slice raises, in input order, what its lone solve and
    # admission raise: with no sweeps allowed the dense slice does not
    # converge, and a NaN slice never does
    def lone_loop():
        for a in arrays:
            spd_core._admit(spd_core._jacobi(a).lam)

    monkeypatch.setattr(spd_core, "SWEEP_LIMIT", sweep_limit)
    want = _first_error(lone_loop)
    assert want is not None and want[0] is raised
    assert _first_error(lambda: spd_spectra(np.stack(arrays))) == want


def test_stack_overflow_surfaces_before_a_non_spd_slice():
    # the congruences of one iteration are formed as one stack before any is
    # solved, so an overflow in slice 1 is raised ahead of the non-SPD
    # slice 0, where forming and admitting one congruence at a time raised
    # slice 0's NotPositiveDefiniteError
    x = np.diag([1e160, 1.0, 1.0])
    stack = np.stack([np.diag([0.0, -1.0, 2.0]), GOOD])
    with pytest.raises(NotPositiveDefiniteError):
        for a in stack:
            SpdMatrix(congruence(x, SymMatrix(a)))
    with pytest.raises(spd_core.NumericalBreakdownError, match="overflows"):
        spd_spectra(spd_core._congruences(x, stack))


@pytest.mark.parametrize(
    "matrix, sweep_limit, sweeps",
    [
        (np.full((3, 3), math.nan), spd_core.SWEEP_LIMIT, 65),
        (DENSE, 0, 1),
        (np.full((1, 1), math.nan), spd_core.SWEEP_LIMIT, 65),
    ],
    ids=["default-limit", "zero-limit", "one-by-one"],
)
def test_convergence_error_reports_the_sweeps_run(monkeypatch, matrix, sweep_limit, sweeps):
    # each sweep walks the round-robin schedule once; a NaN matrix never meets
    # its target, so it runs every sweep the limit allows, a 1x1 one through
    # rounds that hold no plane
    walked = []
    real_schedule = spd_core._round_robin_schedule

    def counting_schedule(m):
        walked.append(m)
        return real_schedule(m)

    monkeypatch.setattr(spd_core, "SWEEP_LIMIT", sweep_limit)
    monkeypatch.setattr(spd_core, "_round_robin_schedule", counting_schedule)
    _, _, (error,) = spd_core._jacobi_stack(matrix[None])
    assert isinstance(error, EighConvergenceError)
    assert len(walked) == error.sweeps == sweeps
    assert f"did not converge after {sweeps} sweeps" in str(error)


@pytest.mark.parametrize("dim", range(1, 9))
def test_cholesky_factors_and_inverts(dim):
    # LAPACK serves only as an oracle here
    rng = np.random.default_rng(dim)
    for kappa in (1e2, 1e6):
        x = spd_from_rng(rng, dim, kappa).entries
        lower, inv = spd_core.cholesky(x)
        assert np.array_equal(lower, np.tril(lower))
        assert np.array_equal(inv, np.tril(inv))
        assert np.all(np.diagonal(lower) > 0.0)
        scale = np.abs(x).max()
        assert np.abs(lower @ lower.T - x).max() <= 1e-14 * scale
        assert np.abs(lower - np.linalg.cholesky(x)).max() <= 1e-13 * math.sqrt(scale) * kappa
        assert np.abs(inv @ lower - np.eye(dim)).max() <= 1e-14 * kappa
        upper_noise = x + np.triu(rng.normal(size=(dim, dim)), 1)  # only the lower triangle is read
        assert all(np.array_equal(a, b) for a, b in zip(spd_core.cholesky(upper_noise), (lower, inv)))


def test_cholesky_rejects_a_non_positive_pivot():
    for x, index in (
        (np.diag([1.0, -2.0, 3.0]), 1),
        (np.array([[1.0, 2.0], [2.0, 4.0]]), 1),  # singular: the pivot is exactly 0
        (np.array([[0.0, 1.0], [1.0, 1.0]]), 0),
        (np.diag([1.0, math.nan]), 1),
    ):
        with pytest.raises(spd_core.NonPositivePivotError) as info:
            spd_core.cholesky(x)
        assert info.value.index == index
        assert str(info.value).startswith(f"Cholesky pivot {index} is ")
        assert str(info.value).endswith(", not positive and finite")


def _left_looking(x):
    """Cholesky of one array by its 1-D and 2-D products: the loop that
    ``_cholesky_stack`` runs over a stack (test reference)."""
    d = x.shape[0]
    lower, inv = np.zeros((d, d)), np.zeros((d, d))
    for j in range(d):
        row = lower[j, :j]
        pivot = float(x[j, j] - row @ row)
        if not 0.0 < pivot < math.inf:
            raise spd_core.NonPositivePivotError(j, pivot)
        ljj = math.sqrt(pivot)
        lower[j, j] = ljj
        lower[j + 1 :, j] = (x[j + 1 :, j] - lower[j + 1 :, :j] @ row) / ljj
        inv[j, :j] = -(row @ inv[:j, :j]) / ljj
        inv[j, j] = 1.0 / ljj
    return lower, inv


def _factor_or_error(factor, x):
    try:
        return factor(x)
    except spd_core.NonPositivePivotError as error:
        return error


@pytest.mark.parametrize("dim", range(1, 9))
def test_cholesky_stack_keeps_lone_bits(dim):
    # SPD slices with entries scaled over e^-8..e^8, some with a negative
    # pivot, a zero pivot or a NaN entry: each slice gets the factors of
    # lone ``cholesky`` bit for bit, or its error, whatever its neighbours
    rng = np.random.default_rng(80 + dim)
    for k in (1, 3, 17):
        for _ in range(4):
            stack = np.stack([spd_array_from_rng(rng, dim, 1e4) * math.exp(rng.uniform(-8, 8)) for _ in range(k)])
            failing = rng.permutation(k)[: k // 3 + 1]
            for i in failing:
                j = rng.integers(dim)
                kind = rng.integers(3)
                if kind == 0:
                    stack[i, j, j] = -stack[i, j, j]
                elif kind == 1:
                    stack[i, j, :] = stack[i, :, j] = 0.0
                else:
                    stack[i, j, rng.integers(j + 1)] = math.nan
            lower, inv, errors = spd_core._cholesky_stack(stack)
            assert [i for i, error in enumerate(errors) if error is not None] == sorted(failing)
            for x, l_x, inv_x, error in zip(stack, lower, inv, errors):
                want = _factor_or_error(spd_core.cholesky, x)
                loop = _factor_or_error(_left_looking, x)
                if error is not None:
                    pivots = [(e.index, repr(e.pivot)) for e in (error, want, loop)]
                    assert pivots == [pivots[0]] * 3
                    continue
                assert [l_x.tobytes(), inv_x.tobytes()] == [a.tobytes() for a in want] == [a.tobytes() for a in loop]



PACKAGE = pathlib.Path(spd_core.__file__).parent


# problem_io draws its random orthogonal matrices with a QR
@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "problem_io")
)
def test_solver_modules_do_not_call_lapack(module):
    # the linear algebra is first-principles: LAPACK appears only as an oracle
    # in tests
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert "np.linalg" not in source
    assert "numpy.linalg" not in source


def test_eigendecomposition_validates():
    with pytest.raises(ValueError):
        EigenDecomposition(q=np.eye(2), lam=np.array([1.0, 2.0]))  # ascending
    with pytest.raises(ValueError):
        EigenDecomposition(q=np.eye(3), lam=np.array([1.0, 0.5]))
    for q, lam in ((np.eye(2), [np.nan, 1.0]), (np.eye(2), [np.inf, 1.0]), (np.full((2, 2), np.nan), [2.0, 1.0])):
        with pytest.raises(ValueError, match="^eigendecomposition entries must be finite$"):
            EigenDecomposition(q=q, lam=np.array(lam))


@pytest.mark.parametrize(
    "build",
    [
        lambda: SymMatrix(np.zeros((0, 0))),
        lambda: EigenDecomposition(np.zeros((0, 0)), np.zeros(0)),
        lambda: SpdMatrix(np.zeros((0, 0))),
        lambda: identity(0),
        lambda: identity(2.5),
        lambda: identity(True),
    ],
    ids=["sym", "eigen", "spd", "identity", "identity-float", "identity-bool"],
)
def test_empty_matrices_are_rejected(build):
    # a 0 x 0 matrix has no spectrum to admit or solve
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# spectral functions


def test_sqrt_of_diagonal():
    s = apply_spectral(SpdMatrix(np.diag([4.0, 9.0])), "sqrt")
    np.testing.assert_allclose(s.entries, np.diag([2.0, 3.0]), atol=1e-14)


def test_log_of_identity_is_zero():
    log_i = apply_spectral(identity(3), "log")
    np.testing.assert_allclose(log_i.entries, np.zeros((3, 3)), atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, dim=st.integers(2, 8))
def test_sqrt_squares_back(seed, dim):
    a = random_spd(seed, dim, condition_max=1e6)
    s = apply_spectral(a, "sqrt")
    rel = frobenius_norm(s.entries @ s.entries - a.entries) / frobenius_norm(a)
    assert rel <= 1e-11


@settings(max_examples=30, deadline=None)
@given(seed=seeds, dim=st.integers(2, 8))
def test_inverse_is_involutive(seed, dim):
    a = random_spd(seed, dim, condition_max=1e6)
    back = apply_spectral(apply_spectral(a, "inverse"), "inverse")
    assert frobenius_norm(back.entries - a.entries) / frobenius_norm(a) <= 1e-11


@settings(max_examples=30, deadline=None)
@given(seed=seeds, dim=st.integers(2, 8))
def test_exp_undoes_log(seed, dim):
    a = random_spd(seed, dim, condition_max=1e6)
    back = apply_spectral(apply_spectral(a, "log"), "exp_of_sym")
    assert frobenius_norm(back.entries - a.entries) / frobenius_norm(a) <= 1e-10


def test_power_interpolates_sqrt():
    a = random_spd(5, 4)
    np.testing.assert_allclose(
        apply_spectral(a, "power", 0.5).entries,
        apply_spectral(a, "sqrt").entries,
        atol=1e-13,
    )


def test_sqrt_then_square_power():
    a = random_spd(9, 5, condition_max=1e6)
    again = apply_spectral(apply_spectral(a, "power", 2.0), "sqrt")
    assert frobenius_norm(again.entries - a.entries) / frobenius_norm(a) <= 1e-11


def test_spectral_domain_errors():
    indefinite = SymMatrix(np.diag([1.0, -2.0]))
    for tag in ("sqrt", "inv_sqrt", "log", "inverse"):
        with pytest.raises(SpectralDomainError):
            apply_spectral(indefinite, tag)
    with pytest.raises(SpectralDomainError):
        apply_spectral(indefinite, "power", 0.5)
    with pytest.raises(ValueError):
        apply_spectral(identity(2), "power")  # missing exponent
    with pytest.raises(ValueError):
        apply_spectral(identity(2), "cbrt")
    # exp accepts indefinite input and overflows loudly
    apply_spectral(indefinite, "exp_of_sym")
    with pytest.raises(SpectralDomainError):
        apply_spectral(SymMatrix(np.diag([1000.0])), "exp_of_sym")
    with pytest.raises(SpectralDomainError):
        apply_spectral(SpdMatrix(np.diag([2.0, 1.0])), "power", 2000.0)


TINY_PAIR = (
    '{"schema_version": 1, "weights": [0.5, 0.5], '
    '"matrices": [[[1e-309, 0], [0, 2e-309]], [[2e-309, 0], [0, 1e-309]]]}'
)


@pytest.mark.parametrize("p", ["2", math.nan, math.inf, -math.inf, True, None, [2.0]])
def test_power_requires_a_finite_real_exponent(p):
    with pytest.raises(ValueError, match="finite real exponent"):
        apply_spectral(identity(2), "power", p)
    a = SpdMatrix(np.diag([4.0, 9.0]))
    assert apply_spectral(a, "power", np.float64(0.5)).entries.tolist() == [[2.0, 0.0], [0.0, 3.0]]


def test_inverse_overflow_is_a_spectral_domain_error():
    # a valid problem at subnormal scale: the inverse of each matrix and the
    # harmonic mean overflow, which is a SpectralDomainError, not a bare
    # ValueError from the recomposition, and no RuntimeWarning is printed
    problem = parse_problem(TINY_PAIR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in problem.matrices:
            with pytest.raises(SpectralDomainError, match=r"^inverse overflows on spectrum \["):
                apply_spectral(a, "inverse")
        with pytest.raises(SpectralDomainError, match="^inverse overflows"):
            harmonic_mean(problem)


# ---------------------------------------------------------------------------
# congruence and norms


def test_congruence_identities():
    a = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(congruence(np.eye(2), a), a.entries)
    out = congruence(np.diag([2.0, 1.0]), identity(2))
    np.testing.assert_allclose(out, np.diag([4.0, 1.0]))
    with pytest.raises(ValueError):
        congruence(np.eye(3), a)


def test_congruence_returns_symmetrized_array():
    rng = np.random.default_rng(17)
    a = spd_from_rng(rng, 5)
    x = rng.normal(size=(5, 5))
    m = x @ a.entries @ x.T
    out = congruence(x, a)
    assert type(out) is np.ndarray
    assert np.array_equal(out, (m + m.T) / 2.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        congruence(rng.normal(size=(5, 4)), a)
    for bad in (np.nan, np.inf):
        x_bad = x.copy()
        x_bad[1, 2] = bad
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            congruence(x_bad, a)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, dim=st.integers(2, 8))
def test_orthogonal_congruence_preserves_spectrum(seed, dim):
    rng = np.random.default_rng(seed)
    a = spd_from_rng(rng, dim)
    q = random_orthogonal(rng, dim)
    rotated = SymMatrix(congruence(q, a))
    rel = np.max(np.abs(eigh(rotated).lam - a.eigen.lam)) / a.eigen.lam[0]
    assert rel <= 1e-12


def test_norms_on_known_values():
    assert frobenius_norm(identity(3)) == pytest.approx(math.sqrt(3.0))
    assert frobenius_norm(np.array([3.0, 4.0])) == 5.0
    assert frobenius_norm(np.array([[3.0, 0.0, 4.0]])) == 5.0
    assert operator_norm(SymMatrix(np.diag([5.0, -7.0]))) == pytest.approx(7.0)


def test_frobenius_matches_spectrum():
    a = random_spd(123, 6)
    assert frobenius_norm(a) ** 2 == pytest.approx(float(np.sum(a.eigen.lam**2)), rel=1e-12)


def test_trace_and_determinant():
    a = SpdMatrix(np.diag([2.0, 3.0]))
    assert trace(a) == pytest.approx(5.0)
    assert determinant(a) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# Loewner order


def test_loewner_known_cases():
    two_i, one_i = SpdMatrix(2.0 * np.eye(2)), identity(2)
    cmp = loewner_geq(two_i, one_i)
    assert cmp.holds and cmp.witness == pytest.approx(1.0)
    cmp = loewner_geq(SpdMatrix(np.diag([1.0, 3.0])), SpdMatrix(np.diag([2.0, 2.0])), 1e-9)
    assert not cmp.holds
    assert cmp.witness == pytest.approx(-1.0)
    # a - b is finite and exactly symmetric, though (M + M^T)/2 of it overflows
    cmp = loewner_geq(SpdMatrix([[8.5e307, 8e307], [8e307, 8.5e307]]), SpdMatrix([[8.5e307, -8e307], [-8e307, 8.5e307]]))
    assert not cmp.holds
    assert cmp.witness == pytest.approx(-1.6e308)


@pytest.mark.parametrize("delta, holds", [(5e-9, True), (5e-8, False)])
def test_loewner_relative_slack(delta, holds):
    cmp = loewner_geq(SymMatrix(np.eye(2)), SymMatrix(np.diag([1.0, 1.0 + delta])), 1e-8)
    assert cmp.holds == holds
    assert cmp.witness == pytest.approx(-delta)


@pytest.mark.parametrize("rel_tol", [-1e-8, math.nan])
def test_loewner_rejects_bad_rel_tol(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        loewner_geq(identity(2), identity(2), rel_tol)


def test_loewner_reflexive():
    a = random_spd(7, 5)
    cmp = loewner_geq(a, a)
    assert cmp.holds
    assert abs(cmp.witness) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(seed=seeds, dim=st.integers(1, 6))
def test_loewner_antisymmetric_up_to_tolerance(seed, dim):
    rng = np.random.default_rng(seed)
    a = spd_from_rng(rng, dim)
    b = spd_from_rng(rng, dim)
    both = loewner_geq(a, b, 1e-12).holds and loewner_geq(b, a, 1e-12).holds
    if both:
        assert frobenius_norm(a.entries - b.entries) <= 1e-10 * frobenius_norm(a)
