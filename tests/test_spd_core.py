import math

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
    identity,
    loewner_geq,
    operator_norm,
    trace,
)
from spdmeans.problem_io import random_orthogonal, random_spd, spd_from_rng

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


def test_eigendecomposition_validates():
    with pytest.raises(ValueError):
        EigenDecomposition(q=np.eye(2), lam=np.array([1.0, 2.0]))  # ascending
    with pytest.raises(ValueError):
        EigenDecomposition(q=np.eye(3), lam=np.array([1.0, 0.5]))


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
