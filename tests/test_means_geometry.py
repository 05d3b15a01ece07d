import functools
import math

import mp_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmeans import (
    CurveSpec,
    SpdMatrix,
    SymMatrix,
    WeightVector,
    apply_spectral,
    congruence,
    determinant,
    evaluate_curve,
    frobenius_norm,
    geodesic_perturbation_bound,
    geometric_mean,
    identity,
    lie_trotter_value,
    loewner_geq,
    riemannian_distance,
    wasserstein_distance,
    wasserstein_distance_oracle_2x2,
    wasserstein_geodesic,
)
from spdmeans.problem_io import random_orthogonal, random_spd, spd_from_rng
from spdmeans.spd_core import NotPositiveDefiniteError

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rel_diff(a, b):
    return frobenius_norm(a - b) / frobenius_norm(b)


# ---------------------------------------------------------------------------
# geometric mean


def test_geometric_mean_idempotent():
    a = random_spd(3, 4)
    assert rel_diff(geometric_mean(a, a, 0.7).entries, a.entries) <= 1e-12


def test_geometric_mean_commuting_diagonals():
    a, b = SpdMatrix(np.diag([1.0, 4.0])), SpdMatrix(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(geometric_mean(a, b).entries, np.diag([2.0, 2.0]), atol=1e-13)


def test_geometric_mean_riccati_residual():
    rng = np.random.default_rng(77)
    a, b = spd_from_rng(rng, 3), spd_from_rng(rng, 3)
    x = geometric_mean(a, b)
    inv_a = apply_spectral(a, "inverse").entries
    assert rel_diff(x.entries @ inv_a @ x.entries, b.entries) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=seeds, t=st.floats(0.0, 1.0))
def test_geometric_mean_reversal_and_inverse(seed, t):
    rng = np.random.default_rng(seed)
    a, b = spd_from_rng(rng, 4), spd_from_rng(rng, 4)
    lhs = geometric_mean(a, b, t)
    assert rel_diff(lhs.entries, geometric_mean(b, a, 1.0 - t).entries) <= 1e-9
    inv = apply_spectral(lhs, "inverse")
    inv_pair = geometric_mean(apply_spectral(a, "inverse"), apply_spectral(b, "inverse"), t)
    assert rel_diff(inv.entries, inv_pair.entries) <= 1e-9


def test_geometric_mean_determinant_identity():
    rng = np.random.default_rng(5)
    a, b = spd_from_rng(rng, 5), spd_from_rng(rng, 5)
    t = 0.3
    expected = determinant(a) ** (1 - t) * determinant(b) ** t
    assert determinant(geometric_mean(a, b, t)) == pytest.approx(expected, rel=1e-9)


def test_geometric_mean_agh_sandwich():
    rng = np.random.default_rng(6)
    a, b = spd_from_rng(rng, 4), spd_from_rng(rng, 4)
    t = 0.4
    gm = geometric_mean(a, b, t)
    arith = SpdMatrix((1 - t) * a.entries + t * b.entries)
    harm = apply_spectral(
        SpdMatrix(
            (1 - t) * apply_spectral(a, "inverse").entries
            + t * apply_spectral(b, "inverse").entries
        ),
        "inverse",
    )
    assert loewner_geq(arith, gm, 1e-9).holds
    assert loewner_geq(gm, harm, 1e-9).holds


def test_geometric_mean_congruence_invariance():
    rng = np.random.default_rng(8)
    a, b = spd_from_rng(rng, 4), spd_from_rng(rng, 4)
    x = random_orthogonal(rng, 4) * np.exp(rng.uniform(-1, 1, 4))
    direct = congruence(x, geometric_mean(a, b, 0.25))
    transformed = geometric_mean(SpdMatrix(congruence(x, a)), SpdMatrix(congruence(x, b)), 0.25)
    assert rel_diff(direct, transformed.entries) <= 1e-9


def test_geometric_mean_matches_a_50_digit_reference_at_condition_1e6():
    # L (L^{-1} B L^{-T})^t L^T keeps the error near roundoff times the
    # conditions: the worst of these 40 pairs is 3.9e-10
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(40):
        d = int(rng.integers(2, 9))
        a, b = spd_from_rng(rng, d, 1e6), spd_from_rng(rng, d, 1e6)
        t = float(rng.uniform(0.05, 0.95))
        worst = max(worst, rel_diff(geometric_mean(a, b, t).entries, mp_reference.geometric_mean(a, b, t)))
    assert worst <= 1e-9


def test_mp_reference_meets_closed_forms():
    a, b = np.diag([1.0, 4.0, 1e-6]), np.diag([4.0, 9.0, 2.0])
    want = np.diag([4.0**0.3, 4.0**0.7 * 9.0**0.3, 1e-6**0.7 * 2.0**0.3])
    np.testing.assert_allclose(mp_reference.geometric_mean(a, b, 0.3), want, rtol=1e-15)
    # (1 - 2)^2 + (2 - 3)^2 + (1e-3 - sqrt(2))^2, halved
    want = math.sqrt((2.0 + (1e-3 - math.sqrt(2.0)) ** 2) / 2.0)
    assert mp_reference.wasserstein_distance(a, b) == pytest.approx(want, rel=1e-15)
    assert mp_reference.wasserstein_distance(b, b) == 0.0
    # X = A is the mean of (A, A), and I - (A # A^{-1}) is zero
    assert mp_reference.equivalent_residual([b, b], [0.5, 0.5], b) <= 1e-40


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_mean(identity(2), identity(3))
    with pytest.raises(ValueError):
        geometric_mean(identity(2), identity(2), 1.2)


PAIR = (SpdMatrix(np.diag([2.0, 3.0])), SpdMatrix(np.diag([1.0, 5.0])))
CURVE = CurveSpec.exp_line(SymMatrix(np.diag([0.1, -0.1])))
PARAMETER_CALLS = {
    "geometric_mean": lambda x: geometric_mean(*PAIR, x),
    "wasserstein_geodesic": lambda x: wasserstein_geodesic(*PAIR, x),
    "geodesic_perturbation_bound": lambda x: geodesic_perturbation_bound(*PAIR, PAIR[0], x),
    "evaluate_curve": lambda x: evaluate_curve(CURVE, x),
    "lie_trotter_value": lambda x: lie_trotter_value(WeightVector.uniform(1), (CURVE,), x),
}


@pytest.mark.parametrize("value", ["0.5", True, False, np.True_, None], ids=repr)
@pytest.mark.parametrize("name", PARAMETER_CALLS)
def test_parameters_must_be_real_numbers(name, value):
    # a string or a bool is rejected, as it is by every other numeric
    # parameter of the package, not read through float()
    with pytest.raises(ValueError, match="must be a real number"):
        PARAMETER_CALLS[name](value)


@pytest.mark.parametrize("name", PARAMETER_CALLS)
def test_numpy_and_integer_parameters_are_real_numbers(name):
    call = PARAMETER_CALLS[name]
    for value, same in ((np.float64(0.25), 0.25), (1, 1.0), (np.int64(1), 1.0)):
        got, want = call(value), call(same)
        if isinstance(want, SymMatrix):
            assert got.entries.tobytes() == want.entries.tobytes()
        else:
            assert got == want


# ---------------------------------------------------------------------------
# Riemannian distance


def test_riemannian_distance_known_values():
    a = random_spd(2, 3)
    assert riemannian_distance(a, a) <= 1e-12
    d = riemannian_distance(identity(2), SpdMatrix(np.diag([math.e**2, math.e**-2])))
    assert d == pytest.approx(math.sqrt(8.0), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_riemannian_distance_symmetric(seed):
    rng = np.random.default_rng(seed)
    a, b = spd_from_rng(rng, 3), spd_from_rng(rng, 3)
    assert abs(riemannian_distance(a, b) - riemannian_distance(b, a)) <= 1e-10


# ---------------------------------------------------------------------------
# transport distance and its oracle


def test_wasserstein_distance_identity_and_commuting():
    a = random_spd(1, 4)
    assert wasserstein_distance(a, a) == 0.0
    d = wasserstein_distance(identity(2), SpdMatrix(np.diag([4.0, 9.0])))
    # commuting case: tr((AB)^{1/2}) = sum of sqrt(a_i b_i), so d^2 = 7.5 - 5
    assert d == pytest.approx(math.sqrt(2.5), rel=1e-12)


def test_oracle_matches_commuting_closed_form(example_pair):
    a, b = identity(2), SpdMatrix(np.diag([4.0, 9.0]))
    assert wasserstein_distance_oracle_2x2(a, b) == pytest.approx(math.sqrt(2.5), abs=1e-6)
    assert wasserstein_distance_oracle_2x2(a, a) <= 1e-8
    pa, pb = example_pair
    diff = abs(wasserstein_distance(pa, pb) - wasserstein_distance_oracle_2x2(pa, pb))
    assert diff <= 1e-6


@settings(max_examples=50, deadline=None)
@given(seed=seeds)
def test_oracle_agrees_with_formula(seed):
    rng = np.random.default_rng(seed)
    a, b = spd_from_rng(rng, 2), spd_from_rng(rng, 2)
    diff = abs(wasserstein_distance(a, b) - wasserstein_distance_oracle_2x2(a, b))
    assert diff <= 1e-6


def test_oracle_rejects_other_dims():
    with pytest.raises(ValueError):
        wasserstein_distance_oracle_2x2(identity(3), identity(3))


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10])
def test_distance_of_near_equal_inputs_is_accurate(eps):
    # d(diag(1, 2), diag(1 + e, 2)) = e / ((1 + sqrt(1 + e)) sqrt(2)), with e
    # the exact difference of the stored entries; a trace difference loses
    # every digit of this here, the polar form keeps them
    a, b = SpdMatrix(np.diag([1.0, 2.0])), SpdMatrix(np.diag([1.0 + eps, 2.0]))
    e = b.entries[0, 0] - 1.0
    expected = e / ((1.0 + math.sqrt(1.0 + e)) * math.sqrt(2.0))
    assert wasserstein_distance(a, b) == pytest.approx(expected, rel=1e-6)


def test_transport_pair_accepts_inputs_whose_conditions_multiply_past_admission():
    # both inputs are admitted (condition 1e7), but C = A^{1/2} B A^{1/2}
    # has condition 1e14, below the admission threshold; only C's root
    # (condition 1e7) is needed.  The distance is the closed form
    # (sqrt(1 + e) - 1) / sqrt(2), e the stored difference, and the
    # geodesic is diagonal with ((1 + sqrt(1 + e)) / 2)^2 and 1e-7
    a, b = SpdMatrix(np.diag([1.0, 1e-7])), SpdMatrix(np.diag([1.0 + 1e-9, 1e-7]))
    root = math.sqrt(b.entries[0, 0])
    assert wasserstein_distance(a, b) == pytest.approx((root - 1.0) / math.sqrt(2.0), rel=1e-12)
    want = np.diag([((1.0 + root) / 2.0) ** 2, 1e-7])
    assert np.abs(wasserstein_geodesic(a, b, 0.5).entries - want).max() <= 1e-15


@functools.cache
def _near_threshold_pairs():
    """Transport pairs whose inputs sit near the admission threshold, as
    arrays with the closed-form distance or None.  First five commuting pairs
    A = Q diag(1, 0.5, 2e-12) Q^T, B = Q diag(1, 0.7, 3e-12) Q^T; then 60
    seeded draws of dimension 3 to 6 whose spectra run from 1 down to 2e-12
    (A) and 3e-12 (B), log-uniform between, with B commuting with A or
    rotated by a second Q."""
    rng = np.random.default_rng(0)
    la, lb = np.array([1.0, 0.5, 2e-12]), np.array([1.0, 0.7, 3e-12])
    closed = math.sqrt(float(np.sum((np.sqrt(la) - np.sqrt(lb)) ** 2)) / 2.0)
    pairs = []
    for _ in range(5):
        q = random_orthogonal(rng, 3)
        pairs.append(((q * la) @ q.T, (q * lb) @ q.T, closed))
    rng = np.random.default_rng(5)
    for _ in range(60):
        d = int(rng.integers(3, 7))
        la = np.exp(rng.uniform(math.log(2e-12), 0.0, d))
        lb = np.exp(rng.uniform(math.log(3e-12), 0.0, d))
        la[:2], lb[:2] = (1.0, 2e-12), (1.0, 3e-12)
        q = random_orthogonal(rng, d)
        q_b = q if rng.integers(2) else random_orthogonal(rng, d)
        pairs.append(((q * la) @ q.T, (q_b * lb) @ q_b.T, None))
    return pairs


@pytest.mark.parametrize(
    "case", range(65), ids=[f"closed_form{i}" for i in range(5)] + [f"draw{i}" for i in range(60)]
)
def test_transport_pair_near_the_admission_threshold(case):
    # kappa(C) for C = L^T B L reaches kappa(A) kappa(B), about 1e23, far
    # past what a float eigensolve resolves, yet the root of C stays
    # positive: neither the distance nor the geodesic raises, and the first
    # five pairs keep their closed-form distance
    a, b, want = _near_threshold_pairs()[case]
    a, b = SpdMatrix(a), SpdMatrix(b)
    distance = wasserstein_distance(a, b)
    assert distance > 0.0
    wasserstein_geodesic(a, b, 0.5)
    if want is not None:
        assert distance == pytest.approx(want, rel=1e-12)


def _eigh_function(m, f):
    """f applied to the spectrum of a symmetric array, by LAPACK (test oracle)."""
    lam, q = np.linalg.eigh((m + m.T) / 2.0)
    return (q * f(lam)) @ q.T


def _paper_squared_distance(a, b):
    """tr((A+B)/2) - tr(A^{1/2} B A^{1/2})^{1/2}, by LAPACK; it cancels, and
    may read below zero, for near-equal inputs."""
    sqrt_a = _eigh_function(a, np.sqrt)
    fidelity = float(np.sum(np.sqrt(np.linalg.eigvalsh(sqrt_a @ b @ sqrt_a))))
    return 0.5 * (np.trace(a) + np.trace(b)) - fidelity


def _paper_geodesic(a, b, t):
    """(1-t)^2 A + t^2 B + t(1-t) [(AB)^{1/2} + (BA)^{1/2}], by LAPACK, with
    (AB)^{1/2} = A^{1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}."""
    sqrt_a, inv_sqrt_a = _eigh_function(a, np.sqrt), _eigh_function(a, lambda v: 1.0 / np.sqrt(v))
    cross = sqrt_a @ _eigh_function(sqrt_a @ b @ sqrt_a, np.sqrt) @ inv_sqrt_a
    return (1.0 - t) ** 2 * a + t**2 * b + t * (1.0 - t) * (cross + cross.T)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    dim=st.integers(2, 8),
    kappa=st.floats(1.0, 100.0),
    t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_transport_functions_match_the_paper_formulas(seed, dim, kappa, t):
    rng = np.random.default_rng(seed)
    a, b = spd_from_rng(rng, dim, kappa), spd_from_rng(rng, dim, kappa)
    geodesic = _paper_geodesic(a.entries, b.entries, t)
    assert rel_diff(wasserstein_geodesic(a, b, t).entries, geodesic) <= 1e-10
    squared = _paper_squared_distance(a.entries, b.entries)
    if squared > 1e-6:
        assert abs(wasserstein_distance(a, b) - math.sqrt(squared)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=seeds, dim=st.integers(2, 8))
def test_metric_axioms_on_random_triples(seed, dim):
    rng = np.random.default_rng(seed)
    a, b, c = (spd_from_rng(rng, dim) for _ in range(3))
    d_ab, d_ba = wasserstein_distance(a, b), wasserstein_distance(b, a)
    assert abs(d_ab - d_ba) <= 1e-10
    assert wasserstein_distance(a, c) <= d_ab + wasserstein_distance(b, c) + 1e-9


# ---------------------------------------------------------------------------
# transport geodesic


def test_geodesic_endpoints_exact(example_pair):
    a, b = example_pair
    assert wasserstein_geodesic(a, b, 0.0) is a
    assert wasserstein_geodesic(a, b, 1.0) is b


def test_geodesic_midpoint_golden(example_pair):
    a, b = example_pair
    mid = wasserstein_geodesic(a, b, 0.5)
    np.testing.assert_allclose(mid.entries, np.array([[9.0, 12.0], [12.0, 20.0]]) / 4.0, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, s=st.floats(0, 1), t=st.floats(0, 1), u=st.floats(0, 1))
def test_geodesic_affine_property(seed, s, t, u):
    rng = np.random.default_rng(seed)
    a, b = spd_from_rng(rng, 3), spd_from_rng(rng, 3)
    left = wasserstein_geodesic(
        wasserstein_geodesic(a, b, s), wasserstein_geodesic(a, b, t), u
    )
    right = wasserstein_geodesic(a, b, (1 - u) * s + u * t)
    assert frobenius_norm(left.entries - right.entries) <= 1e-9 * max(
        1.0, frobenius_norm(right.entries)
    )


# ---------------------------------------------------------------------------
# perturbation bound


def test_perturbation_bound_raises_the_first_failing_term():
    # the geodesics, their distance and the two means share their rounds,
    # yet the error raised is that of the first term that fails, in the
    # formula's order: here the geodesics and their distance are computed,
    # and both means A^{-1} # A and A^{-1} # C fail admission, with
    # different spectra
    a, c = SpdMatrix(np.diag([1.0, 1e-7])), SpdMatrix(np.diag([1.0, 1e-8]))
    wasserstein_distance(wasserstein_geodesic(a, a, 0.5), wasserstein_geodesic(a, c, 0.5))
    inv_a = apply_spectral(a, "inverse")
    with pytest.raises(NotPositiveDefiniteError) as first:
        geometric_mean(inv_a, a)
    with pytest.raises(NotPositiveDefiniteError) as second:
        geometric_mean(inv_a, c)
    assert str(first.value) != str(second.value)
    with pytest.raises(NotPositiveDefiniteError) as raised:
        geodesic_perturbation_bound(a, a, c, 0.5)
    assert str(raised.value) == str(first.value)


def test_perturbation_bound_degenerate_cases():
    rng = np.random.default_rng(12)
    a, b = spd_from_rng(rng, 3), spd_from_rng(rng, 3)
    rep = geodesic_perturbation_bound(a, b, b, 0.6)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    rep = geodesic_perturbation_bound(a, b, spd_from_rng(rng, 3), 0.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.lambda1 == pytest.approx(float(a.eigen.lam[0]))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, dim=st.integers(2, 6), t=st.floats(1e-3, 1))
def test_perturbation_bound_holds(seed, dim, t):
    # t is kept above the degenerate corner, where both sides are of the
    # order of roundoff (see below)
    rng = np.random.default_rng(seed)
    a, b, c = (spd_from_rng(rng, dim) for _ in range(3))
    rep = geodesic_perturbation_bound(a, b, c, t)
    assert rep.lhs <= rep.rhs + 1e-9


def test_perturbation_bound_degenerate_corner_reports_noise_floor():
    # with t tiny both sides are of the order of the roundoff in the two
    # geodesic points; the report exposes both sides precisely so this
    # regime is visible instead of asserted away
    rng = np.random.default_rng(99)
    a, b, c = (spd_from_rng(rng, 3) for _ in range(3))
    rep = geodesic_perturbation_bound(a, b, c, 1e-12)
    assert rep.rhs <= 1e-10  # true bound is tiny here
    assert rep.lhs <= 1e-6
