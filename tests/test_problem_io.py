import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdmeans import MeanProblem, ProblemFileError, WeightVector, parse_problem, random_spd, serialize_problem
from spdmeans.problem_io import (
    derive_seed,
    dumps_canonical,
    format_float,
    random_orthogonal,
    spd_from_rng,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# parsing


def test_parse_example_file(example_file):
    problem = parse_problem(example_file.read_text())
    assert problem.n == 2
    np.testing.assert_allclose(problem.weights.values, [0.5, 0.5])
    np.testing.assert_array_equal(problem.matrices[0].entries, [[1.0, 2.0], [2.0, 5.0]])
    np.testing.assert_array_equal(problem.matrices[1].entries, [[4.0, 4.0], [4.0, 5.0]])


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("not json", "malformed JSON"),
        ("[1, 2]", "top level"),
        ('{"schema_version": 99, "weights": [1], "matrices": [[[1]]]}', "schema_version"),
        ('{"schema_version": 1, "weights": [], "matrices": []}', "n >= 1"),
        ('{"schema_version": 1, "weights": [1.0], "matrices": [[[1]], [[2]]]}', "1 weights for 2"),
        ('{"schema_version": 1, "weights": [0.5, -0.5], "matrices": [[[1]], [[2]]]}', "bad weights"),
        ('{"schema_version": 1, "weights": [1.0], "matrices": [[[1, 0]]]}', "not square"),
        (
            '{"schema_version": 1, "weights": [0.5, 0.5], "matrices": [[[1]], [[1, 0], [0, 1]]]}',
            "matrix 1: dimension 2",
        ),
        (
            '{"schema_version": 1, "weights": [1.0], "matrices": [[[1, 2], [2, 1]]]}',
            "matrix 0: not positive definite",
        ),
        # the failure of the lowest index is reported, whatever its kind
        (
            '{"schema_version": 1, "weights": [0.5, 0.5], "matrices": [[[1, 2], [2, 1]], [[1]]]}',
            "matrix 0: not positive definite",
        ),
        (
            '{"schema_version": 1, "weights": [1, 1, 1], "matrices": [[[1]], [[-1]], [[1, 0]]]}',
            "matrix 1: not positive definite",
        ),
        (
            '{"schema_version": 1, "weights": [0.5, 0.5], "matrices": [[[1, 0]], [[-1]]]}',
            "matrix 0: not square",
        ),
        (
            '{"schema_version": 1, "weights": [0.5, 0.5], "matrices": [[[1]], [[1e308, 1e308], [1, 1]]]}',
            "matrix 1: dimension 2",
        ),
        (
            '{"schema_version": 1, "weights": [0.5, 0.5], "matrices": [[[1, 0], [0, 1]], [[1e308, 1.7e308], [1, 1]]]}',
            "matrix 1: symmetrization",
        ),
    ],
)
def test_parse_errors_are_located(doc, fragment):
    with pytest.raises(ProblemFileError, match=fragment):
        parse_problem(doc)


def test_parse_admits_every_matrix_in_one_round(monkeypatch):
    # one stack per dimension, each slice with the bits of SpdMatrix(arr),
    # and no lone eigensolve
    from spdmeans import SpdMatrix, spd_core

    rng = np.random.default_rng(5)
    arrays = [spd_from_rng(rng, 3).entries for _ in range(3)]
    stacks, lone = [], []
    real_stack, real_lone = spd_core._jacobi_stack, spd_core._jacobi

    def counting_stack(batch):
        stacks.append(batch.shape)
        return real_stack(batch)

    def counting_lone(matrix):
        lone.append(matrix.shape)
        return real_lone(matrix)

    monkeypatch.setattr(spd_core, "_jacobi_stack", counting_stack)
    monkeypatch.setattr(spd_core, "_jacobi", counting_lone)
    doc = {"schema_version": 1, "weights": [1.0] * 3, "matrices": [a.tolist() for a in arrays]}
    problem = parse_problem(json.dumps(doc))
    assert stacks == [(3, 3, 3)] and lone == []
    for got, arr in zip(problem.matrices, arrays):
        want = SpdMatrix(arr)
        assert type(got) is SpdMatrix
        for x, y in ((got.entries, want.entries), (got.eigen.q, want.eigen.q), (got.eigen.lam, want.eigen.lam)):
            assert x.tobytes() == y.tobytes() and not x.flags.writeable


def test_parse_reports_lambda_min():
    doc = '{"schema_version": 1, "weights": [1.0], "matrices": [[[1, 2], [2, 1]]]}'
    with pytest.raises(ProblemFileError, match="lambda_min=-1"):
        parse_problem(doc)


# JSON values a problem file may hold where a number is expected: floats of
# any size (json writes NaN and Infinity, which it also reads back), integers
# beyond the double range, and values of the wrong type.
json_numbers = st.one_of(
    st.floats(),
    st.floats(min_value=-4.0, max_value=4.0),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.integers(min_value=-3, max_value=3),
)
json_entries = st.one_of(
    json_numbers, st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({})
)


@st.composite
def square_grids(draw, dim):
    """A dim x dim grid of numbers, or a diagonally dominant (so positive
    definite) one at some scale, perhaps with one entry replaced; sometimes
    with a ragged row."""
    if draw(st.booleans()):
        grid = [[draw(json_numbers) for _ in range(dim)] for _ in range(dim)]
    else:
        scale = draw(st.sampled_from([1.0, 1e-170, 1e154, 1e300]))
        grid = [[scale * (4.0 * dim if i == j else 0.5) for j in range(dim)] for i in range(dim)]
        if draw(st.booleans()):
            grid[draw(st.integers(0, dim - 1))][draw(st.integers(0, dim - 1))] = draw(json_entries)
    if not draw(st.integers(0, 5)):
        grid[draw(st.integers(0, dim - 1))].append(draw(json_entries))
    return grid


@st.composite
def problem_documents(draw):
    """A problem of at most 3 matrices of dimension at most 4, as is or with
    one field replaced, dropped or shortened, or any JSON value instead."""
    n, dim = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    weights = st.floats(1e-3, 10.0) if draw(st.booleans()) else json_numbers
    doc = {
        "schema_version": 1,
        "weights": [draw(weights) for _ in range(n)],
        "matrices": [draw(square_grids(draw(st.sampled_from([dim, dim, 1, 4])))) for _ in range(n)],
    }
    change = draw(st.sampled_from(["", "", "", "replace", "drop", "shorten", "document"]))
    key = draw(st.sampled_from(sorted(doc)))
    if change == "document":
        return draw(json_entries)
    if change == "replace":
        doc[key] = draw(json_entries)
    elif change == "drop":
        del doc[key]
    elif change == "shorten" and key != "schema_version":
        doc[key] = doc[key][1:]
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=problem_documents())
# weights whose sum overflows normalized to zeros and were accepted
@example(doc={"schema_version": 1, "weights": [1.7e308, 1.7e308], "matrices": [[[1]], [[2]]]})
# JSON booleans and quoted numbers were read as if they were 1
@example(doc={"schema_version": True, "weights": [1], "matrices": [[[1]]]})
@example(doc={"schema_version": 1, "weights": [True], "matrices": [[[1]]]})
@example(doc={"schema_version": 1, "weights": [1], "matrices": [[["1"]]]})
def test_parse_problem_returns_a_problem_or_a_problem_file_error(doc):
    try:
        problem = parse_problem(json.dumps(doc))
    except ProblemFileError:
        return
    assert isinstance(problem, MeanProblem)
    scalars = [doc["schema_version"], *doc["weights"]]
    scalars += [v for grid in doc["matrices"] for row in grid for v in row]
    assert not any(isinstance(v, (bool, str)) for v in scalars)
    weights = problem.weights.values
    assert np.all(weights > 0.0) and abs(float(weights.sum()) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# serialization


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_round_trip_is_exact(seed):
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(1, 5)), int(rng.integers(1, 7))
    problem = MeanProblem(
        tuple(spd_from_rng(rng, dim) for _ in range(n)),
        WeightVector(rng.uniform(0.1, 1.0, n)),
    )
    back = parse_problem(serialize_problem(problem))
    np.testing.assert_array_equal(back.weights.values, problem.weights.values)
    for got, expected in zip(back.matrices, problem.matrices):
        np.testing.assert_array_equal(got.entries, expected.entries)


def test_serialize_is_deterministic(example_problem):
    assert serialize_problem(example_problem) == serialize_problem(example_problem)


@settings(max_examples=200)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(math.inf)


def test_dumps_canonical_shapes():
    out = dumps_canonical({"b": [1, 2.5], "a": {"nested": True, "x": None}})
    assert json.loads(out) == {"b": [1, 2.5], "a": {"nested": True, "x": None}}
    assert out.index('"a"') < out.index('"b"')  # keys sorted
    with pytest.raises(TypeError):
        dumps_canonical({"bad": object()})


# ---------------------------------------------------------------------------
# random generation


def test_random_spd_deterministic():
    a = random_spd(12345, 5)
    b = random_spd(12345, 5)
    np.testing.assert_array_equal(a.entries, b.entries)
    c = random_spd(12346, 5)
    assert not np.array_equal(a.entries, c.entries)


def test_random_spd_identity_at_unit_condition():
    a = random_spd(7, 4, condition_max=1.0)
    np.testing.assert_allclose(a.entries, np.eye(4), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, dim=st.integers(1, 8))
def test_random_spd_condition_bounded(seed, dim):
    a = random_spd(seed, dim, condition_max=100.0)
    lam = a.eigen.lam
    assert lam[0] / lam[-1] <= 100.0 * (1.0 + 1e-10)
    assert lam[-1] > 0


def test_random_spd_validation():
    with pytest.raises(ValueError):
        random_spd(1, 0)
    with pytest.raises(ValueError):
        random_spd(1, 3, condition_max=0.5)


@pytest.mark.parametrize(
    "dim, condition_max",
    [(2.5, 100.0), (True, 100.0), ("3", 100.0), (3, math.nan), (3, math.inf), (3, True), (3, "100")],
)
def test_random_spd_rejects_what_is_not_a_dimension_or_a_condition_number(dim, condition_max):
    with pytest.raises(ValueError, match="dim must be|condition_max must be"):
        random_spd(1, dim, condition_max)
    assert random_spd(1, np.int64(3), np.float64(1e6)).dim == 3


def test_random_orthogonal_is_orthogonal():
    q = random_orthogonal(np.random.default_rng(3), 6)
    np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-13)


def test_derive_seed_is_stable_and_split():
    s1 = derive_seed(42, "bounds.problem", 0)
    assert s1 == derive_seed(42, "bounds.problem", 0)
    assert s1 != derive_seed(42, "bounds.problem", 1)
    assert s1 != derive_seed(42, "det.problem", 0)
    assert s1 != derive_seed(43, "bounds.problem", 0)
    assert 0 <= s1 < 2**64
