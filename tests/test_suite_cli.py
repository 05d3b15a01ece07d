import dataclasses
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmeans import EnsembleSpec, SolverError, SymMatrix, WeightVector, random_spd, run_instance, run_suite
from spdmeans.cli import (
    EXIT_CHECK_FAILURES,
    EXIT_INPUT_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)
from spdmeans import suite
from spdmeans.problem_io import derive_seed
from spdmeans.spd_core import EighConvergenceError
from spdmeans.suite import FAMILIES, STREAMS, CheckRecord, SuiteReport, expand_families

SMALL = EnsembleSpec(seed=11, count=10)


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SMALL)


# ---------------------------------------------------------------------------
# suite machinery


def test_empty_suite_passes():
    report = run_suite(EnsembleSpec(count=0))
    assert report.total == 0
    assert report.all_passed
    assert json.loads(report.to_json())["summary"] == {"total": 0, "passes": 0, "failures": 0}


def test_small_suite_all_pass(small_report):
    assert small_report.all_passed, [r for r in small_report.records if not r.passed]
    assert small_report.total == small_report.passes
    # every family contributed records
    streams = {r.stream for r in small_report.records}
    assert {s.stream_id for s in STREAMS if s.count_of(SMALL.count) > 0} == streams


def test_suite_is_deterministic(small_report):
    again = run_suite(SMALL)
    assert again.to_json() == small_report.to_json()


def test_family_selection():
    report = run_suite(EnsembleSpec(count=4), families="metric")
    assert report.families == ("metric",)
    assert all(r.check_id.startswith("metric.") for r in report.records)
    assert expand_families("all") == FAMILIES
    assert expand_families(("det", "metric", "det")) == ("det", "metric")
    assert expand_families(["det", "all"]) == expand_families(["all", "det"]) == FAMILIES
    # every name is checked, wherever "all" stands, and nothing is no selection
    for bad in ("spectra", ["all", "bogus"], ["bogus", "all"], ["metric", "bogus"]):
        with pytest.raises(ValueError, match="unknown suite family"):
            expand_families(bad)
    for empty in ([], ()):
        with pytest.raises(ValueError, match="at least one"):
            expand_families(empty)
        with pytest.raises(ValueError, match="at least one"):
            run_suite(EnsembleSpec(count=4), empty)


def test_every_record_reruns_identically(small_report):
    # any record can be reproduced in isolation from its stream and seed
    rng = np.random.default_rng(0)
    picks = rng.choice(len(small_report.records), size=12, replace=False)
    for i in picks:
        record = small_report.records[int(i)]
        rerun = run_instance(record.stream, record.instance_seed, SMALL)
        match = [r for r in rerun if r.check_id == record.check_id]
        assert match, record.check_id
        assert any(
            r.passed == record.passed and r.witness == record.witness for r in match
        )


def test_run_instance_rejects_unknown_stream():
    with pytest.raises(ValueError):
        run_instance("metric.nonsense", 1, SMALL)
    # the instance seed is a non-negative integer: neither 1.5 nor True
    for seed in (1.5, True, -1):
        with pytest.raises(ValueError, match="instance seed must be a non-negative integer"):
            run_instance("metric.axioms", seed, SMALL)


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(seed=-1)
    with pytest.raises(ValueError):
        EnsembleSpec(count=-1)
    with pytest.raises(ValueError):
        EnsembleSpec(n_range=(0, 4))
    with pytest.raises(ValueError):
        EnsembleSpec(dim_range=(5, 3))
    # integers only; numpy integers count as integers
    for field in ("seed", "count"):
        for bad in (1.5, 2.0, True, "3", None):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
                EnsembleSpec(**{field: bad})
    for field in ("n_range", "dim_range"):
        for bad in ((2, 4.5), (2.0, 4), (True, 4), (2,), (2, 3, 4), [2, 4], 3):
            with pytest.raises(ValueError, match=f"^{field} must be a pair of integers, got "):
                EnsembleSpec(**{field: bad})
    spec = EnsembleSpec(seed=np.int64(3), count=np.int32(2), n_range=(np.int8(2), 3))
    assert (spec.seed, spec.count, spec.n_range) == (3, 2, (2, 3))
    with pytest.raises(ValueError):
        EnsembleSpec(condition_max=0.1)
    assert EnsembleSpec(condition_max=1e6).condition_max == 1e6
    for above in (1.000001e6, 1e7, math.inf, math.nan):
        with pytest.raises(ValueError, match="condition_max must be at most 1e[+]06"):
            EnsembleSpec(condition_max=above)


@pytest.mark.parametrize("bad", [True, "5", None, 1e2j], ids=["bool", "str", "none", "complex"])
def test_spec_condition_max_must_be_real(bad):
    with pytest.raises(ValueError, match="^condition_max must be a real number, got "):
        EnsembleSpec(condition_max=bad)


@pytest.mark.parametrize("good", [np.float64(5.0), np.float32(5.0), np.int64(5), 5])
def test_spec_condition_max_accepts_python_and_numpy_reals(good):
    assert EnsembleSpec(condition_max=good).condition_max == 5.0


@pytest.mark.parametrize(
    "spec",
    [
        EnsembleSpec(count=10, dim_range=(7, 9)),
        EnsembleSpec(count=10, dim_range=(7, 7)),
        EnsembleSpec(count=10, n_range=(1, 1)),
    ],
    ids=["dim7-9", "dim7", "n1"],
)
def test_accepted_ranges_run(spec):
    # streams that cap the dimension or the count must still draw inside
    # ranges lying wholly above their cap
    run_suite(spec, "all")


@st.composite
def small_specs(draw):
    """An EnsembleSpec of at most 4 instances per stream, any condition
    number it accepts, n <= 6 and dimension <= 10."""
    n_lo, dim_lo = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    return EnsembleSpec(
        seed=draw(st.integers(0, 2**32 - 1)),
        count=draw(st.integers(0, 4)),
        n_range=(n_lo, draw(st.integers(n_lo, 6))),
        dim_range=(dim_lo, draw(st.integers(dim_lo, 10))),
        condition_max=draw(
            st.one_of(st.sampled_from([1.0, 1e6]), st.floats(0.0, 6.0).map(lambda e: 10.0**e))
        ),
    )


@settings(max_examples=20, deadline=None)
@given(spec=small_specs())
def test_every_accepted_spec_runs_every_family(spec):
    # checks may fail (see ROADMAP), but no accepted spec ends in an error;
    # at count <= 4 the suite runs no limit instance, so one runs alone
    report = run_suite(spec, "all")
    assert report.families == FAMILIES
    seed = derive_seed(spec.seed, "lie_trotter.instance", 0)
    assert run_instance("lie_trotter.instance", seed, spec)


@pytest.mark.parametrize(
    "spec",
    [
        EnsembleSpec(seed=4294967294, count=3, n_range=(1, 4), dim_range=(9, 10), condition_max=1e6),
        *(
            EnsembleSpec(seed=seed, count=4, n_range=(1, 6), dim_range=(8, 10), condition_max=1e6)
            for seed in (842543356, 3879763903, 4156231188)
        ),
    ],
    ids=lambda spec: str(spec.seed),
)
def test_specs_whose_mixed_iterates_fail_admission_run(spec):
    # in each, a transport solve mixes an iterate at kappa 3e6 to 8e8 after
    # one at kappa <= 1.7e5: it factors, but its congruences fail SPD
    # admission, and the loop takes the plain step in its place
    report = run_suite(spec, "all")
    assert report.families == FAMILIES


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_metric_family_passes_at_condition_one(seed):
    # the first row of the stress tier: at condition_max 1.0 every draw is
    # the identity up to roundoff, so every distance is of near-equal inputs
    report = run_suite(EnsembleSpec(seed=seed, count=4, condition_max=1.0), ["metric"])
    assert report.all_passed, [r for r in report.records if not r.passed]


def test_bounds_instance_computes_one_report(monkeypatch):
    import spdmeans.barycenter as bc

    calls = []
    original = bc._bounds_report

    def counted(problem):
        calls.append(problem)
        return original(problem)

    monkeypatch.setattr(bc, "_bounds_report", counted)
    run_instance("bounds.problem", 12345, EnsembleSpec())
    assert len(calls) == 1


def test_invariance_instance_solves_its_seven_means_in_one_stack(monkeypatch):
    import spdmeans.spd_core as core

    calls, stacks = [], []
    original, real_stack = core._lockstep, core._jacobi_stack

    def counted(runs):
        calls.append(len(runs))
        return original(runs)

    def recorded(arrays):
        stacks.append(len(arrays))
        return real_stack(arrays)

    monkeypatch.setattr(core, "_lockstep", counted)
    monkeypatch.setattr(core, "_jacobi_stack", recorded)
    run_instance("invariance.problem", 12345, EnsembleSpec())
    # the instance is one run: one round admits its n drawn matrices, the
    # next the 3n scaled and rotated ones, and its seven means share the
    # third: six problems of n matrices and the repeated problem of 2n
    n = int(np.random.default_rng(12345).integers(2, 6))
    assert calls == [1]
    assert stacks[:3] == [n, 3 * n, 8 * n]


def test_every_array_reaching_admission_is_finite_and_exactly_symmetric(monkeypatch):
    # ``_admitted`` trusts the arrays the package builds: the suite's draws
    # are symmetrized where they are drawn, and every array derived from
    # admitted matrices is finite and exactly symmetric by construction
    import spdmeans
    import spdmeans.spd_core as core
    from spdmeans import lie_trotter as lt

    seen, real = [], core._admitted

    def recorded(arrays):
        arrays = list(arrays)
        seen.extend(arrays)
        return (yield from real(arrays))

    patched = set()
    for name, module in vars(spdmeans).items():
        if getattr(module, "_admitted", None) is real:
            monkeypatch.setattr(module, "_admitted", recorded)
            patched.add(name)
    assert patched == {"spd_core", "barycenter", "means_geometry", "lie_trotter", "problem_io"}
    run_suite(EnsembleSpec(seed=3, count=8))
    rng = np.random.default_rng(3)
    direction = SymMatrix(0.3 * rng.normal(size=(3, 3)))
    curves = (lt.CurveSpec.affine(direction), lt.CurveSpec.power(random_spd(3, 3)), lt.CurveSpec.exp_line(direction))
    lt.convergence_trace(WeightVector(np.array([0.2, 0.3, 0.5])), curves)
    assert seen
    for a in seen:
        assert np.isfinite(a).all() and a.tobytes() == a.T.tobytes()


TWO_MATRIX_STREAMS = (
    "metric.axioms",
    "metric.oracle",
    "metric.perturbation",
    "geomean.pair",
    "bounds.golden",
    "bounds.problem",
    "det.problem",
)


@pytest.mark.parametrize("stream_id", TWO_MATRIX_STREAMS)
def test_two_matrix_streams_make_no_lone_eigensolve(monkeypatch, stream_id):
    # a lone solve is a stack of one made by ``_jacobi`` outside the
    # rounds of ``_lockstep``; these streams admit, solve and compare only
    # through run steps, so every stack they solve is one of those rounds
    import spdmeans.spd_core as core

    lone, rounds = [], []
    real_lone, real_stack = core._jacobi, core._jacobi_stack

    def counted_lone(matrix):
        lone.append(matrix.shape)
        return real_lone(matrix)

    def counted_stack(arrays):
        rounds.append(len(arrays))
        return real_stack(arrays)

    monkeypatch.setattr(core, "_jacobi", counted_lone)
    monkeypatch.setattr(core, "_jacobi_stack", counted_stack)
    for seed in (1, 2, 3):
        run_instance(stream_id, derive_seed(seed, stream_id, 0), EnsembleSpec())
    assert rounds
    assert lone == []


def _every_instance(spec):
    return [
        (stream.stream_id, index, derive_seed(spec.seed, stream.stream_id, index))
        for stream in STREAMS
        for index in range(stream.count_of(spec.count))
    ]


def test_suite_batch_gives_the_records_of_one_instance_at_a_time(monkeypatch):
    import spdmeans.spd_core as core
    import spdmeans.suite as suite

    spec = EnsembleSpec(seed=3, count=10)
    calls = []
    original = core._lockstep

    def counted(runs):
        calls.append(len(runs))
        return original(runs)

    # the limit instance forks its traces and derivative check, so neither
    # the suite nor one instance starts a second driver: the suite calls its
    # own binding of the driver, and ``run_instance`` the one in ``spd_core``
    monkeypatch.setattr(core, "_lockstep", counted)
    monkeypatch.setattr(suite, "_lockstep", counted)
    report = run_suite(spec, "all")
    instances = _every_instance(spec)
    assert calls == [len(instances)]
    one_at_a_time = [
        record
        for stream_id, index, seed in instances
        for record in run_instance(stream_id, seed, spec, index)
    ]
    assert list(report.records) == one_at_a_time
    assert calls == [len(instances)] + [1] * len(instances)


def test_every_stream_run_is_a_generator():
    for stream in STREAMS:
        run = stream.run(np.random.default_rng(0), EnsembleSpec())
        assert inspect.isgenerator(run), stream.stream_id
        run.close()


def test_suite_raises_the_first_failing_instance_in_stream_order(monkeypatch):
    # det index 1 fails on its first step, bounds index 3 only after its
    # solve; bounds comes first in stream order, so its failure is raised
    spec = EnsembleSpec(seed=5, count=4)
    runs = {s.stream_id: s.run for s in STREAMS}
    started = {"bounds.problem": 0, "det.problem": 0}
    late = SolverError("failed after its solve")

    def bounds_run(rng, spec):
        started["bounds.problem"] += 1
        index = started["bounds.problem"] - 1
        checks = yield from runs["bounds.problem"](rng, spec)
        if index == 3:
            raise late
        return checks

    def det_run(rng, spec):
        started["det.problem"] += 1
        if started["det.problem"] == 2:
            raise EighConvergenceError(1.5e-3, 64)
        return runs["det.problem"](rng, spec)

    replaced = {"bounds.problem": bounds_run, "det.problem": det_run}
    streams = tuple(dataclasses.replace(s, run=replaced.get(s.stream_id, s.run)) for s in STREAMS)
    monkeypatch.setattr(suite, "STREAMS", streams)
    with pytest.raises(SolverError) as caught:
        run_suite(spec, ("bounds", "det"))
    seed = derive_seed(5, "bounds.problem", 3)
    assert str(caught.value) == (
        f"stream bounds.problem index 3 (instance seed {seed}): failed after its solve"
    )
    assert caught.value.__cause__ is late
    # every instance ran before the failure was raised
    assert started == {"bounds.problem": 4, "det.problem": 4}


def test_report_json_layout(small_report):
    doc = json.loads(small_report.to_json())
    assert doc["schema_version"] == 1
    assert doc["ensemble"]["seed"] == 11
    assert doc["families"] == list(FAMILIES)
    first = doc["checks"][0]
    assert set(first) == {"check_id", "stream", "index", "instance_seed", "passed", "witness"}
    assert doc["summary"]["total"] == len(doc["checks"])


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_mean_wasserstein(example_file, capsys):
    code, out, _ = run_cli(
        capsys, "mean", "--method", "wasserstein", "--input", str(example_file)
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "method: wasserstein"
    assert lines[1] == "converged: true"
    rows = [list(map(float, line.split())) for line in lines[-2:]]
    np.testing.assert_allclose(rows, np.array([[9, 12], [12, 20]]) / 4.0, atol=1e-8)


@pytest.mark.parametrize("method", ["karcher", "arithmetic", "harmonic"])
def test_cli_mean_other_methods(example_file, capsys, method):
    code, out, _ = run_cli(capsys, "mean", "--method", method, "--input", str(example_file))
    assert code == EXIT_OK
    assert out.startswith(f"method: {method}")


@pytest.mark.parametrize("method", ["wasserstein", "karcher"])
def test_cli_mean_history(example_file, capsys, method):
    argv = ("mean", "--method", method, "--input", str(example_file))
    code, plain, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, *argv, "--history")
    assert code == EXIT_OK
    lines = out.splitlines()
    iterations = int(lines[2].removeprefix("iterations: "))
    start = lines.index("residual_history:")
    assert lines[start - 1].startswith("residual: ")
    history = lines[start + 1 : start + iterations + 2]
    assert lines[start + iterations + 2] == "mean:"
    assert history[-1] == lines[start - 1].removeprefix("residual: ")
    assert all(float(r) > 0.0 for r in history)
    # without the flag the output is the same, less the history block
    assert lines[:start] + lines[start + iterations + 2 :] == plain.splitlines()


def test_cli_mean_nonconvergence_exit(example_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "mean",
        "--method",
        "wasserstein",
        "--input",
        str(example_file),
        "--tol",
        "1e-15",
        "--max-iter",
        "1",
    )
    assert code == EXIT_NO_CONVERGENCE
    assert "converged: false" in out


def test_cli_geodesic(example_file, capsys):
    code, out, _ = run_cli(capsys, "geodesic", "--input", str(example_file), "--t", "0.5")
    assert code == EXIT_OK
    rows = [list(map(float, line.split())) for line in out.strip().splitlines()]
    np.testing.assert_allclose(rows, np.array([[9, 12], [12, 20]]) / 4.0, atol=1e-10)


def test_cli_geodesic_bad_t(example_file, capsys):
    code, _, err = run_cli(capsys, "geodesic", "--input", str(example_file), "--t", "1.5")
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


def test_cli_distance_zero_for_repeated_matrix(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "weights": [0.5, 0.5],
        "matrices": [[[2.0, 1.0], [1.0, 2.0]], [[2.0, 1.0], [1.0, 2.0]]],
    }
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "distance", "--metric", "wasserstein", "--input", str(path))
    assert code == EXIT_OK
    assert float(out.strip()) == 0.0


def test_cli_distance_riemannian(example_file, capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--metric", "riemannian", "--input", str(example_file)
    )
    assert code == EXIT_OK
    assert float(out.strip()) > 0.0


def test_cli_distance_requires_two_matrices(tmp_path, capsys):
    doc = {"schema_version": 1, "weights": [1.0], "matrices": [[[1.0]]]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "distance", "--metric", "wasserstein", "--input", str(path))
    assert code == EXIT_INPUT_ERROR
    assert "exactly 2 matrices" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ((), "the following arguments are required: command"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
        (("mean", "--method", "bogus", "--input", "x"), "argument --method: invalid choice: 'bogus'"),
        (("verify", "--count", "abc"), "argument --count: invalid int value: 'abc'"),
        (("geodesic", "--input", "x"), "the following arguments are required: --t"),
    ],
)
def test_cli_usage_errors_exit_3(capsys, argv, message):
    # argparse's own exit code, 2, is the one for non-convergence here
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("usage: spdmeans")
    assert f"error: {message}" in err


@pytest.mark.parametrize("argv", [("--help",), ("mean", "--help"), ("verify", "-h")])
def test_cli_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: spdmeans")


def test_cli_input_errors(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "mean", "--method", "wasserstein", "--input", str(tmp_path / "missing.json")
    )
    assert code == EXIT_INPUT_ERROR
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, "mean", "--method", "wasserstein", "--input", str(bad))
    assert code == EXIT_INPUT_ERROR
    assert "malformed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("mean", "--method", "wasserstein", "--max-iter", "0"),
        ("mean", "--method", "karcher", "--tol", "-1"),
        ("mean", "--method", "wasserstein", "--tol", "nan"),
        ("mean", "--method", "wasserstein", "--tol", "inf"),
        ("verify", "--count", "-1"),
        ("verify", "--seed", "-1"),
        ("geodesic", "--t", "1.5"),
        ("geodesic", "--t", "nan"),
    ],
    ids=["max-iter", "tol", "tol-nan", "tol-inf", "count", "seed", "t", "t-nan"],
)
def test_cli_bad_flag_values_exit_3(example_file, capsys, argv):
    # the command raises the ValueError of the function it calls, and
    # ``main`` alone maps it to the exit code
    if argv[0] in ("mean", "geodesic"):
        argv = argv + ("--input", str(example_file))
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("mean", "--method", "wasserstein"),
        ("mean", "--method", "arithmetic"),
        ("bounds",),
        ("distance", "--metric", "wasserstein"),
    ],
    ids=["mean-wasserstein", "mean-arithmetic", "bounds", "distance-wasserstein"],
)
def test_cli_overflowing_entries_exit_3(tmp_path, capsys, argv):
    # finite entries whose symmetrization (M + M^T)/2 overflows
    path = tmp_path / "overflow.json"
    doc = {
        "schema_version": 1,
        "weights": [0.5, 0.5],
        "matrices": [[[1.7e308, 1e308], [1e308, 1.7e308]], [[2.0, 1.0], [1.0, 2.0]]],
    }
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == "error: matrix 0: symmetrization (M + M^T)/2 overflows\n"


BIG_INT = "1" + "0" * 400  # a JSON integer beyond the largest double


@pytest.mark.parametrize(
    "weights, entry, message",
    [
        (
            "0.5",
            BIG_INT,
            "error: matrix 0: not a numeric grid (int too large to convert to float)\n",
        ),
        (BIG_INT, "2", "error: bad weights: int too large to convert to float\n"),
    ],
    ids=["matrix-entry", "weight"],
)
def test_cli_integer_too_large_for_a_double_exits_3(tmp_path, capsys, weights, entry, message):
    path = tmp_path / "big.json"
    path.write_text(
        f'{{"schema_version": 1, "weights": [{weights}, 0.5],'
        f' "matrices": [[[{entry}, 0], [0, 1]], [[1, 0], [0, 1]]]}}'
    )
    code, out, err = run_cli(capsys, "mean", "--method", "arithmetic", "--input", str(path))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == message


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"schema_version": 1, "weights": [0.5, 0.5], "matrices": [[["2"]], [[1]]]}',
            "error: matrix 0: not a numeric grid ('2' is not a number)\n",
        ),
        (
            '{"schema_version": 1, "weights": [true, 0.5], "matrices": [[[2]], [[1]]]}',
            "error: bad weights: True is not a number\n",
        ),
        (
            '{"schema_version": true, "weights": [0.5, 0.5], "matrices": [[[2]], [[1]]]}',
            "error: unsupported schema_version True, expected 1\n",
        ),
    ],
    ids=["quoted-entry", "boolean-weight", "boolean-version"],
)
def test_cli_quoted_numbers_and_booleans_exit_3(tmp_path, capsys, text, message):
    path = tmp_path / "strings.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "mean", "--method", "arithmetic", "--input", str(path))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == message


def test_cli_verify_unwritable_out_exits_3(tmp_path, capsys):
    out_path = tmp_path / "no_such_dir" / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--suite", "metric", "--count", "0", "--out", str(out_path)
    )
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_cli_bounds(example_file, capsys):
    code, out, _ = run_cli(capsys, "bounds", "--input", str(example_file))
    assert code == EXIT_OK
    assert "lower_lie_trotter:" in out
    assert "upper_inverse: absent" in out
    assert "VIOLATED" not in out


def test_cli_lie_trotter(example_file, capsys):
    code, out, _ = run_cli(
        capsys, "lie-trotter", "--input", str(example_file), "--schedule", "dyadic:4"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert "s error_pos error_neg" in lines
    table = [line.split() for line in lines[lines.index("s error_pos error_neg") + 1 :]]
    assert len(table) == 4
    errors = [float(row[1]) for row in table]
    assert errors == sorted(errors, reverse=True)


def test_cli_lie_trotter_bad_schedule(example_file, capsys):
    for schedule in ("linear:4", "dyadic:1100"):
        code, _, err = run_cli(
            capsys, "lie-trotter", "--input", str(example_file), "--schedule", schedule
        )
        assert code == EXIT_INPUT_ERROR
        assert "dyadic" in err


def test_cli_lie_trotter_overflow_points_fail(example_file):
    # from about 2^-62 on, the power 1/s of the mean overflows or underflows
    root = pathlib.Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "spdmeans.cli", "lie-trotter", "--input", str(example_file),
         "--schedule", "dyadic:80"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )
    assert done.returncode == EXIT_NO_CONVERGENCE
    assert "Traceback" not in done.stderr
    assert "Warning" not in done.stderr
    rows = done.stdout.splitlines()[-80:]
    assert rows[0].split()[1:] != ["failed", "failed"]
    assert rows[-1].split()[1:] == ["failed", "failed"]


NEAR_SINGULAR_TRIPLE = {
    "schema_version": 1,
    "weights": [0.3, 0.3, 0.4],
    "matrices": [
        [[1, 0.999999, 0], [0.999999, 1, 0], [0, 0, 1]],
        [[1e-11, 0, 0], [0, 1, 0], [0, 0, 1e-11]],
        [[1, 0, 0], [0, 1e-11, 0], [0, 0, 1]],
    ],
}
NEAR_SINGULAR_PAIR = {
    "schema_version": 1,
    "weights": [0.5, 0.5],
    "matrices": [[[1, 0], [0, 2e-12]], [[2e-12, 0], [0, 1]]],
}


def _scaled_pair(scale: float) -> dict:
    """The regular 3x3 pair [[2,1,0],[1,2,0],[0,0,1]], diag(2,3,2) times scale;
    at 1e154 or more its unscaled congruences X A X^T overflow, and at 1e-170
    they underflow."""
    pair = ([[2, 1, 0], [1, 2, 0], [0, 0, 1]], [[2, 0, 0], [0, 3, 0], [0, 0, 2]])
    return {
        "schema_version": 1,
        "weights": [0.5, 0.5],
        "matrices": [[[scale * v for v in row] for row in m] for m in pair],
    }


@pytest.mark.parametrize(
    "doc, argv",
    [
        (NEAR_SINGULAR_TRIPLE, ["mean", "--method", "wasserstein"]),
        (NEAR_SINGULAR_TRIPLE, ["mean", "--method", "karcher"]),
        (NEAR_SINGULAR_TRIPLE, ["bounds"]),
        (NEAR_SINGULAR_PAIR, ["distance", "--metric", "riemannian"]),
    ],
    ids=["mean-wasserstein", "mean-karcher", "bounds", "distance-riemannian"],
)
def test_cli_numerical_failure_exits_2(tmp_path, doc, argv):
    # every input passes admission, but an intermediate congruence is not SPD
    path = tmp_path / "near_singular.json"
    path.write_text(json.dumps(doc))
    root = pathlib.Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "spdmeans.cli", *argv, "--input", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )
    assert done.returncode == EXIT_NO_CONVERGENCE
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "argv", [("mean", "--method", "harmonic"), ("bounds",)], ids=["mean-harmonic", "bounds"]
)
def test_cli_spectral_overflow_exits_2(tmp_path, capsys, argv):
    # a valid pair at subnormal scale, whose inverses overflow
    path = tmp_path / "tiny.json"
    doc = {
        "schema_version": 1,
        "weights": [0.5, 0.5],
        "matrices": [[[1e-309, 0], [0, 2e-309]], [[2e-309, 0], [0, 1e-309]]],
    }
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == EXIT_NO_CONVERGENCE
    assert out == ""
    assert err == "error: inverse overflows on spectrum [1.000000e-309, 2.000000e-309]\n"


EXTREME_SCALES = (1e154, 1e-170, 1e200)
GEODESIC = ["geodesic", "--t", "0.5"]
DISTANCE = ["distance", "--metric", "wasserstein"]


@pytest.mark.parametrize(
    "argv, scale, degree",
    [
        (["mean", "--method", "wasserstein"], 1e154, 1.0),
        (["mean", "--method", "wasserstein"], 1e-170, 1.0),
        (["bounds"], 1e200, 1.0),
        *((GEODESIC, scale, 1.0) for scale in EXTREME_SCALES),
        *((DISTANCE, scale, 0.5) for scale in EXTREME_SCALES),
    ],
    ids=[
        "mean-wasserstein-1e154",
        "mean-wasserstein-1e-170",
        "bounds-1e200",
        *(f"geodesic-{scale:g}".replace("+", "") for scale in EXTREME_SCALES),
        *(f"distance-wasserstein-{scale:g}".replace("+", "") for scale in EXTREME_SCALES),
    ],
)
def test_cli_transport_mean_is_homogeneous_at_extreme_scales(
    tmp_path, capsys, argv, scale, degree
):
    # unscaled, these congruences overflow or underflow; the means, geodesic
    # and distance form them scaled by a power of four and scale the result
    # back (a mean or geodesic point is homogeneous of degree 1 in the pair,
    # the distance of degree 1/2)
    path = tmp_path / "pair.json"

    def solved(doc):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert code == EXIT_OK, err
        lines = out.splitlines()
        starts = [i + 1 for i, line in enumerate(lines) if line.endswith("mean:")]
        start = starts[0] if starts else 0
        return np.array([[float(v) for v in line.split()] for line in lines[start : start + 3]])

    base = solved(_scaled_pair(1.0))
    scaled = solved(_scaled_pair(scale))
    assert np.abs(scaled / scale**degree - base).max() <= 1e-12 * np.abs(base).max()


def test_cli_verify_small(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        "verify",
        "--suite",
        "metric",
        "--seed",
        "5",
        "--count",
        "8",
        "--out",
        str(out_path),
    )
    assert code == EXIT_OK
    assert out == ""
    assert err.startswith("PASS")
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["failures"] == 0


def test_python_dash_m_runs_the_cli():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "spdmeans", "verify", "--suite", "metric", "--count", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stderr.startswith("PASS: 7/7 checks passed")


def test_cli_verify_stdout_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "geomean", "--seed", "3", "--count", "4")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "geomean", "--seed", "3", "--count", "4")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_cli_verify_failure_exit(monkeypatch, capsys):
    failing = SuiteReport(
        spec=EnsembleSpec(count=1),
        families=("metric",),
        records=(
            CheckRecord(
                check_id="metric.symmetry",
                stream="metric.axioms",
                index=0,
                instance_seed=1,
                passed=False,
                witness={"diff": 1.0},
            ),
        ),
    )
    import spdmeans.cli as cli_module

    monkeypatch.setattr(cli_module, "run_suite", lambda spec, fam: failing)
    code, out, err = run_cli(capsys, "verify", "--suite", "metric")
    assert code == EXIT_CHECK_FAILURES
    assert err.startswith("FAIL")


def test_cli_verify_error_names_its_instance(monkeypatch, capsys):
    stream = next(s for s in STREAMS if s.stream_id == "det.problem")
    calls = []

    def failing_run(rng, spec):
        calls.append(None)
        if len(calls) == 2:
            raise EighConvergenceError(1.5e-3, 64)
        return stream.run(rng, spec)

    streams = tuple(
        dataclasses.replace(s, run=failing_run) if s is stream else s for s in STREAMS
    )
    monkeypatch.setattr(suite, "STREAMS", streams)
    code, out, err = run_cli(capsys, "verify", "--suite", "det", "--seed", "5", "--count", "3")
    seed = derive_seed(5, "det.problem", 1)
    assert code == EXIT_NO_CONVERGENCE
    assert out == ""
    assert err == (
        f"error: stream det.problem index 1 (instance seed {seed}): "
        "eigensolver did not converge after 64 sweeps (off-diagonal residual 1.500e-03)\n"
    )
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# walkthrough scripts


@pytest.mark.parametrize("script", ["two_matrix_example.py", "lie_trotter_trace.py"])
def test_script_runs(script):
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "VIOLATED" not in done.stdout


def _solver_work(*args):
    root = pathlib.Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "solver_work.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_solver_work_counts_a_tiny_pass_and_repeats_them_exactly():
    # the first three requests of solve_conditioned: one shape at each kappa
    counts = _solver_work("--workload", "solve_conditioned", "--seed", "3", "--items", "3")
    assert counts == _solver_work("--workload", "solve_conditioned", "--seed", "3", "--items", "3")
    assert counts["items"] == 3
    for kappa in ("k1e2", "k1e4", "k1e6"):
        assert counts[f"solves.transport.{kappa}"] == 1
        assert counts[f"iterations.transport.{kappa}"] >= 1
    jacobi = [counts[f"jacobi.{name}"] for name in ("stacks", "slices", "active_rounds", "planes")]
    assert 0 < jacobi[0] <= jacobi[1] and 0 < jacobi[2] <= jacobi[3]
    # the transport loop carries Cholesky factors and recomposes no spectrum
    assert "spectral.recompositions" not in counts
    # a limit item solves many means of a few iterations each, and its curve
    # points are spectral functions
    limit = _solver_work("--workload", "limit_trace", "--seed", "3", "--items", "1")
    assert limit["solves.transport"] > 10
    assert 0 < limit["iterations.transport"] <= 5 * limit["solves.transport"]
    assert limit["spectral.recompositions"] > 0
