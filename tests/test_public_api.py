"""The public API as ``help()`` and ``inspect`` show it, and a guard on where
the run driver may be called."""

import ast
import inspect
import pathlib

import pytest

import spdmeans

SRC = pathlib.Path(spdmeans.__file__).resolve().parent

# Parameters (names, kinds, defaults) and return annotation of every callable
# in ``spdmeans.__all__``, or None where ``inspect`` finds no signature.
# Public functions are derived from their run steps, which must not change
# what a caller sees.
SIGNATURES = {
    "BoundCheck": "(check_id, holds, witness) -> None",
    "BoundsReport": "(lower_lie_trotter, upper_arithmetic, upper_inverse, opnorm_bound) -> None",
    "CheckRecord": "(check_id, stream, index, instance_seed, passed, witness) -> None",
    "CurveSpec": "(kind, generator, derivative_at_zero) -> None",
    "DerivativeCheckReport": "(errors_pos, errors_neg) -> None",
    "DetInequalityReport": "(det_mean, det_geo_product, log_det_geo_product, holds) -> None",
    "DistanceBoundReport": "(lhs, rhs, lambda1) -> None",
    "EigenDecomposition": "(q, lam) -> None",
    "EighConvergenceError": "(off_diagonal, sweeps)",
    "EnsembleSpec": "(seed=42, count=200, n_range=(2, 5), dim_range=(2, 8), condition_max=100.0) -> None",
    "LieTrotterTrace": "(s_values, errors, target, negated=False, failed_s=()) -> None",
    "LinearAlgebraError": None,
    "LoewnerComparison": "(holds, witness) -> None",
    "MeanProblem": "(matrices, weights) -> None",
    "NotPositiveDefiniteError": "(lambda_min, lambda_max)",
    "NumericalBreakdownError": None,
    "ProblemFileError": None,
    "SolverConfig": "(rel_tol=1e-12, max_iter=500, initial='arithmetic_mean') -> None",
    "SolverError": None,
    "SolverResult": "(mean, iterations, residual, converged, residual_history) -> None",
    "SpdMatrix": "(entries) -> None",
    "SpectralDomainError": None,
    "SuiteReport": "(spec, families, records) -> None",
    "SymMatrix": "(entries) -> None",
    "WeightVector": "(values) -> None",
    "apply_spectral": "(a, f, p=None) -> SymMatrix | SpdMatrix",
    "arithmetic_mean": "(p) -> SpdMatrix",
    "bounds_report": "(p) -> BoundsReport",
    "check_bounds": "(p, report, mean) -> tuple[BoundCheck, ...]",
    "congruence": "(x, a) -> np.ndarray",
    "convergence_trace": "(w, curves, s_schedule=None, negate=False) -> LieTrotterTrace",
    "derivative_at_identity_check": "(w, directions, t_schedule=None) -> DerivativeCheckReport",
    "det_inequality_check": "(p, mean) -> DetInequalityReport",
    "determinant": "(a) -> float",
    "dyadic_schedule": "(depth) -> tuple[float, ...]",
    "eigh": "(a) -> EigenDecomposition",
    "equivalent_equation_residual": "(x, p) -> float",
    "evaluate_curve": "(c, s) -> SpdMatrix",
    "frobenius_norm": "(a) -> float",
    "geodesic_perturbation_bound": "(a, b, c, t) -> DistanceBoundReport",
    "geometric_mean": "(a, b, t=0.5) -> SpdMatrix",
    "harmonic_mean": "(p) -> SpdMatrix",
    "identity": "(dim) -> SpdMatrix",
    "karcher_mean": "(p, cfg=None) -> SolverResult",
    "lie_trotter_target": "(w, curves) -> SpdMatrix",
    "lie_trotter_value": "(w, curves, s) -> SpdMatrix",
    "loewner_geq": "(a, b, rel_tol=0.0) -> LoewnerComparison",
    "operator_norm": "(a) -> float",
    "parse_problem": "(text) -> MeanProblem",
    "random_spd": "(seed, dim, condition_max=100.0) -> SpdMatrix",
    "residual": "(x, p) -> float",
    "riemannian_distance": "(a, b) -> float",
    "run_instance": "(stream_id, instance_seed, spec, index=-1) -> list[CheckRecord]",
    "run_suite": "(spec, families='all') -> SuiteReport",
    "serialize_problem": "(p) -> str",
    "trace": "(a) -> float",
    "wasserstein_distance": "(a, b) -> float",
    "wasserstein_distance_oracle_2x2": "(a, b) -> float",
    "wasserstein_geodesic": "(a, b, t) -> SpdMatrix",
    "wasserstein_mean": "(p, cfg=None) -> SolverResult",
}


def _shape(obj) -> str | None:
    """The signature without parameter annotations, as ``str`` renders it
    (names, kind markers, default reprs), and the return annotation."""
    try:
        sig = inspect.signature(obj)
    except ValueError:
        return None
    bare = sig.replace(
        parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
        return_annotation=inspect.Signature.empty,
    )
    returns = sig.return_annotation
    return str(bare) if returns is inspect.Signature.empty else f"{bare} -> {returns}"


def test_the_table_covers_every_exported_callable():
    exported = sorted(name for name in spdmeans.__all__ if callable(getattr(spdmeans, name)))
    assert exported == sorted(SIGNATURES)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_public_callable_keeps_its_name_signature_and_docstring(name):
    obj = getattr(spdmeans, name)
    assert obj.__name__ == name
    assert _shape(obj) == SIGNATURES[name]
    assert (obj.__doc__ or "").strip()
    returns = str(_shape(obj)).partition(" -> ")[2]
    assert "Generator" not in returns and "Run[" not in returns


def _uses(path: pathlib.Path, names: set[str]) -> list[tuple[str, ast.AST, tuple[ast.AST, ...]]]:
    """Each read of one of ``names`` in a module, by name or as an
    attribute: the outermost function around it, or "<module>" for a read
    outside every function, the node that reads it and its ancestors,
    innermost last."""
    uses = []

    def visit(node, outer, parents):
        parents = (*parents, node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, outer or getattr(child, "name", "<lambda>"), parents)
                continue
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name in names:
                uses.append((outer or "<module>", child, parents))
            visit(child, outer, parents)

    visit(ast.parse(path.read_text()), None, ())
    return uses


def _lockstep_callers(path: pathlib.Path) -> list[str]:
    """The outermost function around each call of ``_lockstep`` in a module,
    or "<module>" for a call outside every function."""
    return [
        outer
        for outer, node, parents in _uses(path, {"_lockstep"})
        if isinstance(parents[-1], ast.Call) and parents[-1].func is node
    ]


def test_only_the_helper_the_suite_and_the_parser_drive_runs():
    # a public solver is its run step under ``spd_core._public``; a
    # hand-written batch of one would call the driver itself
    calls = {
        f"{path.stem}.{caller}"
        for path in sorted(SRC.glob("*.py"))
        for caller in _lockstep_callers(path)
    }
    assert calls == {"spd_core._public", "suite.run_suite", "problem_io.parse_problem"}


def test_stacked_kernels_are_called_by_the_lone_solve_and_otherwise_requested():
    # a run hands a kernel to ``_lockstep`` as the request (kernel, stack);
    # only the lone Jacobi solve calls one by name, and the driver tells
    # Jacobi, the barrier of its rounds, from the others by identity
    kernels = {"_jacobi_stack", "_cholesky_stack", "_chord_roots"}
    uses = {"call": set(), "request": set(), "identity": set(), "other": set()}
    for path in sorted(SRC.glob("*.py")):
        for outer, node, (*_, grandparent, parent) in _uses(path, kernels):
            if isinstance(parent, ast.Call) and parent.func is node:
                kind = "call"
            elif isinstance(grandparent, ast.Yield) and isinstance(parent, ast.Tuple) and parent.elts[0] is node:
                kind = "request" if len(parent.elts) == 2 else "other"
            elif isinstance(parent, ast.Compare) and all(isinstance(op, (ast.Is, ast.IsNot)) for op in parent.ops):
                kind = "identity"
            else:
                kind = "other"
            uses[kind].add(f"{path.stem}.{outer}")
    assert uses == {
        "call": {"spd_core._jacobi"},
        "request": {"spd_core._spectra", "spd_core._cholesky", "barycenter.warm"},
        "identity": {"spd_core._lockstep"},
        "other": set(),
    }
