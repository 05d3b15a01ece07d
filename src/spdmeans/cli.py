"""Command line interface.

Subcommands: ``mean``, ``geodesic``, ``distance``, ``bounds``, ``lie-trotter``
and ``verify``.  Exit codes: 0 success, 1 verification failures, 2 solver
non-convergence or a numerical failure (``SolverError`` or
``LinearAlgebraError``), 3 a usage error or a ValueError (``ProblemFileError``
too); ``main`` alone maps errors to codes.  Matrix output uses 17 significant
digits so printed values round-trip exactly; identical invocations produce
byte identical output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import barycenter as bc
from . import lie_trotter as lt
from . import means_geometry as mg
from .problem_io import ProblemFileError, format_float, parse_problem
from .spd_core import LinearAlgebraError, SpdMatrix, SymMatrix
from .suite import FAMILIES, EnsembleSpec, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INPUT_ERROR = 3


def _matrix_lines(m: SymMatrix | np.ndarray, indent: str = "") -> list[str]:
    arr = m.entries if isinstance(m, SymMatrix) else np.asarray(m)
    return [indent + " ".join(format_float(v) for v in row) for row in arr]


def _load_problem(path: str) -> bc.MeanProblem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    return parse_problem(text)


def _load_pair(path: str) -> tuple[SpdMatrix, SpdMatrix]:
    problem = _load_problem(path)
    if problem.n != 2:
        raise ProblemFileError(f"{path}: exactly 2 matrices required, found {problem.n}")
    return problem.matrices[0], problem.matrices[1]


def _cmd_mean(args) -> int:
    problem = _load_problem(args.input)
    lines = [f"method: {args.method}"]
    if args.method in ("arithmetic", "harmonic"):
        mean = (bc.arithmetic_mean if args.method == "arithmetic" else bc.harmonic_mean)(problem)
        lines.append("mean:")
        lines.extend(_matrix_lines(mean))
        print("\n".join(lines))
        return EXIT_OK
    initial = "arithmetic_mean" if args.init == "arith" else "identity"
    cfg = bc.SolverConfig(rel_tol=args.tol, max_iter=args.max_iter, initial=initial)
    solve = bc.wasserstein_mean if args.method == "wasserstein" else bc.karcher_mean
    result = solve(problem, cfg)
    lines.append(f"converged: {'true' if result.converged else 'false'}")
    lines.append(f"iterations: {result.iterations}")
    lines.append(f"residual: {format_float(result.residual)}")
    if args.history:
        lines.append("residual_history:")
        lines.extend(format_float(r) for r in result.residual_history)
    lines.append("mean:")
    lines.extend(_matrix_lines(result.mean))
    print("\n".join(lines))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_geodesic(args) -> int:
    a, b = _load_pair(args.input)
    point = mg.wasserstein_geodesic(a, b, args.t)
    print("\n".join(_matrix_lines(point)))
    return EXIT_OK


def _cmd_distance(args) -> int:
    a, b = _load_pair(args.input)
    fn = mg.wasserstein_distance if args.metric == "wasserstein" else mg.riemannian_distance
    print(format_float(fn(a, b)))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    problem = _load_problem(args.input)
    result = bc.wasserstein_mean(problem)
    report = bc.bounds_report(problem)
    lines = ["wasserstein_mean:"]
    lines.extend(_matrix_lines(result.mean, "  "))
    lines.append("lower_lie_trotter:")
    lines.extend(_matrix_lines(report.lower_lie_trotter, "  "))
    lines.append("upper_arithmetic:")
    lines.extend(_matrix_lines(report.upper_arithmetic, "  "))
    if report.upper_inverse is not None:
        lines.append("upper_inverse:")
        lines.extend(_matrix_lines(report.upper_inverse, "  "))
    else:
        lines.append("upper_inverse: absent (weighted arithmetic mean not below 2I)")
    lines.append(f"opnorm_bound: {format_float(report.opnorm_bound)}")
    lines.append("verdicts:")
    all_hold = result.converged
    for item in bc.check_bounds(problem, report, result.mean):
        lines.append(
            f"  {item.check_id}: {'holds' if item.holds else 'VIOLATED'}"
            f" (witness {format_float(item.witness)})"
        )
        all_hold = all_hold and item.holds
    print("\n".join(lines))
    if not result.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if all_hold else EXIT_CHECK_FAILURES


def _parse_schedule(text: str) -> tuple[float, ...]:
    kind, _, depth = text.partition(":")
    try:
        if kind == "dyadic" and depth.isdigit():
            return lt.dyadic_schedule(int(depth))
    except ValueError as exc:
        raise ProblemFileError(f"unsupported schedule {text!r}: {exc}") from exc
    raise ProblemFileError(f"unsupported schedule {text!r}; expected dyadic:K")


def _cmd_lie_trotter(args) -> int:
    problem = _load_problem(args.input)
    schedule = _parse_schedule(args.schedule)
    curves = tuple(lt.CurveSpec.power(a) for a in problem.matrices)
    pos = lt.convergence_trace(problem.weights, curves, schedule)
    neg = lt.convergence_trace(problem.weights, curves, schedule, negate=True)
    lines = ["target:"]
    lines.extend(_matrix_lines(pos.target, "  "))
    lines.append("s error_pos error_neg")
    err_pos = dict(zip(pos.s_values, pos.errors))
    err_neg = dict(zip(neg.s_values, neg.errors))
    for s in schedule:
        ep = format_float(err_pos[s]) if s in err_pos else "failed"
        en = format_float(err_neg[s]) if s in err_neg else "failed"
        lines.append(f"{format_float(s)} {ep} {en}")
    print("\n".join(lines))
    if pos.failed_s or neg.failed_s:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = EnsembleSpec(seed=args.seed, count=args.count)
    report = run_suite(spec, args.suite)
    text = report.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ProblemFileError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    print(report.summary_line(), file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURES


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit EXIT_INPUT_ERROR with
    argparse's message; argparse exits 2, which here means non-convergence."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spdmeans",
        description="Means of SPD matrices under the optimal-transport geometry, "
        "with a machine-checked verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="compute a mean of the matrices in a problem file")
    p_mean.add_argument(
        "--method",
        required=True,
        choices=("wasserstein", "karcher", "arithmetic", "harmonic"),
    )
    p_mean.add_argument("--input", required=True)
    p_mean.add_argument("--tol", type=float, default=1e-12)
    p_mean.add_argument("--max-iter", type=int, default=500)
    p_mean.add_argument("--init", choices=("arith", "identity"), default="arith")
    p_mean.add_argument(
        "--history",
        action="store_true",
        help="also print the residual after each iteration (wasserstein, karcher)",
    )
    p_mean.set_defaults(fn=_cmd_mean)

    p_geo = sub.add_parser("geodesic", help="point on the transport geodesic of a 2-matrix file")
    p_geo.add_argument("--input", required=True)
    p_geo.add_argument("--t", type=float, required=True)
    p_geo.set_defaults(fn=_cmd_geodesic)

    p_dist = sub.add_parser("distance", help="distance between the 2 matrices of a file")
    p_dist.add_argument("--metric", required=True, choices=("wasserstein", "riemannian"))
    p_dist.add_argument("--input", required=True)
    p_dist.set_defaults(fn=_cmd_distance)

    p_bounds = sub.add_parser("bounds", help="bound report and Loewner verdicts for a problem file")
    p_bounds.add_argument("--input", required=True)
    p_bounds.set_defaults(fn=_cmd_bounds)

    p_lt = sub.add_parser(
        "lie-trotter", help="limit trace for the power curves of the matrices in a file"
    )
    p_lt.add_argument("--input", required=True)
    p_lt.add_argument("--schedule", default="dyadic:10")
    p_lt.set_defaults(fn=_cmd_lie_trotter)

    p_verify = sub.add_parser("verify", help="run the seeded verification suite")
    p_verify.add_argument("--suite", default="all", choices=FAMILIES + ("all",))
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--count", type=int, default=200)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # a ProblemFileError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (bc.SolverError, LinearAlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
