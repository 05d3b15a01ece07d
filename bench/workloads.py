"""The three benchmark workloads.

Each workload is built from the imported package and the workload seed.  Its
``items`` are one pass over fixed inputs; ``run(item)`` is the timed call and
``check(item, output)`` the untimed correctness check, which returns None or
a reason for failure.  All calls go through module attributes at call time,
so a tracer that replaces those attributes sees them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Condition numbers cycled by solve_conditioned, and the residual each mean
# must meet when LAPACK recomputes it.  The solver certifies 1e-12 in its own
# Jacobi arithmetic; over 504 requests the recomputed residual peaked at
# 9.9e-13 for kappa <= 1e4 and 6.9e-12 at kappa = 1e6.
KAPPAS = (1e2, 1e4, 1e6)
ORACLE_TOL = {1e2: 5e-12, 1e4: 5e-12, 1e6: 5e-11}

DEFAULT_DIMS = range(2, 9)
DEFAULT_NS = range(2, 6)
# Iteration counts at kappa 1e6 are heavy-tailed, so the latency percentiles
# of solve_conditioned move with the seed; two draws of every shape damp that.
SOLVE_DRAWS_PER_SHAPE = 2
LIMIT_DIMS = range(2, 7)
LIMIT_NS = range(2, 5)
LIMIT_DEPTH = 10
# The cost of a limit item moves with the matrices drawn (Jacobi sweeps), so
# two draws of every shape damp that variation from seed to seed.
LIMIT_DRAWS_PER_SHAPE = 2

# Each verify pass runs two ensembles of VERIFY_COUNT: the benchmark seed's,
# and the reference seed 42 that the project's own timings use.  The cost of
# one ensemble varies by about +-15% from seed to seed (a few large
# invariance instances dominate), reproducibly; the reference half keeps that
# variation out of half of the work.  A pass of two calls at 40 lasts
# 19-45 s of wall clock; smaller counts spread more from run to run.
VERIFY_COUNT = 40
REFERENCE_SEED = 42


class VerifyDefault:
    """``spdmeans verify --suite all`` on the default ensemble, in-process."""

    def __init__(self, sp, seed: int, out_dir: Path) -> None:
        self.sp = sp
        self.items = [
            ["verify", "--suite", "all", "--seed", str(s), "--count", str(VERIFY_COUNT),
             "--out", str(out_dir / f"verify-report-{s}.json")]
            for s in (seed, REFERENCE_SEED)
        ]
        self.report_sha256: dict[str, str] = {}

    def run(self, item):
        return self.sp.cli.main(item)

    def check(self, item, exit_code):
        if exit_code != 0:
            return f"verify exited with {exit_code}"
        data = Path(item[-1]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.report_sha256.setdefault(item[4], digest) != digest:
            return f"verify report bytes differ between calls with seed {item[4]}"
        summary = json.loads(data)["summary"]
        if summary["failures"] != 0 or summary["passes"] != summary["total"]:
            return f"{summary['failures']} of {summary['total']} checks failed"
        return None


def _oracle_sqrt(m: np.ndarray) -> np.ndarray:
    lam, q = np.linalg.eigh((m + m.T) / 2.0)
    return (q * np.sqrt(lam)) @ q.T


def oracle_residual(matrices, weights, x: np.ndarray) -> float:
    """Relative residual of X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2} with
    LAPACK square roots."""
    sqrt_x = _oracle_sqrt(x)
    acc = np.zeros_like(x)
    for w, a in zip(weights, matrices):
        acc += w * _oracle_sqrt(sqrt_x @ a @ sqrt_x)
    return float(np.linalg.norm(x - acc) / np.linalg.norm(x))


class SolveConditioned:
    """Problem text in, mean text out: parse, solve with the default solver
    configuration, serialize.  Every (dim, n) pair of the default ranges is
    drawn SOLVE_DRAWS_PER_SHAPE times at each condition number, in a seeded
    order, with the condition number cycling from one request to the next."""

    def __init__(self, sp, seed: int, out_dir: Path) -> None:
        self.sp = sp
        pio, bc = sp.problem_io, sp.barycenter
        rng = np.random.default_rng(seed)
        shapes = [(d, n) for d in DEFAULT_DIMS for n in DEFAULT_NS] * SOLVE_DRAWS_PER_SHAPE
        self.items = []
        for idx in rng.permutation(len(shapes)):
            d, n = shapes[idx]
            for kappa in KAPPAS:
                mats = tuple(pio.spd_from_rng(rng, d, kappa) for _ in range(n))
                weights = bc.WeightVector(rng.uniform(0.2, 1.0, size=n))
                self.items.append((kappa, pio.serialize_problem(bc.MeanProblem(mats, weights))))

    def run(self, item):
        sp = self.sp
        problem = sp.problem_io.parse_problem(item[1])
        result = sp.barycenter.wasserstein_mean(problem)
        mean_problem = sp.barycenter.MeanProblem((result.mean,), sp.barycenter.WeightVector.uniform(1))
        return problem, result, sp.problem_io.serialize_problem(mean_problem)

    def check(self, item, output):
        problem, result, text = output
        if not result.converged:
            return f"solver did not converge (residual {result.residual:.3e})"
        mean = result.mean.entries
        echoed = self.sp.problem_io.parse_problem(text).matrices[0].entries
        if not np.array_equal(echoed, mean):
            return "serialized mean does not parse back to the same matrix"
        res = oracle_residual([a.entries for a in problem.matrices], problem.weights.values, mean)
        if not res <= ORACLE_TOL[item[0]]:
            return f"oracle residual {res:.3e} above {ORACLE_TOL[item[0]]:.0e} at kappa {item[0]:.0e}"
        return None


class LimitTrace:
    """One limit instance per item: limit traces at +s and -s on a dyadic
    schedule, then the finite-difference derivative check at the identity.
    Every (dim, n) pair of the limit ranges is drawn LIMIT_DRAWS_PER_SHAPE
    times, in a seeded order.  Curve kinds rotate through power, affine and
    exp_line from a start fixed by the shape, so a pass holds the same kinds
    on every seed."""

    def __init__(self, sp, seed: int, out_dir: Path) -> None:
        self.sp = sp
        lt, core = sp.lie_trotter, sp.spd_core
        rng = np.random.default_rng(seed)
        shapes = [(d, n) for d in LIMIT_DIMS for n in LIMIT_NS] * LIMIT_DRAWS_PER_SHAPE
        self.schedule = lt.dyadic_schedule(LIMIT_DEPTH)
        self.items = []
        for idx in rng.permutation(len(shapes)):
            d, n = shapes[idx]
            curves = []
            for j in range(n):
                g = rng.normal(size=(d, d))
                sym = core.SymMatrix((g + g.T) / 2.0)
                radius = float(rng.uniform(0.25, 0.6)) / core.operator_norm(sym)
                direction = core.SymMatrix(sym.entries * radius)
                kind = lt.CURVE_KINDS[(d + n + j) % len(lt.CURVE_KINDS)]
                if kind == "power":
                    curves.append(lt.CurveSpec.power(core.apply_spectral(direction, "exp_of_sym")))
                elif kind == "affine":
                    curves.append(lt.CurveSpec.affine(direction))
                else:
                    curves.append(lt.CurveSpec.exp_line(direction))
            weights = sp.barycenter.WeightVector(rng.uniform(0.2, 1.0, size=n))
            self.items.append((weights, tuple(curves)))

    def run(self, item):
        lt = self.sp.lie_trotter
        weights, curves = item
        pos = lt.convergence_trace(weights, curves, self.schedule)
        neg = lt.convergence_trace(weights, curves, self.schedule, negate=True)
        deriv = lt.derivative_at_identity_check(weights, tuple(c.derivative_at_zero for c in curves))
        return pos, neg, deriv

    def check(self, item, output):
        for trace in output[:2]:
            side = "-s" if trace.negated else "+s"
            if trace.failed_s or len(trace.errors) != LIMIT_DEPTH:
                return f"{len(trace.failed_s)} failed schedule points at {side}"
            if not trace.errors[-1] <= 1e-2 * trace.errors[0]:
                return f"final error {trace.errors[-1]:.3e} not below 1e-2 x first at {side}"
        return None


WORKLOADS = {
    "verify_default": VerifyDefault,
    "solve_conditioned": SolveConditioned,
    "limit_trace": LimitTrace,
}
