"""Span tracing of the spdmeans package from outside its source.

The package binds names with ``from .spd_core import ...``, so one wrapper is
installed into every ``spdmeans.*`` module namespace that holds the original
function.  Constructors are wrapped on the classes themselves.  Spans
(name, start, end, parent, extra) are kept in flat in-memory lists; self times
are computed from them after the traced pass, and the spans are written out
as a gzipped CSV at exit.

An eigensolve is counted as either an ``SpdMatrix`` built without a known
decomposition or ``eigh`` called on input that is not an ``SpdMatrix``; these
are the only two public entry points of the Jacobi solver.
"""

from __future__ import annotations

import dataclasses
import gzip
import math
import sys
import time
from pathlib import Path

import numpy as np

DIMS = range(2, 9)
KAPPA_BUCKETS = ("k1e2", "k1e4", "k1e6")
STREAM_IDS = (
    "metric.axioms",
    "metric.oracle",
    "metric.perturbation",
    "geomean.pair",
    "bounds.golden",
    "bounds.problem",
    "det.problem",
    "invariance.problem",
    "lie_trotter.instance",
)

EIGENSOLVE = "spd_core.eigensolve"
CONSTRUCTORS = ("spd_core.SymMatrix", "spd_core.SpdMatrix", "spd_core.EigenDecomposition")
SOLVE = "barycenter.wasserstein_mean"
TRACE = "lie_trotter.convergence_trace"

# Public functions timed per module, besides the constructors, ``eigh``,
# ``wasserstein_mean`` and ``run_suite``.  Time in a function not listed is
# charged to the self time of the span that called it.
FUNCTIONS = {
    "spd_core": ("apply_spectral", "congruence", "loewner_geq", "operator_norm", "determinant", "identity"),
    "means_geometry": (
        "geometric_mean",
        "riemannian_distance",
        "wasserstein_distance",
        "wasserstein_distance_oracle_2x2",
        "wasserstein_geodesic",
        "geodesic_perturbation_bound",
    ),
    "barycenter": ("karcher_mean", "bounds_report"),
    "lie_trotter": ("convergence_trace", "derivative_at_identity_check"),
    "problem_io": ("parse_problem", "serialize_problem", "dumps_canonical", "spd_from_rng"),
    "cli": ("main",),
}


def kappa_bucket(kappa: float) -> str:
    """Nearest of 1e2, 1e4, 1e6 on a log scale."""
    if kappa < 1e3:
        return "k1e2"
    return "k1e4" if kappa < 1e5 else "k1e6"


class Tracer:
    """Records nested spans while ``enabled`` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.extras: list = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.suite_reports: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, classify=None, on_result=None):
        """Span around ``fn``.  ``classify(args, kwargs)`` may rename the span
        and attach an extra value, or return None to record nothing; direct
        recursion into the same span name is not recorded again."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, extras, stack = self.parents, self.extras, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name, extra = name, None
            if classify is not None:
                got = classify(args, kwargs)
                if got is None:
                    return fn(*args, **kwargs)
                span_name, extra = got
            parent = stack[-1]
            if parent >= 0 and names[parent] == span_name:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(span_name)
            parents.append(parent)
            extras.append(extra)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf()
                stack.pop()
            if on_result is not None:
                extras[sid] = on_result(args, result)
            return result

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "spdmeans" or mod_name.startswith("spdmeans."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)

    # -- installation ------------------------------------------------------

    def install(self, sp) -> None:
        """Wrap the public functions and constructors of the imported package
        ``sp``; ``uninstall`` restores every replaced binding."""
        core = sp.spd_core
        spd_cls = core.SpdMatrix

        def classify_spd(args, kwargs):
            eigen = kwargs.get("_eigen", args[2] if len(args) > 2 else None)
            if eigen is None:
                return EIGENSOLVE, len(args[1])
            return "spd_core.SpdMatrix", None

        def classify_eigh(args, kwargs):
            a = args[0] if args else kwargs["a"]
            if isinstance(a, spd_cls):
                return None
            return EIGENSOLVE, a.dim

        for cls, label, classify in (
            (core.SymMatrix, "spd_core.SymMatrix", None),
            (spd_cls, "spd_core.SpdMatrix", classify_spd),
            (core.EigenDecomposition, "spd_core.EigenDecomposition", None),
        ):
            self._replace(cls, "__init__", self._wrap(cls.__dict__["__init__"], label, classify))
        self._patch_everywhere(core.eigh, self._wrap(core.eigh, EIGENSOLVE, classify_eigh))

        def on_solve(args, result):
            problem = args[0]
            kappa = max(float(a.eigen.lam[0] / a.eigen.lam[-1]) for a in problem.matrices)
            return kappa_bucket(kappa), result.iterations, result.residual

        solve = sp.barycenter.wasserstein_mean
        self._patch_everywhere(solve, self._wrap(solve, SOLVE, on_result=on_solve))

        for module_name, functions in FUNCTIONS.items():
            module = getattr(sp, module_name)
            for fn_name in functions:
                original = getattr(module, fn_name)
                self._patch_everywhere(original, self._wrap(original, f"{module_name}.{fn_name}"))

        def on_suite(args, report):
            self.suite_reports.append(report)

        run_suite = sp.suite.run_suite
        self._patch_everywhere(run_suite, self._wrap(run_suite, "suite.run_suite", on_result=on_suite))
        report_cls = sp.suite.SuiteReport
        self._replace(report_cls, "to_json", self._wrap(report_cls.__dict__["to_json"], "suite.to_json"))
        streams = tuple(
            dataclasses.replace(s, run=self._wrap(s.run, f"suite.stream.{s.stream_id}"))
            for s in sp.suite.STREAMS
        )
        self._replace(sp.suite, "STREAMS", streams)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id,name,start,end,parent\n")
            for sid, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                out.write(f"{sid},{name},{start!r},{end!r},{parent}\n")


def _median_ms(values) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tr: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of everything ``tr`` recorded."""
    names = tr.names
    count = len(names)
    parents = np.asarray(tr.parents, dtype=np.int64)
    dur = np.asarray(tr.ends) - np.asarray(tr.starts)
    child = np.zeros(count)
    inner = parents >= 0
    np.add.at(child, parents[inner], dur[inner])
    self_time = dur - child

    by_name: dict[str, list[int]] = {}
    for sid, name in enumerate(names):
        by_name.setdefault(name, []).append(sid)

    def ids(name):
        return by_name.get(name, [])

    def prefixed(prefix):
        return [sid for name, sids in by_name.items() if name.startswith(prefix) for sid in sids]

    def nearest(sid, wanted):
        """Closest ancestor whose name is in ``wanted``, or -1."""
        sid = parents[sid]
        while sid >= 0 and names[sid] not in wanted:
            sid = parents[sid]
        return sid

    m: dict[str, float] = {}

    # spd_core
    solves_ids = ids(EIGENSOLVE)
    dims = np.array([tr.extras[s] for s in solves_ids], dtype=np.int64)
    solve_self = self_time[solves_ids] if solves_ids else np.zeros(0)
    m["spd_core.eigensolves"] = len(solves_ids)
    for d in DIMS:
        mask = dims == d
        m[f"spd_core.eigensolves.d{d}"] = int(mask.sum())
        m[f"spd_core.eigensolve_us.d{d}"] = _mean(solve_self[mask]) * 1e6
    m["spd_core.eigensolve_s"] = float(solve_self.sum())
    m["spd_core.eigensolve_share"] = float(solve_self.sum()) / traced_wall_s
    m["spd_core.construct_s"] = float(sum(self_time[ids(n)].sum() for n in CONSTRUCTORS))
    spectral = ids("spd_core.apply_spectral")
    m["spd_core.apply_spectral_calls"] = len(spectral)
    m["spd_core.apply_spectral_s"] = float(dur[spectral].sum())

    # barycenter
    solve_ids = [s for s in ids(SOLVE) if tr.extras[s] is not None]
    records = [tr.extras[s] for s in solve_ids]
    iterations = [r[1] for r in records]
    m["barycenter.solves"] = len(solve_ids)
    m["barycenter.iterations_mean"] = _mean(iterations)
    for bucket in KAPPA_BUCKETS:
        m[f"barycenter.iterations.{bucket}"] = _mean([r[1] for r in records if r[0] == bucket])
    solve_set = set(solve_ids)
    solves_inside = sum(1 for s in solves_ids if nearest(s, {SOLVE}) in solve_set)
    evaluations = sum(it + 1 for it in iterations)
    m["barycenter.eigensolves_per_iteration"] = solves_inside / evaluations if evaluations else 0.0
    m["barycenter.final_residual_max"] = max((r[2] for r in records), default=0.0)
    m["barycenter.bounds_report_calls"] = len(ids("barycenter.bounds_report"))
    m["barycenter.karcher_ms"] = _mean(dur[ids("barycenter.karcher_mean")]) * 1e3

    # means_geometry
    mg_ids = prefixed("means_geometry.")
    m["means_geometry.calls"] = len(mg_ids)
    m["means_geometry.self_s"] = float(self_time[mg_ids].sum())
    m["means_geometry.oracle_2x2_ms"] = (
        _mean(dur[ids("means_geometry.wasserstein_distance_oracle_2x2")]) * 1e3
    )

    # lie_trotter
    lt_ids = prefixed("lie_trotter.")
    trace_ids = ids(TRACE)
    m["lie_trotter.trace_ms_p50"] = _median_ms(dur[trace_ids])
    m["lie_trotter.derivative_check_ms_p50"] = _median_ms(
        dur[ids("lie_trotter.derivative_at_identity_check")]
    )
    lt_names = {names[s] for s in lt_ids}
    in_trace = sum(1 for s in solve_ids if nearest(s, {TRACE}) >= 0)
    m["lie_trotter.solves_per_trace"] = in_trace / len(trace_ids) if trace_ids else 0.0
    m["lie_trotter.iterations_per_solve"] = _mean(
        [r[1] for s, r in zip(solve_ids, records) if nearest(s, lt_names) >= 0]
    )
    m["lie_trotter.self_s"] = float(self_time[lt_ids].sum())

    # problem_io
    m["problem_io.parse_ms_p50"] = _median_ms(dur[ids("problem_io.parse_problem")])
    m["problem_io.serialize_ms_p50"] = _median_ms(dur[ids("problem_io.serialize_problem")])
    m["problem_io.draw_s"] = float(dur[ids("problem_io.spd_from_rng")].sum())
    m["problem_io.dumps_canonical_s"] = float(dur[ids("problem_io.dumps_canonical")].sum())

    # suite
    for stream_id in STREAM_IDS:
        m[f"suite.stream_ms.{stream_id}"] = _mean(dur[ids(f"suite.stream.{stream_id}")]) * 1e3
    m["suite.to_json_s"] = float(dur[ids("suite.to_json")].sum())
    m["suite.checks"] = sum(r.total for r in tr.suite_reports)
    m["suite.failed_checks"] = sum(r.failures for r in tr.suite_reports)

    # cli
    cli_ids = prefixed("cli.")
    m["cli.calls"] = len(cli_ids)
    m["cli.self_s"] = float(self_time[cli_ids].sum())

    m["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    for key, value in m.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"layer metric {key} is not finite")
    return m
