"""spdmeans benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
workload inputs are generated from ``--seed`` (set-up, timed as ``setup_s``).
The timed region runs one pass over those inputs, and repeats it while the
next pass is expected to end within ``--seconds``.  Every output is checked
outside the timed region.  Set-up and item times are reported at a fixed
reference speed of the host (see ``hostspeed.py``).  With ``--trace 1`` the
untraced loop is followed by one traced pass, and the per-layer metrics of
that pass are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment, is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import os
import sys

# Matrices here are at most 8x8: BLAS threads would only add contention, so
# the load is kept to one process with one BLAS thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import SpeedSampler  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up (import plus input generation) is repeated and its median reported:
# at least SETUP_REPEATS times, and until SETUP_MIN_S seconds have gone into
# it, so that a set-up of a few milliseconds is sampled often enough.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
EXIT_NO_PROGRAM = 2


def unit_of(name: str) -> str:
    if "_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith(("_frac", "_share")):
        return "frac"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("residual_max"):
        return "rel"
    return "count"


def setup_once(workload: str, seed: int):
    """Fresh import of the package, then the workload's inputs."""
    for mod_name in [m for m in sys.modules if m == "spdmeans" or m.startswith("spdmeans.")]:
        del sys.modules[mod_name]
    sp = importlib.import_module("spdmeans")
    importlib.import_module("spdmeans.cli")
    return sp, WORKLOADS[workload](sp, seed, OUT_DIR)


def run_pass(wl, tracer: Tracer | None = None):
    """One pass over the workload's items: per-item (start, end) and the
    reason of every failed item."""
    spans, failures = [], []
    for item in wl.items:
        output, error = None, None
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            output = wl.run(item)
        except Exception as exc:  # an item that raises is a failed operation
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        spans.append((start, time.perf_counter()))
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                error = wl.check(item, output)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
    return spans, failures


def closed_loop(wl, seconds: float):
    """Repeat passes, always at least one, while the next pass is expected,
    from the last one, to end within ``seconds``.  Returns per-item spans
    as a (passes, items, 2) array."""
    rows, failures = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        spans, fail = run_pass(wl)
        rows.append(spans)
        failures += fail
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return np.array(rows), failures


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spdmeans").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spdmeans" / "__init__.py").is_file():
        print(f"error: no spdmeans package under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    setup_spans = []
    with SpeedSampler() as speed:
        while len(setup_spans) < SETUP_REPEATS or sum(e - s for s, e in setup_spans) < SETUP_MIN_S:
            start = time.perf_counter()
            sp, wl = setup_once(args.workload, args.seed)
            setup_spans.append((start, time.perf_counter()))
        if Path(sp.__file__).resolve().parent != SRC / "spdmeans":
            print(f"error: spdmeans imported from {sp.__file__}, not {SRC}", file=sys.stderr)
            return EXIT_NO_PROGRAM
        spans, failures = closed_loop(wl, args.seconds)
    setup_busy, setup_factor = speed.split(setup_spans)
    busy, factor = speed.split(spans)
    latencies = busy * factor
    # Time of one pass.  Where a run holds several passes, each item's
    # median over them keeps a slow stretch of the host in one pass out.
    wall_s = float(np.median(latencies, axis=0).sum())
    measured_wall_s = float(np.median(busy, axis=0).sum())
    attempted = busy.size
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "items_per_pass": len(wl.items),
        "setup_s_measured": setup_busy.tolist(),
        "setup_speed_factor": setup_factor.tolist(),
        "latencies_s_measured": busy.tolist(),
        "speed_factor": factor.tolist(),
        "speed_samples": len(speed.took),
        "speed_kernel_mean_s": float(np.mean(speed.took)),
    }
    if args.trace:
        tracer = Tracer()
        try:
            tracer.install(sp)
            traced_spans, traced_fail = run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        attempted += len(traced_spans)
        failures += traced_fail
        traced_wall_s = sum(end - start for start, end in traced_spans)
        values = layer_metrics(tracer, traced_wall_s, measured_wall_s)
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv.gz")
        record["spans"] = len(tracer.names)
    else:
        values = {
            "setup_s": float(np.median(setup_busy * setup_factor)),
            "wall_s": wall_s,
            "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "latency_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
            "success_frac": 1.0 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if getattr(wl, "report_sha256", None):
        record["verify_report_sha256"] = wl.report_sha256
    record["failures"] = failures

    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record["result"] = result
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={len(latencies)} attempted={attempted} "
          f"failed={len(failures)} fail_frac={len(failures) / attempted:.6g}")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    for reason in failures[:20]:
        print(f"# failure: {reason}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
