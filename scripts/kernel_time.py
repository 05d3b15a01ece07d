#!/usr/bin/env python3
"""Per-call cost of the two stacked kernels, by dimension and stack size.

    python3 scripts/kernel_time.py [--repeats N] [--seed S]

For d = 2..8 and stacks of 1, 3 and 40 seeded SPD slices (condition number
up to 1e4), times ``spd_core._jacobi_stack`` and ``spd_core._cholesky_stack``
and prints one JSON object with one row per (d, k): the Jacobi plane rounds
that rotated at least one plane (counted in an untimed solve), the best of N
solves divided by that count (microseconds per active round; null at d = 2,
which a closed form diagonalizes without rounds) and per call, and the best
of N factorizations (microseconds per call).  Run it in two checkouts on one
host to compare them; the timings vary with the host and its load, the
round counts do not.
"""

from __future__ import annotations

import os

# as in bench/run.py: the matrices are small, so one BLAS thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spdmeans import spd_core  # noqa: E402
from spdmeans.problem_io import spd_array_from_rng  # noqa: E402

DIMS = range(2, 9)
STACK_SIZES = (1, 3, 40)


def best_us(kernel, stack: np.ndarray, repeats: int) -> float:
    """The fastest of ``repeats`` calls of kernel on stack, in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel(stack)
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def active_rounds(stack: np.ndarray) -> int:
    """The plane rounds of one Jacobi solve of stack that rotated a plane."""
    calls = []
    real = spd_core._rotations

    def counted(*args):
        calls.append(None)
        return real(*args)

    spd_core._rotations = counted
    try:
        spd_core._jacobi_stack(stack)
    finally:
        spd_core._rotations = real
    return len(calls)


def kernel_time(repeats: int, seed: int) -> dict:
    """The rows the script prints, one per dimension and stack size."""
    rng = np.random.default_rng(seed)
    rows = []
    for d in DIMS:
        for k in STACK_SIZES:
            stack = np.stack([spd_array_from_rng(rng, d, 1e4) for _ in range(k)])
            rounds = active_rounds(stack)
            jacobi = best_us(spd_core._jacobi_stack, stack, repeats)
            rows.append(
                {
                    "d": d,
                    "k": k,
                    "jacobi_active_rounds": rounds,
                    "jacobi_us_per_round": round(jacobi / rounds, 2) if rounds else None,
                    "jacobi_us_per_call": round(jacobi, 2),
                    "cholesky_us_per_call": round(best_us(spd_core._cholesky_stack, stack, repeats), 2),
                }
            )
    return {
        "repeats": repeats,
        "seed": seed,
        "host": {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()},
        "rows": rows,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200, help="calls timed per kernel and stack (best is kept)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(json.dumps(kernel_time(args.repeats, args.seed), indent=1))


if __name__ == "__main__":
    main()
