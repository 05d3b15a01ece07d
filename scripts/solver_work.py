#!/usr/bin/env python3
"""Deterministic solver work of one pass of a benchmark workload.

    python3 scripts/solver_work.py --workload solve_conditioned --seed 3 [--items N]

Builds the inputs of ``bench/workloads.py`` for the workload and seed, runs
one pass over its items (the first N with ``--items``) and prints one JSON
object: the solves and fixed-point iterations of each mean's loop (on
``solve_conditioned`` also by condition number), the Jacobi work, that is
the stacks solved, their slices, the largest stack, the plane rounds that
rotated at least one plane and the planes rotated, the chord-root work, that
is the calls of the warm transport root kernel, their slices and the slices
it accepted and rejected, the Cholesky work, that is the calls of the
stacked factorization and their slices, and the spectral recompositions,
that is the calls of ``spd_core._recompose_spd`` (Q diag(f(lam)) Q^T of a
solved spectrum).  These counts do not depend on the host or on timing, so
they compare two trees exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import spdmeans  # noqa: E402
import spdmeans.cli  # noqa: E402,F401  (verify_default runs the command line)
from spdmeans import barycenter, spd_core  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

METHODS = {barycenter._Transport: "transport", barycenter._Karcher: "karcher"}


def solver_work(workload: str, seed: int, items: int | None = None) -> dict:
    """The counts of one pass, as the JSON object the script prints."""
    counts: Counter = Counter()
    real_stack, real_rotations, real_cholesky, real_recompose, real_chord, real_fixed_point = (
        spd_core._jacobi_stack,
        spd_core._rotations,
        spd_core._cholesky_stack,
        spd_core._recompose_spd,
        barycenter._chord_roots,
        barycenter._fixed_point,
    )
    label = ""

    def jacobi_stack(arrays):
        counts["jacobi.stacks"] += 1
        counts["jacobi.slices"] += len(arrays)
        counts["jacobi.largest_stack"] = max(counts["jacobi.largest_stack"], len(arrays))
        return real_stack(arrays)

    def rotations(a_pp, a_rr, a_pr):
        counts["jacobi.active_rounds"] += 1
        counts["jacobi.planes"] += len(a_pr)
        return real_rotations(a_pp, a_rr, a_pr)

    def cholesky_stack(arrays):
        counts["cholesky.calls"] += 1
        counts["cholesky.slices"] += len(arrays)
        return real_cholesky(arrays)

    def recompose_spd(q, vals):
        counts["spectral.recompositions"] += 1
        return real_recompose(q, vals)

    def chord_roots(m):
        t, taken = real_chord(m)
        counts["chord.calls"] += 1
        counts["chord.slices"] += len(m)
        counts["chord.accepted"] += int(taken.sum())
        counts["chord.rejected"] += int((~taken).sum())
        return t, taken

    def fixed_point(p, cfg, method):
        result = yield from real_fixed_point(p, cfg, method)
        counts[f"solves.{METHODS[method]}{label}"] += 1
        counts[f"iterations.{METHODS[method]}{label}"] += result.iterations
        return result

    with tempfile.TemporaryDirectory() as out_dir:
        work = WORKLOADS[workload](spdmeans, seed, Path(out_dir))
        chosen = work.items[:items]
        spd_core._jacobi_stack, spd_core._rotations, spd_core._cholesky_stack = jacobi_stack, rotations, cholesky_stack
        spd_core._recompose_spd = recompose_spd
        barycenter._chord_roots, barycenter._fixed_point = chord_roots, fixed_point
        try:
            for item in chosen:
                if workload == "solve_conditioned":
                    label = f".k1e{round(math.log10(item[0]))}"
                work.run(item)
        finally:
            spd_core._jacobi_stack, spd_core._rotations, spd_core._cholesky_stack = real_stack, real_rotations, real_cholesky
            spd_core._recompose_spd = real_recompose
            barycenter._chord_roots, barycenter._fixed_point = real_chord, real_fixed_point
    return {"workload": workload, "seed": seed, "items": len(chosen), **dict(sorted(counts.items()))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--items", type=int, default=None, help="only the first N items of the pass")
    args = parser.parse_args()
    print(json.dumps(solver_work(args.workload, args.seed, args.items), indent=1))


if __name__ == "__main__":
    main()
