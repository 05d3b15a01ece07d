#!/usr/bin/env python3
"""Walk through the package on a small non-commuting 2x2 pair.

Computes both distances, the transport and Riemannian means with their
determinants, and the full bound report with Loewner verdicts.
"""

import numpy as np

from spdmeans import (
    MeanProblem,
    SpdMatrix,
    WeightVector,
    bounds_report,
    check_bounds,
    karcher_mean,
    riemannian_distance,
    wasserstein_distance,
    wasserstein_geodesic,
    wasserstein_mean,
)

A = SpdMatrix([[1.0, 2.0], [2.0, 5.0]])
B = SpdMatrix([[4.0, 4.0], [4.0, 5.0]])


def show(name, matrix):
    rows = "\n".join("   " + "  ".join(f"{v: .6f}" for v in row) for row in matrix.entries)
    print(f"{name}:\n{rows}")


def main():
    problem = MeanProblem((A, B), WeightVector.uniform(2))
    show("A", A)
    show("B", B)
    print(f"transport distance d(A, B)  = {wasserstein_distance(A, B):.6f}")
    print(f"Riemannian distance     = {riemannian_distance(A, B):.6f}")

    omega = wasserstein_mean(problem)
    show("transport barycenter", omega.mean)
    print(f"  converged in {omega.iterations} iterations, residual {omega.residual:.2e}")
    print(f"  det = {float(np.prod(omega.mean.eigen.lam)):.6f}")
    midpoint = wasserstein_geodesic(A, B, 0.5)
    gap = np.abs(midpoint.entries - omega.mean.entries).max()
    print(f"  matches the geodesic midpoint to {gap:.2e}")

    karcher = karcher_mean(problem)
    show("Riemannian mean", karcher.mean)
    print(f"  det = {float(np.prod(karcher.mean.eigen.lam)):.6f}")

    report = bounds_report(problem)
    show("lower bound 2I - sum w_j inv(A_j)", report.lower_lie_trotter)
    show("upper bound sum w_j A_j", report.upper_arithmetic)
    print(f"operator norm bound = {report.opnorm_bound:.6f}")
    print("verdicts against the computed barycenter:")
    for item in check_bounds(problem, report, omega.mean):
        print(f"  {item.check_id}: {'holds' if item.holds else 'VIOLATED'} (witness {item.witness:.3e})")


if __name__ == "__main__":
    main()
