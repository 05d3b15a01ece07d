#!/usr/bin/env python3
"""Limit experiment: barycenters of curves through the identity, powered by 1/s.

Builds a seeded instance with mixed curve kinds, runs the dyadic trace on both
sides of zero, and prints the error table with consecutive ratios (first-order
convergence shows ratios near 0.5).
"""

import argparse

import numpy as np

from spdmeans import (
    CurveSpec,
    SymMatrix,
    WeightVector,
    apply_spectral,
    convergence_trace,
    dyadic_schedule,
    operator_norm,
)


def bounded_direction(rng, dim, radius):
    sym = SymMatrix(rng.normal(size=(dim, dim)))
    return SymMatrix(sym.entries * (radius / operator_norm(sym)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--depth", type=int, default=10)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    kinds = ("power", "affine", "exp_line")
    curves = []
    for i in range(args.n):
        kind = kinds[i % 3]
        direction = bounded_direction(rng, args.dim, float(rng.uniform(0.3, 0.6)))
        if kind == "power":
            curves.append(CurveSpec.power(apply_spectral(direction, "exp_of_sym")))
        elif kind == "affine":
            curves.append(CurveSpec.affine(direction))
        else:
            curves.append(CurveSpec.exp_line(direction))
        print(f"curve {i}: {kind}")
    weights = WeightVector(rng.uniform(0.2, 1.0, args.n))

    schedule = dyadic_schedule(args.depth)
    pos = convergence_trace(weights, tuple(curves), schedule)
    neg = convergence_trace(weights, tuple(curves), schedule, negate=True)
    print(f"{'s':>12} {'error(+s)':>12} {'ratio':>7} {'error(-s)':>12} {'ratio':>7}")
    prev_p = prev_n = None
    for s, ep, en in zip(schedule, pos.errors, neg.errors):
        rp = f"{ep / prev_p:7.3f}" if prev_p else "      -"
        rn = f"{en / prev_n:7.3f}" if prev_n else "      -"
        print(f"{s:12.6f} {ep:12.3e} {rp} {en:12.3e} {rn}")
        prev_p, prev_n = ep, en
    final = max(pos.errors[-1], neg.errors[-1])
    print(f"final two-sided error {final:.3e}; target condition number "
          f"{pos.target.eigen.lam[0] / pos.target.eigen.lam[-1]:.2f}")


if __name__ == "__main__":
    main()
