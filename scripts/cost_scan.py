"""Contraction-cost scan over circuit size for both ensembles.

Prints the per-gate cost density for a grid of sizes, then the
feasibility frontier: the largest effective qubit count reachable under
a FLOP budget for each ensemble, using the fitted density model.
"""
import argparse

import numpy as np

from rcsw.circuits import build_instance
from rcsw.tn import (SimpleCostModel, circuit_to_tn, max_effective_qubits,
                     optimize_order, summarize)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 16, 20])
    ap.add_argument("--depth", type=int, default=6)
    ap.add_argument("--instances", type=int, default=4)
    ap.add_argument("--budget", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--eps", type=float, default=3.2e-3,
                    help="per-gate error rate for the frontier estimate")
    ap.add_argument("--time-budget", type=float, default=100.0,
                    help="quantum time budget in units of the gate time")
    args = ap.parse_args()

    print(f"{'ensemble':>8} {'N':>4} {'d':>3} {'C_median':>9} {'C_max':>8}")
    for ensemble in ("rg", "2d"):
        for n in args.sizes:
            if ensemble == "2d" and int(round(n ** 0.5)) ** 2 != n:
                continue  # grid sampler wants a square count
            dens = []
            for i in range(args.instances):
                s = args.seed + i
                try:
                    c = build_instance(ensemble, n, args.depth, s)
                except ValueError:
                    continue
                tree = optimize_order(circuit_to_tn(c), budget=args.budget, seed=s)
                dens.append(summarize(c, tree, seed=s).c_density)
            if dens:
                print(f"{ensemble:>8} {n:>4} {args.depth:>3} "
                      f"{np.median(dens):>9.4f} {max(dens):>8.4f}")

    print("\nfeasibility frontier at eps =", args.eps,
          "and quantum time budget", args.time_budget)
    for ensemble in ("rg", "2d"):
        model = SimpleCostModel(ensemble)
        res = max_effective_qubits(args.eps, 1.0, args.time_budget, model)
        print(f"{ensemble:>8}: N* = {res.n_star}, d* = {res.d_star}, "
              f"N_eff = {res.n_eff:.1f}, depth limit = {res.depth_limit:.1f}")


if __name__ == "__main__":
    main()
