"""Fidelity estimator comparison on simulated noisy circuits.

Sweeps depth at fixed size and noise, printing the direct trajectory
fidelity next to the sample-based scores (linear cross entropy, mirror
return probability) and the analytic gate-counting prediction.
"""
import argparse

import numpy as np

from rcsw import circuits, statevector
from rcsw.circuits import build_instance
from rcsw.estimators import GateCountParams, gate_counting, mb_hits, xeb
from rcsw.statevector import NoiseModel


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--depths", type=int, nargs="+", default=[2, 4, 6, 8])
    ap.add_argument("--instances", type=int, default=4)
    ap.add_argument("--trajectories", type=int, default=48)
    ap.add_argument("--shots", type=int, default=4)
    ap.add_argument("--eps2q", type=float, default=0.008)
    ap.add_argument("--eps-mem", type=float, default=0.001)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.n % 2:
        ap.error("--n must be even (rg circuits need an even qubit count)")
    if args.instances < 1:
        ap.error("--instances must be at least 1")
    if not all(1 <= d < args.n for d in args.depths):
        ap.error("--depths must lie in [1, n)")
    if len(set(args.depths)) < len(args.depths):
        ap.error("--depths has a repeated value")
    if min(args.trajectories, args.shots) < 1:
        ap.error("--trajectories and --shots must be at least 1")
    try:
        nm = NoiseModel(eps_2q=args.eps2q, eps_mem=args.eps_mem)
        gc = GateCountParams(eps_2q=args.eps2q, p_spam=0.0, eps_mem=args.eps_mem)
    except ValueError as exc:
        ap.error(str(exc))

    print(f"N = {args.n}, eps_2q = {args.eps2q}, eps_mem = {args.eps_mem}")
    print(f"{'d':>3} {'F_direct':>9} {'F_xeb':>8} {'F_mb':>8} {'F_gc':>8}")
    for d in args.depths:
        direct, xebs, mb = [], [], []
        for i in range(args.instances):
            s = args.seed + i
            c = build_instance("rg", args.n, d, s)
            res = statevector.run_trajectories(
                c, nm, args.trajectories, seed=s + 100,
                shots_per_traj=args.shots)
            direct.append(res.fidelity)
            xebs.extend(xeb(res.samples, res.ideal.probabilities()).rescaled - 1.0)
            mirror = circuits.build_mirror(c, seed=s + 200)
            mres = statevector.run_trajectories(
                mirror, nm, args.trajectories, seed=s + 300,
                shots_per_traj=args.shots)
            mb.extend(mb_hits(mres.samples, mirror.initial_bits))
        print(f"{d:>3} {np.mean(direct):>9.4f} {np.mean(xebs):>8.4f} "
              f"{np.mean(mb):>8.4f} {gate_counting(gc, args.n, d):>8.4f}")


if __name__ == "__main__":
    main()
