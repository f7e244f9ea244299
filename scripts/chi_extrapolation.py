"""Truncation error rate against bond dimension, with extrapolation.

Evolves a batch of circuits at several bond dimensions, prints the
median error per two-qubit gate for each, then extrapolates the line
through the largest two bond dimensions to the chi needed for a target
error rate.
"""
import argparse

from rcsw.circuits import build_instance
from rcsw.errors import FitError
from rcsw.mps import epsilon_vs_chi


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--depth", type=int, default=8)
    ap.add_argument("--instances", type=int, default=6)
    ap.add_argument("--chis", type=int, nargs="+", default=[4, 8, 16, 32])
    ap.add_argument("--blocks", type=int, default=2)
    ap.add_argument("--target-eps", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.n % 2:
        ap.error("--n must be even (rg circuits need an even qubit count)")
    if not 1 <= args.depth < args.n:
        ap.error("--depth must lie in [1, n)")
    if args.instances < 1:
        ap.error("--instances must be at least 1")
    if len(set(args.chis)) < len(args.chis):
        ap.error("--chis has a repeated value")
    if min(args.chis) < 1 or len(args.chis) < 2:
        ap.error("--chis needs at least two distinct positive bond dimensions")
    if not 1 <= args.blocks <= args.n:
        ap.error("--blocks must lie in [1, n]")
    if not 0 < args.target_eps < 1:
        ap.error("--target-eps must lie in (0, 1)")

    cs = [build_instance("rg", args.n, args.depth, args.seed + i)
          for i in range(args.instances)]
    scan = epsilon_vs_chi(cs, args.chis, args.blocks, seed=args.seed)

    print(f"N = {args.n}, d = {args.depth}, {args.instances} circuits")
    print(f"{'chi':>5} {'blocking':>10} {'eps_median':>11} {'eps_std':>9}")
    for row in scan.rows:
        print(f"{row.chi:>5} {row.blocking:>10} {row.eps_median:>11.3e} "
              f"{row.eps_std:>9.1e}")

    try:
        chi_star = scan.extrapolate_chi(args.target_eps)
        print(f"\nextrapolated chi for eps = {args.target_eps:g}: "
              f"{chi_star:.0f}")
    except FitError as e:
        print(f"\nextrapolation unavailable: {e}")


if __name__ == "__main__":
    main()
