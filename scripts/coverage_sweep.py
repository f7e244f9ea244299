"""Interval coverage of the two bootstrap schemes under circuit spread.

Simulates batches of experiments with an increasing circuit-to-circuit
error-rate spread and prints the fraction of nominal one-sigma intervals
that cover the grand mean, for pooled and double resampling.
"""
import argparse

from rcsw.bootstrap import ExperimentModel, coverage

NOMINAL = 0.6827


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mus", type=float, nargs="+",
                    default=[0.0, 0.1, 0.3, 1.0])
    ap.add_argument("--observable", choices=["xeb", "mb"], default="xeb")
    ap.add_argument("--base-eps", type=float, default=2e-3)
    ap.add_argument("--gates", type=int, default=100)
    ap.add_argument("--experiments", type=int, default=200)
    ap.add_argument("--circuits", type=int, default=50)
    ap.add_argument("--shots", type=int, default=20)
    ap.add_argument("--resamples", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.resamples < 100:
        ap.error("--resamples must be at least 100")
    if min(args.experiments, args.circuits, args.shots) < 1:
        ap.error("--experiments, --circuits and --shots must be at least 1")
    try:
        models = [ExperimentModel(mu=mu, base_eps=args.base_eps, n_gates=args.gates,
                                  observable=args.observable) for mu in args.mus]
    except ValueError as exc:
        ap.error(str(exc))

    print(f"observable = {args.observable}, base_eps = {args.base_eps}, "
          f"n_gates = {args.gates}, nominal = {NOMINAL}")
    print(f"{'mu':>6} {'aggregate':>10} {'double':>8}")
    for model in models:
        res = coverage(model, args.experiments, circuits=args.circuits,
                       shots=args.shots, r=args.resamples, seed=args.seed)
        print(f"{model.mu:>6.2f} {res.aggregate:>10.3f} {res.double:>8.3f}")


if __name__ == "__main__":
    main()
