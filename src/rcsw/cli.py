"""Batch command line driving reproducible experiments.

Subcommands generate circuit files, price contraction costs, estimate
fidelities from simulated noisy runs, scan chain-truncation error rates
against bond dimension, tabulate resampling distributions, and run
interval-coverage studies.
Every command is a pure function of its flags and seeds: re-running
reproduces primary outputs byte for byte (manifest timestamps aside).
Files are written atomically (temp file, then rename).
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import circuits, graphs, statevector  # noqa: F401  tracers wrap cli.graphs
from .bootstrap import (
    COVERAGE_CSV_HEADER,
    ExperimentModel,
    ShotTable,
    bootstrap_ci,
    coverage,
    p_aggregate,
    p_double,
)
from .errors import CapacityError, FitError, InfeasibleBudget
from .estimators import (
    REFERENCE_PARAMS,
    GateCountParams,
    effective_2q_infidelity,
    gate_counting,
    mb_hits,
    xeb,
)
from .mps import MPS_CSV_HEADER, ChiScan, ChiScanRow, evolve
from .tn import (
    CSV_HEADER,
    TIME_BUDGET,
    SimpleCostModel,
    circuit_to_tn,
    max_effective_qubits,
    optimize_order,
    slice_tree,
    summarize,
)

BOOT_CSV_HEADER = "n_jobs,n_per,k,p_aggregate,p_double"
COST_SUMMARY_HEADER = "ensemble,N,d,c_median,c_min,c_max,n_instances,seed0"
COST_FRONTIER_HEADER = "ensemble,eps,time_budget,N_star,d_star,N_eff,depth_limit"
FIDELITY_CSV_HEADER = "ensemble,N,d,estimator,value,ci_low,ci_high,n_samples,seed"
MPS_SCAN_CSV_HEADER = "N,d,blocking,chi,eps_median,eps_std,n_runs,chi_h2"


@dataclass(frozen=True)
class RunConfig:
    """Validated flag bundle; outputs are a pure function of this and seeds."""

    command: str
    ensemble: str = "rg"
    n: tuple[int, ...] = (12,)
    d: tuple[int, ...] = (6,)
    instances: int = 1
    seed: int = 0
    noise_eps2q: float = 0.0
    noise_mem: float = 0.0
    spam: float = 0.0
    chi: tuple[int, ...] = (8,)
    blocks: tuple[int, ...] = (2,)
    width_budget: int | None = None
    budget: int = 4
    out: str = "results"
    trajectories: int = 32
    shots: int = 256
    resamples: int = 300
    xeb_cap: int = 20
    mu: tuple[float, ...] = (0.0,)
    observable: str = "xeb"
    base_eps: float = 2e-3
    gates: int = 100
    circuits: int = 50
    n_jobs: int = 50
    n_per: int = 20
    max_k: int = 12

    def __post_init__(self):
        if self.ensemble not in ("rg", "2d"):
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        # each message names only the value that failed, as its flag is named
        for name in ("instances", "budget", "shots", "trajectories"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.width_budget is not None and self.width_budget < 1:
            raise ValueError("width_budget must be at least 1")
        if self.resamples < 100:
            raise ValueError("resamples must be at least 100")
        for name in ("n", "d"):
            if min(getattr(self, name), default=1) < 1:
                raise ValueError(f"{name} must be positive")
        # a repeated grid value would write its rows twice
        for name in ("n", "d", "chi", "blocks", "mu"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} has a repeated value")
        if self.ensemble == "rg":
            for n, d in itertools.product(self.n, self.d):
                if n % 2 or d >= n:
                    raise ValueError(f"rg circuits need an even n and d < n, "
                                     f"got n={n}, d={d}")
        if min(self.chi, default=1) < 1:
            raise ValueError("chi must be positive")
        top = min(self.n, default=1)
        if self.command == "mps" and not 1 <= min(self.blocks) <= max(self.blocks) <= top:
            raise ValueError(f"blocks must lie in [1, {top}]")
        for name in ("noise_eps2q", "noise_mem", "spam", "base_eps"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not all(np.isfinite(mu) and mu >= 0.0 for mu in self.mu):
            raise ValueError("mu must be finite and nonnegative")
        for name in ("seed", "gates", "max_k", "xeb_cap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("circuits", "n_jobs", "n_per"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class FidelityReport:
    estimator: str
    value: float
    ci_low: float | None
    ci_high: float | None
    n_samples: int
    params: dict

    def csv_row(self, ensemble: str, n: int, d: int, seed: int) -> str:
        lo = "" if self.ci_low is None else repr(self.ci_low)
        hi = "" if self.ci_high is None else repr(self.ci_high)
        return (f"{ensemble},{n},{d},{self.estimator},{self.value!r},"
                f"{lo},{hi},{self.n_samples},{seed}")


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: str, rows) -> Path:
    _atomic_write(path, "\n".join([header, *rows]) + "\n")
    return path


def _grid(cfg: RunConfig):
    for n in cfg.n:
        for d in cfg.d:
            yield n, d


def cmd_generate(cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out)
    files: list[Path] = []
    entries = []
    for n, d in _grid(cfg):
        for i in range(cfg.instances):
            s = cfg.seed + i
            c = circuits.build_instance(cfg.ensemble, n, d, s)
            base = f"{cfg.ensemble}_n{n}_d{d}_s{s}"
            jpath = out / f"{base}.json"
            _atomic_write(jpath, circuits.serialize(c) + "\n")
            qpath = out / f"{base}.qasm"
            _atomic_write(qpath, circuits.export_qasm(c))
            entries.append({"n": n, "d": d, "seed": s,
                            "json": jpath.name, "qasm": qpath.name})
            files.extend([jpath, qpath])
    manifest = {
        "command": "generate", "ensemble": cfg.ensemble, "seed0": cfg.seed,
        "instances": cfg.instances, "entries": entries,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    mpath = out / "manifest.json"
    _atomic_write(mpath, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return files + [mpath]


def cmd_cost(cfg: RunConfig) -> list[Path]:
    items = [(n, d, i) for n, d in _grid(cfg) for i in range(cfg.instances)]
    summaries = []
    for n, d, i in items:
        s = cfg.seed + i
        c = circuits.build_instance(cfg.ensemble, n, d, s)
        net = circuit_to_tn(c)
        tree = optimize_order(net, budget=cfg.budget, seed=s)
        sliced = None
        if cfg.width_budget is not None:
            try:
                sliced = slice_tree(net, tree, 1 << cfg.width_budget,
                                    budget=max(1, cfg.budget // 2), seed=s + 1)
            except InfeasibleBudget as exc:  # keep the unsliced columns
                print(f"rcsw cost: slicing skipped at n={n}, d={d}, seed={s}: "
                      f"{exc}", file=sys.stderr)
        summaries.append(summarize(c, tree, sliced_tree=sliced, seed=s))
    out = Path(cfg.out)
    rows_path = _write_csv(out / "cost_rows.csv", CSV_HEADER,
                           (s.csv_row() for s in summaries))
    agg_rows = []
    for n, d in _grid(cfg):
        dens = [s.c_density for s, (nn, dd, _) in zip(summaries, items)
                if (nn, dd) == (n, d)]
        agg_rows.append(f"{cfg.ensemble},{n},{d},{_median(dens)!r},"
                        f"{min(dens)!r},{max(dens)!r},{len(dens)},{cfg.seed}")
    sum_path = _write_csv(out / "cost_summary.csv", COST_SUMMARY_HEADER, agg_rows)
    # the model frontier at H2's error per gate slot, the same at every n
    eps = effective_2q_infidelity(REFERENCE_PARAMS, max(cfg.n))
    front = max_effective_qubits(eps, 1.0, TIME_BUDGET, SimpleCostModel(cfg.ensemble))
    front_path = _write_csv(out / "cost_frontier.csv", COST_FRONTIER_HEADER, [
        f"{cfg.ensemble},{eps!r},{TIME_BUDGET!r},{front.n_star},{front.d_star},"
        f"{front.n_eff!r},{front.depth_limit!r}"])
    return [rows_path, sum_path, front_path]


def _median(xs: list[float]) -> float:
    """np.median's value without its first-call import of numpy.ma: the
    middle value, or the mean (a + b) / 2 of the middle two."""
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


def _simulate(cfg: RunConfig, cs, nm, cap: int, traj_seed: int, spt: int, scores):
    """Per-circuit shot scores(c, trajectory result) and trajectory overlaps.

    Circuit i of cs runs its trajectories from seed traj_seed + i, sampling
    spt shots from each; circuits are simulated one at a time, so cs may be
    a generator.
    """
    shots, overlaps = [], []
    for i, c in enumerate(cs):
        res = statevector.run_trajectories(
            c, nm, cfg.trajectories, seed=traj_seed + i, shots_per_traj=spt,
            cap=cap)
        shots.append(scores(c, res))
        overlaps.append(res.overlaps)
    return shots, overlaps


def _fidelity_report(cfg: RunConfig, estimator: str, rows, boot_seed: int,
                     params: dict) -> FidelityReport:
    """Mean of the per-circuit rows with its aggregate bootstrap interval."""
    ci = bootstrap_ci(ShotTable(tuple(rows)), method="aggregate",
                      r=cfg.resamples, seed=boot_seed)
    return FidelityReport(estimator, float(ci.estimate), float(ci.lo),
                          float(ci.hi), sum(r.size for r in rows), params)


def _xeb_scores(c, res) -> np.ndarray:
    return xeb(res.samples, res.ideal.probabilities()).rescaled - 1.0


def _mb_scores(c, res) -> np.ndarray:
    return mb_hits(res.samples, c.initial_bits)


def cmd_fidelity(cfg: RunConfig) -> list[Path]:
    nm = statevector.NoiseModel(eps_2q=cfg.noise_eps2q, eps_mem=cfg.noise_mem)
    gc_params = GateCountParams(eps_2q=cfg.noise_eps2q, p_spam=cfg.spam,
                                eps_mem=cfg.noise_mem)
    spt = max(1, -(-cfg.shots // cfg.trajectories))
    sampled = {"trajectories": cfg.trajectories, "shots_per_traj": spt}
    out = Path(cfg.out)
    files: list[Path] = []
    csv_rows: list[str] = []
    for n, d in _grid(cfg):
        cs = [circuits.build_instance(cfg.ensemble, n, d, cfg.seed + i)
              for i in range(cfg.instances)]
        shared = {"ensemble": cfg.ensemble, "n": n, "d": d,
                  "eps_2q": cfg.noise_eps2q, "eps_mem": cfg.noise_mem,
                  "p_spam": cfg.spam, "instances": cfg.instances,
                  "seed": cfg.seed}
        mirrors = (circuits.build_mirror(c, seed=cfg.seed + 2000 + i)
                   for i, c in enumerate(cs))
        runs = (("xeb", cs, min(cfg.xeb_cap, statevector.DEFAULT_CAP), 1000, 101,
                 _xeb_scores),
                ("mb", mirrors, statevector.DEFAULT_CAP, 3000, 102, _mb_scores))
        reports: list[FidelityReport] = []
        for name, run_cs, cap, traj_seed, boot_seed, scores in runs:
            try:
                shots, overlaps = _simulate(cfg, run_cs, nm, cap,
                                            cfg.seed + traj_seed, spt, scores)
            except CapacityError as exc:  # keep the other estimators
                print(f"rcsw fidelity: skipped {name} at n={n}, d={d}: {exc}",
                      file=sys.stderr)
                continue
            reports.append(_fidelity_report(cfg, name, shots, cfg.seed + boot_seed,
                                            sampled))
            if name == "xeb":  # the trajectory fidelity of the same circuits
                reports.append(_fidelity_report(
                    cfg, "direct", overlaps, cfg.seed + 103,
                    {"trajectories": cfg.trajectories}))
        gc = gate_counting(gc_params, n, d)
        reports.append(FidelityReport(
            "gc", gc, None, None, 0,
            {"eps_2q": cfg.noise_eps2q, "eps_mem": cfg.noise_mem,
             "p_spam": cfg.spam, "delta": gc_params.delta}))
        doc = [dataclasses.asdict(dataclasses.replace(r, params={**shared, **r.params}))
               for r in reports]
        path = out / f"fidelity_n{n}_d{d}.json"
        _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        files.append(path)
        csv_rows.extend(r.csv_row(cfg.ensemble, n, d, cfg.seed) for r in reports)
    files.append(_write_csv(out / "fidelity.csv", FIDELITY_CSV_HEADER, csv_rows))
    return files


def cmd_mps(cfg: RunConfig) -> list[Path]:
    cs = {(n, d, i): circuits.build_instance(cfg.ensemble, n, d, cfg.seed + i)
          for n, d in _grid(cfg) for i in range(cfg.instances)}
    rows = []
    runs: dict[tuple, dict[int, list[float]]] = {}  # (n, d, blocking) -> chi -> eps
    exact: dict[tuple, int] = {}  # (n, d, blocking) -> the chain's exact-rank bond
    for n, d in _grid(cfg):
        for chi in cfg.chi:
            for b in cfg.blocks:
                for i in range(cfg.instances):
                    s = cfg.seed + i
                    try:
                        state, rep = evolve(cs[n, d, i], chi, int(b), seed=s)
                    except CapacityError as exc:  # keep the other rows
                        print(f"rcsw mps: skipped n={n}, d={d}, chi={chi}, "
                              f"blocks={b}, seed={s}: {exc}", file=sys.stderr)
                        continue
                    rows.append(rep.csv_row())
                    exact[n, d, rep.blocking] = state.exact_bond
                    runs.setdefault((n, d, rep.blocking), {}).setdefault(
                        chi, []).append(rep.eps_mps)
    scan_rows = []
    for (n, d, blocking), by_chi in runs.items():
        scan = ChiScan(tuple(ChiScanRow(chi, blocking, _median(eps), float(np.std(eps)))
                             for chi, eps in sorted(by_chi.items())))
        try:
            # no chi past the exact bond truncates anything
            chi_h2 = repr(min(scan.extrapolate_chi(REFERENCE_PARAMS.eps_2q),
                              float(exact[n, d, blocking])))
        except FitError:  # one bond dimension, flat medians, or beyond float range
            chi_h2 = ""
        scan_rows.extend(f"{n},{d},{blocking},{r.chi},{r.eps_median!r},"
                         f"{r.eps_std!r},{len(by_chi[r.chi])},{chi_h2}"
                         for r in scan.rows)
    out = Path(cfg.out)
    return [_write_csv(out / "mps_runs.csv", MPS_CSV_HEADER, rows),
            _write_csv(out / "mps_scan.csv", MPS_SCAN_CSV_HEADER, scan_rows)]


def cmd_bootstrap(cfg: RunConfig) -> list[Path]:
    pooled = cfg.n_jobs * cfg.n_per
    rows = []
    for k in range(min(cfg.max_k, pooled) + 1):
        rows.append(f"{cfg.n_jobs},{cfg.n_per},{k},"
                    f"{p_aggregate(k, pooled)!r},"
                    f"{p_double(k, cfg.n_jobs, cfg.n_per)!r}")
    return [_write_csv(Path(cfg.out) / "resampling_probs.csv",
                       BOOT_CSV_HEADER, rows)]


def cmd_coverage(cfg: RunConfig) -> list[Path]:
    rows = []
    for mu in cfg.mu:  # every mu runs from the same seed
        model = ExperimentModel(mu=mu, base_eps=cfg.base_eps,
                                n_gates=cfg.gates, observable=cfg.observable)
        rows.extend(coverage(model, cfg.instances, circuits=cfg.circuits,
                             shots=cfg.shots, r=cfg.resamples,
                             seed=cfg.seed).csv_rows())
    return [_write_csv(Path(cfg.out) / "coverage.csv", COVERAGE_CSV_HEADER, rows)]


_COMMANDS = {
    "generate": cmd_generate,
    "cost": cmd_cost,
    "fidelity": cmd_fidelity,
    "mps": cmd_mps,
    "bootstrap": cmd_bootstrap,
    "coverage": cmd_coverage,
}


def _int_list(p, name, default, help_text):
    p.add_argument(name, type=int, nargs="+", default=default, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcsw",
        description="Reproducible experiment batches over random-geometry circuits")
    sub = parser.add_subparsers(dest="command", required=True)

    def out_flag(p):
        p.add_argument("--out", default="results", help="output directory")

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        out_flag(p)

    def circuit_flags(p):
        p.add_argument("--ensemble", choices=["rg", "2d"], default="rg")
        _int_list(p, "--n", [12], "qubit counts")
        _int_list(p, "--d", [6], "circuit depths")
        p.add_argument("--instances", type=int, default=1,
                       help="independent circuits per grid cell")

    g = sub.add_parser("generate", help="write circuit JSON and QASM files")
    circuit_flags(g)
    common(g)

    about = ("contraction cost: cost_rows.csv per instance, cost_summary.csv "
             "per (N, d), and cost_frontier.csv, the cost model's largest "
             "effective qubit number at H2's error per gate slot in a time "
             f"budget of {TIME_BUDGET:g} shots")
    c = sub.add_parser("cost", help=about, description=about)
    circuit_flags(c)
    c.add_argument("--budget", type=int, default=4,
                   help="contraction-order search budget")
    c.add_argument("--width-budget", type=int, default=None,
                   help="log2 of the sliced width budget; omit to skip slicing")
    common(c)

    about = ("fidelity.csv: XEB, direct (mean trajectory fidelity of the XEB "
             "circuits), mirror and gate-counting rows under simulated noise")
    f = sub.add_parser("fidelity", help=about, description=about)
    circuit_flags(f)
    f.add_argument("--noise-eps2q", type=float, default=0.0)
    f.add_argument("--noise-mem", type=float, default=0.0)
    f.add_argument("--spam", type=float, default=0.0)
    f.add_argument("--trajectories", type=int, default=32)
    f.add_argument("--shots", type=int, default=256,
                   help="samples per circuit, spread over trajectories")
    f.add_argument("--resamples", type=int, default=300)
    f.add_argument("--xeb-cap", type=int, default=20,
                   help="largest qubit count for which ideal output "
                        "probabilities are computed")
    common(f)

    about = ("truncated-chain error per gate: mps_runs.csv per run, and "
             "mps_scan.csv per (N, d, blocking, chi) with the chi extrapolated "
             "to H2's two-qubit error rate")
    m = sub.add_parser("mps", help=about, description=about)
    circuit_flags(m)
    _int_list(m, "--chi", [8], "bond dimensions")
    _int_list(m, "--blocks", [2], "block counts")
    common(m)

    b = sub.add_parser("bootstrap", help="analytic resampling distributions")
    b.add_argument("--n-jobs", type=int, default=50)
    b.add_argument("--n-per", type=int, default=20)
    b.add_argument("--max-k", type=int, default=12)
    out_flag(b)  # closed-form tables: no seed

    v = sub.add_parser("coverage", help="interval coverage of simulated experiments")
    v.add_argument("--mu", type=float, nargs="+", default=[0.0],
                   help="relative spreads of the per-circuit error rate")
    v.add_argument("--observable", choices=["xeb", "mb"], default="xeb")
    v.add_argument("--base-eps", type=float, default=2e-3)
    v.add_argument("--gates", type=int, default=100)
    v.add_argument("--instances", type=int, default=100,
                   help="number of simulated experiments")
    v.add_argument("--circuits", type=int, default=50)
    v.add_argument("--shots", type=int, default=20)
    v.add_argument("--resamples", type=int, default=300)
    common(v)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    names = {f.name for f in dataclasses.fields(RunConfig)}
    kwargs = {}
    for key, val in vars(args).items():
        if key in names:
            kwargs[key] = tuple(val) if isinstance(val, list) else val
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"rcsw {args.command}: error: {exc}", file=sys.stderr)
        return 2
    for path in _COMMANDS[cfg.command](cfg):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
