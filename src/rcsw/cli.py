"""Batch command line driving reproducible experiments.

Subcommands generate circuit files, price contraction costs, estimate
fidelities from simulated noisy runs, scan chain-truncation error rates,
tabulate resampling distributions, and run interval-coverage studies.
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
from .errors import CapacityError, InfeasibleBudget
from .estimators import GateCountParams, gate_counting
from .mps import MPS_CSV_HEADER, evolve
from .tn import CSV_HEADER, circuit_to_tn, optimize_order, slice_tree, summarize

BOOT_CSV_HEADER = "n_jobs,n_per,k,p_aggregate,p_double"
COST_SUMMARY_HEADER = "ensemble,N,d,c_median,c_min,c_max,n_instances,seed0"
FIDELITY_CSV_HEADER = "ensemble,N,d,estimator,value,ci_low,ci_high,n_samples,seed"


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
    mu: float = 0.0
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
        if self.instances < 1 or self.budget < 1 or self.shots < 1:
            raise ValueError("instances, budget, and shots must be positive")
        if self.width_budget is not None and self.width_budget < 1:
            raise ValueError("width budget must be at least 1")
        if self.trajectories < 1:
            raise ValueError("trajectories must be positive")
        if self.resamples < 100:
            raise ValueError("resamples must be at least 100")
        if min(self.n, default=1) < 1 or min(self.d, default=1) < 1:
            raise ValueError("qubit counts and depths must be positive")
        if self.ensemble == "rg":
            for n, d in itertools.product(self.n, self.d):
                if n % 2 or d >= n:
                    raise ValueError(f"rg circuits need an even n and d < n, "
                                     f"got n={n}, d={d}")
        if min(self.chi, default=1) < 1:
            raise ValueError("bond dimensions must be positive")
        top = min(self.n, default=1)
        if self.command == "mps" and not 1 <= min(self.blocks) <= max(self.blocks) <= top:
            raise ValueError(f"block counts must lie in [1, {top}]")
        for name in ("noise_eps2q", "noise_mem", "spam"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


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
    def one(item):
        n, d, i = item
        s = cfg.seed + i
        c = circuits.build_instance(cfg.ensemble, n, d, s)
        net = circuit_to_tn(c)
        tree = optimize_order(net, budget=cfg.budget, seed=s)
        sliced = None
        if cfg.width_budget is not None:
            try:
                sliced = slice_tree(net, tree, 2.0 ** cfg.width_budget,
                                    budget=max(1, cfg.budget // 2), seed=s + 1)
            except InfeasibleBudget as exc:  # keep the unsliced columns
                print(f"rcsw cost: slicing skipped at n={n}, d={d}, seed={s}: "
                      f"{exc}", file=sys.stderr)
        return summarize(c, tree, sliced_tree=sliced, seed=s)

    items = [(n, d, i) for n, d in _grid(cfg) for i in range(cfg.instances)]
    summaries = [one(item) for item in items]
    out = Path(cfg.out)
    rows_path = _write_csv(out / "cost_rows.csv", CSV_HEADER,
                           (s.csv_row() for s in summaries))
    agg_rows = []
    for n, d in _grid(cfg):
        dens = [s.c_density for s, (nn, dd, _) in zip(summaries, items)
                if (nn, dd) == (n, d)]
        agg_rows.append(f"{cfg.ensemble},{n},{d},{float(np.median(dens))!r},"
                        f"{min(dens)!r},{max(dens)!r},{len(dens)},{cfg.seed}")
    sum_path = _write_csv(out / "cost_summary.csv", COST_SUMMARY_HEADER, agg_rows)
    return [rows_path, sum_path]


def _fidelity_report(cfg: RunConfig, estimator: str, cs, nm, cap: int,
                     traj_seed: int, boot_seed: int, score) -> FidelityReport:
    """Bootstrap interval of the per-shot score(c, ideal probabilities, bits).

    Circuit i of cs runs its trajectories from seed traj_seed + i; circuits
    are simulated one at a time, so cs may be a generator.
    """
    spt = max(1, -(-cfg.shots // cfg.trajectories))
    rows = []
    for i, c in enumerate(cs):
        ideal = statevector.run(c, cap=cap)
        probs = ideal.probabilities()
        res = statevector.run_trajectories(
            c, nm, cfg.trajectories, seed=traj_seed + i, shots_per_traj=spt,
            ideal=ideal)
        rows.append(np.array([score(c, probs, x) for x in res.samples]))
    ci = bootstrap_ci(ShotTable(tuple(rows)), method="aggregate",
                      r=cfg.resamples, seed=boot_seed)
    return FidelityReport(estimator, float(ci.estimate), float(ci.lo),
                          float(ci.hi), sum(r.size for r in rows),
                          {"trajectories": cfg.trajectories, "shots_per_traj": spt})


def _xeb_score(c, probs, x) -> float:
    return 2.0 ** c.n * probs[int(x, 2)] - 1.0


def _mb_score(c, probs, x) -> float:
    return 1.0 if x == c.initial_bits else 0.0


def cmd_fidelity(cfg: RunConfig) -> list[Path]:
    nm = statevector.NoiseModel(eps_2q=cfg.noise_eps2q, eps_mem=cfg.noise_mem)
    gc_params = GateCountParams(eps_1q=0.0, eps_2q=cfg.noise_eps2q,
                                p_spam=cfg.spam, eps_mem=cfg.noise_mem)
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
        runs = (("xeb", cs, cfg.xeb_cap, 1000, 101, _xeb_score),
                ("mb", mirrors, statevector.DEFAULT_CAP, 3000, 102, _mb_score))
        reports: list[FidelityReport] = []
        for name, run_cs, cap, traj_seed, boot_seed, score in runs:
            try:
                reports.append(_fidelity_report(cfg, name, run_cs, nm, cap,
                                                cfg.seed + traj_seed,
                                                cfg.seed + boot_seed, score))
            except CapacityError as exc:  # keep the other estimators
                print(f"rcsw fidelity: skipped {name} at n={n}, d={d}: {exc}",
                      file=sys.stderr)
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

    def one(item):
        n, d, i, chi, b = item
        _, rep = evolve(cs[n, d, i], chi, int(b), seed=cfg.seed + i)
        return rep.csv_row()

    items = [(n, d, i, chi, b)
             for n, d in _grid(cfg)
             for chi in cfg.chi
             for b in cfg.blocks
             for i in range(cfg.instances)]
    rows = [one(item) for item in items]
    return [_write_csv(Path(cfg.out) / "mps_runs.csv", MPS_CSV_HEADER, rows)]


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
    model = ExperimentModel(mu=cfg.mu, base_eps=cfg.base_eps,
                            n_gates=cfg.gates, observable=cfg.observable)
    res = coverage(model, cfg.instances, circuits=cfg.circuits,
                   shots=cfg.shots, r=cfg.resamples, seed=cfg.seed)
    return [_write_csv(Path(cfg.out) / "coverage.csv",
                       COVERAGE_CSV_HEADER, res.csv_rows())]


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

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="results", help="output directory")

    def circuit_flags(p):
        p.add_argument("--ensemble", choices=["rg", "2d"], default="rg")
        _int_list(p, "--n", [12], "qubit counts")
        _int_list(p, "--d", [6], "circuit depths")
        p.add_argument("--instances", type=int, default=1,
                       help="independent circuits per grid cell")

    g = sub.add_parser("generate", help="write circuit JSON and QASM files")
    circuit_flags(g)
    common(g)

    c = sub.add_parser("cost", help="contraction cost table over a grid")
    circuit_flags(c)
    c.add_argument("--budget", type=int, default=4,
                   help="contraction-order search budget")
    c.add_argument("--width-budget", type=int, default=None,
                   help="log2 of the sliced width budget; omit to skip slicing")
    common(c)

    f = sub.add_parser("fidelity", help="estimator comparison on simulated noise")
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

    m = sub.add_parser("mps", help="truncated-chain error-per-gate table")
    circuit_flags(m)
    _int_list(m, "--chi", [8], "bond dimensions")
    _int_list(m, "--blocks", [2], "block counts")
    common(m)

    b = sub.add_parser("bootstrap", help="analytic resampling distributions")
    b.add_argument("--n-jobs", type=int, default=50)
    b.add_argument("--n-per", type=int, default=20)
    b.add_argument("--max-k", type=int, default=12)
    common(b)

    v = sub.add_parser("coverage", help="interval coverage of simulated experiments")
    v.add_argument("--mu", type=float, default=0.0,
                   help="relative spread of the per-circuit error rate")
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
