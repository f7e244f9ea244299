"""Benchmark of the rcsw command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one client in a closed loop.  Every rcsw invocation runs in a
fresh interpreter (``perfbench/child.py``) and starts only after the
previous one has ended.  A round runs the workload's invocations once, in
order.  After a warm-up invocation, rounds repeat (at least ``MIN_ROUNDS``)
for as long as the next one, judged by the rounds before it, would run at
least half its length inside ``--seconds`` from the start of the run, so
that runs last ``--seconds`` on average, whatever the length of a round.
The workload seed
seeds the draw of each round's rcsw ``--seed`` from a pool of ``SEED_POOL``
seeds whose outputs are recorded in ``reference.json``, so one run averages
over several circuit instances; the program sees only the generated flags.
Every round's outputs are checked, and each requested output row counts as
one operation, attempted or failed.

``--trace 0`` reports the end-to-end metrics, medians over the rounds:

- ``setup_s``: spawn of a fresh interpreter until ``rcsw.cli`` is imported
  and its ``RunConfig`` built (median over all invocations, topped up with
  set-up-only invocations to at least ``MIN_SETUP_SAMPLES``);
- ``run_s``: end of set-up until every output file is written, summed over
  the round's invocations;
- ``cpu_s``: user + system CPU of the children, summed likewise;
- ``peak_rss_mb``: the largest resident set of any child of the round.

``--trace 1`` alternates untraced and traced rounds, each pair on one rcsw
seed.  The traced child
records a span around every call into the rcsw modules at the names
``rcsw.cli`` looks them up; the per-layer metrics are the self times and
counts of the traced round with the median ``run_s``.  ``trace.overhead_s``
is the median traced ``run_s`` minus the median untraced one.

Each metric is printed as ``name = value unit``; ``--trace 1`` prints the
end-to-end metrics of its untraced rounds too, so that one command prints
every metric.  The last line is the JSON result, with the metrics of the
mode.  A record with the machine facts, every round and, when traced,
every span goes to ``perfbench/out/``.  The exit code is 1 when a check
fails and 2 when the rcsw sources are missing.

Every child runs single-threaded: ``RCSW_THREADS=1`` and one BLAS/OpenMP
thread, so the pool times the BLAS threads stays within the CPU count.  At
the CLI default (a 2-thread pool on 2 CPUs) the wall time of the pooled
workloads tracked how much CPU the host took away from one of the two
virtual CPUs: over ten seeds ``run_s`` spread by 32-39% of its median while
``cpu_s`` spread by 5-12%.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORK = OUT / f"work-{os.getpid()}"  # this process's children write here
REFERENCE = HERE / "reference.json"

SEED_POOL = 32  # rcsw seeds with recorded reference outputs
MIN_SETUP_SAMPLES = 5
MIN_ROUNDS = 2  # with --trace 1, one untraced and one traced
RUN_LIMIT_S = 150.0  # children still running this long after the start are killed
CHILD_THREADS = {"RCSW_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
XEB_MB_RTOL = 1e-9  # the CLI promises seed-for-seed output
F_MPS_RTOL = 0.10  # the tolerance of acceptance test 11


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[tuple[str, ...], ...]  # rcsw arguments, less --seed/--out


NOISE = ("--noise-eps2q", "1.5e-3", "--noise-mem", "4e-4")

# Two workloads, so that each run can last a minute: on a 2-vCPU shared host
# the host's speed drifted by about 20% over minutes, and ten runs spread by
# 20% of their median in 28 s runs, 16% in 42 s and 14% in 60 s (fixed-work
# rounds of a 20-minute series).  For the same reason there is no workload
# whose state outgrows the L2, such as an ideal n=18 fidelity run (4 MiB):
# it followed the host most closely, and ten 25 s runs of it spread by 16-27%.
WORKLOADS = {
    "fidelity-traj": Workload(
        "n=12 noisy trajectories: 64 KiB state, bound by per-gate Python "
        "overhead; most trajectories share long error-free prefixes",
        (("fidelity", "--n", "12", "--d", "10", "--instances", "2",
          "--trajectories", "64", *NOISE),)),
    "cost-mps-scan": Workload(
        "simulation cost: order search on a deep circuit, slicing under a width "
        "budget, truncated MPS over chi and blocks; the only caller of rcsw.tn "
        "and rcsw.mps",
        (("cost", "--n", "36", "--d", "12", "--instances", "2",
          "--budget", "2"),
         ("cost", "--n", "24", "--d", "6", "--instances", "3",
          "--budget", "2", "--width-budget", "16"),
         ("mps", "--n", "16", "--d", "8", "--chi", "8", "16", "32",
          "--blocks", "2", "4", "--instances", "1"))),
}

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------- children

def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def invoke(mode: str, argv, run_id: str, env: dict, stop_at: float | None = None) -> dict:
    """Run one child to completion; time it from the spawn.

    The child is killed at ``stop_at`` (default: ``RUN_LIMIT_S`` after the spawn).
    """
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "out").mkdir(parents=True)
    result_path = WORK / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, run_id,
           *argv, "--out", str(WORK / "out")]
    with open(WORK / "child.err", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err)
        limit = RUN_LIMIT_S if stop_at is None else max(0.0, stop_at - t0)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"argv": list(argv), "mode": mode, "status": proc.returncode,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}
    if proc.returncode != 0 or not result_path.exists():
        rec["error"] = (WORK / "child.err").read_text(errors="replace")[-2000:]
        return rec
    res = json.loads(result_path.read_text())
    if "setup_end" not in res:
        rec["error"] = res.get("error", "rcsw rejected the command line")
        return rec
    rec["setup_s"] = res["setup_end"] - t0
    if mode != "setup":
        rec["run_s"] = res["end"] - res["setup_end"]
        rec["status"] = res["exit_code"]
        rec["spans"] = res["spans"]
        if "error" in res:
            rec["error"] = res["error"]
    for key in ("facts", "bootstrap_import_s"):
        if key in res:
            rec[key] = res[key]
    return rec


# ----------------------------------------------------------------- checks

def flag(argv, name: str, default: list[str]) -> list[str]:
    """Values given after a flag, up to the next flag."""
    if name not in argv:
        return default
    vals = []
    for tok in argv[argv.index(name) + 1:]:
        if tok.startswith("--"):
            break
        vals.append(tok)
    return vals


def read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def fidelity_values(out: Path) -> dict:
    return {f"{r['estimator']},{r['N']},{r['d']}": float(r["value"])
            for r in read_csv(out / "fidelity.csv")}


def mps_values(out: Path) -> dict:
    return {f"{r['N']},{r['d']},{r['chi']},{r['blocking']},{r['seed']}": float(r["F_mps"])
            for r in read_csv(out / "mps_runs.csv")}


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def check(argv, out: Path, ok_run: bool, ref: dict | None) -> tuple[int, list[str], dict]:
    """Requested rows, the failures among them, and quality figures."""
    ns, ds = flag(argv, "--n", ["12"]), flag(argv, "--d", ["6"])
    instances = int(flag(argv, "--instances", ["1"])[0])
    seed = int(flag(argv, "--seed", ["0"])[0])
    command = argv[0]
    ref = ref or {}
    fails: list[str] = []
    quality: dict = {}
    if command == "fidelity":
        keys = [f"{e},{n},{d}" for n in ns for d in ds for e in ("xeb", "mb", "gc")]
        got = fidelity_values(out) if ok_run else {}
        for k in keys:
            if k not in got:
                fails.append(f"{k}: row missing")
            elif k not in ref:
                fails.append(f"{k}: no reference value")
            elif not close(got[k], ref[k], XEB_MB_RTOL):
                fails.append(f"{k}: {got[k]!r} != reference {ref[k]!r}")
        return len(keys), fails, quality
    if command == "cost":
        keys = [(n, d, str(seed + i)) for n in ns for d in ds for i in range(instances)]
        rows = {(r["N"], r["d"], r["seed"]): r
                for r in (read_csv(out / "cost_rows.csv") if ok_run else [])}
        sliced = "--width-budget" in argv
        flops, flops_sliced = [], []
        for k in keys:
            r = rows.get(k)
            if r is None:
                fails.append(f"cost {k}: row missing")
                continue
            c_density, n = float(r["C_density"]), int(r["N"])
            flops.append(float(r["log2_flops"]))
            if not 0.75 <= c_density <= 1.0 + 6.0 / n:
                fails.append(f"cost {k}: C_density {c_density} outside [0.75, 1+6/N]")
            if sliced:
                if not r["log2_flops_sliced"]:
                    fails.append(f"cost {k}: slicing gave no result")
                    continue
                flops_sliced.append(float(r["log2_flops_sliced"]))
                if flops_sliced[-1] < flops[-1]:
                    fails.append(f"cost {k}: log2_flops_sliced below log2_flops")
        quality = {"log2_flops": flops, "log2_flops_sliced": flops_sliced}
        return len(keys), fails, quality
    if command == "mps":
        n_rows = (len(ns) * len(ds) * len(flag(argv, "--chi", ["8"]))
                  * len(flag(argv, "--blocks", ["2"])) * instances)
        got = mps_values(out) if ok_run else {}
        for k, f in got.items():
            if not 0.0 < f <= 1.0:
                fails.append(f"mps {k}: F_mps {f} outside (0, 1]")
            elif k not in ref:
                fails.append(f"mps {k}: no reference value")
            elif not close(f, ref[k], F_MPS_RTOL):
                fails.append(f"mps {k}: F_mps {f} not within 10% of {ref[k]}")
        if len(got) < n_rows:
            fails.extend(["mps: row missing"] * (n_rows - len(got)))
        quality = {"f_mps": list(got.values())}
        return n_rows, fails, quality
    raise ValueError(f"no check for command {command!r}")


# ----------------------------------------------------------------- traces

def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration less the part of it its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


PER_LAYER = {
    "graphs.sample_s": "s", "graphs.calls": "count",
    "circuits.build_s": "s", "circuits.mirror_s": "s",
    "statevector.traj_self_s": "s", "statevector.traj_count": "count",
    "statevector.traj_per_s": "1/s", "statevector.run_calls": "count",
    "statevector.run_self_s": "s", "statevector.amp_updates": "count",
    "statevector.amp_updates_per_s": "1/s", "statevector.bytes_computed": "B",
    "statevector.sample_s": "s",
    "estimators.gate_counting_s": "s",
    "bootstrap.ci_calls": "count", "bootstrap.ci_s": "s",
    "bootstrap.resamples": "count", "bootstrap.import_s": "s",
    "tn.to_tn_s": "s", "tn.order_calls": "count", "tn.order_s": "s",
    "tn.slice_calls": "count", "tn.slice_s": "s", "tn.slices": "count",
    "tn.slice_infeasible": "count", "tn.summarize_s": "s",
    "tn.log2_flops": "log2", "tn.log2_flops_sliced": "log2",
    "mps.evolve_calls": "count", "mps.evolve_s": "s", "mps.flops_est": "flop",
    "mps.flops_per_s": "flop/s", "mps.max_bond": "count", "mps.f_mps": "ratio",
    "cli.self_s": "s", "cli.span_overlap": "ratio",
    "trace.run_s": "s", "trace.overhead_s": "s",
}

# span name -> the per-layer time metric its self time adds to
SPAN_TIME = {
    "graphs.sample_colored_graph": "graphs.sample_s",
    "graphs.sample_grid": "graphs.sample_s",
    "circuits.build_rg_circuit": "circuits.build_s",
    "circuits.build_2d_circuit": "circuits.build_s",
    "circuits.build_mirror": "circuits.mirror_s",
    "statevector.run": "statevector.run_self_s",
    "statevector.run_trajectories": "statevector.traj_self_s",
    "statevector.sample": "statevector.sample_s",
    "estimators.gate_counting": "estimators.gate_counting_s",
    "bootstrap.bootstrap_ci": "bootstrap.ci_s",
    "tn.circuit_to_tn": "tn.to_tn_s",
    "tn.optimize_order": "tn.order_s",
    "tn.slice_tree": "tn.slice_s",
    "tn.summarize": "tn.summarize_s",
    "mps.evolve": "mps.evolve_s",
}
SPAN_CALLS = {
    "graphs.sample_colored_graph": "graphs.calls",
    "graphs.sample_grid": "graphs.calls",
    "statevector.run": "statevector.run_calls",
    "bootstrap.bootstrap_ci": "bootstrap.ci_calls",
    "tn.optimize_order": "tn.order_calls",
    "tn.slice_tree": "tn.slice_calls",
    "mps.evolve": "mps.evolve_calls",
}
SPAN_COUNTS = {"traj": "statevector.traj_count", "amp_updates": "statevector.amp_updates",
               "resamples": "bootstrap.resamples", "slices": "tn.slices",
               "flops_est": "mps.flops_est"}


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(rnd: dict) -> dict:
    """Per-layer metrics of one traced round (all its invocations)."""
    m = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    top = 0.0
    for inv in rnd["invocations"]:
        spans = inv.get("spans", [])
        selfs = self_times(spans)
        for s in spans:
            m[SPAN_TIME[s["name"]]] += selfs[s["id"]]
            if s["name"] in SPAN_CALLS:
                m[SPAN_CALLS[s["name"]]] += 1
            for key, metric in SPAN_COUNTS.items():
                m[metric] += s.get(key, 0)
            m["mps.max_bond"] = max(m["mps.max_bond"], s.get("max_bond", 0))
            if s["name"] == "tn.slice_tree" and s.get("error") == "InfeasibleBudget":
                m["tn.slice_infeasible"] += 1
            if s["parent"] == 0:
                top += s["end"] - s["start"]
        m["bootstrap.import_s"] += inv.get("bootstrap_import_s", 0.0)
    sv_s = m["statevector.run_self_s"] + m["statevector.traj_self_s"]
    m["statevector.traj_per_s"] = ratio(m["statevector.traj_count"], m["statevector.traj_self_s"])
    m["statevector.amp_updates_per_s"] = ratio(m["statevector.amp_updates"], sv_s)
    m["statevector.bytes_computed"] = 32 * m["statevector.amp_updates"]  # 16 B read + 16 B written
    m["mps.flops_per_s"] = ratio(m["mps.flops_est"], m["mps.evolve_s"])
    for name in ("log2_flops", "log2_flops_sliced"):
        vals = rnd["quality"].get(name)
        m[f"tn.{name}"] = statistics.median(vals) if vals else 0.0
    f_mps = rnd["quality"].get("f_mps")
    m["mps.f_mps"] = statistics.median(f_mps) if f_mps else 0.0
    m["trace.run_s"] = rnd["run_s"]
    m["cli.self_s"] = rnd["run_s"] - top
    m["cli.span_overlap"] = ratio(top, rnd["run_s"])
    return m


# ------------------------------------------------------------------- runs

def run_round(wl: Workload, rcsw_seed: int, mode: str, run_id: str, env: dict,
              reference: dict, stop_at: float | None = None) -> dict:
    rnd = {"mode": mode, "rcsw_seed": rcsw_seed, "invocations": [], "attempted": 0,
           "failed": 0, "failures": [], "quality": {}, "run_s": 0.0, "cpu_s": 0.0,
           "peak_rss_mb": 0.0}
    for j, args in enumerate(wl.commands):
        argv = [*args, "--seed", str(rcsw_seed)]
        inv = invoke(mode, argv, f"{run_id}-i{j}", env, stop_at)
        ok_run = inv["status"] == 0 and "error" not in inv
        ref = reference.get(reference_key(argv))
        attempted, fails, quality = check(argv, WORK / "out", ok_run, ref)
        # A failed run leaves its rows missing, so each counts as failed.
        rnd["failed"] += min(attempted, len(fails))
        if not ok_run:
            fails.insert(0, f"{' '.join(argv)}: exit {inv['status']}: {inv.get('error', '')}")
        rnd["invocations"].append(inv)
        rnd["attempted"] += attempted
        rnd["failures"].extend(fails)
        for key, vals in quality.items():
            rnd["quality"].setdefault(key, []).extend(vals)
        rnd["run_s"] += inv.get("run_s", 0.0)
        rnd["cpu_s"] += inv["cpu_s"]
        rnd["peak_rss_mb"] = max(rnd["peak_rss_mb"], inv["peak_rss_mb"])
    return rnd


def reference_key(argv) -> str:
    return " ".join(argv)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["outputs"] if REFERENCE.exists() else {}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # the benchmark may run from an exported tree
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cache_bytes(level: int) -> int | None:
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], check=True,
                             capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return int(out) if out.isdigit() else None


def machine_facts() -> dict:
    return {"git_sha": git_sha(), "src_sha256": source_digest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "child_threads": CHILD_THREADS,
            "l2_cache_bytes": cache_bytes(2), "l3_cache_bytes": cache_bytes(3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind as on Ctrl-C: the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rcsw" / "cli.py").exists():
        print(f"rcsw sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    env = child_env()
    reference = load_reference()

    # The run, warm-up included, ends near --seconds: a round starts only if
    # half a round like the ones before still fits.
    t_start = time.monotonic()
    deadline, stop_at = t_start + args.seconds, t_start + RUN_LIMIT_S
    try:
        warm = invoke("setup", [wl.commands[0][0]], f"{label}-warmup", env, stop_at)
        rounds: list[dict] = []
        draw = random.Random(args.seed)
        while time.monotonic() < stop_at:
            mode = "trace" if args.trace and len(rounds) % 2 else "run"
            if len(rounds) >= MIN_ROUNDS:
                walls = [r["wall_s"] for r in rounds if r["mode"] == mode]
                if time.monotonic() + statistics.median(walls) / 2 > deadline:
                    break
            if mode == "run":
                rcsw_seed = draw.randrange(SEED_POOL)
            t = time.monotonic()
            rounds.append(run_round(wl, rcsw_seed, mode,
                                    f"{label}-r{len(rounds)}", env, reference, stop_at))
            rounds[-1]["wall_s"] = time.monotonic() - t
        untraced = [r for r in rounds if r["mode"] == "run"]
        setups = [inv["setup_s"] for r in untraced for inv in r["invocations"]
                  if "setup_s" in inv]
        while not args.trace and 0 < len(setups) < MIN_SETUP_SAMPLES:
            probe = invoke("setup", [wl.commands[0][0]], f"{label}-setup{len(setups)}", env,
                           stop_at)
            if "setup_s" not in probe:
                break
            setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    facts = {**machine_facts(), **warm.get("facts", {})}
    end_to_end = {"setup_s": statistics.median(setups) if setups else 0.0,
                  **{k: statistics.median(r[k] for r in untraced)
                     for k in ("run_s", "cpu_s", "peak_rss_mb")}}
    metrics, units = end_to_end, END_TO_END
    if args.trace:
        traced = sorted((r for r in rounds if r["mode"] == "trace"), key=lambda r: r["run_s"])
        metrics = layer_metrics(traced[(len(traced) - 1) // 2])
        metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                       - end_to_end["run_s"])
        units = PER_LAYER

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "facts": facts,
              "setup_samples": setups, "end_to_end": end_to_end, "metrics": metrics,
              "attempted": attempted, "failed": failed, "failures": failures,
              "rounds": rounds}
    record_path = OUT / f"{label}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print("facts " + json.dumps(facts, sort_keys=True))
    for name, value in {**end_to_end, **metrics}.items():
        print(f"{name} = {value:.6g} {END_TO_END.get(name) or PER_LAYER[name]}")
    print(f"rows: {attempted} attempted, {failed} failed "
          f"(failed_frac = {failed}/{attempted} = {ratio(failed, attempted):.4g}), "
          f"{len(rounds)} rounds, record {record_path.relative_to(ROOT)}")
    for f in failures[:10]:
        print(f"FAILED {f}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
