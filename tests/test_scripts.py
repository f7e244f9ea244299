"""Smoke tests of the experiment scripts: each runs at a small size and
prints its header line, and rejects a bad flag before it simulates."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(argv):
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv,first_line", [
    (["cost_scan.py", "--sizes", "8", "16", "--depth", "4", "--instances", "2",
      "--budget", "1"],
     "ensemble    N   d  C_median    C_max"),
    (["estimator_agreement.py", "--n", "6", "--depths", "2", "4", "--instances", "2",
      "--trajectories", "8", "--shots", "2"],
     "N = 6, eps_2q = 0.008, eps_mem = 0.001"),
    (["chi_extrapolation.py", "--n", "8", "--depth", "4", "--instances", "2",
      "--chis", "2", "4"],
     "N = 8, d = 4, 2 circuits"),
    (["coverage_sweep.py", "--mus", "0.0", "0.3", "--experiments", "5",
      "--circuits", "5", "--shots", "10", "--resamples", "100"],
     "observable = xeb, base_eps = 0.002, n_gates = 100, nominal = 0.6827"),
], ids=["cost_scan", "estimator_agreement", "chi_extrapolation", "coverage_sweep"])
def test_script_runs(argv, first_line):
    out = _run_script(argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].strip() == first_line


@pytest.mark.parametrize("argv,message", [
    (["cost_scan.py", "--instances", "0"], "--instances must be at least 1"),
    (["cost_scan.py", "--sizes", "8", "--depth", "8"], "--sizes must be even and above --depth"),
    (["cost_scan.py", "--sizes", "8", "9"], "--sizes must be even and above --depth"),
    (["cost_scan.py", "--depth", "0"], "--depth must be at least 1"),
    (["cost_scan.py", "--eps", "0"], "--eps must be positive"),
    (["cost_scan.py", "--time-budget", "0.5"],
     "total time budget is below the per-shot time"),
    (["estimator_agreement.py", "--n", "7"], "--n must be even"),
    (["estimator_agreement.py", "--n", "6", "--depths", "2", "6"],
     "--depths must lie in [1, n)"),
    (["estimator_agreement.py", "--eps2q", "2"], "eps_2q must lie in [0, 1]"),
    (["estimator_agreement.py", "--eps-mem", "-0.1"], "eps_mem must lie in [0, 1]"),
    (["estimator_agreement.py", "--trajectories", "0"],
     "--trajectories and --shots must be at least 1"),
    (["estimator_agreement.py", "--shots", "0"],
     "--trajectories and --shots must be at least 1"),
    (["chi_extrapolation.py", "--instances", "0"], "--instances must be at least 1"),
    (["chi_extrapolation.py", "--n", "7"], "--n must be even"),
    (["coverage_sweep.py", "--resamples", "99"], "--resamples must be at least 100"),
    (["coverage_sweep.py", "--shots", "0"],
     "--experiments, --circuits and --shots must be at least 1"),
    (["coverage_sweep.py", "--base-eps", "2"], "base_eps must lie in [0, 1]"),
    (["coverage_sweep.py", "--gates", "-1"], "n_gates must be nonnegative"),
    (["coverage_sweep.py", "--mus", "0.1", "nan"], "mu must be finite and nonnegative"),
    (["coverage_sweep.py", "--mus", "inf"], "mu must be finite and nonnegative"),
    (["cost_scan.py", "--seed", "-1"], "--seed must be nonnegative"),
    (["estimator_agreement.py", "--seed", "-1"], "--seed must be nonnegative"),
    (["chi_extrapolation.py", "--seed", "-1"], "--seed must be nonnegative"),
    (["coverage_sweep.py", "--seed", "-1"], "--seed must be nonnegative"),
    (["cost_scan.py", "--eps", "inf"], "--eps must be positive and finite"),
    (["cost_scan.py", "--eps", "nan"], "--eps must be positive and finite"),
    (["cost_scan.py", "--time-budget", "nan"], "--time-budget must be finite"),
    (["cost_scan.py", "--time-budget", "inf"], "--time-budget must be finite"),
    (["chi_extrapolation.py", "--target-eps", "nan"], "--target-eps must lie in (0, 1)"),
    (["chi_extrapolation.py", "--target-eps", "-1"], "--target-eps must lie in (0, 1)"),
    (["chi_extrapolation.py", "--target-eps", "1"], "--target-eps must lie in (0, 1)"),
], ids=["cost_scan", "cost_scan-size-not-above-depth", "cost_scan-odd-size",
        "cost_scan-depth", "cost_scan-eps", "cost_scan-time-budget",
        "estimator_agreement", "estimator_agreement-depth",
        "estimator_agreement-eps2q", "estimator_agreement-eps-mem",
        "estimator_agreement-trajectories", "estimator_agreement-shots",
        "chi_extrapolation", "chi_extrapolation-odd-n", "coverage_sweep",
        "coverage_sweep-shots", "coverage_sweep-base-eps", "coverage_sweep-gates",
        "coverage_sweep-nan-mu", "coverage_sweep-infinite-mu", "cost_scan-seed",
        "estimator_agreement-seed", "chi_extrapolation-seed", "coverage_sweep-seed",
        "cost_scan-infinite-eps", "cost_scan-nan-eps", "cost_scan-nan-time-budget",
        "cost_scan-infinite-time-budget", "chi_extrapolation-nan-target",
        "chi_extrapolation-negative-target", "chi_extrapolation-unit-target"])
def test_script_rejects_bad_flag(argv, message):
    out = _run_script(argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert f"{argv[0]}: error: {message}" in out.stderr
