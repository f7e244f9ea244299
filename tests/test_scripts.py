"""Smoke tests of the experiment scripts: each runs at a small size and
prints its header line, and rejects a bad flag before it simulates."""
import os
import re
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


RUNS = [
    (["cost_scan.py", "--sizes", "8", "16", "--depth", "4", "--instances", "2",
      "--budget", "1"],
     "ensemble    N   d  C_median    C_max"),
]
RUN_IDS = [Path(argv[0]).stem for argv, _ in RUNS]


@pytest.mark.parametrize("argv,first_line", RUNS, ids=RUN_IDS)
def test_script_runs(argv, first_line):
    out = _run_script(argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].strip() == first_line


def test_scripts_docs_and_smoke_tests_agree():
    # a script added or deleted must gain or lose its README bullet and
    # its smoke test with it
    files = {p.stem for p in (ROOT / "scripts").glob("*.py")}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Experiment scripts\n", 1)[1].split("\n## ", 1)[0]
    bullets = set(re.findall(r"^- `scripts/(\w+)\.py`", section, flags=re.M))
    assert files == bullets == set(RUN_IDS)


@pytest.mark.parametrize("argv,message", [
    (["cost_scan.py", "--instances", "0"], "--instances must be at least 1"),
    (["cost_scan.py", "--sizes", "8", "--depth", "8"], "--sizes must be even and above --depth"),
    (["cost_scan.py", "--sizes", "8", "9"], "--sizes must be even and above --depth"),
    (["cost_scan.py", "--depth", "0"], "--depth must be at least 1"),
    (["cost_scan.py", "--eps", "0"], "--eps must be positive"),
    (["cost_scan.py", "--time-budget", "0.5"],
     "total time budget is below the per-shot time"),
    (["cost_scan.py", "--seed", "-1"], "--seed must be nonnegative"),
    (["cost_scan.py", "--eps", "inf"], "--eps must be positive and finite"),
    (["cost_scan.py", "--eps", "nan"], "--eps must be positive and finite"),
    (["cost_scan.py", "--time-budget", "nan"], "--time-budget must be finite"),
    (["cost_scan.py", "--time-budget", "inf"], "--time-budget must be finite"),
    (["cost_scan.py", "--budget", "0"], "--budget must be at least 1"),
    (["cost_scan.py", "--sizes", "8", "8"], "--sizes has a repeated value"),
], ids=["cost_scan", "cost_scan-size-not-above-depth", "cost_scan-odd-size",
        "cost_scan-depth", "cost_scan-eps", "cost_scan-time-budget", "cost_scan-seed",
        "cost_scan-infinite-eps", "cost_scan-nan-eps", "cost_scan-nan-time-budget",
        "cost_scan-infinite-time-budget", "cost_scan-budget", "cost_scan-repeated-size"])
def test_script_rejects_bad_flag(argv, message):
    out = _run_script(argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert f"{argv[0]}: error: {message}" in out.stderr
