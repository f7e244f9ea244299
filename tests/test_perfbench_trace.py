"""The benchmark's trace mode runs against the library as it stands.

``perfbench/child.py`` wraps library functions at the names ``rcsw.cli``
looks them up by, so renaming one of them breaks a traced benchmark run.
Each case runs one small command through the child in trace mode, in a
fresh interpreter, and checks that it exits cleanly and records the spans
that command makes.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv,spans", [
    (["cost", "--n", "12", "--d", "4", "--instances", "2", "--budget", "1",
      "--width-budget", "4"],
     {"circuits.build_rg_circuit", "graphs.sample_colored_graph", "tn.circuit_to_tn",
      "tn.optimize_order", "tn.slice_tree", "tn.summarize"}),
    (["cost", "--ensemble", "2d", "--n", "9", "--d", "4", "--budget", "1"],
     {"circuits.build_2d_circuit", "graphs.sample_grid", "tn.circuit_to_tn",
      "tn.optimize_order", "tn.summarize"}),
    (["fidelity", "--n", "6", "--d", "3", "--instances", "2", "--trajectories", "8",
      "--noise-eps2q", "0.01"],
     {"bootstrap.bootstrap_ci", "circuits.build_mirror", "circuits.build_rg_circuit",
      "estimators.gate_counting", "graphs.sample_colored_graph",
      "statevector.run_trajectories"}),
    (["mps", "--n", "8", "--d", "3", "--chi", "2", "4", "--blocks", "2"],
     {"circuits.build_rg_circuit", "graphs.sample_colored_graph", "mps.evolve"}),
], ids=["cost-sliced", "cost-2d", "fidelity", "mps"])
def test_trace_mode_records_spans(argv, spans, tmp_path):
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = tmp_path / "result.json"
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(result), "trace", "t",
         *argv, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    doc = json.loads(result.read_text())
    assert doc["exit_code"] == 0
    assert "error" not in doc
    assert {s["name"] for s in doc["spans"]} == spans
