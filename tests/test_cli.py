"""End-to-end checks of the batch command line."""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcsw import circuits, cli
from rcsw.bootstrap import p_aggregate, p_double
from rcsw.mps import MPS_CSV_HEADER, evolve


def run_cli(argv):
    assert cli.main(argv) == 0


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], lines[1:]


class TestGenerate:
    def test_files_and_manifest(self, tmp_path):
        out = tmp_path / "gen"
        run_cli(["generate", "--n", "6", "--d", "3", "--instances", "2",
                 "--seed", "5", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert len(manifest["entries"]) == 2
        for entry in manifest["entries"]:
            c = circuits.deserialize((out / entry["json"]).read_text())
            assert c.n == 6 and c.depth == 3
            assert (out / entry["qasm"]).read_text().startswith("OPENQASM")

    def test_rerun_byte_identical(self, tmp_path):
        args = ["generate", "--n", "6", "--d", "3", "--instances", "2",
                "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        for f in a.iterdir():
            if f.name == "manifest.json":
                continue  # carries a timestamp by design
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_grid_ensemble_2d(self, tmp_path):
        out = tmp_path / "gen2d"
        run_cli(["generate", "--ensemble", "2d", "--n", "9", "--d", "4",
                 "--seed", "1", "--out", str(out)])
        entry = json.loads((out / "manifest.json").read_text())["entries"][0]
        c = circuits.deserialize((out / entry["json"]).read_text())
        assert c.ensemble == "2d" and c.n == 9


class TestCost:
    def test_rows_and_summary(self, tmp_path):
        out = tmp_path / "cost"
        run_cli(["cost", "--n", "6", "8", "--d", "4", "--instances", "2",
                 "--seed", "3", "--budget", "2", "--out", str(out)])
        header, rows = read_csv(out / "cost_rows.csv")
        assert header.startswith("ensemble,N,d,d_eff")
        assert len(rows) == 4
        assert all(r.split(",")[0] == "rg" for r in rows)
        _, srows = read_csv(out / "cost_summary.csv")
        assert len(srows) == 2
        for r in srows:
            parts = r.split(",")
            med, lo, hi = float(parts[3]), float(parts[4]), float(parts[5])
            assert lo <= med <= hi

    def test_width_budget_sliced_column(self, tmp_path):
        out = tmp_path / "cost_w"
        run_cli(["cost", "--n", "8", "--d", "4", "--instances", "1",
                 "--seed", "3", "--budget", "2", "--width-budget", "6",
                 "--out", str(out)])
        _, rows = read_csv(out / "cost_rows.csv")
        assert rows[0].split(",")[6] != ""

    def test_infeasible_width_budget_leaves_column_empty(self, tmp_path, capsys):
        # 60 slices do not bring this circuit down to width 2
        args = ["cost", "--n", "12", "--d", "6", "--instances", "1",
                "--seed", "3", "--budget", "2"]
        out, plain = tmp_path / "cost_inf", tmp_path / "cost_plain"
        run_cli(args + ["--width-budget", "1", "--out", str(out)])
        assert capsys.readouterr().err == (
            "rcsw cost: slicing skipped at n=12, d=6, seed=3: "
            "60 slices did not reach width 2.0\n")
        _, rows = read_csv(out / "cost_rows.csv")
        assert rows[0].split(",")[6] == ""
        run_cli(args + ["--out", str(plain)])
        for name in ("cost_rows.csv", "cost_summary.csv"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()


class TestFidelity:
    def test_noiseless_mirror_is_unity(self, tmp_path):
        out = tmp_path / "fid0"
        run_cli(["fidelity", "--n", "6", "--d", "4", "--instances", "1",
                 "--trajectories", "4", "--shots", "32", "--resamples", "120",
                 "--seed", "9", "--out", str(out)])
        doc = json.loads((out / "fidelity_n6_d4.json").read_text())
        by_name = {r["estimator"]: r for r in doc}
        assert set(by_name) == {"xeb", "mb", "gc"}
        assert by_name["mb"]["value"] == 1.0
        assert by_name["mb"]["ci_low"] == 1.0
        assert by_name["gc"]["value"] == 1.0
        assert by_name["gc"]["ci_low"] is None
        assert by_name["xeb"]["params"]["ensemble"] == "rg"

    def test_noisy_estimates_in_range(self, tmp_path):
        out = tmp_path / "fid1"
        run_cli(["fidelity", "--n", "6", "--d", "4", "--instances", "2",
                 "--noise-eps2q", "0.01", "--noise-mem", "0.002",
                 "--spam", "0.005", "--trajectories", "16", "--shots", "64",
                 "--resamples", "120", "--seed", "9", "--out", str(out)])
        header, rows = read_csv(out / "fidelity.csv")
        assert header.startswith("ensemble,N,d,estimator")
        vals = {r.split(",")[3]: float(r.split(",")[4]) for r in rows}
        assert 0.0 < vals["mb"] < 1.0
        assert 0.0 < vals["gc"] < 1.0
        assert -0.5 < vals["xeb"] < 1.5

    def test_capacity_skip_keeps_mb_and_gc(self, tmp_path, capsys):
        out = tmp_path / "fid2"
        run_cli(["fidelity", "--n", "6", "--d", "4", "--instances", "1",
                 "--xeb-cap", "4", "--trajectories", "4", "--shots", "16",
                 "--resamples", "120", "--seed", "9", "--out", str(out)])
        doc = json.loads((out / "fidelity_n6_d4.json").read_text())
        assert [r["estimator"] for r in doc] == ["mb", "gc"]
        assert capsys.readouterr().err.splitlines() == [
            "rcsw fidelity: skipped xeb at n=6, d=4: "
            "6 qubits exceeds the dense cap of 4"]


class TestMps:
    def test_rows_and_chi_improvement(self, tmp_path):
        out = tmp_path / "mps"
        run_cli(["mps", "--n", "8", "--d", "4", "--instances", "2",
                 "--chi", "2", "16", "--blocks", "2", "--seed", "4",
                 "--out", str(out)])
        header, rows = read_csv(out / "mps_runs.csv")
        assert header == "N,d,chi,blocking,F_mps,eps_mps,flops_est,seed"
        assert len(rows) == 4
        eps = {}
        for r in rows:
            parts = r.split(",")
            eps[(int(parts[2]), int(parts[7]))] = float(parts[5])
        for seed in (4, 5):
            assert eps[(16, seed)] <= eps[(2, seed)] + 1e-12

    def test_builds_each_circuit_once(self, tmp_path, monkeypatch):
        build = cli.circuits.build_instance
        calls = []

        def counting_build(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(cli.circuits, "build_instance", counting_build)
        out = tmp_path / "mps"
        run_cli(["mps", "--n", "8", "--d", "3", "4", "--instances", "2",
                 "--chi", "2", "8", "--blocks", "2", "4", "--seed", "4",
                 "--out", str(out)])
        cells = [("rg", 8, d, 4 + i) for d in (3, 4) for i in range(2)]
        assert sorted(calls) == cells
        per_pair = [evolve(build("rg", 8, d, 4 + i), chi, b, seed=4 + i)[1].csv_row()
                    for d in (3, 4) for chi in (2, 8) for b in (2, 4) for i in range(2)]
        assert (out / "mps_runs.csv").read_text() == \
            "\n".join([MPS_CSV_HEADER, *per_pair]) + "\n"


class TestBootstrap:
    def test_table_matches_analytic_forms(self, tmp_path):
        out = tmp_path / "boot"
        run_cli(["bootstrap", "--n-jobs", "5", "--n-per", "6",
                 "--max-k", "4", "--out", str(out)])
        header, rows = read_csv(out / "resampling_probs.csv")
        assert header == "n_jobs,n_per,k,p_aggregate,p_double"
        assert len(rows) == 5
        for r in rows:
            parts = r.split(",")
            k = int(parts[2])
            assert float(parts[3]) == pytest.approx(p_aggregate(k, 30),
                                                    rel=1e-12)
            assert float(parts[4]) == pytest.approx(p_double(k, 5, 6),
                                                    rel=1e-12)

    def test_max_k_clamped_to_pool(self, tmp_path):
        out = tmp_path / "boot_clamp"
        run_cli(["bootstrap", "--n-jobs", "2", "--n-per", "2",
                 "--max-k", "50", "--out", str(out)])
        _, rows = read_csv(out / "resampling_probs.csv")
        assert len(rows) == 5  # k ranges over 0..4


class TestCoverage:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "cov"
        run_cli(["coverage", "--mu", "0.0", "--observable", "mb",
                 "--instances", "8", "--circuits", "10", "--shots", "10",
                 "--resamples", "120", "--seed", "2", "--out", str(out)])
        header, rows = read_csv(out / "coverage.csv")
        assert header == "model,mu,method,coverage,n_experiments,seed"
        methods = []
        for r in rows:
            parts = r.split(",")
            assert parts[0] == "mb" and float(parts[1]) == 0.0
            assert 0.0 <= float(parts[3]) <= 1.0
            assert int(parts[4]) == 8
            methods.append(parts[2])
        assert methods == ["aggregate", "double"]


class TestConfig:
    def test_bad_ensemble_rejected(self):
        with pytest.raises(ValueError, match="ensemble"):
            cli.RunConfig(command="generate", ensemble="hex")

    def test_noise_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="noise_eps2q"):
            cli.RunConfig(command="fidelity", noise_eps2q=1.5)

    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError):
            cli.RunConfig(command="generate", instances=0)

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code != 0


@pytest.mark.parametrize("argv", [
    ["fidelity", "--trajectories", "0"],
    ["fidelity", "--resamples", "50"],
    ["coverage", "--resamples", "50"],
    ["cost", "--n", "13", "--d", "3"],
    ["cost", "--n", "13", "--d", "4"],
    ["cost", "--n", "8", "--d", "8"],
    ["mps", "--n", "8", "--blocks", "20"],
    ["cost", "--n", "12", "--d", "4", "--width-budget", "0"],
    ["cost", "--n", "12", "--d", "4", "--width-budget", "-3"],
], ids=["zero-trajectories", "fidelity-resamples", "coverage-resamples",
        "odd-n-odd-degree", "odd-n", "degree-not-below-n", "too-many-blocks",
        "zero-width-budget", "negative-width-budget"])
def test_bad_flags_exit_2_before_running(argv, tmp_path, capsys):
    out = tmp_path / "never"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rcsw {argv[0]}: error: ") and err.count("\n") == 1
    assert not out.exists()


def test_method_flag_removed():
    # the order search has no method switch; the old default is rejected too
    with pytest.raises(SystemExit) as exc:
        cli.main(["cost", "--method", "greedy"])
    assert exc.value.code == 2
    assert "method" not in {f.name for f in dataclasses.fields(cli.RunConfig)}


def test_import_defers_scipy_submodules():
    # fidelity, cost and mps runs never call the fits, quadratures or binomials;
    # networkx is only the tests' matching oracle
    code = ("import sys, rcsw.cli; print(sorted(m for m in ('scipy.stats', "
            "'scipy.integrate', 'scipy.optimize', 'networkx') if m in sys.modules))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "x.txt"
    target.write_text("old")
    cli._atomic_write(target, "new")
    assert target.read_text() == "new"
    assert list(tmp_path.iterdir()) == [target]


def test_xeb_estimate_tracks_injected_noise(tmp_path):
    # moderate depolarizing noise pushes the sampled score well below 1
    out = tmp_path / "fid_noisy"
    run_cli(["fidelity", "--n", "8", "--d", "6", "--instances", "2",
             "--noise-eps2q", "0.03", "--trajectories", "24", "--shots", "96",
             "--resamples", "150", "--seed", "11", "--out", str(out)])
    doc = json.loads((out / "fidelity_n8_d6.json").read_text())
    by_name = {r["estimator"]: r for r in doc}
    assert by_name["xeb"]["value"] < 0.8
    assert by_name["xeb"]["ci_low"] < by_name["xeb"]["value"] < \
        by_name["xeb"]["ci_high"]
    assert by_name["xeb"]["n_samples"] == 2 * 96
