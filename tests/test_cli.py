"""End-to-end checks of the batch command line."""
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import deserialize
from rcsw import circuits, cli
from rcsw.bootstrap import p_aggregate, p_double
from rcsw.estimators import REFERENCE_PARAMS
from rcsw.mps import MPS_CSV_HEADER, ChiScan, ChiScanRow, evolve
from rcsw.tn import circuit_to_tn, optimize_order, slice_tree
from rcsw.tn.tree import leg_sets, price


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
            c = deserialize((out / entry["json"]).read_text())
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

    def test_files_match_recorded_bytes(self, tmp_path):
        # sha256 of the JSON and QASM; the formats must not move.  The JSON was
        # re-recorded when the graph document gained its color count.
        for ensemble in ("rg", "2d"):
            run_cli(["generate", "--ensemble", ensemble, "--n", "6", "--d", "3",
                     "--seed", "0", "--out", str(tmp_path)])
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in tmp_path.iterdir() if f.name != "manifest.json"}
        assert digests == {
            "rg_n6_d3_s0.json":
                "ce844b3430ea0538f57c973e1caa97582315575f4775db8e1c885e9a63c6b4fd",
            "rg_n6_d3_s0.qasm":
                "2f1435307a6b02c67e5a095aa4680b145672f68d2fbec708854c7ebbb2859bdc",
            "2d_n6_d3_s0.json":
                "9623d60b4e2dc3075a4e7c202f0dac1db52d96d6f3bbe9e6e3a2cdc8bf176a21",
            "2d_n6_d3_s0.qasm":
                "b02f4e956b111be85ebfae8cf1dc42fd26f43e4a7defa1fb22f2193d475caf01",
        }

    def test_grid_ensemble_2d(self, tmp_path):
        out = tmp_path / "gen2d"
        run_cli(["generate", "--ensemble", "2d", "--n", "9", "--d", "4",
                 "--seed", "1", "--out", str(out)])
        entry = json.loads((out / "manifest.json").read_text())["entries"][0]
        c = deserialize((out / entry["json"]).read_text())
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

    def test_small_run_matches_recorded_csv(self, tmp_path):
        # sha256 of the three CSVs as first recorded; seed 0 takes 4 slices, so the
        # tree is re-optimised once along the way
        run_cli(["cost", "--n", "12", "--d", "4", "--instances", "2", "--budget", "2",
                 "--width-budget", "4", "--seed", "0", "--out", str(tmp_path)])
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in tmp_path.iterdir()}
        assert digests == {
            "cost_rows.csv":
                "656dc84eeb41f7eed491cdbc99a07800a4c3593aa0c443c97a997175dc66ce2c",
            "cost_summary.csv":
                "16230fefdc244796730a3c41562a1d78c42d0ef34628a453c11e4d9aeaa1875e",
            "cost_frontier.csv":
                "29f41c90c0ca2d0ebc29bc0af4e8390e8f6cab1e86788408cb636b2fe49e34cd",
        }

    def test_deep_run_matches_recorded_csv(self, tmp_path):
        # sha256 of the three CSVs as first recorded; at depth 10 most greedy
        # trials pass the best FLOPs so far and are abandoned
        run_cli(["cost", "--n", "12", "--d", "10", "--instances", "2", "--budget", "2",
                 "--seed", "0", "--out", str(tmp_path)])
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in tmp_path.iterdir()}
        assert digests == {
            "cost_rows.csv":
                "eb6ba53b9ea3e51bc57deb1c9e97176eeff164453aca0844fdaa2b245fe6aa24",
            "cost_summary.csv":
                "ee3a4d44c9827508acf5870a304f8e6016ef555ede157ede29da4876cd6c792a",
            "cost_frontier.csv":
                "29f41c90c0ca2d0ebc29bc0af4e8390e8f6cab1e86788408cb636b2fe49e34cd",
        }

    def test_unsliced_cost_never_exceeds_the_sliced_trees_merges(self, tmp_path):
        # the sliced tree's merges priced uncut bound the unsliced column, and so
        # does the sliced column; at seed 9 those merges undercut the searched tree
        run_cli(["cost", "--n", "12", "--d", "4", "--instances", "4", "--seed", "9",
                 "--budget", "2", "--width-budget", "5", "--out", str(tmp_path)])
        header, rows = read_csv(tmp_path / "cost_rows.csv")
        for row in rows:
            r = dict(zip(header.split(","), row.split(",")))
            s = int(r["seed"])
            net = circuit_to_tn(circuits.build_instance("rg", 12, 4, s))
            tree = optimize_order(net, budget=2, seed=s)
            sliced = slice_tree(net, tree, 1 << 5, budget=1, seed=s + 1)
            uncut = price(sliced.merges, leg_sets(net.indices)).stats.log2_flops
            assert float(r["log2_flops"]) <= float(f"{uncut:.4f}")
            assert float(r["log2_flops"]) <= float(r["log2_flops_sliced"])

    @pytest.mark.parametrize("ensemble,row", [
        ("rg", "rg,0.0031625,100.0,144,10,144.0,10.11236316642093"),
        ("2d", "2d,0.0031625,100.0,64,22,67.76,22.752817124447095"),
    ], ids=["rg", "2d"])
    def test_frontier_matches_recorded_csv(self, tmp_path, ensemble, row):
        # the model frontier at H2's error per gate slot; rg saturates at
        # d = 10, verifiable up to n = ln(100) / (10 eps) = 145.6
        run_cli(["cost", "--ensemble", ensemble, "--n", "8", "--d", "4",
                 "--out", str(tmp_path)])
        assert (tmp_path / "cost_frontier.csv").read_text() == (
            "ensemble,eps,time_budget,N_star,d_star,N_eff,depth_limit\n" + row + "\n")

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
            "60 slices did not reach width 2^1\n")
        _, rows = read_csv(out / "cost_rows.csv")
        assert rows[0].split(",")[6] == ""
        run_cli(args + ["--out", str(plain)])
        for name in ("cost_rows.csv", "cost_summary.csv"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()

    def test_width_budget_beyond_float_range(self, tmp_path):
        # 2^1100 overflows a float; as an exact int it is a budget no node exceeds
        out = tmp_path / "cost_wide"
        run_cli(["cost", "--n", "8", "--d", "2", "--width-budget", "1100",
                 "--out", str(out)])
        header, rows = read_csv(out / "cost_rows.csv")
        assert rows[0].split(",")[header.split(",").index("n_slices")] == "0"

    def test_circuit_without_two_qubit_gates_reads_zero(self, tmp_path):
        # a depth-1 2d patch of 2 or 4 qubits samples no ZZ gate: 0 FLOPs
        for n in ("2", "4"):
            out = tmp_path / f"cost_n{n}"
            run_cli(["cost", "--ensemble", "2d", "--n", n, "--d", "1", "--seed", "0",
                     "--out", str(out)])
            _, rows = read_csv(out / "cost_rows.csv")
            cols = rows[0].split(",")
            assert cols[4] == "0.0000" and cols[8] == "0.000000"  # log2_flops, C_density
            _, srows = read_csv(out / "cost_summary.csv")
            assert srows == [f"2d,{n},1,0.0,0.0,0.0,1,0"]


class TestFidelity:
    def test_noiseless_mirror_is_unity(self, tmp_path):
        out = tmp_path / "fid0"
        run_cli(["fidelity", "--n", "6", "--d", "4", "--instances", "1",
                 "--trajectories", "4", "--shots", "32", "--resamples", "120",
                 "--seed", "9", "--out", str(out)])
        doc = json.loads((out / "fidelity_n6_d4.json").read_text())
        by_name = {r["estimator"]: r for r in doc}
        assert set(by_name) == {"xeb", "direct", "mb", "gc"}
        assert by_name["direct"]["value"] == pytest.approx(1.0, abs=1e-12)
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

    def test_small_run_matches_recorded_csv(self, tmp_path):
        # recorded before outcomes became integer indices; the text must not move
        out = tmp_path / "fid_pinned"
        run_cli(["fidelity", "--n", "6", "--d", "3", "--instances", "2",
                 "--trajectories", "8", "--noise-eps2q", "1e-2", "--out", str(out)])
        assert (out / "fidelity.csv").read_text() == (
            "ensemble,N,d,estimator,value,ci_low,ci_high,n_samples,seed\n"
            "rg,6,3,xeb,0.8157302359341416,0.7550446568678585,0.8734539760728004,512,0\n"
            "rg,6,3,direct,0.9375760527319046,0.875152105463811,0.9999999999999983,16,0\n"
            "rg,6,3,mb,0.9609375,0.951171875,0.96875,512,0\n"
            "rg,6,3,gc,0.8929639755384502,,,0,0\n")

    def test_direct_is_the_mean_trajectory_fidelity(self, tmp_path):
        # the direct row reuses the XEB runs' overlaps; a fresh run of each
        # circuit from the same seed gives the same mean
        out = tmp_path / "fid_direct"
        run_cli(["fidelity", "--n", "6", "--d", "3", "4", "--instances", "3",
                 "--trajectories", "8", "--noise-eps2q", "2e-2", "--noise-mem", "1e-2",
                 "--seed", "5", "--out", str(out)])
        _, rows = read_csv(out / "fidelity.csv")
        assert [r.split(",")[3] for r in rows] == ["xeb", "direct", "mb", "gc"] * 2
        nm = cli.statevector.NoiseModel(eps_2q=2e-2, eps_mem=1e-2)
        for d, row in zip((3, 4), rows[1::4]):
            fids = [cli.statevector.run_trajectories(
                        cli.circuits.build_instance("rg", 6, d, 5 + i), nm, 8,
                        seed=5 + 1000 + i).fidelity for i in range(3)]
            parts = row.split(",")
            assert abs(float(parts[4]) - np.mean(fids)) <= 1e-12
            assert float(parts[5]) <= float(parts[4]) <= float(parts[6])
            assert parts[7] == "24"


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

    def test_small_run_matches_recorded_csv(self, tmp_path):
        # recorded with truncation at both chi; the text must not move
        run_cli(["mps", "--n", "8", "--d", "4", "--chi", "2", "8", "--blocks", "2",
                 "--seed", "0", "--out", str(tmp_path)])
        assert (tmp_path / "mps_runs.csv").read_text() == (
            "N,d,chi,blocking,F_mps,eps_mps,flops_est,seed\n"
            "8,4,2,2x[4],0.24447751540909082,0.0842752914433017,56704.0,0\n"
            "8,4,8,2x[4],0.8640990906248732,0.009087694299066973,593792.0,0\n")
        assert (tmp_path / "mps_scan.csv").read_text() == (
            "N,d,blocking,chi,eps_median,eps_std,n_runs,chi_h2\n"
            "8,4,2x[4],2,0.0842752914433017,0.0,1,9.189406322221334\n"
            "8,4,2x[4],8,0.009087694299066973,0.0,1,9.189406322221334\n")

    def test_scan_summarizes_the_runs(self, tmp_path):
        # each scan row is the median and population std of its group's
        # eps_mps column in mps_runs.csv
        run_cli(["mps", "--n", "8", "--d", "3", "4", "--instances", "4",
                 "--chi", "2", "8", "--blocks", "2", "4", "--seed", "7",
                 "--out", str(tmp_path)])
        _, runs = read_csv(tmp_path / "mps_runs.csv")
        groups: dict = {}
        for r in runs:
            n, d, chi, blocking, _, eps, _, _ = r.split(",")
            groups.setdefault((n, d, blocking, chi), []).append(float(eps))
        _, scan = read_csv(tmp_path / "mps_scan.csv")
        assert len(scan) == len(groups) == 8
        chi_h2 = {}
        for r in scan:
            n, d, blocking, chi, med, std, n_runs, h2 = r.split(",")
            eps = groups[n, d, blocking, chi]
            assert float(med) == cli._median(eps)
            assert float(std) == float(np.std(eps))
            assert int(n_runs) == 4  # an even count: the mean of the middle two
            chi_h2.setdefault((n, d, blocking), set()).add(h2)
        assert len(chi_h2) == 4  # one extrapolated chi per (N, d, blocking)
        assert all(len(v) == 1 and "" not in v for v in chi_h2.values())

    def test_chi_h2_capped_at_the_exact_bond(self, tmp_path):
        # the line through chi 2 and 4 meets H2's rate at chi 17.3, past
        # 4x[2]'s exact-rank bond 2^min(4, 4) = 16, where nothing is truncated
        run_cli(["mps", "--n", "8", "--d", "4", "--chi", "2", "4", "--blocks", "4",
                 "--seed", "2", "--out", str(tmp_path)])
        _, runs = read_csv(tmp_path / "mps_runs.csv")
        scan = ChiScan(tuple(ChiScanRow(int(r.split(",")[2]), "4x[2]",
                                        float(r.split(",")[5]), 0.0) for r in runs))
        assert scan.extrapolate_chi(REFERENCE_PARAMS.eps_2q) > 16
        _, rows = read_csv(tmp_path / "mps_scan.csv")
        assert [r.split(",")[-1] for r in rows] == ["16.0", "16.0"]

    def test_capacity_skip_keeps_other_rows(self, tmp_path, capsys):
        # two blocks of 14 qubits merge into 2^28 entries, over the dense cap
        out = tmp_path / "mps_cap"
        run_cli(["mps", "--n", "28", "--d", "2", "--blocks", "2", "4", "--seed", "1",
                 "--out", str(out)])
        assert capsys.readouterr().err.splitlines() == [
            "rcsw mps: skipped n=28, d=2, chi=8, blocks=2, seed=1: merged pair at "
            "position 0 needs 268435456 elements, cap is 2^26"]
        _, rows = read_csv(out / "mps_runs.csv")
        assert [r.split(",")[3] for r in rows] == ["4x[7]"]

    def test_capacity_skip_of_a_single_block(self, tmp_path, capsys):
        # one block of 28 qubits is 2^28 entries and is refused before it is made
        out = tmp_path / "mps_cap1"
        run_cli(["mps", "--n", "28", "--d", "2", "--blocks", "1", "4", "--seed", "1",
                 "--out", str(out)])
        assert capsys.readouterr().err.splitlines() == [
            "rcsw mps: skipped n=28, d=2, chi=8, blocks=1, seed=1: block at "
            "position 0 needs 268435456 elements, cap is 2^26"]
        _, rows = read_csv(out / "mps_runs.csv")
        assert [r.split(",")[3] for r in rows] == ["4x[7]"]

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

    def test_mu_sweep_writes_the_single_runs_in_order(self, tmp_path):
        flags = ["--instances", "5", "--circuits", "5", "--shots", "10",
                 "--resamples", "100", "--seed", "4"]

        def csv_text(*mus):
            out = tmp_path / "_".join(mus)
            run_cli(["coverage", "--mu", *mus, *flags, "--out", str(out)])
            return (out / "coverage.csv").read_text()

        first, second = csv_text("0.0"), csv_text("0.3")
        assert csv_text("0.0", "0.3") == first + second.split("\n", 1)[1]


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
    ["fidelity", "--xeb-cap", "-1"],
    ["coverage", "--resamples", "50"],
    ["cost", "--n", "13", "--d", "3"],
    ["cost", "--n", "13", "--d", "4"],
    ["cost", "--n", "8", "--d", "8"],
    ["mps", "--n", "8", "--blocks", "20"],
    ["cost", "--n", "12", "--d", "4", "--width-budget", "0"],
    ["cost", "--n", "12", "--d", "4", "--width-budget", "-3"],
    ["coverage", "--circuits", "0"],
    ["coverage", "--gates", "-1"],
    ["coverage", "--mu", "-0.5"],
    ["coverage", "--base-eps", "2"],
    ["bootstrap", "--n-jobs", "0"],
    ["bootstrap", "--n-per", "0"],
    ["bootstrap", "--max-k", "-1"],
    ["mps", "--instances", "0"],
    ["generate", "--instances", "0"],
    ["cost", "--instances", "0"],
    ["cost", "--budget", "0"],
    ["cost", "--d", "0"],
    ["fidelity", "--shots", "0"],
    ["generate", "--seed", "-1"],
    ["cost", "--seed", "-1"],
    ["fidelity", "--seed", "-1"],
    ["mps", "--seed", "-1"],
    ["coverage", "--seed", "-1"],
    ["coverage", "--mu", "nan"],
    ["coverage", "--mu", "inf"],
    ["cost", "--d", "4", "--instances", "2", "--n", "12", "12"],
    ["cost", "--n", "12", "--d", "4", "4"],
    ["mps", "--chi", "4", "4"],
    ["mps", "--n", "8", "--blocks", "2", "2"],
    ["coverage", "--shots", "0"],
    ["coverage", "--instances", "0"],
    ["coverage", "--mu", "0.1", "nan"],
    ["coverage", "--mu", "0.3", "0.3"],
    ["fidelity", "--n", "7", "--d", "3"],
    ["fidelity", "--n", "6", "--d", "6"],
    ["fidelity", "--noise-eps2q", "2"],
    ["fidelity", "--noise-mem", "-0.1"],
    ["fidelity", "--d", "4", "4"],
    ["mps", "--n", "7", "--d", "3"],
    # the settings the estimator-agreement and chi-extrapolation tables
    # were made at, each with one bad flag last
    ["fidelity", "--n", "10", "--d", "2", "4", "6", "8", "--instances", "4",
     "--noise-eps2q", "0.008", "--noise-mem", "0.001", "--shots", "4",
     "--trajectories", "0"],
    ["fidelity", "--n", "10", "--d", "2", "4", "6", "8", "--instances", "4",
     "--noise-eps2q", "0.008", "--noise-mem", "0.001", "--trajectories", "48",
     "--shots", "0"],
    ["fidelity", "--n", "10", "--d", "2", "4", "6", "8", "--instances", "4",
     "--noise-eps2q", "0.008", "--noise-mem", "0.001", "--seed", "-1"],
    ["mps", "--n", "12", "--d", "8", "--chi", "4", "8", "16", "32", "--blocks", "2",
     "--instances", "0"],
    ["mps", "--n", "12", "--d", "8", "--chi", "4", "8", "16", "32", "--blocks", "2",
     "--instances", "6", "--seed", "-1"],
    ["mps", "--n", "12", "--d", "8", "--blocks", "2", "--instances", "6",
     "--chi", "4", "4", "8"],
], ids=["zero-trajectories", "fidelity-resamples", "negative-xeb-cap",
        "coverage-resamples", "odd-n-odd-degree", "odd-n", "degree-not-below-n",
        "too-many-blocks", "zero-width-budget", "negative-width-budget",
        "zero-circuits", "negative-gates", "negative-mu", "base-eps-above-one",
        "zero-n-jobs", "zero-n-per", "negative-max-k", "mps-zero-instances",
        "generate-zero-instances", "cost-zero-instances", "cost-zero-budget",
        "cost-zero-d",
        "fidelity-zero-shots", "generate-negative-seed", "cost-negative-seed",
        "fidelity-negative-seed", "mps-negative-seed", "coverage-negative-seed",
        "nan-mu", "infinite-mu", "repeated-n", "repeated-d", "repeated-chi",
        "repeated-blocks", "coverage-zero-shots", "coverage-zero-instances",
        "nan-among-mus", "repeated-mu", "fidelity-odd-n",
        "fidelity-degree-not-below-n", "fidelity-eps2q-above-one",
        "fidelity-negative-noise-mem", "fidelity-repeated-d", "mps-odd-n",
        "agreement-zero-trajectories", "agreement-zero-shots",
        "agreement-negative-seed", "chi-scan-zero-instances",
        "chi-scan-negative-seed", "chi-scan-repeated-chi"])
def test_bad_flags_exit_2_before_running(argv, tmp_path, capsys):
    out = tmp_path / "never"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rcsw {argv[0]}: error: ") and err.count("\n") == 1
    assert not out.exists()
    # the message names the flag given last, as its RunConfig field, and
    # none of the shared checks' other flags, which some subcommands lack
    message = err.removeprefix(f"rcsw {argv[0]}: error: ")
    last = [a for a in argv if a.startswith("--")][-1]
    named = last.removeprefix("--").replace("-", "_")
    assert re.search(rf"\b{named}\b", message)
    for other in {"instances", "budget", "shots"} - {named}:
        assert not re.search(rf"\b{other}\b", message)


def test_bootstrap_has_no_seed_flag(capsys):
    # its tables are closed form, so a seed would be read by nothing
    with pytest.raises(SystemExit) as exc:
        cli.main(["bootstrap", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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


def test_fidelity_run_never_imports_numpy_ma(tmp_path):
    # np.percentile's first call imports numpy.ma (10-16 ms); the interval
    # quantiles are taken without it
    code = ("import sys; from rcsw import cli; "
            f"cli.main(['fidelity', '--n', '6', '--d', '3', '--instances', '2', "
            f"'--trajectories', '8', '--out', {str(tmp_path)!r}]); "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert (tmp_path / "fidelity.csv").exists()
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_cost_run_never_imports_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma; the summary median is taken
    # without it
    code = ("import sys; from rcsw import cli; "
            f"cli.main(['cost', '--n', '12', '--d', '4', '--instances', '2', "
            f"'--out', {str(tmp_path)!r}]); "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert (tmp_path / "cost_summary.csv").exists()
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_median_matches_numpy_bitwise():
    rng = np.random.default_rng(3)
    for size in range(1, 12):
        for _ in range(50):
            xs = [float(x) for x in rng.lognormal(0.0, 1.0, size)]
            assert cli._median(xs).hex() == float(np.median(xs)).hex()


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
