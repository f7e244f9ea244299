"""Release gate: one behavioral check per numbered line, printed PASS or FAIL.

Each test prints a single verdict line with the measured quantities and the
tolerance it was held to, then asserts.  Seeds are fixed so the whole file
is deterministic.
"""
import time

import numpy as np

from rcsw import circuits, graphs, statevector
from rcsw.circuits import build_instance
from rcsw.bootstrap import (ExperimentModel, ShotTable, _resample_aggregate,
                            _resample_double, coverage, p_aggregate, p_double)
from rcsw.errors import InfeasibleBudget
from rcsw.estimators import (REFERENCE_PARAMS, effective_2q_infidelity,
                             fit_logistic, gate_counting)
from rcsw.mps import evolve
from rcsw.statevector import NoiseModel
from rcsw.tn import (circuit_to_tn, execute_tree, light_cone_order,
                     lower_bound_rank, optimize_order, slice_tree, summarize)


def _verdict(idx, name, ok, detail):
    print(f"[{idx:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_second_moment_convergence():
    t0 = time.perf_counter()
    devs = []
    for i in range(20):
        c = build_instance("rg", 16, 10, 400 + i)
        p = statevector.run(c).probabilities()
        devs.append(2.0 ** 16 * float(np.sum(p * p)) - 2.0)
    devs = np.array(devs)
    med = float(np.median(devs))
    bulk = float(np.mean(np.abs(devs) < 0.02))
    elapsed = time.perf_counter() - t0
    ok = abs(med) < 0.05 and bulk >= 0.5 and elapsed < 120
    assert _verdict(1, "second-moment convergence", ok,
                    f"median dev {med:+.4f} tol 0.05, {bulk:.0%} of circuits "
                    f"within 0.02, {elapsed:.0f}s")


def test_02_estimator_agreement():
    t0 = time.perf_counter()
    n, d, n_circ, n_traj, spt = 12, 10, 20, 512, 4
    nm = NoiseModel(eps_2q=15.7e-4, scale_with_n=True, ref_n=56)
    F, X, M = [], [], []
    for i in range(n_circ):
        s = 700 + i
        c = build_instance("rg", n, d, s)
        probs = statevector.run(c).probabilities()
        res = statevector.run_trajectories(c, nm, n_traj, seed=s + 50,
                                           shots_per_traj=spt)
        F.extend(res.overlaps)
        X.extend(2.0 ** n * probs[int(x, 2)] - 1.0 for x in res.samples)
        half = build_instance("rg", n, d // 2, s + 9000)
        mirror = circuits.build_mirror(half, seed=s + 70)
        mres = statevector.run_trajectories(mirror, nm, n_traj, seed=s + 90,
                                            shots_per_traj=spt)
        M.extend(1.0 if x == mirror.initial_bits else 0.0
                 for x in mres.samples)
    f, x, m = float(np.mean(F)), float(np.mean(X)), float(np.mean(M))
    gap = max(abs(f - x), abs(f - m), abs(x - m))
    elapsed = time.perf_counter() - t0
    ok = gap < 0.03 and elapsed < 600
    assert _verdict(2, "estimator agreement", ok,
                    f"F {f:.3f}, XEB {x:.3f}, MB {m:.3f}, max pairwise gap "
                    f"{gap:.4f} tol 0.03, {elapsed:.0f}s")


def test_03_gate_counting_arithmetic():
    eps = effective_2q_infidelity(REFERENCE_PARAMS, 56)
    f = gate_counting(REFERENCE_PARAMS, 56, 12, apply_shift=False)
    ok = abs(eps - 3.16e-3) <= 0.05e-3 and abs(f - 0.318) <= 0.005
    assert _verdict(3, "gate-counting arithmetic", ok,
                    f"eps(56) {eps:.4e} vs 3.16e-3 +- 5e-5, "
                    f"F(56,12) {f:.4f} vs 0.318 +- 0.005")


def test_04_cost_density_saturation():
    t0 = time.perf_counter()
    medians = {}
    in_range = True
    for n in (32, 44, 56):
        dens = []
        for i in range(3):
            c = build_instance("rg", n, 16, 800 + i)
            tree = optimize_order(circuit_to_tn(c), budget=2, seed=800 + i)
            cd = summarize(c, tree, seed=800 + i).c_density
            dens.append(cd)
            in_range &= 0.75 <= cd <= 1.0 + 6.0 / n
        medians[n] = float(np.median(dens))
    spread = abs(medians[56] - medians[32])
    elapsed = time.perf_counter() - t0
    ok = in_range and spread < 0.15 and elapsed < 1800
    assert _verdict(4, "cost-density saturation", ok,
                    f"medians {medians[32]:.3f}/{medians[44]:.3f}/"
                    f"{medians[56]:.3f} in [0.75, 1+6/N], spread {spread:.3f} "
                    f"tol 0.15, {elapsed:.0f}s")


def test_05_rank_bounds_sandwich():
    rng = np.random.default_rng(4242)
    violations = 0
    for t in range(100):
        n = 2 * int(rng.integers(5, 14))
        d = int(rng.integers(3, 9))
        c = build_instance("rg", n, d, 9000 + t)
        net = circuit_to_tn(c)
        tree = optimize_order(net, budget=1, seed=t)
        lc = light_cone_order(net)
        upper = n * (1.0 - 2.0 ** (-d)) + 2.0
        violations += tree.stats.max_rank < lower_bound_rank(n, d) - 1e-9
        violations += lc.stats.max_rank > upper + 1e-9
    ok = violations == 0
    assert _verdict(5, "rank bounds sandwich", ok,
                    f"{violations} violations over 100 instances, "
                    f"required 0")


def test_06_gate_rank_cost_separation():
    depths = (8, 12, 16)
    slopes = {}
    for rank in (2, 4):
        costs = []
        for d in depths:
            c = circuits.build_brickwork_circuit(40, d, 1300 + d)
            net = circuit_to_tn(c, split_rank=rank)
            tree = optimize_order(net, budget=2, seed=d)
            costs.append(tree.stats.log2_total)
        slopes[rank] = float(np.polyfit(depths, costs, 1)[0])
    ratio = slopes[2] / slopes[4]
    ok = ratio <= 0.65
    assert _verdict(6, "gate-rank cost separation", ok,
                    f"slopes {slopes[2]:.3f} vs {slopes[4]:.3f}, ratio "
                    f"{ratio:.3f} tol 0.65")


def test_07_slicing_contract():
    t0 = time.perf_counter()
    W = 2.0 ** 20
    monotone = True
    equality = True
    # shallow cases: unsliced width already inside the budget
    for n, d, seed in ((16, 4, 1402), (24, 4, 1403), (36, 4, 1400)):
        c = build_instance("rg", n, d, seed)
        net = circuit_to_tn(c)
        tree = optimize_order(net, budget=2, seed=seed)
        st = slice_tree(net, tree, W, budget=2, seed=seed + 1)
        monotone &= st.stats.log2_total >= tree.stats.log2_total - 1e-9
        if tree.stats.width <= W:
            equality &= abs(st.stats.log2_total - tree.stats.log2_total) \
                <= 0.01 * abs(tree.stats.log2_total)
    # deep regime: push depth until the slicer gives up
    feasible_d, gap = None, 0.0
    for d in (5, 6, 7, 8):
        c = build_instance("rg", 36, d, 1400)
        net = circuit_to_tn(c)
        tree = optimize_order(net, budget=2, seed=1400)
        try:
            st = slice_tree(net, tree, W, budget=2, seed=1401)
        except InfeasibleBudget:
            break
        monotone &= st.stats.log2_total >= tree.stats.log2_total - 1e-9
        feasible_d, gap = d, st.stats.log2_total - tree.stats.log2_total
    elapsed = time.perf_counter() - t0
    ok = monotone and equality and feasible_d is not None and gap > 3.0
    assert _verdict(7, "slicing contract", ok,
                    f"monotone {monotone}, in-budget equality {equality}, "
                    f"largest feasible d={feasible_d} overhead gap {gap:.1f} "
                    f"tol > 3, {elapsed:.0f}s")


def test_08_contraction_matches_statevector():
    rng = np.random.default_rng(2500)
    worst = 0.0
    for t in range(50):
        n = 2 * int(rng.integers(3, 7))
        d = int(rng.integers(2, 6))
        kind = t % 3
        if kind == 0:
            c = build_instance("rg", n, min(d, n - 1), 2600 + t)
        elif kind == 1:
            c = circuits.build_brickwork_circuit(n, d, 2600 + t)
        else:
            c = circuits.build_2d_circuit(graphs.sample_grid(9, 2600 + t), d,
                                          2600 + t)
        sv = statevector.run(c)
        x = format(int(rng.integers(0, 2 ** c.n)), f"0{c.n}b")
        net = circuit_to_tn(c, bitstring_out=x)
        tree = optimize_order(net, budget=1, seed=t)
        st = slice_tree(net, tree, 2.0 ** 5, budget=1, seed=t)
        ref = sv.amplitudes[int(x, 2)]
        worst = max(worst, abs(execute_tree(net, tree) - ref),
                    abs(execute_tree(net, st) - ref))
    ok = worst < 1e-10
    assert _verdict(8, "contraction matches statevector", ok,
                    f"worst amplitude error {worst:.2e} over 50 circuits "
                    f"(sliced and unsliced), tol 1e-10")


def test_09_resampling_distributions_match_monte_carlo():
    T = 10_000
    rng = np.random.default_rng(880)
    worst_z = 0.0
    worst_norm = 0.0
    for n_jobs, n_per in ((10, 20), (10, 100), (50, 20), (50, 100)):
        # one marked shot; the resampled mean times the pool size counts
        # how often it was drawn
        mat = np.zeros((n_jobs, n_per))
        mat[0, 0] = 1.0
        table = ShotTable.from_matrix(mat)
        pool = n_jobs * n_per
        agg = np.rint(_resample_aggregate(table.pooled(), T, rng)
                      * pool).astype(int)
        dbl = np.rint(_resample_double(table, T, rng) * pool).astype(int)
        for k in range(7):
            for counts, p in ((agg, p_aggregate(k, pool)),
                              (dbl, p_double(k, n_jobs, n_per))):
                sig = np.sqrt(T * p * (1.0 - p))
                z = (int(np.sum(counts == k)) - T * p) / sig
                worst_z = max(worst_z, abs(z))
        worst_norm = max(
            worst_norm,
            abs(sum(p_aggregate(k, pool) for k in range(pool + 1)) - 1.0),
            abs(sum(p_double(k, n_jobs, n_per)
                    for k in range(pool + 1)) - 1.0))
    ok = worst_z <= 3.0 and worst_norm < 1e-9
    assert _verdict(9, "resampling distributions match monte carlo", ok,
                    f"worst |z| {worst_z:.2f} tol 3 over k<=6 at {T} "
                    f"resamples, worst norm error {worst_norm:.1e} tol 1e-9")


def test_10_interval_coverage():
    t0 = time.perf_counter()
    spread_model = ExperimentModel(mu=0.1, base_eps=2e-3, n_gates=100,
                                   observable="xeb")
    res1 = coverage(spread_model, 500, circuits=50, shots=20, r=300,
                    seed=1001)
    low_f_eps = 1.0 - 0.1 ** (1.0 / 100.0)
    wide_model = ExperimentModel(mu=1.0, base_eps=low_f_eps, n_gates=100,
                                 observable="xeb")
    res2 = coverage(wide_model, 500, circuits=50, shots=20, r=300, seed=1002)
    elapsed = time.perf_counter() - t0
    ok = (res1.aggregate >= 0.66 and res1.double >= res1.aggregate
          and res2.aggregate < 0.6827 and elapsed < 600)
    assert _verdict(10, "interval coverage", ok,
                    f"mu=0.1: aggregate {res1.aggregate:.3f} >= 0.66, double "
                    f"{res1.double:.3f} >= aggregate; mu=1 low F: aggregate "
                    f"{res2.aggregate:.3f} < 0.6827; {elapsed:.0f}s")


def test_11_truncation_fidelity_accounting():
    n, d, chi = 12, 8, 8
    ratios = []
    bound_ok = True
    exact_err = 0.0
    exact_eps = 0.0
    for i in range(20):
        c = build_instance("rg", n, d, 100 + i)
        sv = statevector.run(c)
        state, report = evolve(c, chi, 2, seed=100 + i)
        f_exact = abs(np.vdot(state.to_statevector().amplitudes,
                              sv.amplitudes)) ** 2
        ratios.append(report.f_mps / f_exact)
        for j in range(len(state.blocks) - 1):
            cut = [q for blk in state.blocks[:j + 1] for q in blk]
            purity = statevector.bipartite_purity(sv, cut)
            bound_ok &= report.f_mps <= chi * purity + 1e-12
        full, full_rep = evolve(c, 2 ** (n // 2), 2, seed=100 + i)
        exact_eps = max(exact_eps, full_rep.eps_mps)
        exact_err = max(exact_err, float(np.max(np.abs(
            full.to_statevector().amplitudes - sv.amplitudes))))
    med = float(np.median(ratios))
    ok = (abs(med - 1.0) <= 0.10 and exact_eps == 0.0 and exact_err < 1e-10
          and bound_ok)
    assert _verdict(11, "truncation fidelity accounting", ok,
                    f"median F_acc/F_exact {med:.3f} tol 10%, full-rank eps "
                    f"{exact_eps:g} and state error {exact_err:.1e} tol "
                    f"1e-10, bond bound held: {bound_ok}")


def test_12_mirror_identity():
    rng = np.random.default_rng(2700)
    worst = 1.0
    for t in range(50):
        n = 2 * int(rng.integers(2, 8))
        d = int(rng.integers(1, 6))
        if t % 2 == 0:
            c = build_instance("rg", n, min(d, n - 1), 2800 + t)
        else:
            c = circuits.build_brickwork_circuit(n, d, 2800 + t)
        m = circuits.build_mirror(c, seed=2900 + t)
        p = statevector.run(m).probabilities()[int(m.initial_bits, 2)]
        worst = min(worst, p)
    ok = worst >= 1.0 - 1e-10
    assert _verdict(12, "mirror identity", ok,
                    f"min noiseless return probability deviation "
                    f"{1.0 - worst:.2e} over 50 circuits, tol 1e-10")


def test_13_logistic_fit_roundtrip():
    A, N0, K = 4.1e-4, 20.0, 0.18
    sizes = np.arange(4, 57, 2, dtype=float)
    truth = A / (1.0 + np.exp(-K * (sizes - N0)))
    recovered = 0
    for t in range(100):
        r = np.random.default_rng(3000 + t)
        noisy = truth * (1.0 + 0.1 * r.standard_normal(sizes.size))
        try:
            a, n0, k = fit_logistic(sizes, noisy)
        except Exception:
            continue
        recovered += (abs(a / A - 1.0) < 0.2 and abs(n0 / N0 - 1.0) < 0.2
                      and abs(k / K - 1.0) < 0.2)
    ok = recovered >= 90
    assert _verdict(13, "logistic fit roundtrip", ok,
                    f"{recovered}/100 trials recovered all three parameters "
                    f"within 20%, required >= 90")
