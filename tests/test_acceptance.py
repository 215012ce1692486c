"""Acceptance suite: one pass/fail line per criterion, stated tolerances only.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import time
from collections import Counter

from streamlb import rng as rngmod
from streamlb.behrend import construct_ap_free, random_ap_free, verify_no_3ap
from streamlb.experiments import (
    boost_trials,
    info_props,
    reduction_equiv,
    si_uniformity,
    small_rs,
    st_batch,
)
from streamlb.instances import iter_si, sample_st, sample_ur, to_stream, verify_ur_promise
from streamlb.protocols import amplification_parameters, simulate_two_pass
from streamlb.rsgraph import build_rs_digraph, verify_induced
from streamlb.streaming import BfsFrontier, EdgeCounter, StoreAll, run_stream


def criterion(n, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_rs_construction_validity():
    t0 = time.perf_counter()
    g = build_rs_digraph(construct_ap_free(100, "behrend-sphere"))
    report = verify_induced(g)
    elapsed = time.perf_counter() - t0
    random_violations = 0
    for i in range(50):
        gen = rngmod.substream(1, "acc1", i)
        a = random_ap_free(int(gen.integers(1, 51)), gen)
        if not verify_induced(build_rs_digraph(a)).ok:
            random_violations += 1
    ok = report.ok and elapsed < 10.0 and random_violations == 0 and \
        g.n_side == 300 and g.t == 100
    criterion(1, ok, f"RS m=100 (N={g.n_side}, t={g.t}, r={g.r}) zero violations "
                     f"in {elapsed:.2f}s; 50 random seeds, {random_violations} violations")


def test_criterion_2_behrend_quality():
    ok = True
    details = []
    for m in (10**3, 10**4):
        sphere = construct_ap_free(m, "behrend-sphere")
        digit3 = construct_ap_free(m, "digit-base3")
        ok &= sphere.size >= digit3.size
        ok &= verify_no_3ap(sphere).ok and verify_no_3ap(digit3).ok
        details.append(f"m={m}: sphere {sphere.size} >= digit3 {digit3.size}")
    for k in range(1, 9):
        ok &= construct_ap_free(3**k, "digit-base3").size == 2**k
    criterion(2, ok, "; ".join(details) + "; digit3 sizes at powers of three exact")


def test_criterion_3_si_marginal_uniformity():
    by_a = {}
    for inst, p in iter_si(4):
        by_a.setdefault(inst.a, Counter())[inst.e_star] += p
    exhaustive_ok = all(
        set(post) == set(a) and len(set(post.values())) == 1
        for a, post in by_a.items()
    )
    report = si_uniformity(m=8, samples=100_000, seed=20)
    ok = exhaustive_ok and report["p_value"] >= 0.001
    criterion(3, ok, f"m=4 exhaustive uniform; m=8 chi-square p={report['p_value']:.4f} "
                     f">= 0.001 over {report['samples']} samples")


def test_criterion_4_ur_promise():
    rs = small_rs()
    assert rs.r == 4 and rs.t == 6
    failures = 0
    for i in range(1000):
        inst = sample_ur(rs, seed=int(rngmod.substream(4, "acc4", i).integers(0, 2**63)))
        report = verify_ur_promise(inst)
        live_b = set(inst.si_rows.b[inst.i_star - 1].tolist())
        if not (report.ok and len(live_b) == rs.r // 4 and inst.e_star in live_b):
            failures += 1
    criterion(4, failures == 0,
              f"1000 unique-reach samples at r=4,t=6: {failures} promise violations")


def test_criterion_5_st_dichotomy():
    report = st_batch(count=1000, seed=5)
    rate = report["reachable_rate"]
    ok = report["dichotomy_failures"] == 0 and report["promise_failures"] == 0 \
        and 0.45 <= rate <= 0.55
    criterion(5, ok, f"1000 st samples: flag==middle-edge everywhere, "
                     f"Pr[reachable]={rate:.3f} in [0.45, 0.55]")


def test_criterion_6_matching_equivalence():
    report = reduction_equiv(pm_trials=500, seed=6)
    ok = report["mismatches"] == 0 and report["pm_cross_mismatches"] == 0
    criterion(6, ok, f"{report['graphs_checked']} digraphs: reachability == perfect "
                     f"matching with {report['mismatches']} exceptions; "
                     f"500 8x8 graphs: oracles agree ({report['pm_cross_mismatches']} mismatches)")


def test_criterion_7_distance_gap():
    report = st_batch(count=200, seed=7, with_distances=True)
    d = report["distances"]
    ok = d["eight"] == 0 and report["dichotomy_failures"] == 0
    criterion(7, ok, f"200 samples: distances seven={d['seven']} nine_plus={d['nine_plus']} "
                     f"infinite={d['infinite']} eight={d['eight']}")


def test_criterion_8_simulation_exactness():
    rs = small_rs()
    instances = [sample_st(rs, seed=int(rngmod.substream(8, "acc8", i).integers(0, 2**63)))
                 for i in range(100)]
    mismatches = 0
    bit_violations = 0
    for make in (EdgeCounter, StoreAll, lambda: BfsFrontier(2)):
        for inst in instances:
            stream = to_stream(inst)
            direct = run_stream(make(), stream, passes=2)
            tr, simulated = simulate_two_pass(make, stream)
            if simulated != direct.output:
                mismatches += 1
            if tr.total_bits > 3 * direct.max_state_bits:
                bit_violations += 1
    ok = mismatches == 0 and bit_violations == 0
    criterion(8, ok, f"3 algorithms x 100 instances: {mismatches} output mismatches, "
                     f"{bit_violations} transcripts above 3x max state")


def test_criterion_9_amplification():
    eps, g1, g2, m = 0.5, 0.5, 2.0, 32
    k, k_formula, t_budget, tau = amplification_parameters(eps, g1, g2, m)
    formulas_ok = (
        math.isclose(k_formula, (32 / eps**2) * math.log(100 * g2 / g1), rel_tol=1e-12)
        and k == math.ceil(k_formula)
        and math.isclose(tau, (0.5 + eps / 4) * k, rel_tol=1e-12)
        and math.isclose(t_budget, (g1 / g2) * (m / 2), rel_tol=1e-12)
    )
    mock = boost_trials("mock-reveal", m=m, eps=eps, gamma1=g1, gamma2=g2,
                        trials=300, seed=9)
    calibrated_ok = abs(mock["calibration"]["measured"] - eps) <= 0.05
    perfect = boost_trials("perfect", m=m, eps=eps, gamma1=g1, gamma2=g2,
                           trials=100, seed=10)
    null = boost_trials("null", m=m, eps=eps, gamma1=g1, gamma2=g2,
                        trials=100, seed=11)
    ok = formulas_ok and calibrated_ok and mock["success_rate"] >= 2 / 3 \
        and perfect["success_rate"] == 1.0 and null["success_rate"] <= 0.25
    criterion(9, ok, f"mock(eps={eps}) success {mock['success_rate']:.3f} >= 2/3 over 300; "
                     f"perfect {perfect['success_rate']:.2f} == 1; "
                     f"null {null['success_rate']:.2f} <= 1/4; "
                     f"k={k}, tau={tau}, t={t_budget} match the formulas")


def test_criterion_10_information_suite():
    report = info_props(cases=10_000, seed=12)
    fails = report["failures"]
    ok = report["all_zero"]
    criterion(10, ok, f"10^4 cases each at 1e-9: {fails}; "
                      f"top-half exhaustive over {report['top_half_exhaustive_cases']} "
                      f"rational distributions")


def test_criterion_11_determinism(tmp_path):
    from streamlb.cli import dispatch
    from streamlb import streamio

    rs_path = tmp_path / "rs.txt"
    streamio.write_rs(rs_path, small_rs())
    hashes = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert dispatch(["gen", "st", "--rs", str(rs_path), "--seed", "99",
                         "--count", "3", "--out", str(out)]) == 0
        hashes.append([streamio.sha256_file(p) for p in sorted(out.glob("*.stream"))])
    repro_ok = hashes[0] == hashes[1]

    rs = small_rs()
    base = sample_st(rs, seed=1, e1_seed=10, forward_seed=20, backward_seed=30)
    moved = sample_st(rs, seed=2, e1_seed=11, forward_seed=20, backward_seed=30)
    independence_ok = (moved.forward == base.forward and moved.backward == base.backward
                       and moved.e1 != base.e1)
    ok = repro_ok and independence_ok
    criterion(11, ok, f"gen st byte-identical across reruns: {repro_ok}; "
                      f"component substreams independent: {independence_ok}")
