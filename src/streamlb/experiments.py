"""Registered batch experiments; every acceptance statistic comes from here.

Each experiment returns a flat JSON-able report. Sampling fans out over named
substreams of one master seed, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction

import numpy as np

from . import rng as rngmod
from .behrend import BehrendSet, construct_ap_free, verify_no_3ap
from .infometrics import (
    DiscreteDistribution,
    conditional_mutual_information,
    expectation_transfer_bound,
    from_weights,
    kl,
    top_half_check,
    tvd,
)
from .instances import SI_M_CAP, sample_si, sample_st, to_stream, verify_st_instance, verify_ur_promise
from .protocols import (
    EXACT_FULL_M_CAP,
    REVEAL_M_CAP,
    NullOracle,
    RevealOracle,
    SIOracle,
    boost_si,
    mock_eps_solver,
)
from .reductions import (
    BipartiteGraph,
    Digraph,
    bfs_reachable,
    perfect_matching_brute,
    perfect_matching_exists,
    reduce_to_matching,
    reduce_to_sssp,
    undirected_distance,
)
from .rsgraph import build_rs_digraph, verify_induced


def small_rs():
    """The degenerate workhorse: r=4, t=6 from the 4-element set over [1..6]."""
    return build_rs_digraph(BehrendSet(6, (1, 2, 4, 5), "explicit"))


def _fan_out(worker, jobs, workers: int):
    """Run independent jobs, optionally across a process pool.

    Each job owns its RNG substream, so results and their aggregation do not
    depend on the pool size or completion order; the pool is never larger
    than the jobs or the CPUs.
    """
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


def make_si_oracle(tag: str, eps: float, m: int) -> SIOracle:
    """The oracle a tag names, for universe size m; a RevealOracle above
    REVEAL_M_CAP is refused once built, before any round asks it to speak,
    and mock-bias above EXACT_FULL_M_CAP before it is calibrated."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    if tag == "perfect":
        oracle = RevealOracle(1)
    elif tag == "null":
        oracle = NullOracle()
    elif tag == "mock-reveal":
        oracle = mock_eps_solver(eps, "reveal", m)
    elif tag == "mock-bias":
        if m > EXACT_FULL_M_CAP:
            raise ValueError(f"m={m} is above {EXACT_FULL_M_CAP}: the mock-bias oracle is calibrated "
                             "by exact enumeration")
        oracle = mock_eps_solver(eps, "bias", m)
    else:
        raise ValueError(f"unknown oracle tag {tag!r}")
    if isinstance(oracle, RevealOracle) and m > REVEAL_M_CAP:
        raise ValueError(f"m={m} is above {REVEAL_M_CAP}: the {tag} oracle writes its target in 16 bits")
    return oracle


def rs_verify(m: int = 100, strategy: str = "behrend-sphere") -> dict:
    t0 = time.perf_counter()
    base = construct_ap_free(m, strategy)
    g = build_rs_digraph(base)
    report = verify_induced(g)
    return {
        "experiment": "rs-verify",
        "m": m,
        "strategy": strategy,
        "n_side": g.n_side,
        "t": g.t,
        "r": g.r,
        "edges": g.t * g.r,
        "cross_pairs": g.t * g.r * (g.r - 1),
        "exponent": round(math.log(g.t * g.r) / math.log(g.n_side), 4),
        "matchings_checked": g.t,
        "violations": 0 if report.ok else 1,
        "violation_reason": report.reason,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


def _st_sample_record(args) -> dict:
    """One worker unit: sample instance i of the batch and grade it."""
    rs, seed, i, with_distances = args
    inst = sample_st(rs, seed=int(rngmod.substream(seed, "st-batch", i).integers(0, 2**63)))
    rec = {
        "reachable": int(inst.reachable),
        "dichotomy_fail": int(not verify_st_instance(inst)),
        "promise_fail": int(not (verify_ur_promise(inst.forward)
                                 and verify_ur_promise(inst.backward))),
        "distance": None,
    }
    if with_distances:
        undirected, s, t = reduce_to_sssp(to_stream(inst))
        rec["distance"] = undirected_distance(undirected.edge_block(), s, t)
        if (rec["distance"] == 7) != inst.reachable:
            rec["dichotomy_fail"] = 1
    return rec


# most instances `st_batch` draws: its job list and records hold about 350 B
# per instance (tracemalloc), about 0.35 GiB at the cap, and one draw takes
# about 1.7 ms, half an hour at the cap (2 vCPUs, Python 3.11, numpy 2.4)
ST_BATCH_COUNT_CAP = 10**6


def st_batch(count: int = 1000, seed: int = 0, with_distances: bool = False, workers: int = 1) -> dict:
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > ST_BATCH_COUNT_CAP:
        raise ValueError(f"count must be at most {ST_BATCH_COUNT_CAP}")
    rs = small_rs()
    jobs = [(rs, seed, i, with_distances) for i in range(count)]
    records = _fan_out(_st_sample_record, jobs, workers)
    distances = {"seven": 0, "nine_plus": 0, "infinite": 0, "eight": 0}
    for rec in records:
        if not with_distances:
            continue
        d = rec["distance"]
        if d is None:
            distances["infinite"] += 1
        elif d == 7:
            distances["seven"] += 1
        elif d == 8:
            distances["eight"] += 1
        else:
            distances["nine_plus"] += 1
    report = {
        "experiment": "st-batch",
        "count": count,
        "seed": seed,
        "r": rs.r,
        "t": rs.t,
        "reachable_rate": sum(r["reachable"] for r in records) / count,
        "dichotomy_failures": sum(r["dichotomy_fail"] for r in records),
        "promise_failures": sum(r["promise_fail"] for r in records),
    }
    if with_distances:
        report["distances"] = distances
    return report


def _boost_trial_record(args) -> dict:
    oracle_tag, m, eps, gamma1, gamma2, seed, i = args
    oracle = make_si_oracle(oracle_tag, eps, m)  # cached per process
    gen = rngmod.substream(seed, "boost-trials", i)
    inst = sample_si(m, gen)
    res = boost_si(oracle, inst, eps, gamma1, gamma2, seed=int(gen.integers(0, 2**63)))
    return {
        "success": int(res.answer == inst.e_star),
        "survived": int(inst.e_star in res.candidate_set),
        "over_budget": int(len(res.candidate_set) > res.t_budget),
        "bits": res.total_bits,
        "k": res.k,
        "tau": res.tau,
        "t_budget": res.t_budget,
    }


# most trials `boost_trials` runs: its job list and records hold about 420 B
# per trial (tracemalloc), about 0.4 GiB at the cap, and one mock-reveal trial
# at m = 32 takes about 12 ms, over three hours at the cap (2 vCPUs, Python
# 3.11, numpy 2.4); a bound on the time over m, eps and trials is still open
BOOST_TRIALS_CAP = 10**6


def boost_trials(oracle_tag: str = "mock-reveal", m: int = 32, eps: float = 0.5,
                 gamma1: float = 0.5, gamma2: float = 2.0, trials: int = 300,
                 seed: int = 0, workers: int = 1) -> dict:
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > BOOST_TRIALS_CAP:
        raise ValueError(f"trials must be at most {BOOST_TRIALS_CAP}")
    oracle = make_si_oracle(oracle_tag, eps, m)
    jobs = [(oracle_tag, m, eps, gamma1, gamma2, seed, i) for i in range(trials)]
    records = _fan_out(_boost_trial_record, jobs, workers)
    successes = sum(r["success"] for r in records)
    survived = sum(r["survived"] for r in records)
    over_budget = sum(r["over_budget"] for r in records)
    bits = sum(r["bits"] for r in records)
    k, tau, t_budget = records[-1]["k"], records[-1]["tau"], records[-1]["t_budget"]
    report = {
        "experiment": "boost-trials",
        "oracle": oracle_tag,
        "m": m,
        "eps": eps,
        "gamma1": gamma1,
        "gamma2": gamma2,
        "trials": trials,
        "success_rate": successes / trials,
        "target_survived_rate": survived / trials,
        "budget_exceeded_rate": over_budget / trials,
        "mean_bits": bits / trials,
        "k": k,
        "tau": tau,
        "t": t_budget,
    }
    if hasattr(oracle, "calibration"):
        report["calibration"] = oracle.calibration
    return report


# most samples * m `si_uniformity` draws: one draw at m = 8 takes about 13 µs,
# 16 s at the cap, and the counts keep each distinct Alice set, so at m = 10^3,
# 10^5 or 10^6 the cap takes about 2.5 s and 240-285 MiB peak RSS, in a fresh
# process (2 vCPUs, Python 3.11, numpy 2.4)
SI_SAMPLES_M_CAP = 10**7


def si_uniformity(m: int = 8, samples: int = 100_000, seed: int = 0) -> dict:
    """Chi-square of the target's conditional distribution given Alice's set."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples * m > SI_SAMPLES_M_CAP and m <= SI_M_CAP:  # `sample_si` refuses a larger m itself
        raise ValueError(f"samples * m must be at most {SI_SAMPLES_M_CAP}")
    gen = rngmod.substream(seed, "si-uniformity")
    counts: dict = {}
    for _ in range(samples):
        inst = sample_si(m, gen)
        counts.setdefault(inst.a, {}).setdefault(inst.e_star, 0)
        counts[inst.a][inst.e_star] += 1
    stat = 0.0
    df = 0
    for a, by_e in counts.items():
        n_a = sum(by_e.values())
        expected = n_a / len(a)
        stat += sum((by_e.get(e, 0) - expected) ** 2 / expected for e in a)
        df += len(a) - 1
    from scipy import stats  # only this experiment needs scipy; the CLI loads it here, not at start

    p_value = float(stats.chi2.sf(stat, df))
    return {
        "experiment": "si-uniformity",
        "m": m,
        "samples": samples,
        "groups": len(counts),
        "stat": stat,
        "df": df,
        "p_value": p_value,
    }


def reduction_equiv(pm_trials: int = 500, seed: int = 0) -> dict:
    """Exhaustive matching equivalence on 4 vertices plus the oracle cross-check."""
    if pm_trials < 0:
        raise ValueError("pm_trials must be at least 0")
    s, t = 0, 3
    pairs = [(u, v) for u in range(4) for v in range(4) if u != v]
    mismatches = 0
    for mask in range(1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        h = Digraph(4, edges)
        g, _ = reduce_to_matching(h, s, t)
        if bfs_reachable(edges, s, t) != perfect_matching_exists(g):
            mismatches += 1
    gen = rngmod.substream(seed, "pm-cross")
    cross_mismatches = 0
    for _ in range(pm_trials):
        coins = gen.random((8, 8)) < 0.5
        g = BipartiteGraph(tuple(range(8)), tuple(range(8)), np.argwhere(coins))
        if perfect_matching_exists(g) != perfect_matching_brute(g):
            cross_mismatches += 1
    return {
        "experiment": "reduction-equiv",
        "graphs_checked": 1 << len(pairs),
        "mismatches": mismatches,
        "pm_cross_trials": pm_trials,
        "pm_cross_mismatches": cross_mismatches,
    }


def _random_distribution(gen, size) -> DiscreteDistribution:
    w = gen.random(size) + 1e-9
    return from_weights(tuple(range(size)), tuple(float(x) for x in w))


def _random_rational_distribution(gen, size, denom: int = 64) -> DiscreteDistribution:
    cuts = sorted(int(x) for x in gen.integers(0, denom + 1, size - 1))
    parts = []
    prev = 0
    for c in cuts + [denom]:
        parts.append(c - prev)
        prev = c
    return from_weights(tuple(range(size)), tuple(Fraction(p, denom) for p in parts))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


# most cases `info_props` checks: one case takes about 0.7 ms in about 38 MiB
# peak RSS that does not grow with the count, about 12 minutes at the cap
# (2 vCPUs, Python 3.11, numpy 2.4)
INFO_PROPS_CASES_CAP = 10**6


def info_props(cases: int = 10_000, seed: int = 0) -> dict:
    """Randomized checks of the distance/divergence facts, all at 1e-9."""
    if cases < 1:
        raise ValueError("cases must be at least 1")
    if cases > INFO_PROPS_CASES_CAP:
        raise ValueError(f"cases must be at most {INFO_PROPS_CASES_CAP}")
    gen = rngmod.substream(seed, "info-props")
    fails = {
        "pinsker": 0,
        "chain_rule": 0,
        "data_processing": 0,
        "expectation_transfer": 0,
        "top_half": 0,
        "top_half_exhaustive": 0,
        "tvd_triangle": 0,
    }

    for _ in range(cases):
        size = int(gen.integers(2, 17))
        mu = _random_distribution(gen, size)
        nu = _random_distribution(gen, size)
        if float(tvd(mu, nu)) > math.sqrt(kl(mu, nu, base="e") / 2.0) + 1e-9:
            fails["pinsker"] += 1

    for _ in range(cases):
        shape = tuple(int(gen.integers(2, 4)) for _ in range(4))
        p = gen.random(shape)
        p /= p.sum()
        lhs = conditional_mutual_information(p, (0, 1), (2,), (3,))
        rhs = conditional_mutual_information(p, (0,), (2,), (3,)) + \
            conditional_mutual_information(p, (1,), (2,), (0, 3))
        if abs(lhs - rhs) > 1e-9:
            fails["chain_rule"] += 1

    for _ in range(cases):
        nx, ny = int(gen.integers(2, 7)), int(gen.integers(2, 7))
        p = gen.random((nx, ny))
        p /= p.sum()
        f = [int(x) for x in gen.integers(0, max(nx - 1, 1), nx)]
        q = np.zeros((max(f) + 1, ny))
        for x in range(nx):
            q[f[x]] += p[x]
        if conditional_mutual_information(q, (0,), (1,)) > \
                conditional_mutual_information(p, (0,), (1,)) + 1e-9:
            fails["data_processing"] += 1

    for _ in range(cases):
        size = int(gen.integers(2, 9))
        mu = _random_rational_distribution(gen, size)
        nu = _random_rational_distribution(gen, size)
        f = {x: Fraction(int(gen.integers(0, 129)), 8) for x in mu.support}
        if not expectation_transfer_bound(mu, nu, f):
            fails["expectation_transfer"] += 1

    for _ in range(cases):
        size = 2 * int(gen.integers(1, 9))
        mu = _random_distribution(gen, size)
        if not top_half_check(mu).bound_holds:
            fails["top_half"] += 1

    exhaustive_cases = 0
    for size in (2, 4):
        for comp in _compositions(8, size):
            mu = DiscreteDistribution(tuple(range(size)), tuple(Fraction(c, 8) for c in comp))
            exhaustive_cases += 1
            if not top_half_check(mu).bound_holds:
                fails["top_half_exhaustive"] += 1

    for _ in range(cases):
        size = int(gen.integers(2, 10))
        mu, nu, rho = (_random_distribution(gen, size) for _ in range(3))
        d_mn, d_nr, d_mr = (float(tvd(x, y)) for x, y in ((mu, nu), (nu, rho), (mu, rho)))
        if d_mr > d_mn + d_nr + 1e-9 or abs(float(tvd(nu, mu)) - d_mn) > 1e-12:
            fails["tvd_triangle"] += 1

    return {
        "experiment": "info-props",
        "cases": cases,
        "top_half_exhaustive_cases": exhaustive_cases,
        "failures": fails,
        "all_zero": all(v == 0 for v in fails.values()),
    }


def random_ap_free_batch(count: int = 50, max_m: int = 50, seed: int = 0) -> dict:
    """Random progression-free sets fed through the RS construction and verifier."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if max_m < 1:
        raise ValueError("max_m must be at least 1")
    from .behrend import random_ap_free

    violations = 0
    for i in range(count):
        gen = rngmod.substream(seed, "random-apfree", i)
        m = int(gen.integers(1, max_m + 1))
        a = random_ap_free(m, gen)
        if not verify_no_3ap(a):
            violations += 1
            continue
        if a.size and not verify_induced(build_rs_digraph(a)):
            violations += 1
    return {
        "experiment": "random-apfree-rs",
        "count": count,
        "max_m": max_m,
        "violations": violations,
    }


EXPERIMENTS = {
    "rs-verify": rs_verify,
    "st-batch": st_batch,
    "boost-trials": boost_trials,
    "si-uniformity": si_uniformity,
    "reduction-equiv": reduction_equiv,
    "info-props": info_props,
    "random-apfree-rs": random_ap_free_batch,
}


def run_experiment(name: str, **kwargs) -> dict:
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](**kwargs)
