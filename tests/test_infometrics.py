import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamlb import rng as rngmod
from streamlb.infometrics import (
    DiscreteDistribution,
    JointDistribution,
    chernoff_bound,
    conditional_mutual_information,
    entropy,
    expectation_transfer_bound,
    from_weights,
    kl,
    mutual_information,
    point_mass,
    top_half_check,
    tvd,
    _subset_sums,
    uniform,
)


def dist(*probs):
    return DiscreteDistribution(tuple(range(len(probs))), tuple(probs))


# --- tvd -------------------------------------------------------------------------

def test_tvd_examples():
    assert tvd(dist(0.5, 0.5), dist(0.5, 0.5)) == 0.0
    assert float(tvd(point_mass((0, 1), 0), point_mass((0, 1), 1))) == 1.0
    assert float(tvd(dist(0.5, 0.5), dist(1.0, 0.0))) == pytest.approx(0.5)


def test_tvd_support_mismatch():
    with pytest.raises(ValueError):
        tvd(dist(0.5, 0.5), DiscreteDistribution(("a", "b"), (0.5, 0.5)))


def test_tvd_exact_fractions():
    mu = dist(Fraction(1, 3), Fraction(2, 3))
    nu = dist(Fraction(1, 2), Fraction(1, 2))
    assert tvd(mu, nu) == Fraction(1, 6)
    assert isinstance(tvd(mu, nu), Fraction)


def _max_subset_sum_by_combinations(diffs):
    """The subset form as tvd's self-check first computed it: every subset summed anew."""
    return max(
        (sum(diffs[i] for i in subset) for size in range(len(diffs) + 1)
         for subset in combinations(range(len(diffs)), size)),
    )


def test_subset_sums_match_combinations_exhaustive_rationals():
    cases = 0
    for size in range(1, 5):
        comps = [tuple(Fraction(c, 5) for c in counts)
                 for counts in product(range(6), repeat=size) if sum(counts) == 5]
        for mu, nu in product(comps, repeat=2):
            diffs = [p - q for p, q in zip(mu, nu)]
            assert max(_subset_sums(diffs)) == _max_subset_sum_by_combinations(diffs)
            cases += 1
    assert cases == 1 + 6**2 + 21**2 + 56**2


@pytest.mark.parametrize("size", range(1, 13))
def test_subset_sums_match_combinations_seeded_floats(size):
    for seed in range(3):
        gen = rngmod.substream(seed, "subset-sums", size)
        mu, nu = (from_weights(tuple(range(size)), tuple(gen.random(size) + 1e-9))
                  for _ in range(2))
        diffs = [p - q for p, q in zip(mu.probs, nu.probs)]
        # both add the members in index order from 0; sum() may round
        # differently (it compensates from Python 3.12 on), hence the tolerance
        assert max(_subset_sums(diffs)) == pytest.approx(
            _max_subset_sum_by_combinations(diffs), rel=0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**31))
def test_tvd_metric_properties(size, seed):
    gen = rngmod.substream(seed, "tvd")
    a, b, c = (from_weights(tuple(range(size)), tuple(gen.random(size) + 1e-9))
               for _ in range(3))
    assert float(tvd(a, b)) == pytest.approx(float(tvd(b, a)), abs=1e-12)
    assert float(tvd(a, c)) <= float(tvd(a, b)) + float(tvd(b, c)) + 1e-9
    assert 0.0 <= float(tvd(a, b)) <= 1.0


# --- kl / entropy / mi ---------------------------------------------------------------

def test_kl_examples():
    assert kl(dist(0.5, 0.5), dist(0.5, 0.5)) == 0.0
    assert kl(dist(1.0, 0.0), dist(0.5, 0.5)) == pytest.approx(1.0)
    assert kl(dist(0.5, 0.5), dist(1.0, 0.0)) == math.inf


def test_entropy_examples():
    assert entropy(uniform((1, 2, 3, 4))) == pytest.approx(2.0)
    assert entropy(point_mass((1, 2), 1)) == 0.0


def test_mutual_information_examples():
    same_bit = JointDistribution((0, 1), (0, 1), ((0.5, 0.0), (0.0, 0.5)))
    assert mutual_information(same_bit) == pytest.approx(1.0)
    product = JointDistribution((0, 1), (0, 1), ((0.25, 0.25), (0.25, 0.25)))
    assert mutual_information(product) == pytest.approx(0.0, abs=1e-12)


def test_joint_validation():
    with pytest.raises(ValueError):
        JointDistribution((0, 1), (0, 1), ((0.5, 0.5), (0.5, 0.5)))


def test_conditional_mi_chain_rule_fixed():
    gen = rngmod.substream(3, "cmi")
    p = gen.random((2, 3, 2, 2))
    p /= p.sum()
    lhs = conditional_mutual_information(p, (0, 1), (2,), (3,))
    rhs = conditional_mutual_information(p, (0,), (2,), (3,)) + \
        conditional_mutual_information(p, (1,), (2,), (0, 3))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_conditional_mi_axis_validation():
    p = np.full((2, 2), 0.25)
    with pytest.raises(ValueError):
        conditional_mutual_information(p, (0,), (0,))


# --- pinsker -------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**31))
def test_pinsker_randomized(size, seed):
    gen = rngmod.substream(seed, "pinsker")
    mu = from_weights(tuple(range(size)), tuple(gen.random(size) + 1e-9))
    nu = from_weights(tuple(range(size)), tuple(gen.random(size) + 1e-9))
    assert float(tvd(mu, nu)) <= math.sqrt(kl(mu, nu, base="e") / 2) + 1e-9


# --- top half --------------------------------------------------------------------------

def test_top_half_examples():
    u4 = top_half_check(uniform((0, 1, 2, 3)))
    assert float(u4.delta) == 0.0 and float(u4.mass) == pytest.approx(0.5) and u4.bound_holds

    skew = top_half_check(dist(0.5, 0.3, 0.1, 0.1))
    assert float(skew.delta) == pytest.approx(0.3)
    assert float(skew.mass) == pytest.approx(0.8)
    assert skew.bound_holds and skew.chosen == (0, 1)

    pm = top_half_check(point_mass((0, 1), 0))
    assert float(pm.delta) == pytest.approx(0.5) and float(pm.mass) == 1.0 and pm.bound_holds


def test_top_half_tie_break_smallest_index():
    report = top_half_check(uniform((5, 6, 7, 8)))
    assert report.chosen == (5, 6)


def test_top_half_rejects_odd_support():
    with pytest.raises(ValueError):
        top_half_check(uniform((1, 2, 3)))


# --- chernoff -----------------------------------------------------------------------------

def test_chernoff_examples():
    assert chernoff_bound(2, 2.0) == pytest.approx(2 * math.exp(-1))
    assert chernoff_bound(100, 1e-9) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        chernoff_bound(0, 1.0)
    with pytest.raises(ValueError):
        chernoff_bound(5, 0.0)


def test_chernoff_dominates_empirical_tail():
    gen = rngmod.substream(0, "chernoff")
    n, b, trials = 100, 20.0, 20_000
    hits = int((np.abs(gen.random((trials, n)).round().sum(axis=1) - n / 2) >= b).sum())
    assert hits / trials <= chernoff_bound(n, b)


# --- expectation transfer -----------------------------------------------------------------

def test_expectation_transfer_exact():
    mu = dist(Fraction(3, 4), Fraction(1, 4))
    nu = dist(Fraction(1, 4), Fraction(3, 4))
    f = {0: Fraction(2), 1: Fraction(1, 2)}
    assert expectation_transfer_bound(mu, nu, f)


def test_expectation_transfer_rejects_signed_variable():
    mu = dist(Fraction(3, 4), Fraction(1, 4))
    nu = dist(Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(ValueError):
        expectation_transfer_bound(mu, nu, {0: Fraction(2), 1: Fraction(-1)})


# --- distribution validation ----------------------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution((1, 2), (0.5, 0.6))
    with pytest.raises(ValueError):
        DiscreteDistribution((1, 1), (0.5, 0.5))
    with pytest.raises(ValueError):
        DiscreteDistribution((1, 2), (-0.1, 1.1))
    with pytest.raises(ValueError):
        DiscreteDistribution((1, 2), (Fraction(1, 3), Fraction(1, 3)))
