from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from streamlb import behrend
from streamlb import rng as rngmod
from streamlb.behrend import (
    AP_FREE_M_CAP,
    STRATEGIES,
    BehrendSet,
    construct_ap_free,
    random_ap_free,
    trim_to_multiple,
    verify_no_3ap,
)


def test_digit_base3_singleton():
    assert construct_ap_free(1, "digit-base3").elements == (1,)


def test_digit_base3_m10():
    assert construct_ap_free(10, "digit-base3").elements == (1, 3, 4, 9, 10)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_digit_base3_power_of_three_size(k):
    # at m = 3^k every subset of digit positions is usable, including 3^k itself
    assert construct_ap_free(3**k, "digit-base3").size == 2**k


def test_sphere_dominates_digit3_at_10k():
    sphere = construct_ap_free(10_000, "behrend-sphere")
    digit3 = construct_ap_free(10_000, "digit-base3")
    assert sphere.size >= digit3.size


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        construct_ap_free(10, "fibonacci")
    with pytest.raises(ValueError):
        construct_ap_free(0, "digit-base3")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_construct_refuses_an_m_above_the_cap_before_building(monkeypatch, strategy):
    def refuse(m, strategy):
        raise AssertionError("the cap must be checked before the construction runs")

    monkeypatch.setattr(behrend, "_construct_cached", refuse)
    with pytest.raises(ValueError, match=f"m={AP_FREE_M_CAP + 1} is above the cap of {AP_FREE_M_CAP}"):
        construct_ap_free(AP_FREE_M_CAP + 1, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_construct_admits_an_m_at_the_cap(monkeypatch, strategy):
    # the cap is inclusive: read at call time, a cap of 100 builds m = 100
    # as it stands uncapped and refuses m = 101
    expected = construct_ap_free(100, strategy)
    monkeypatch.setattr(behrend, "AP_FREE_M_CAP", 100)
    assert construct_ap_free(100, strategy) == expected
    with pytest.raises(ValueError, match="above the cap of 100"):
        construct_ap_free(101, strategy)


def test_verify_finds_canonical_progression():
    report = verify_no_3ap(BehrendSet(3, (1, 2, 3), "explicit"))
    assert not report.ok
    assert report.detail["triple"] == (1, 2, 3)


def test_verify_passes_small_cases():
    assert verify_no_3ap(BehrendSet(5, (1, 2, 4, 5), "explicit")).ok
    assert verify_no_3ap(BehrendSet(1, (), "explicit")).ok
    assert verify_no_3ap(BehrendSet(7, (7,), "explicit")).ok


def test_verify_reports_bad_order():
    report = verify_no_3ap(BehrendSet(9, (4, 2), "explicit"))
    assert not report.ok
    assert "increasing" in report.reason


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=400), st.sampled_from(["digit-base3", "behrend-sphere"]))
def test_constructions_always_verify(m, strategy):
    assert verify_no_3ap(construct_ap_free(m, strategy)).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300),
       st.sampled_from(["digit-base3", "behrend-sphere"]))
def test_size_monotone_in_universe(m1, m2, strategy):
    lo, hi = sorted((m1, m2))
    assert construct_ap_free(lo, strategy).size <= construct_ap_free(hi, strategy).size


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31))
def test_random_ap_free_is_ap_free(m, seed):
    a = random_ap_free(m, rngmod.substream(seed, "t"))
    assert verify_no_3ap(a).ok
    assert a.size >= 1


def test_trim_to_multiple_keeps_prefix():
    a = BehrendSet(10, (1, 3, 4, 9, 10), "explicit")
    trimmed = trim_to_multiple(a, 4)
    assert trimmed.elements == (1, 3, 4, 9)
    assert verify_no_3ap(trimmed).ok
