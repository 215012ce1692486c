import math
from fractions import Fraction

import pytest

from streamlb import rng as rngmod
from streamlb import instances, protocols
from streamlb.common import BudgetError
from streamlb.infometrics import from_weights, tvd, uniform
from streamlb.instances import enumerate_si, iter_si, sample_si, si_support_size
from streamlb.protocols import (
    FullRevealUROracle,
    InternalEpsReport,
    MinAnnouncerOracle,
    NullOracle,
    NullUROracle,
    ParityHintOracle,
    RevealOracle,
    Transcript,
    amplification_parameters,
    boost_si,
    echo_protocol,
    empty_protocol,
    intersection_protocol,
    measure_internal_eps,
    measure_internal_eps_ur,
    mock_eps_solver,
    run_protocol,
    simulate_two_pass,
)
from streamlb.protocols import ProtocolSpec
from tests.test_instances import identity_matching_rs


# --- harness -------------------------------------------------------------------

def test_echo_protocol_bits_equal_encoding():
    tr, out = run_protocol(echo_protocol(width=16), 1234, None)
    assert out == 1234
    assert tr.total_bits == 16
    assert tr.messages[0][0] == "alice"


def test_empty_protocol():
    tr, out = run_protocol(empty_protocol(), None, None)
    assert tr.total_bits == 0 and out is None


def test_run_protocol_deterministic():
    spec = ProtocolSpec(
        name="coin",
        round_structure="one-way",
        alice=lambda inp, rcv, gen: format(int(gen.integers(0, 2**16)), "016b"),
        bob=lambda inp, rcv, gen: None,
        output=lambda inp, seen: seen[0],
    )
    a = run_protocol(spec, None, None, seed=5)
    b = run_protocol(spec, None, None, seed=5)
    assert a[0].messages == b[0].messages and a[1] == b[1]


def test_run_protocol_budget():
    spec = ProtocolSpec(
        name="chatter",
        round_structure="two-way",
        alice=lambda inp, rcv, gen: "0" * 64,
        bob=lambda inp, rcv, gen: "1" * 64,
        output=lambda inp, seen: None,
    )
    with pytest.raises(BudgetError):
        run_protocol(spec, None, None, max_bits=256)


def test_transcript_rejects_non_bits():
    tr = Transcript()
    with pytest.raises(ValueError):
        tr.send("alice", "2")


# --- intersection subprotocol -----------------------------------------------------

def test_intersection_examples():
    assert intersection_protocol({3}, {3, 7}, 8)[0] == 3
    assert intersection_protocol({1, 2}, {3, 4}, 8)[0] is None
    assert intersection_protocol(set(), {3, 4}, 8)[0] is None


def test_intersection_cost_and_success():
    gen = rngmod.substream(0, "inter")
    width = math.ceil(math.log2(64))
    for _ in range(300):
        inst = sample_si(64, gen)
        result, tr = intersection_protocol(inst.a, inst.b, 64)
        assert result == inst.e_star
        assert tr.total_bits <= min(len(inst.a), len(inst.b)) * width


# --- measurement -------------------------------------------------------------------

def test_measure_null_is_zero():
    report = measure_internal_eps(NullOracle(), 8, mode="exact")
    assert report.value == 0.0


def test_measure_full_reveal_m8_exact_half():
    report = measure_internal_eps(RevealOracle(1), 8, mode="exact")
    assert report.alice_side == pytest.approx(0.5, abs=1e-12)
    assert report.bob_side == pytest.approx(0.5, abs=1e-12)


def test_measure_min_announcer_positive_bob_only():
    report = measure_internal_eps(MinAnnouncerOracle(), 8, mode="exact")
    assert report.alice_side == 0.0
    assert report.bob_side > 0.0
    assert report.value == report.bob_side  # the definition takes the max


def _reference_exact_report(oracle, m):
    """Exact mode as it first stood: every weight a Fraction, over the listed support."""
    def accumulate(groups, own_set, pi, e_star, weight):
        weight_by_e = groups.setdefault(own_set, {}).setdefault(pi, {})
        for e in sorted(own_set):
            weight_by_e.setdefault(e, Fraction(0))
        weight_by_e[e_star] += weight

    def posterior_shift(groups):
        total = Fraction(0)
        for by_pi in groups.values():
            for weight_by_e in by_pi.values():
                support = tuple(sorted(weight_by_e))
                posterior = from_weights(support, tuple(weight_by_e[e] for e in support))
                total += sum(weight_by_e.values()) * tvd(posterior, uniform(support))
        return total

    alice_groups, bob_groups = {}, {}
    for inst, p_inst in enumerate_si(m):
        for rand, p_rand in oracle.randomness_support(m):
            pi = oracle.transcript(inst.a, inst.b, inst.e_star, rand)
            accumulate(alice_groups, inst.a, pi, inst.e_star, p_inst * p_rand)
            accumulate(bob_groups, inst.b, pi, inst.e_star, p_inst * p_rand)
    alice, bob = posterior_shift(alice_groups), posterior_shift(bob_groups)
    return InternalEpsReport(float(alice), float(bob), float(max(alice, bob)), "exact")


REFERENCE_ORACLES = {
    "null": NullOracle(),
    "reveal-0": RevealOracle(0),
    "reveal-1": RevealOracle(1),
    "reveal-3/16": RevealOracle(Fraction(3, 16)),
    "reveal-1/3": RevealOracle(Fraction(1, 3)),
    "parity-hint-5/16": ParityHintOracle(Fraction(5, 16)),
    "parity-hint-1/3": ParityHintOracle(Fraction(1, 3)),
    "parity-hint-1": ParityHintOracle(1),
    "min-announcer": MinAnnouncerOracle(),
}


@pytest.mark.parametrize("m, name", [(m, name) for m in (4, 8) for name in REFERENCE_ORACLES]
                         + [(12, "parity-hint-1/3")])
def test_exact_mode_equals_fraction_reference(m, name):
    oracle = REFERENCE_ORACLES[name]
    assert measure_internal_eps(oracle, m, mode="exact") == _reference_exact_report(oracle, m)


@pytest.mark.parametrize("m", [4, 8])
def test_iter_si_streams_the_listed_support(m):
    support = enumerate_si(m)
    assert list(iter_si(m)) == support
    assert len(support) == si_support_size(m)


def test_exact_mode_rejects_non_uniform_support(monkeypatch):
    def skewed(m):
        for i, (inst, p) in enumerate(iter_si(m)):
            yield inst, (2 * p if i == 0 else p)

    monkeypatch.setattr(protocols, "iter_si", skewed)
    with pytest.raises(AssertionError, match="is not 1/"):
        measure_internal_eps(RevealOracle(1), 4, mode="exact")


@pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(2, 7)])
@pytest.mark.parametrize("m", [8, 12])
def test_symmetric_path_agrees_with_full_enumeration(p, m):
    full = measure_internal_eps(RevealOracle(p), m, mode="exact")
    fast = measure_internal_eps(RevealOracle(p), m, mode="exact-symmetric")
    assert fast.value == pytest.approx(full.value, abs=1e-12)


def test_measure_budget_error_without_symmetry():
    with pytest.raises(BudgetError):
        measure_internal_eps(MinAnnouncerOracle(), 16, mode="auto")
    with pytest.raises(BudgetError):
        measure_internal_eps(NullOracle(), 16, mode="exact")


def test_measure_monte_carlo_close_to_exact():
    exact = measure_internal_eps(RevealOracle(Fraction(1, 2)), 8, mode="exact")
    mc = measure_internal_eps(RevealOracle(Fraction(1, 2)), 8, mode="monte-carlo",
                              mc_samples=4000, seed=9)
    assert mc.stderr is not None
    assert abs(mc.value - exact.value) < max(5 * mc.stderr, 0.02)


def test_measure_value_in_unit_interval():
    for oracle in (NullOracle(), RevealOracle(Fraction(3, 4)), ParityHintOracle(1)):
        report = measure_internal_eps(oracle, 8, mode="exact")
        assert 0.0 <= report.value <= 1.0


# --- mock calibration ----------------------------------------------------------------

def test_mock_zero_and_saturated():
    silent = mock_eps_solver(0.0, "reveal", 8)
    assert measure_internal_eps(silent, 8, mode="exact").value == 0.0
    full = mock_eps_solver(1.0, "reveal", 8)
    # the family maxes out at 1 - 4/m
    assert full.calibration["measured"] == pytest.approx(1 - 4 / 8, abs=1e-12)


def test_mock_calibrated_to_target():
    oracle = mock_eps_solver(0.3, "reveal", 8)
    measured = measure_internal_eps(oracle, 8, mode="exact").value
    assert 0.25 <= measured <= 0.35


def test_mock_bias_mode_calibrates():
    oracle = mock_eps_solver(0.2, "bias", 8)
    measured = measure_internal_eps(oracle, 8, mode="exact").value
    assert 0.15 <= measured <= 0.25


# --- amplification ---------------------------------------------------------------------

def test_amplification_parameter_formulas():
    eps, g1, g2, m = 0.5, 0.5, 2.0, 32
    k, k_formula, t_budget, tau = amplification_parameters(eps, g1, g2, m)
    assert k_formula == pytest.approx((32 / eps**2) * math.log(100 * g2 / g1), rel=1e-12)
    assert k == math.ceil(k_formula)
    assert tau == pytest.approx((0.5 + eps / 4) * k, rel=1e-12)
    assert t_budget == pytest.approx((g1 / g2) * (m / 2), rel=1e-12)


def test_amplification_parameter_domain():
    for bad in ((0.0, 0.5, 2.0), (0.5, 0.0, 2.0), (0.5, 0.5, 0.5), (1.5, 0.5, 2.0)):
        with pytest.raises(ValueError):
            amplification_parameters(bad[0], bad[1], bad[2], 32)


def test_boost_rejects_odd_half():
    inst = sample_si(4, rngmod.substream(0, "x"))
    with pytest.raises(ValueError):
        boost_si(RevealOracle(1), inst, 0.5)


def test_boost_perfect_oracle_always_right():
    gen = rngmod.substream(4, "boost-perfect")
    for i in range(5):
        inst = sample_si(16, gen)
        res = boost_si(RevealOracle(1), inst, 0.5, seed=i)
        assert res.answer == inst.e_star
        assert res.candidate_set == {inst.e_star}


def test_boost_null_oracle_mostly_fails():
    gen = rngmod.substream(5, "boost-null")
    wrong = 0
    for i in range(20):
        inst = sample_si(16, gen)
        res = boost_si(NullOracle(), inst, 0.5, seed=i)
        wrong += int(res.answer != inst.e_star)
    assert wrong >= 15


def test_boost_counts_bits():
    inst = sample_si(16, rngmod.substream(7, "bits"))
    res = boost_si(RevealOracle(1), inst, 0.5, seed=0)
    assert res.total_bits >= res.k  # every round sends at least one bit here


# --- unique-reach measurement -------------------------------------------------------

def test_ur_measure_null_zero():
    rs = identity_matching_rs(8)
    report = measure_internal_eps_ur(NullUROracle(), rs)
    assert report.value == 0.0


def test_ur_measure_full_reveal():
    # revealing Alice's whole input pins the witness: shift = 1 - 1/|T| = 1/2
    rs = identity_matching_rs(8)
    report = measure_internal_eps_ur(FullRevealUROracle(), rs)
    assert report.value == pytest.approx(0.5, abs=1e-12)


def test_ur_measure_budget():
    rs = identity_matching_rs(16)
    with pytest.raises(BudgetError):
        measure_internal_eps_ur(FullRevealUROracle(), rs, budget=10)


def test_ur_measure_budget_checked_before_enumeration(monkeypatch):
    def refuse(m):
        raise AssertionError("the budget must be checked before enumerating")

    for name in ("enumerate_si", "iter_si"):
        monkeypatch.setattr(instances, name, refuse)
        monkeypatch.setattr(protocols, name, refuse)
    with pytest.raises(BudgetError):
        measure_internal_eps_ur(FullRevealUROracle(), identity_matching_rs(16), budget=10)


# --- simulation guard rails ------------------------------------------------------------

def test_simulate_rejects_three_pass():
    from streamlb.streaming import BfsFrontier
    from streamlb.instances import sample_st, to_stream
    from streamlb.experiments import small_rs

    stream = to_stream(sample_st(small_rs(), seed=0))
    with pytest.raises(ValueError):
        simulate_two_pass(lambda: BfsFrontier(3), stream)


def test_simulate_labels():
    from streamlb.streaming import EdgeCounter
    from streamlb.instances import sample_st, to_stream
    from streamlb.experiments import small_rs

    stream = to_stream(sample_st(small_rs(), seed=1))
    tr, _ = simulate_two_pass(EdgeCounter, stream)
    assert tr.labels == ["A1", "B1", "A2"]
    assert [sender for sender, _ in tr.messages] == ["alice", "bob", "alice"]
