import hashlib
import json
import math
from fractions import Fraction

import pytest

from streamlb import rng as rngmod
from streamlb import experiments, infometrics, instances, protocols
from streamlb.common import BudgetError, encode_ints
from streamlb.infometrics import from_weights, tvd, uniform
from streamlb.instances import iter_si, sample_si, si_support_size
from streamlb.protocols import (
    InternalEpsReport,
    MinAnnouncerOracle,
    NullOracle,
    ParityHintOracle,
    RevealOracle,
    SIOracle,
    Transcript,
    amplification_parameters,
    boost_si,
    encode_int,
    intersection_protocol,
    measure_internal_eps,
    mock_eps_solver,
    simulate_two_pass,
)
from streamlb.streaming import start_on


# --- transcripts ---------------------------------------------------------------

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


def _fraction_posterior_shift(groups):
    """Sum of row mass * TVD(posterior, uniform) over rows of Fraction weights."""
    total = Fraction(0)
    for by_pi in groups.values():
        for weight_by_e in by_pi.values():
            support = tuple(sorted(weight_by_e))
            posterior = from_weights(support, tuple(weight_by_e[e] for e in support))
            total += sum(weight_by_e.values()) * tvd(posterior, uniform(support))
    return total


def _reference_exact_report(oracle, m):
    """Exact mode as it first stood: every weight a Fraction, over the listed support."""
    def accumulate(groups, own_set, pi, e_star, weight):
        weight_by_e = groups.setdefault(own_set, {}).setdefault(pi, {})
        for e in sorted(own_set):
            weight_by_e.setdefault(e, Fraction(0))
        weight_by_e[e_star] += weight

    alice_groups, bob_groups = {}, {}
    for inst, p_inst in iter_si(m):
        for rand, p_rand in oracle.randomness_support(m):
            pi = oracle.transcript(inst.a if oracle.uses_a else None, inst.e_star, rand)
            accumulate(alice_groups, inst.a, pi, inst.e_star, p_inst * p_rand)
            accumulate(bob_groups, inst.b, pi, inst.e_star, p_inst * p_rand)
    alice, bob = _fraction_posterior_shift(alice_groups), _fraction_posterior_shift(bob_groups)
    return InternalEpsReport(float(alice), float(bob), float(max(alice, bob)), "exact")


class MinOrTargetOracle(SIOracle):
    """Spells min(A) with probability 1/3, else says whether the target is
    min(A): its transcript reads Alice's set and the target together."""

    name = "min-or-target"
    uses_a = True

    def randomness_support(self, m):
        return (("min", Fraction(1, 3)), ("is-min", Fraction(2, 3)))

    def transcript(self, a, e_star, rand):
        if rand == "min":
            return encode_int(min(a) - 1, 8)
        return "1" if e_star == min(a) else "0"


class FineRevealOracle(RevealOracle):
    """Reveals with probability 1/3^41: a denominator beyond int64, so exact
    mode's cells are Python ints."""

    def __init__(self):
        self.p = Fraction(1, 3**41)


REFERENCE_ORACLES = {
    "null": NullOracle(),
    "reveal-0": RevealOracle(0),
    "reveal-1": RevealOracle(1),
    "reveal-3/16": RevealOracle(Fraction(3, 16)),
    "reveal-1/3": RevealOracle(Fraction(1, 3)),
    "reveal-1/3^41": FineRevealOracle(),
    "parity-hint-5/16": ParityHintOracle(Fraction(5, 16)),
    "parity-hint-1/3": ParityHintOracle(Fraction(1, 3)),
    "parity-hint-1": ParityHintOracle(1),
    "min-announcer": MinAnnouncerOracle(),
}


@pytest.mark.parametrize("m, name", [(m, name) for m in (4, 8) for name in REFERENCE_ORACLES]
                         + [(12, name) for name in ("null", "reveal-3/16", "reveal-1/3^41",
                                                    "parity-hint-5/16", "parity-hint-1/3",
                                                    "min-announcer")])
def test_exact_mode_equals_fraction_reference(m, name):
    oracle = REFERENCE_ORACLES[name]
    assert measure_internal_eps(oracle, m, mode="exact") == _reference_exact_report(oracle, m)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_exact_mode_with_a_transcript_of_alice_set_and_target_equals_the_reference(m):
    oracle = MinOrTargetOracle()
    report = measure_internal_eps(oracle, m, mode="exact")
    assert report == _reference_exact_report(oracle, m)
    assert m == 4 or 0 < min(report.alice_side, report.bob_side)  # k = 1 at m = 4: nothing moves


def test_monte_carlo_and_boost_take_alice_set_and_target_together():
    exact = measure_internal_eps(MinOrTargetOracle(), 8, mode="exact")
    mc = measure_internal_eps(MinOrTargetOracle(), 8, mode="monte-carlo", mc_samples=2000, seed=4)
    assert abs(mc.alice_side - exact.alice_side) < 5 * mc.stderr
    assert abs(mc.bob_side - exact.bob_side) < 5 * mc.stderr
    inst = sample_si(16, rngmod.substream(8, "min-or-target"))
    res = boost_si(MinOrTargetOracle(), inst, 0.5, seed=0)
    assert sum(res.counts.values()) == res.k * len(inst.a) // 2  # each round votes for half of A
    assert res.total_bits >= res.k and res.answer == inst.e_star


@pytest.mark.parametrize("m", [8, 12])
@pytest.mark.parametrize("oracle", [RevealOracle(Fraction(1, 3)), ParityHintOracle(Fraction(5, 16)),
                                    MinAnnouncerOracle(), MinOrTargetOracle()], ids=lambda o: o.name)
def test_exact_mode_computes_a_transcript_per_target_unless_a_set_is_read(monkeypatch, oracle, m):
    calls = []
    transcript = oracle.transcript

    def counted(a, e_star, rand):
        calls.append((a, e_star, rand))
        return transcript(a, e_star, rand)

    monkeypatch.setattr(oracle, "transcript", counted)
    measure_internal_eps(oracle, m, mode="exact")
    # one call per distinct argument: (Alice's set, target) when a set is
    # read, C(m, m/4) * m/4 of them, else the target alone
    per_rand = math.comb(m, m // 4) * (m // 4) if oracle.uses_a else m
    assert len(calls) == len(set(calls)) == per_rand * len(oracle.randomness_support(m))
    if oracle.uses_a:
        assert all(type(a) is frozenset and e in a for a, e, _ in calls)
    else:
        assert all(a is None for a, _, _ in calls)


class SpellAllOracle(SIOracle):
    """Spells Alice's set, the target and one of three rands: every argument and
    rand gets its own transcript, so exact mode's row keys span their widest
    range, C(m, m/4) own sets times C(m, m/4) * m/4 * 3 transcripts."""

    name = "spell-all"
    uses_a = True

    def randomness_support(self, m):
        return ((0, Fraction(1, 6)), (1, Fraction(1, 3)), (2, Fraction(1, 2)))

    def transcript(self, a, e_star, rand):
        return str(encode_ints([x - 1 for x in sorted(a)] + [e_star - 1, rand], 4))  # transcripts are text


@pytest.mark.parametrize("m", [4, 8, 12])
def test_exact_mode_numbers_rows_over_the_widest_key_range(m):
    oracle = SpellAllOracle()
    report = measure_internal_eps(oracle, m, mode="exact")
    if m < 12:
        assert report == _reference_exact_report(oracle, m)
    # the transcript names the target, so every row is a point mass
    expected = float(1 - Fraction(4, m))
    assert report.alice_side == report.bob_side == report.value == expected


class UndeclaredMinOracle(MinAnnouncerOracle):
    """Reads Alice's set without declaring it."""

    name = "undeclared-min"
    uses_a = False


def test_exact_mode_refuses_an_oracle_that_reads_an_undeclared_set():
    with pytest.raises(TypeError):
        measure_internal_eps(UndeclaredMinOracle(), 8, mode="exact")


def test_exact_mode_checks_every_distinct_row_by_the_subset_form(monkeypatch):
    # rows at m = 8 have k = 2 cells, whose largest subset sum is a singleton,
    # so the tampered subset path keeps only the empty set
    monkeypatch.setattr(infometrics, "_subset_sums", lambda values: [0])
    with pytest.raises(AssertionError, match="subset form"):
        measure_internal_eps(RevealOracle(Fraction(1, 3)), 8, mode="exact")


def test_exact_mode_enumerates_the_support_once_per_m(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return iter_si(m)

    protocols._si_support.cache_clear()
    monkeypatch.setattr(protocols, "iter_si", counted)
    first = measure_internal_eps(RevealOracle(1), 8, mode="exact")
    assert measure_internal_eps(RevealOracle(1), 8, mode="exact") == first
    measure_internal_eps(MinAnnouncerOracle(), 8, mode="exact")
    measure_internal_eps(NullOracle(), 4, mode="exact")
    assert calls == [8, 4]


@pytest.mark.parametrize("m", [4, 8])
def test_iter_si_streams_the_listed_support(m):
    stream = iter_si(m)
    assert iter(stream) is stream
    support = list(stream)
    assert len(support) == len({inst for inst, _ in support}) == si_support_size(m)


def test_exact_mode_rejects_non_uniform_support(monkeypatch):
    def skewed(m):
        for i, (inst, p) in enumerate(iter_si(m)):
            yield inst, (2 * p if i == 0 else p)

    protocols._si_support.cache_clear()
    monkeypatch.setattr(protocols, "iter_si", skewed)
    with pytest.raises(AssertionError, match="is not 1/"):
        measure_internal_eps(RevealOracle(1), 4, mode="exact")


@pytest.mark.parametrize("skewed_index", [1, si_support_size(4) // 2, si_support_size(4) - 1])
def test_exact_mode_rejects_a_skew_after_the_first_instance(monkeypatch, skewed_index):
    # the probability is compared once per distinct object, so a skew later in
    # the stream of one shared Fraction must still be caught
    def skewed(m):
        for i, (inst, p) in enumerate(iter_si(m)):
            yield inst, (2 * p if i == skewed_index else p)

    protocols._si_support.cache_clear()
    monkeypatch.setattr(protocols, "iter_si", skewed)
    with pytest.raises(AssertionError, match="is not 1/"):
        measure_internal_eps(RevealOracle(1), 4, mode="exact")


@pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(2, 7)])
@pytest.mark.parametrize("m", [8, 12])
def test_symmetric_path_agrees_with_full_enumeration(p, m):
    full = measure_internal_eps(RevealOracle(p), m, mode="exact")
    fast = measure_internal_eps(RevealOracle(p), m, mode="exact-symmetric")
    assert fast.value == full.value


@pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 3), Fraction(2, 7)])
@pytest.mark.parametrize("m", [32, 1000])
def test_symmetric_path_equals_the_closed_form_above_the_exact_cap(p, m):
    # reveal(p) collapses the posterior onto the target with probability p
    report = measure_internal_eps(RevealOracle(p), m, mode="exact-symmetric")
    assert report.value == float(p * (1 - Fraction(4, m)))


class WideRevealOracle(RevealOracle):
    """Reveals with probability 1/(2^61 + 1), with no limit on the denominator:
    the rows' mass reaches 2^63 in exact mode at m = 8 and in exact-symmetric
    mode at m = 32, so both count in Python-int cells."""

    def __init__(self):
        self.p = Fraction(1, 2**61 + 1)


@pytest.mark.parametrize("m, mode", [(8, "exact"), (32, "exact-symmetric")])
def test_wide_integer_cells_equal_the_closed_form(m, mode):
    oracle = WideRevealOracle()
    denom = oracle.p.denominator
    assert denom < 1 << 63 <= denom * (si_support_size(m) if mode == "exact" else m // 4)
    report = measure_internal_eps(oracle, m, mode=mode)
    expected = float(oracle.p * (1 - Fraction(4, m)))
    assert report.alice_side == report.bob_side == report.value == expected


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


def test_monte_carlo_enumerates_bob_side_likelihoods():
    # Bob's side of an oracle that reads Alice's set sums over every remainder
    # of Alice's set; exact: Alice's posterior never moves, Bob's by 1/3 at m=8
    exact = measure_internal_eps(MinAnnouncerOracle(), 8, mode="exact")
    mc = measure_internal_eps(MinAnnouncerOracle(), 8, mode="monte-carlo",
                              mc_samples=2000, seed=3)
    assert exact.alice_side == mc.alice_side == 0.0
    assert exact.bob_side == pytest.approx(1 / 3, abs=1e-12)
    assert abs(mc.bob_side - exact.bob_side) < 5 * mc.stderr


def test_monte_carlo_budget_checked_before_sampling(monkeypatch):
    # Bob's likelihoods for min-announcer at m = 32 would sum C(24, 7) = 346104
    # (rest of Alice's set, rand) pairs each: refused before any transcript
    oracle = MinAnnouncerOracle()

    def refuse(a, e_star, rand):
        raise AssertionError("the budget must be checked before sampling")

    monkeypatch.setattr(oracle, "transcript", refuse)
    with pytest.raises(BudgetError) as refused:
        measure_internal_eps(oracle, 32, mode="monte-carlo")
    message = str(refused.value)
    assert all(part in message for part in ("'min-announcer'", "m=32", "346104", "200000"))
    assert "monte" not in message.lower()


# sha256 of the JSON of `as_dict()` of Monte Carlo reports with mc_samples=500,
# seed=m: the means and the standard error move with any change to a draw,
# a likelihood or the order of the sums
MONTE_CARLO_HASHES = {
    ("reveal-1/3", 8): "d03cde883a27755e6ab378b25de3159d9da1cba6b264a849d8147b3f6d356305",
    ("reveal-1/3", 16): "7fa462a082622fe4a0ac9f878a6524f28f70e93e4e139fc12c37dfe6046a8d5c",
    ("reveal-1/3", 32): "ca9c832cd7305b5f1448d481cc7a0efdea75d3efe3384444498c2d542d7d8700",
    ("parity-hint-2/7", 8): "c9b346a5ab699225a3ea72975fcecec84e5731922d0be5d8e43a435a26806963",
    ("parity-hint-2/7", 16): "edaccaf01c1fbc988ab8e2f46921793d047ee6466e4265ded74ba248992ae587",
    ("parity-hint-2/7", 32): "ec4175bf87d05fbec899e7aa66e0bcc4c27f0a966a52aac431d385b192398b66",
    ("null", 8): "d2a17b0c0bcf4cbb53dfb879ac8772fbc5dfae4af18426253421d7285aa9291f",
    ("null", 16): "d2a17b0c0bcf4cbb53dfb879ac8772fbc5dfae4af18426253421d7285aa9291f",
    ("null", 32): "d2a17b0c0bcf4cbb53dfb879ac8772fbc5dfae4af18426253421d7285aa9291f",
    ("min-announcer", 8): "d134d37e2ce5343cad2c8a78b9b0fd62b3d29b85668ccbac1482584e539c00a1",
    ("min-announcer", 16): "39ca49028269b77531a2e1e1c8085fe8ab3f8c3f7ee2466a98966da47b939346",
}
MONTE_CARLO_ORACLES = {
    "reveal-1/3": RevealOracle(Fraction(1, 3)),
    "parity-hint-2/7": ParityHintOracle(Fraction(2, 7)),
    "null": NullOracle(),
    "min-announcer": MinAnnouncerOracle(),
}


@pytest.mark.parametrize("name, m", list(MONTE_CARLO_HASHES))
def test_monte_carlo_reports_are_pinned(name, m):
    report = measure_internal_eps(MONTE_CARLO_ORACLES[name], m, mode="monte-carlo",
                                  mc_samples=500, seed=m)
    digest = hashlib.sha256(json.dumps(report.as_dict()).encode()).hexdigest()
    assert digest == MONTE_CARLO_HASHES[name, m]


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


# sha256 of the BoostResult fields answer, counts, candidate_set and total_bits
# of the first four boost_trials trials of each criterion-9 configuration
# (m=32, eps=0.5, gamma1=0.5, gamma2=2): the vote counts move with any change
# to the ranking or to an RNG draw, which a success rate can hide
BOOST_VOTE_HASHES = {
    ("mock-reveal", 9): "a43f833c725622c5706e461921aee387e8c07a1d0de655c1d0b3d448a53e828c",
    ("perfect", 10): "826b2f95858642403549a27ad67c1381ff777a831dfaa633e8926406fefdc765",
    ("null", 11): "88c3e94fd3274ad6fdbdd0fe6f4f220add7fb664358c7330e0e2a4c9ee99e0d1",
}


@pytest.mark.parametrize("tag, seed", list(BOOST_VOTE_HASHES))
def test_boost_votes_are_pinned(monkeypatch, tag, seed):
    results = []

    def recording(*args, **kwargs):
        results.append(boost_si(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiments, "boost_si", recording)
    experiments.boost_trials(tag, m=32, eps=0.5, gamma1=0.5, gamma2=2.0, trials=4, seed=seed)
    fields = [[r.answer, sorted(r.counts.items()), sorted(r.candidate_set), r.total_bits]
              for r in results]
    digest = hashlib.sha256(json.dumps(fields).encode()).hexdigest()
    assert digest == BOOST_VOTE_HASHES[tag, seed]


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


def reference_simulate_two_pass(alg_factory, stream):
    """The four hand-unrolled players the holder table replaced, kept as the
    reference (without the message cap, which its own tests hold)."""
    (t1, e1), (t2, e2), (t3, e3) = stream.segments

    def fresh():
        return start_on(alg_factory(), stream, passes=2)

    def send(sender, state, label):
        message = state.serialize()
        tr.send(sender, message, label=label)
        return message

    tr = Transcript()

    alice = fresh()
    alice.begin_pass(1)
    alice.process_block(e1.us, e1.vs)
    m11 = send("alice", alice, "A1")

    bob = fresh()
    bob.restore(m11, 1)
    bob.process_block(e2.us, e2.vs)
    m12 = send("bob", bob, "B1")

    alice2 = fresh()
    alice2.restore(m12, 1)
    alice2.process_block(e3.us, e3.vs)
    alice2.end_pass(1)
    alice2.begin_pass(2)
    alice2.process_block(e1.us, e1.vs)
    m21 = send("alice", alice2, "A2")

    bob2 = fresh()
    bob2.restore(m21, 2)
    bob2.process_block(e2.us, e2.vs)
    bob2.process_block(e3.us, e3.vs)
    bob2.end_pass(2)
    return tr, bob2.result()


@pytest.mark.parametrize("e1_mode", ["random", "complete", "empty"])
def test_simulate_equals_the_unrolled_reference(e1_mode):
    # the same labels, senders, messages and output as the four players, on
    # st instances and, for the spanning forest, on their reduce_to_sssp form
    from streamlb.experiments import small_rs
    from streamlb.instances import sample_st, to_stream
    from streamlb.reductions import reduce_to_sssp
    from streamlb.streaming import BfsFrontier, EdgeCounter, SpanningForest, StoreAll, XorSketch

    rs = small_rs()
    for seed in range(20):
        stream = to_stream(sample_st(rs, seed=seed, e1_mode=e1_mode))
        cases = [(factory, stream) for factory in (EdgeCounter, StoreAll, lambda: BfsFrontier(2),
                                                   lambda: XorSketch(3))]
        cases.append((SpanningForest, reduce_to_sssp(stream)[0]))
        for factory, on in cases:
            tr, output = simulate_two_pass(factory, on)
            ref, ref_output = reference_simulate_two_pass(factory, on)
            assert (tr.labels, tr.messages, output) == (ref.labels, ref.messages, ref_output)
