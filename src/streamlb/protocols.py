"""Two-party protocols: execution harness, transcripts, and measurements.

Three layers live here. A generic runner executes next-message functions
under a declared round structure and accounts every bit sent. On top of it
sit the set-intersection oracles: tiny one-way protocols with an enumerable
randomness interface, so the posterior of the target element given a
transcript is computed exactly, and the expected posterior shift (total
variation, from either player's perspective) is measured by full enumeration
of the input distribution. The amplification wrapper turns any oracle whose
shift is at least eps into an exact solver: k re-randomized runs, top-half
votes, a threshold, and a final intersection subprotocol on the surviving
candidates. Finally, a two-pass streaming algorithm is simulated exactly by
the three-message pattern: the serialized memory states are the messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import rng as rngmod
from .common import BudgetError, encode_int, encode_ints, int_width
from .infometrics import from_weights, tvd, uniform
from .instances import SIInstance, enumerate_si, iter_si, si_support_size

EXACT_FULL_M_CAP = 12
B_REST_ENUM_CAP = 200_000


@dataclass
class Transcript:
    """Messages (sender, bit string) plus the recorded public randomness."""

    messages: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    public_randomness: list = field(default_factory=list)

    def send(self, sender: str, bits: str, label: str | None = None):
        if not isinstance(bits, str) or bits.count("0") + bits.count("1") != len(bits):
            raise ValueError("messages must be bit strings")
        self.messages.append((sender, bits))
        self.labels.append(label or f"{sender}:{len(self.messages)}")

    def record_randomness(self, label: str, value):
        self.public_randomness.append((label, value))

    @property
    def total_bits(self) -> int:
        return sum(len(bits) for _, bits in self.messages)


@dataclass(frozen=True)
class ProtocolSpec:
    """Next-message functions for both players under a declared round structure."""

    name: str
    round_structure: str  # "one-way" | "two-way"
    alice: object  # (input, received: tuple[str], rng) -> bits | None
    bob: object
    output: object  # (bob_input, seen: tuple[str]) -> answer

    def __post_init__(self):
        if self.round_structure not in ("one-way", "two-way"):
            raise ValueError(f"unknown round structure {self.round_structure!r}")


def run_protocol(spec: ProtocolSpec, alice_input, bob_input, seed: int = 0,
                 max_bits: int | None = None):
    """Execute a protocol; deterministic in (inputs, seed). Returns (transcript, output)."""
    gen = rngmod.substream(seed, "protocol", spec.name)
    tr = Transcript()
    to_bob: list[str] = []
    to_alice: list[str] = []
    turn = "alice"
    while True:
        if turn == "alice":
            msg = spec.alice(alice_input, tuple(to_alice), gen)
            if msg is None:
                break
            tr.send("alice", msg)
            to_bob.append(msg)
            if spec.round_structure == "one-way":
                break
        else:
            msg = spec.bob(bob_input, tuple(to_bob), gen)
            if msg is None:
                break
            tr.send("bob", msg)
            to_alice.append(msg)
        if max_bits is not None and tr.total_bits > max_bits:
            raise BudgetError(f"protocol exceeded its {max_bits}-bit budget")
        turn = "bob" if turn == "alice" else "alice"
    return tr, spec.output(bob_input, tuple(to_bob))


# --- set-intersection oracles -------------------------------------------------

class SIOracle:
    """A one-way protocol fragment over intersection instances.

    `randomness_support(m)` enumerates the internal coin with exact
    probabilities, and `transcript` must be a deterministic function of the
    declared dependencies:

      uses_a       -- reads Alice's set beyond the target element
      uses_b_rest  -- reads Bob's set beyond the target element (when False,
                      likelihood evaluation may pass b=None)
      symmetric    -- per-player conditional statistics are invariant under
                      relabeling of the universe, enabling exact measurement
                      at any m from one fixed input
    """

    name = "oracle"
    uses_a = False
    uses_b_rest = False
    symmetric = False

    def randomness_support(self, m: int):
        return ((None, Fraction(1)),)

    def transcript(self, a, b, e_star: int, rand) -> str:
        raise NotImplementedError


class NullOracle(SIOracle):
    """Says nothing; the posterior never moves."""

    name = "null"
    symmetric = True

    def transcript(self, a, b, e_star, rand) -> str:
        return ""


class RevealOracle(SIOracle):
    """Announces the target element with probability p, else stays silent."""

    name = "reveal"
    symmetric = True

    def __init__(self, p):
        self.p = Fraction(p).limit_denominator(1 << 48)

    def randomness_support(self, m):
        out = []
        if self.p > 0:
            out.append(("reveal", self.p))
        if self.p < 1:
            out.append(("silent", 1 - self.p))
        return tuple(out)

    def transcript(self, a, b, e_star, rand) -> str:
        if rand == "reveal":
            return "1" + encode_int(e_star - 1, 16)
        return "0"


class ParityHintOracle(SIOracle):
    """Announces the parity of the target with probability p (the bias mode)."""

    name = "parity-hint"

    def __init__(self, p):
        self.p = Fraction(p).limit_denominator(1 << 48)

    def randomness_support(self, m):
        out = []
        if self.p > 0:
            out.append(("hint", self.p))
        if self.p < 1:
            out.append(("silent", 1 - self.p))
        return tuple(out)

    def transcript(self, a, b, e_star, rand) -> str:
        if rand == "hint":
            return "1" + str(e_star % 2)
        return "0"


class MinAnnouncerOracle(SIOracle):
    """Alice sends min(A): nothing moves for her, something moves for Bob."""

    name = "min-announcer"
    uses_a = True

    def transcript(self, a, b, e_star, rand) -> str:
        return encode_int(min(a) - 1, 16)


def perfect_oracle() -> SIOracle:
    return RevealOracle(1)


def null_oracle() -> SIOracle:
    return NullOracle()


# --- exact measurement of the internal shift ----------------------------------

@dataclass(frozen=True)
class InternalEpsReport:
    alice_side: float
    bob_side: float
    value: float
    mode: str
    stderr: float | None = None

    def as_dict(self) -> dict:
        return {
            "alice_side": float(self.alice_side),
            "bob_side": float(self.bob_side),
            "value": float(self.value),
            "mode": self.mode,
            "stderr": self.stderr,
        }


def _posterior_shift(groups):
    """Sum over (own set, transcript) rows of row mass * TVD(posterior of target, uniform prior).

    With the rows' masses as probabilities this is the expected shift.
    """
    total_shift = Fraction(0)
    for _, by_pi in groups.items():
        for _, weight_by_e in by_pi.items():
            support = tuple(sorted(weight_by_e))
            mass = sum(weight_by_e.values())
            posterior = from_weights(support, tuple(weight_by_e[e] for e in support))
            total_shift += mass * tvd(posterior, uniform(support))
    return total_shift


def _accumulate(groups, own_set, pi, e_star, weight):
    """Add weight to the target's entry of the (own set, transcript) row.

    A row is created once, with a zero for every candidate in the own set, so
    the posterior is formed over the whole set.
    """
    by_pi = groups.get(own_set)
    if by_pi is None:
        by_pi = groups[own_set] = {}
    weight_by_e = by_pi.get(pi)
    if weight_by_e is None:
        weight_by_e = by_pi[pi] = dict.fromkeys(sorted(own_set), 0)
    weight_by_e[e_star] += weight


def measure_internal_eps(oracle: SIOracle, m: int, mode: str = "auto",
                         mc_samples: int = 20_000, seed: int = 0) -> InternalEpsReport:
    """Expected posterior shift of the target element, per Alice and per Bob.

    Exact by full enumeration of the instance distribution and the oracle's
    randomness for m <= 12; exact from a single fixed input for oracles that
    declare relabeling symmetry; Monte Carlo (with standard error) behind an
    explicit flag otherwise.

    The full enumeration streams the instances from `iter_si` and accumulates
    integer multiplicities over the common denominator of the (uniform)
    instance and randomness probabilities, dividing by it once at the end; the
    shifts are the same exact rationals as accumulating `Fraction` weights.
    """
    if m < 4 or m % 4:
        raise ValueError(f"universe size must be a positive multiple of 4, got {m}")
    if mode not in ("auto", "exact", "exact-symmetric", "monte-carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        if m <= EXACT_FULL_M_CAP:
            mode = "exact"
        elif oracle.symmetric and not oracle.uses_a and not oracle.uses_b_rest:
            mode = "exact-symmetric"
        else:
            raise BudgetError(
                f"m={m} exceeds the exact enumeration budget (m <= {EXACT_FULL_M_CAP}) and "
                f"oracle {oracle.name!r} is not declared symmetric; "
                "pass mode='monte-carlo' to fall back to sampling"
            )

    if mode == "exact":
        if m > EXACT_FULL_M_CAP:
            raise BudgetError(f"exact mode enumerates the full joint only for m <= {EXACT_FULL_M_CAP}")
        # the weight of (instance, rand) is mult / (n_inst * denom) with an
        # integer mult; posteriors do not depend on that common scale
        support = oracle.randomness_support(m)
        denom = math.lcm(*(p.denominator for _, p in support))
        mults = [(rand, int(p_rand * denom)) for rand, p_rand in support]
        n_inst = si_support_size(m)
        p_inst = Fraction(1, n_inst)
        alice_groups: dict = {}
        bob_groups: dict = {}
        for inst, p in iter_si(m):
            if p != p_inst:
                raise AssertionError(f"instance probability {p} is not 1/{n_inst}")
            a, b, e_star = inst.a, inst.b, inst.e_star
            for rand, mult in mults:
                pi = oracle.transcript(a, b, e_star, rand)
                _accumulate(alice_groups, a, pi, e_star, mult)
                _accumulate(bob_groups, b, pi, e_star, mult)
        scale = Fraction(1, n_inst * denom)
        alice = _posterior_shift(alice_groups) * scale
        bob = _posterior_shift(bob_groups) * scale
        return InternalEpsReport(float(alice), float(bob), float(max(alice, bob)), "exact")

    if mode == "exact-symmetric":
        if not (oracle.symmetric and not oracle.uses_a and not oracle.uses_b_rest):
            raise ValueError("oracle does not declare the symmetry this mode requires")
        a0 = frozenset(range(1, m // 4 + 1))
        groups: dict = {}
        for e in sorted(a0):
            for rand, p_rand in oracle.randomness_support(m):
                pi = oracle.transcript(a0, None, e, rand)
                _accumulate(groups, a0, pi, e, Fraction(1, len(a0)) * p_rand)
        shift = _posterior_shift(groups)
        return InternalEpsReport(float(shift), float(shift), float(shift), "exact-symmetric")

    # Monte Carlo over instances; posterior per sample is still exact
    gen = rngmod.substream(seed, "measure-eps", oracle.name)
    from .instances import sample_si

    rand_values, rand_probs = _rand_arrays(oracle, m)
    sides = {"alice": [], "bob": []}
    for _ in range(mc_samples):
        inst = sample_si(m, gen)
        rand = rand_values[_pick(gen, rand_probs)]
        pi = oracle.transcript(inst.a, inst.b, inst.e_star, rand)
        for side, own in (("alice", inst.a), ("bob", inst.b)):
            like = _likelihoods(oracle, own, side, pi, m)
            posterior = from_weights(tuple(sorted(own)), tuple(like[e] for e in sorted(own)))
            sides[side].append(float(tvd(posterior, uniform(tuple(sorted(own))))))
    means = {k: sum(v) / len(v) for k, v in sides.items()}
    spread = max(
        (sum((x - means[k]) ** 2 for x in v) / max(len(v) - 1, 1)) ** 0.5 / len(v) ** 0.5
        for k, v in sides.items()
    )
    return InternalEpsReport(
        means["alice"], means["bob"], max(means.values()), "monte-carlo", stderr=spread
    )


def _rand_arrays(oracle, m):
    support = oracle.randomness_support(m)
    values = [v for v, _ in support]
    probs = [float(p) for _, p in support]
    return values, probs


def _pick(gen, probs):
    x = gen.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if x < acc:
            return i
    return len(probs) - 1


def _likelihoods(oracle: SIOracle, own_set, side: str, pi: str, m: int):
    """P(transcript = pi | own set, target = e) for each candidate e, exactly.

    For oracles whose transcript ignores the rest of the other player's set
    this is a sum over the randomness support alone; otherwise the other
    player's remainder is enumerated (budget-checked).
    """
    candidates = sorted(own_set)
    support = oracle.randomness_support(m)
    like = {}
    if not oracle.uses_b_rest and not (side == "bob" and oracle.uses_a):
        for e in candidates:
            a_arg = own_set if side == "alice" else None
            b_arg = None if side == "alice" else own_set
            like[e] = sum(
                (p for rand, p in support
                 if oracle.transcript(a_arg, b_arg, e, rand) == pi),
                Fraction(0),
            )
        return like
    rest = [x for x in range(1, m + 1) if x not in own_set]
    q = m // 4 - 1
    n_rest = math.comb(len(rest), q)
    if n_rest * len(support) > B_REST_ENUM_CAP:
        raise BudgetError(
            f"likelihood enumeration needs {n_rest * len(support)} evaluations; "
            "use a Monte Carlo posterior mode"
        )
    for e in candidates:
        acc = Fraction(0)
        for other_rest in combinations(rest, q):
            other = frozenset(other_rest) | {e}
            for rand, p in support:
                a_arg, b_arg = (own_set, other) if side == "alice" else (other, own_set)
                if oracle.transcript(a_arg, b_arg, e, rand) == pi:
                    acc += p
        like[e] = acc / n_rest
    return like


@lru_cache(maxsize=64)
def mock_eps_solver(eps: float, mode: str = "reveal", m: int = 32) -> SIOracle:
    """Oracle whose measured internal shift at universe size m is calibrated to eps.

    Calibration bisects the announce probability against measure_internal_eps;
    targets above the family's maximum shift saturate at probability one.
    """
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    if mode not in ("reveal", "bias"):
        raise ValueError(f"unknown mock mode {mode!r}")
    family = RevealOracle if mode == "reveal" else ParityHintOracle
    measure_mode = "exact-symmetric" if mode == "reveal" else "exact"

    def measured(p) -> float:
        return measure_internal_eps(family(p), m, mode=measure_mode).value

    if eps == 0:
        oracle = family(Fraction(0))
        oracle.calibration = {"p": 0.0, "measured": 0.0, "target": 0.0}
        return oracle
    top = measured(Fraction(1))
    if top <= eps:
        oracle = family(Fraction(1))
        oracle.calibration = {"p": 1.0, "measured": top, "target": eps}
        return oracle
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(30):
        mid = ((lo + hi) / 2).limit_denominator(1 << 20)
        if mid <= lo or mid >= hi:
            break
        if measured(mid) < eps:
            lo = mid
        else:
            hi = mid
    oracle = family(hi)
    oracle.calibration = {"p": float(hi), "measured": measured(hi), "target": eps}
    return oracle


# --- the amplification protocol ------------------------------------------------

def amplification_parameters(eps: float, gamma1: float, gamma2: float, m: int):
    """Repetition count, candidate budget, and vote threshold of the booster."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if not 0 < gamma1 <= 1:
        raise ValueError("gamma1 must lie in (0, 1]")
    if gamma2 < 1:
        raise ValueError("gamma2 must be >= 1")
    k_formula = (32.0 / eps**2) * math.log(100.0 * gamma2 / gamma1)
    k = math.ceil(k_formula)
    t_budget = (gamma1 / gamma2) * (m / 2.0)
    tau = (0.5 + eps / 4.0) * k
    return k, k_formula, t_budget, tau


@dataclass(frozen=True)
class BoostResult:
    answer: int | None
    failed: bool
    k: int
    k_formula: float
    tau: float
    t_budget: float
    candidate_set: frozenset
    counts: dict
    total_bits: int


def boost_si(oracle: SIOracle, inst: SIInstance, eps: float,
             gamma1: float = 0.5, gamma2: float = 2.0, seed: int = 0) -> BoostResult:
    """Solve an intersection instance exactly using only an eps-shifting oracle.

    Each round re-randomizes the instance through a public uniform relabeling
    (the relabeled pair is again distribution-typical and rounds are mutually
    independent), runs the oracle, computes the exact posterior of the target
    given the transcript from Alice's side, and votes for the posterior's top
    half. Elements whose votes clear tau survive into the candidate set; if
    few enough survive, an intersection subprotocol finishes the job.
    """
    m = inst.m
    if m % 8:
        raise ValueError("boost needs m divisible by 8 so Alice's set halves evenly")
    k, k_formula, t_budget, tau = amplification_parameters(eps, gamma1, gamma2, m)
    gen = rngmod.substream(seed, "boost")
    rand_values, rand_probs = _rand_arrays(oracle, m)
    counts = {e: 0 for e in sorted(inst.a)}
    half = len(inst.a) // 2
    a_elems = sorted(inst.a)
    b_elems = sorted(inst.b)
    total_bits = 0
    for _ in range(k):
        # public re-randomization: uniformly relabel the universe
        sigma = gen.permutation(m)
        a_img = frozenset(int(sigma[e - 1]) + 1 for e in a_elems)
        b_img = frozenset(int(sigma[e - 1]) + 1 for e in b_elems)
        e_img = int(sigma[inst.e_star - 1]) + 1
        rand = rand_values[_pick(gen, rand_probs)]
        pi = oracle.transcript(a_img, b_img, e_img, rand)
        total_bits += len(pi)
        like = _likelihoods(oracle, a_img, "alice", pi, m)
        ranked = sorted(like, key=lambda e: (-like[e], e))
        top = set(ranked[:half])
        for e in counts:
            if int(sigma[e - 1]) + 1 in top:
                counts[e] += 1
    survivors = frozenset(e for e, c in counts.items() if c > tau)
    if len(survivors) > t_budget:
        return BoostResult(None, True, k, k_formula, tau, t_budget, survivors, counts, total_bits)
    answer, tr = intersection_protocol(survivors, inst.b, m)
    total_bits += tr.total_bits
    return BoostResult(answer, answer is None, k, k_formula, tau, t_budget,
                       survivors, counts, total_bits)


def intersection_protocol(a, b, m: int):
    """The smaller side ships its set; the receiver intersects and answers.

    Deterministic, always correct on the single-intersection promise, and
    costs min(|a|, |b|) * ceil(log2 m) bits. Returns (element or None, transcript).
    """
    a, b = frozenset(a), frozenset(b)
    width = int_width(max(m - 1, 1))
    smaller, larger, sender = (a, b, "alice") if len(a) <= len(b) else (b, a, "bob")
    tr = Transcript()
    tr.send(sender, encode_ints((e - 1 for e in sorted(smaller)), width), label="set")
    hit = sorted(smaller & larger)
    return (hit[0] if hit else None), tr


# --- streaming simulation -------------------------------------------------------

def simulate_two_pass(alg_factory, stream_or_inst):
    """Run a two-pass streaming algorithm through the three-message pattern.

    Alice holds the first segment, Bob the second, and the third is revealed
    to both after one round. The messages are exactly the serialized memory
    states at the hand-off points; the final output must match a direct
    two-pass run bit for bit.
    """
    from .instances import STInstance, to_stream

    stream = to_stream(stream_or_inst) if isinstance(stream_or_inst, STInstance) else stream_or_inst
    if len(stream.segments) != 3:
        raise ValueError("the simulation needs a three-segment stream")
    (t1, e1), (t2, e2), (t3, e3) = stream.segments

    def fresh():
        alg = alg_factory()
        if alg.passes_needed > 2:
            raise ValueError(f"{alg.name} needs {alg.passes_needed} passes; only two are simulated")
        alg.start(stream.n, stream.directed, 0, stream.n - 1)
        return alg

    tr = Transcript()

    alice = fresh()
    alice.begin_pass(1)
    for u, v in e1:
        alice.process(u, v)
    m11 = alice.serialize()
    tr.send("alice", m11, label="A1")

    bob = fresh()
    bob.restore(m11, 1)
    for u, v in e2:
        bob.process(u, v)
    m12 = bob.serialize()
    tr.send("bob", m12, label="B1")

    alice2 = fresh()
    alice2.restore(m12, 1)
    for u, v in e3:
        alice2.process(u, v)
    alice2.end_pass(1)
    alice2.begin_pass(2)
    for u, v in e1:
        alice2.process(u, v)
    m21 = alice2.serialize()
    tr.send("alice", m21, label="A2")

    bob2 = fresh()
    bob2.restore(m21, 2)
    for u, v in e2:
        bob2.process(u, v)
    for u, v in e3:
        bob2.process(u, v)
    bob2.end_pass(2)
    return tr, bob2.result()


# --- unique-reach shaped measurement (one-way, Bob-side only) -------------------

class UROracle:
    """One-way protocol fragment over unique-reach inputs (Alice's edge sets)."""

    name = "ur-oracle"

    def randomness_support(self, rs):
        return ((None, Fraction(1)),)

    def transcript(self, s_sets, rand) -> str:
        raise NotImplementedError


class NullUROracle(UROracle):
    name = "ur-null"

    def transcript(self, s_sets, rand) -> str:
        return ""


class FullRevealUROracle(UROracle):
    """Ships Alice's whole input; the posterior collapses to the live target."""

    name = "ur-full-reveal"

    def transcript(self, s_sets, rand) -> str:
        bits = []
        for s in s_sets:
            mask = 0
            for j in s:
                mask |= 1 << (j - 1)
            bits.append(encode_int(mask, 64))
        return "".join(bits)


def measure_internal_eps_ur(oracle: UROracle, rs, budget: int = 300_000) -> InternalEpsReport:
    """Expected posterior shift of the reachable layer-3 vertex seen by Bob.

    Full enumeration of the planted distribution: every joint choice of the
    per-matching pairs, the live index, and the oracle's randomness.
    """
    r, t = rs.r, rs.t
    rand_support = oracle.randomness_support(rs)
    n_joint = si_support_size(r) ** t * t * len(rand_support)
    if n_joint > budget:
        raise BudgetError(f"full enumeration needs {n_joint} items (budget {budget})")
    si_support = enumerate_si(r)

    # group by (Bob's input, transcript) = ((i_star, T), pi); the witness's
    # prior given Bob's input alone is uniform over T
    groups: dict = {}

    def rec(i, chosen, weight):
        if i == t:
            s_sets = tuple(inst.a for inst in chosen)
            for i_star in range(1, t + 1):
                live = chosen[i_star - 1]
                w_istar = weight * Fraction(1, t)
                for rand, p_rand in rand_support:
                    pi = oracle.transcript(s_sets, rand)
                    key = (i_star, frozenset(live.b))
                    weight_by_e = groups.setdefault(key, {}).setdefault(pi, {})
                    for e in sorted(live.b):
                        weight_by_e.setdefault(e, Fraction(0))
                    weight_by_e[live.e_star] += w_istar * p_rand
            return
        for inst, p in si_support:
            rec(i + 1, chosen + (inst,), weight * p)

    rec(0, (), Fraction(1))
    shift = Fraction(0)
    for (_, t_set), by_pi in groups.items():
        support = tuple(sorted(t_set))
        for weight_by_e in by_pi.values():
            mass = sum(weight_by_e.values())
            posterior = from_weights(support, tuple(weight_by_e[e] for e in support))
            shift += mass * tvd(posterior, uniform(support))
    return InternalEpsReport(float("nan"), float(shift), float(shift), "exact")


# --- tiny demo protocols ---------------------------------------------------------

def echo_protocol(width: int = 16) -> ProtocolSpec:
    """Alice sends her integer input verbatim; Bob repeats it back as the answer."""
    return ProtocolSpec(
        name="echo",
        round_structure="one-way",
        alice=lambda inp, received, gen: encode_int(inp, width),
        bob=lambda inp, received, gen: None,
        output=lambda inp, seen: int(seen[0], 2) if seen and seen[0] else None,
    )


def empty_protocol() -> ProtocolSpec:
    return ProtocolSpec(
        name="empty",
        round_structure="one-way",
        alice=lambda inp, received, gen: "",
        bob=lambda inp, received, gen: None,
        output=lambda inp, seen: None,
    )
