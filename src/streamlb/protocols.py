"""Two-party protocols: transcripts, posterior-shift measurement, amplification.

The set-intersection oracles are tiny one-way protocols with an enumerable
randomness interface, so the posterior of the target element given a
transcript is computed exactly, and the expected posterior shift (total
variation, from either player's perspective) is measured by full enumeration
of the input distribution. A transcript accounts every bit sent. The
amplification wrapper turns any oracle whose shift is at least eps into an
exact solver: k re-randomized runs, top-half votes, a threshold, and a final
intersection subprotocol on the surviving candidates. Finally, a two-pass
streaming algorithm is simulated exactly by the three-message pattern: the
serialized memory states are the messages.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat

import numpy as np

from . import rng as rngmod
from .common import BudgetError, encode_int, encode_ints, int_width, is_bit_string
from .infometrics import uniform_shift_l1
from .instances import EdgeStream, SIInstance, iter_si, sample_si, si_support_size
from .streaming import start_on

EXACT_FULL_M_CAP = 12
MEASURE_MODES = ("auto", "exact", "exact-symmetric", "monte-carlo")
A_REST_ENUM_CAP = 200_000
# row cells exact-symmetric mode may fill, (m/4)^2 per rand: just under the cap
# (reveal with p = 1/3 at m = 8944) it takes 0.4-0.6 s and 106 MiB peak RSS in a
# fresh process (2 vCPUs, Python 3.11, numpy 2.4)
SYMMETRIC_CELL_CAP = 10_000_000


@dataclass
class Transcript:
    """Messages (sender, bit string) with one label each."""

    messages: list = field(default_factory=list)
    labels: list = field(default_factory=list)

    def send(self, sender: str, bits: str, label: str | None = None):
        if not is_bit_string(bits):
            raise ValueError("messages must be bit strings")
        self.messages.append((sender, bits))
        self.labels.append(label or f"{sender}:{len(self.messages)}")

    @property
    def total_bits(self) -> int:
        return sum(len(bits) for _, bits in self.messages)


# --- set-intersection oracles -------------------------------------------------

class SIOracle:
    """A one-way protocol fragment from Alice over intersection instances.

    `randomness_support(m)` enumerates the internal coin with exact
    probabilities, and `transcript(a, e_star, rand)` must be a deterministic
    function of what it declares it reads. Being one-way, it never reads
    Bob's set; it is called with Alice's set `a` only if `uses_a`, and with
    a = None otherwise:

      uses_a     -- reads Alice's set beyond the target element
      symmetric  -- per-player conditional statistics are invariant under
                    relabeling of the universe, enabling exact measurement
                    at any m from one fixed input
    """

    name = "oracle"
    uses_a = False
    symmetric = False

    def randomness_support(self, m: int):
        return ((None, Fraction(1)),)

    def transcript(self, a, e_star: int, rand) -> str:
        raise NotImplementedError


class NullOracle(SIOracle):
    """Says nothing; the posterior never moves."""

    name = "null"
    symmetric = True

    def transcript(self, a, e_star, rand) -> str:
        return ""


class CoinOracle(SIOracle):
    """Speaks with probability p (the outcome named `speaks`), else stays silent."""

    speaks: str

    def __init__(self, p):
        self.p = Fraction(p).limit_denominator(1 << 48)

    def randomness_support(self, m):
        out = []
        if self.p > 0:
            out.append((self.speaks, self.p))
        if self.p < 1:
            out.append(("silent", 1 - self.p))
        return tuple(out)


# RevealOracle writes the target e* - 1 in 16 bits, so it serves universes up to 2^16
_REVEAL_TARGET_BITS = 16
REVEAL_M_CAP = 1 << _REVEAL_TARGET_BITS


class RevealOracle(CoinOracle):
    """Announces the target element with probability p, else stays silent."""

    name = "reveal"
    speaks = "reveal"
    symmetric = True

    def transcript(self, a, e_star, rand) -> str:
        if rand == "reveal":
            return "1" + encode_int(e_star - 1, _REVEAL_TARGET_BITS)
        return "0"


class ParityHintOracle(CoinOracle):
    """Announces the parity of the target with probability p (the bias mode)."""

    name = "parity-hint"
    speaks = "hint"

    def transcript(self, a, e_star, rand) -> str:
        if rand == "hint":
            return "1" + str(e_star % 2)
        return "0"


class MinAnnouncerOracle(SIOracle):
    """Alice sends min(A): nothing moves for her, something moves for Bob."""

    name = "min-announcer"
    uses_a = True

    def transcript(self, a, e_star, rand) -> str:
        return encode_int(min(a) - 1, 16)


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


def _integer_support(support):
    """A randomness support as (denom, [(rand, mult)]): each probability is mult / denom,
    denom the least common denominator, so weights are integer multiplicities."""
    denom = math.lcm(*(p.denominator for _, p in support))
    return denom, [(rand, int(p * denom)) for rand, p in support]


@lru_cache(maxsize=EXACT_FULL_M_CAP // 4)
def _si_support(m: int):
    """The support of `iter_si(m)`, enumerated once per m, each instance checked
    to have probability 1/|support|; `iter_si` shares one probability object,
    so each new object is compared once.

    Returns the C(m, m/4) own sets as frozensets in `combinations` order, and
    read-only int arrays with one entry per instance: Alice's set index, Bob's
    set index, the target, and the target's rank in each player's sorted set.
    """
    n_inst = si_support_size(m)
    p_inst = Fraction(1, n_inst)
    sets = tuple(frozenset(c) for c in combinations(range(1, m + 1), m // 4))
    index = {s: i for i, s in enumerate(sets)}
    rank = np.zeros((len(sets), m + 1), np.int8)
    for i, s in enumerate(sets):
        rank[i, sorted(s)] = range(len(s))

    def checked():
        checked_p = None
        for inst, p in iter_si(m):
            if p is not checked_p:
                if p != p_inst:
                    raise AssertionError(f"instance probability {p} is not 1/{n_inst}")
                checked_p = p
            yield index[inst.a], index[inst.b], inst.e_star

    # indices below C(12, 3) = 220 fit int16; `fromiter` raises on overflow
    a_idx, b_idx, e_star = np.fromiter(checked(), np.dtype((np.int16, 3)), n_inst).T
    arrays = (a_idx, b_idx, e_star, rank[a_idx, e_star], rank[b_idx, e_star])
    for arr in arrays:
        arr.flags.writeable = False
    return (sets, *arrays)


def _posterior_shift(cells, total: int) -> Fraction:
    """Sum over (own set, transcript) rows of row mass * TVD(posterior of target, uniform prior).

    `cells` has one row per (own set, transcript) pair and one column per
    candidate of the own set, integer multiplicities summing to `total` over
    all rows, so the sum is the expected shift. Each distinct row goes through
    `uniform_shift_l1` once, cross-checked by the subset form when k <= 12, and
    its numerator counts once per row equal to it; the sum is divided once.
    Rows are listed a slice at a time, so only the distinct rows are held.
    """
    n_rows, k = cells.shape
    rows = Counter()
    step = max(1, (1 << 16) // k)
    for start in range(0, n_rows, step):
        rows.update(map(tuple, cells[start:start + step].tolist()))
    l1 = sum(n_equal * uniform_shift_l1(row) for row, n_equal in rows.items())
    return Fraction(l1, 2 * k * total)


def _numbered(key_arrays, n_keys: int):
    """Number the distinct keys of `key_arrays`, all in range(n_keys), in key
    order: a mask over the key range and its running count.

    Returns the count less one, of the narrowest type holding n_keys, which a
    listed key indexes for its number, and the distinct keys ascending. The
    arrays are read one at a time, so a generator can build and drop each.
    """
    seen = np.zeros(n_keys, bool)
    for keys in key_arrays:
        seen[keys] = True
    number = np.cumsum(seen, dtype=np.min_scalar_type(-n_keys))
    number -= 1
    return number, np.flatnonzero(seen)


def _row_shifts(sides, pis_by_rand, which, mults, denom: int, k: int) -> list:
    """Each side's expected posterior shift over its (own set, transcript) rows.

    Item i has transcript `pis[which[i]]` under the j-th rand of `mults`, `pis`
    the j-th list of `pis_by_rand`; a side is a pair of arrays (own, rank),
    item i's own set index and the target's rank in that set. The listed
    transcripts get dense ids, once for all sides, and `_numbered` numbers the
    rows by key own * n_ids + id. A row is an (own set, transcript) pair that
    some (item, rand) reaches; its cell for a candidate is the sum over rands
    of mult * the count of that rand's items with the target at that rank, and
    a side's rows have mass n_items * denom. Per-item arrays take the narrowest
    types holding them (int64 ones cost ~1,200 page faults an exact-info op).
    """
    total = len(which) * denom
    dtype = np.int64 if total < 1 << 63 else object  # a cell is at most `total`
    ids: dict = {}
    tids = [np.array([ids.setdefault(pi, len(ids)) for pi in pis]) for pis in pis_by_rand]
    tids = [t.astype(np.min_scalar_type(-len(ids)))[which] for t in tids]

    def cells(own, rank):  # its row numbering is dropped before the rows are counted
        n_keys = (int(own.max()) + 1) * len(ids)
        base = own.astype(np.min_scalar_type(-n_keys)) * len(ids)
        row, reached = _numbered((base + t for t in tids), n_keys)
        out = np.zeros(len(reached) * k, dtype)
        first = np.multiply(row, k, dtype=np.min_scalar_type(-len(out)))  # a key's row's first cell
        for (_, mult), t in zip(mults, tids):  # unbuffered: each repeated cell counted
            np.add.at(out, first[base + t] + rank, mult)
        return out.reshape(-1, k)

    return [_posterior_shift(cells(own, rank), total) for own, rank in sides]


def measure_internal_eps(oracle: SIOracle, m: int, mode: str = "auto",
                         mc_samples: int = 20_000, seed: int = 0) -> InternalEpsReport:
    """Expected posterior shift of the target element, per Alice and per Bob.

    Exact by full enumeration of the instance distribution and the oracle's
    randomness for m <= 12; exact from a single fixed input for oracles that
    declare relabeling symmetry; Monte Carlo (with standard error) behind an
    explicit flag otherwise, which refuses before sampling an oracle that
    reads Alice's set if a likelihood of Bob's sums over A_REST_ENUM_CAP terms.

    Every mode weighs (instance, rand) by an integer multiplicity over the
    randomness support's common denominator. The full enumeration's support
    is enumerated from `iter_si` and checked once per m per process
    (`_si_support`). Each call then computes one transcript per distinct
    argument and rand, the arguments numbered by a mask over their key range
    (`_numbered`), and each instance takes its argument's by index. The
    oracle being one-way, the argument is the target alone (m of them) when
    `uses_a` is False, else the (Alice's set, target) pair (C(m, m/4) * m/4
    of them). Every exact measurement, both modes here and the unique-reach
    one, counts its (own set, transcript) rows the same way, in arrays,
    numbered by the same helper (`_row_shifts`). Row shifts are summed in
    integers too, without forming the posterior, each distinct row once,
    weighted by its count, and divided once (`_posterior_shift`): the same
    exact rationals as `Fraction` weights through `tvd`. Exact-symmetric
    mode refuses more than SYMMETRIC_CELL_CAP row cells.
    """
    if m < 4 or m % 4:
        raise ValueError(f"universe size must be a positive multiple of 4, got {m}")
    if mode not in MEASURE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        if m <= EXACT_FULL_M_CAP:
            mode = "exact"
        elif oracle.symmetric and not oracle.uses_a:
            mode = "exact-symmetric"
        else:
            raise BudgetError(
                f"m={m} exceeds the exact enumeration budget (m <= {EXACT_FULL_M_CAP}) and "
                f"oracle {oracle.name!r} is not declared symmetric; "
                "pass mode='monte-carlo' to fall back to sampling"
            )
    denom, mults = _integer_support(oracle.randomness_support(m))

    if mode == "exact":
        if m > EXACT_FULL_M_CAP:
            raise BudgetError(f"exact mode enumerates the full joint only for m <= {EXACT_FULL_M_CAP}")
        sets, a_idx, b_idx, e_star, rank_a, rank_b = _si_support(m)
        # an item's argument key is a_idx * (m + 1) + e*, a_idx read as 0 unless the
        # oracle reads Alice's set: keys below C(m, m/4) * (m + 1) <= 2860 fit int16
        keys = (a_idx if oracle.uses_a else 0) * (m + 1) + e_star
        number, arg_keys = _numbered([keys], len(sets) * (m + 1))
        a_of, e_of = np.divmod(arg_keys, m + 1)
        args = list(zip(map(sets.__getitem__, a_of.tolist()) if oracle.uses_a else repeat(None),
                        e_of.tolist()))
        pis_by_rand = ([oracle.transcript(a, e, rand) for a, e in args] for rand, _ in mults)
        alice, bob = _row_shifts(((a_idx, rank_a), (b_idx, rank_b)), pis_by_rand, number[keys],
                                 mults, denom, m // 4)
        return InternalEpsReport(float(alice), float(bob), float(max(alice, bob)), "exact")

    if mode == "exact-symmetric":
        if not oracle.symmetric or oracle.uses_a:
            raise ValueError("oracle does not declare the symmetry this mode requires")
        k = m // 4
        cells = k * len(mults) * k  # at most a row per (target, rand), k candidates each
        if cells > SYMMETRIC_CELL_CAP:
            raise BudgetError(f"exact-symmetric mode at m={m} fills up to {cells} row cells "
                              f"(budget {SYMMETRIC_CELL_CAP})")
        # k items, one per target e, all with own set {1..k}, where e has rank e - 1
        pis_by_rand = ([oracle.transcript(None, e, rand) for e in range(1, k + 1)]
                       for rand, _ in mults)
        items = np.arange(k)
        shift, = _row_shifts([(np.zeros(k, np.int64), items)], pis_by_rand, items, mults, denom, k)
        return InternalEpsReport(float(shift), float(shift), float(shift), "exact-symmetric")

    # Monte Carlo over instances; posterior per sample is still exact
    if oracle.uses_a:  # Bob's likelihoods enumerate the rest of Alice's set
        n_rest = math.comb(m - m // 4, m // 4 - 1) * len(mults)
        if n_rest > A_REST_ENUM_CAP:
            raise BudgetError(f"oracle {oracle.name!r} reads Alice's set, so at m={m} each of Bob's "
                              f"likelihoods sums {n_rest} (rest of Alice's set, rand) pairs "
                              f"(budget {A_REST_ENUM_CAP})")
    gen = rngmod.substream(seed, "measure-eps", oracle.name)
    sides = {"alice": [], "bob": []}
    for _ in range(mc_samples):
        inst = sample_si(m, gen)
        rand = _draw(gen, denom, mults)
        pi = oracle.transcript(inst.a if oracle.uses_a else None, inst.e_star, rand)
        for side, own in (("alice", inst.a), ("bob", inst.b)):
            like = _likelihoods(oracle, mults, sorted(own), side, pi, m)
            # int / int is the correctly rounded float of the exact shift
            sides[side].append(uniform_shift_l1(like) / (2 * len(like) * sum(like)))
    means = {k: sum(v) / len(v) for k, v in sides.items()}
    spread = max(
        (sum((x - means[k]) ** 2 for x in v) / max(len(v) - 1, 1)) ** 0.5 / len(v) ** 0.5
        for k, v in sides.items()
    )
    return InternalEpsReport(
        means["alice"], means["bob"], max(means.values()), "monte-carlo", stderr=spread
    )


def _draw(gen, denom, mults):
    x = gen.random()
    acc = 0.0
    for rand, mult in mults:
        acc += mult / denom
        if x < acc:
            return rand
    return mults[-1][0]


def _likelihoods(oracle: SIOracle, mults, candidates, side: str, pi: str, m: int) -> list:
    """P(transcript = pi | own set, target = e) for each e of `candidates`, the
    own set's elements in any order, as a list aligned with them, up to one
    positive factor shared by every candidate, as integers.

    `mults` is the randomness support from `_integer_support`. On Alice's
    side, or where the transcript does not read Alice's set, this is a sum of
    multiplicities over the support alone. On Bob's side of an oracle that
    reads Alice's set, Alice's remainder is enumerated too (C(m - m/4, m/4 - 1)
    of them, which Monte Carlo mode checks against A_REST_ENUM_CAP), and the
    sum is not divided by the number of remainders.
    """
    if side == "alice" or not oracle.uses_a:
        a_arg = frozenset(candidates) if oracle.uses_a else None
        return [sum(mult for rand, mult in mults if oracle.transcript(a_arg, e, rand) == pi)
                for e in candidates]
    rest = sorted(set(range(1, m + 1)).difference(candidates))
    rests = list(combinations(rest, m // 4 - 1))
    return [sum(mult for a_rest in rests for rand, mult in mults
                if oracle.transcript(frozenset(a_rest) | {e}, e, rand) == pi)
            for e in candidates]


@lru_cache(maxsize=64)
def mock_eps_solver(eps: float, mode: str = "reveal", m: int = 32) -> SIOracle:
    """Oracle whose measured internal shift at universe size m is calibrated to eps.

    Calibration bisects the announce probability against measure_internal_eps;
    targets above the family's maximum shift saturate at probability one.
    `eps` lies in [0, 1], which `experiments.make_si_oracle` checks.
    """
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
    denom, mults = _integer_support(oracle.randomness_support(m))
    a_elems = sorted(inst.a)
    half = len(a_elems) // 2
    zero_based = np.array(a_elems + [inst.e_star]) - 1  # Alice's sorted set, then the target
    votes = np.zeros(len(a_elems), np.int64)
    total_bits = 0
    for _ in range(k):
        # public re-randomization: uniformly relabel the universe
        sigma = gen.permutation(m)
        *a_img, e_img = (sigma[zero_based] + 1).tolist()
        rand = _draw(gen, denom, mults)
        pi = oracle.transcript(frozenset(a_img) if oracle.uses_a else None, e_img, rand)
        total_bits += len(pi)
        like = _likelihoods(oracle, mults, a_img, "alice", pi, m)
        # the top half by likelihood, ties to the smaller image
        votes[sorted(range(len(a_img)), key=lambda i: (-like[i], a_img[i]))[:half]] += 1
    counts = dict(zip(a_elems, votes.tolist()))
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

def simulate_two_pass(alg_factory, stream: EdgeStream):
    """Run a two-pass streaming algorithm through the three-message pattern.

    Alice holds the first segment, Bob the second, and the third is revealed
    to both after one round; each takes a segment whole (`process_block`).
    The messages are exactly the serialized memory states at the hand-off
    points; the final output must match a direct two-pass run bit for bit.
    """
    if len(stream.segments) != 3:
        raise ValueError("the simulation needs a three-segment stream")
    (t1, e1), (t2, e2), (t3, e3) = stream.segments

    def fresh():
        return start_on(alg_factory(), stream, passes=2)

    tr = Transcript()

    alice = fresh()
    alice.begin_pass(1)
    alice.process_block(e1.us, e1.vs)
    m11 = alice.serialize()
    tr.send("alice", m11, label="A1")

    bob = fresh()
    bob.restore(m11, 1)
    bob.process_block(e2.us, e2.vs)
    m12 = bob.serialize()
    tr.send("bob", m12, label="B1")

    alice2 = fresh()
    alice2.restore(m12, 1)
    alice2.process_block(e3.us, e3.vs)
    alice2.end_pass(1)
    alice2.begin_pass(2)
    alice2.process_block(e1.us, e1.vs)
    m21 = alice2.serialize()
    tr.send("alice", m21, label="A2")

    bob2 = fresh()
    bob2.restore(m21, 2)
    bob2.process_block(e2.us, e2.vs)
    bob2.process_block(e3.us, e3.vs)
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

    Certifies Bob's side of the unique-reach step exactly: by full enumeration
    of the planted distribution, every joint choice of one intersection
    instance per matching (`_si_support(r)`), the live index, and the
    oracle's randomness, each weighed by an integer multiplicity, with rows
    counted as in `measure_internal_eps`. The tests hold it to a `Fraction`
    reference (`_reference_ur_report`).
    """
    r, t = rs.r, rs.t
    denom, mults = _integer_support(oracle.randomness_support(rs))
    n_inst = si_support_size(r)
    n_joint = n_inst ** t * t * len(mults)
    if n_joint > budget:
        raise BudgetError(f"full enumeration needs {n_joint} items (budget {budget})")

    # an item is a choice of one instance per matching; Bob's rows are keyed by
    # his input (i_star, T) and the transcript, the witness's prior given his
    # input alone uniform over T. So each live index i_star is a side whose own
    # set is the i_star-th instance's, and the shift is the sides' mean
    sets, a_idx, b_idx, _, _, rank_b = _si_support(r)
    choices = np.indices((n_inst,) * t).reshape(t, -1)
    a_cols = a_idx[choices].tolist()
    pis_by_rand = (map(oracle.transcript, zip(*(map(sets.__getitem__, col) for col in a_cols)),
                       repeat(rand))
                   for rand, _ in mults)
    sides = [(b_idx[c], rank_b[c]) for c in choices]
    shift = sum(_row_shifts(sides, pis_by_rand, np.arange(choices.shape[1]), mults, denom,
                            r // 4)) / t
    return InternalEpsReport(float("nan"), float(shift), float(shift), "exact")
