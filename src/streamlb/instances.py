"""Samplers and verifiers for the three hard input distributions.

The set-intersection distribution draws two sets of size m/4 over [1..m] that
share exactly one element. The unique-reach distribution plants one such pair
per induced matching of a fixed RS digraph and hides which matching carries
the live pair, so exactly one layer-3 vertex is reachable from the source.
The st distribution glues a forward copy and an edge-reversed copy of
unique-reach through a uniformly random bipartite middle: s reaches t iff the
single edge (s*, t*) was drawn. Every promised structural property is
re-checked here by brute-force search, never trusted from construction.

Vertex ids are global integers with an explicit layer map; streams emit the
segments in fixed order with a seeded shuffle inside each segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from . import rng as rngmod
from .common import EdgeBlock, Report, bfs, fail_report, ok_report
from .rsgraph import RSDigraph

FORWARD = "forward"
INVERSE = "inverse"
# largest universe `sample_si` draws from: one draw at the cap takes 2.2 s and
# 547 MiB peak RSS (4·10^6: 0.7 s, 214 MiB), in a fresh process (2 vCPUs,
# Python 3.11, numpy 2.4)
SI_M_CAP = 10**7
# most vertices a stream may have: ids then fit 31 bits, so the packed edge
# keys of store-all and the spanning forest (2·int_width(n - 1) bits) fit uint64
MAX_STREAM_N = 1 << 31


def check_vertex_count(n: int, what: str):
    """Refuse `what`, a graph on n vertices, when no stream can hold it."""
    if n > MAX_STREAM_N:
        raise ValueError(f"{what} has {n} vertices; a stream holds at most {MAX_STREAM_N}")


# --- set intersection --------------------------------------------------------

@dataclass(frozen=True)
class SIInstance:
    """Two sets over [1..m] of size m/4 intersecting exactly in e_star."""

    m: int
    a: frozenset
    b: frozenset
    e_star: int

    def __post_init__(self):
        if self.a & self.b != {self.e_star}:
            raise ValueError("sets must intersect exactly in the target element")
        if len(self.a) != self.m // 4 or len(self.b) != self.m // 4:
            raise ValueError("sets must have size m/4")


@dataclass(frozen=True, eq=False)
class SIRows:
    """t intersection pairs over [1..m] as arrays: row i - 1 of `a` and `b` is
    pair i's two sets, each ascending, and `e_star[i - 1]` its shared element.

    Construction checks every row at once, as `SIInstance` checks one pair:
    both rows strictly increase inside [1, m], so each is a set of size m/4,
    both hold the target, and the two share nothing else.
    """

    m: int
    a: np.ndarray  # (t, m/4)
    b: np.ndarray  # (t, m/4)
    e_star: np.ndarray  # (t,)

    def __post_init__(self):
        t, k = len(self.e_star), self.m // 4
        if self.a.shape != (t, k) or self.b.shape != (t, k):
            raise ValueError("rows must be two (t, m/4) arrays for t targets")
        checks = []
        for side, rows in (("first", self.a), ("second", self.b)):
            checks.append((f"{side} set is not strictly increasing inside [1, m]",
                           (rows[:, 0] < 1) | (rows[:, -1] > self.m) | (np.diff(rows, axis=1) <= 0).any(axis=1)))
            checks.append((f"{side} set misses the target element", ~(rows == self.e_star[:, None]).any(axis=1)))
        merged = np.sort(np.concatenate((self.a, self.b), axis=1), axis=1)
        checks.append(("sets share more than the target element", (np.diff(merged, axis=1) == 0).sum(axis=1) != 1))
        for reason, bad in checks:
            if bad.any():
                raise ValueError(f"pair {int(np.argmax(bad)) + 1}: {reason}")

    @classmethod
    def of_picks(cls, m: int, picks: np.ndarray) -> SIRows:
        """Pair i from `picks[i - 1]`: 2q + 1 distinct elements of [1..m],
        q = m/4 - 1, read as the first rest, the second rest and the target,
        as `sample_si` reads one draw."""
        q = m // 4 - 1
        return cls(m, np.sort(np.delete(picks, np.s_[q : 2 * q], axis=1), axis=1),
                   np.sort(picks[:, q:], axis=1), picks[:, -1])

    def __eq__(self, other):
        if not isinstance(other, SIRows):
            return NotImplemented
        return self.m == other.m and all(map(np.array_equal, (self.a, self.b, self.e_star),
                                             (other.a, other.b, other.e_star)))


def _draw_si(m: int, gen) -> np.ndarray:
    """One intersection draw's picks: 2q + 1 distinct elements of [1..m], q = m/4 - 1."""
    return gen.choice(m, size=m // 2 - 1, replace=False) + 1


# `Generator.choice(m, size, replace=False)` draws by Floyd's algorithm and a
# shuffle while m is at most this; past it, by a shuffle of all of [0, m)
CHOICE_FLOYD_MAX = 10_000
_DRAW_CELLS = 1 << 20  # a chunk of rows drawn at once holds about this many words and table cells
_MASK32 = 0xFFFFFFFF


def _choice_draws(m: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The m - 3 bounded draws `choice` makes for one `_draw_si(m, ...)`, for
    each row of raw 64-bit words (`rng.substream_words`, (m - 2)/2 a row).

    Floyd's algorithm draws a value in [0, j] for j = m/2 + 1 .. m - 1, then
    the shuffle a place in [0, i] for i = m/2 - 2 .. 1. Each draw is Lemire's
    bounded integer of the next 32-bit word, a word's low half before its
    high half: the high half of word × (bound + 1), unless the low half is
    below 2^32 mod (bound + 1), when `choice` rejects the word and reads
    another. Returns the draws laid out as (draw, row), and whether each row
    rejects a word, which shifts every later draw of that row.
    """
    size = m // 2 - 1
    bounds = np.concatenate((np.arange(m - size, m), np.arange(size - 1, 0, -1))).astype(np.uint64)
    span = bounds[:, None] + np.uint64(1)  # each draw's count of values
    words = words.T
    halves = np.empty((2 * len(words), words.shape[1]), dtype=np.uint64)
    halves[0::2], halves[1::2] = words & np.uint64(_MASK32), words >> np.uint64(32)
    product = halves[: m - 3] * span
    rejects = ((product & np.uint64(_MASK32)) < (1 << 32) % span).any(axis=0)
    return (product >> np.uint64(32)).astype(np.int64), rejects


def _draw_si_rows(m: int, seed: int, path: tuple, t: int) -> np.ndarray:
    """Rows of picks: row i - 1 is `_draw_si(m, rng.substream(seed, *path, "si", i))`, i in 1..t.

    While m <= CHOICE_FLOYD_MAX, a chunk of rows takes its words at once and
    runs each of `choice`'s steps (`_choice_draws`) on every row: Floyd's on a
    table of the values each row has picked, then the shuffle's swaps. A row
    that rejects a word, and every row past the Floyd range, is drawn by
    `_draw_si` itself.
    """
    size = m // 2 - 1
    picks = np.empty((t, size), dtype=np.int64)
    if m > CHOICE_FLOYD_MAX:
        for i in range(1, t + 1):
            picks[i - 1] = _draw_si(m, rngmod.substream(seed, *path, "si", i))
        return picks
    rows = max(1, _DRAW_CELLS // m)
    for lo in range(0, t, rows):
        ids = np.arange(lo + 1, min(t, lo + rows) + 1)
        draws, rejects = _choice_draws(m, rngmod.substream_words(seed, *path, "si", ids=ids, count=(m - 2) // 2))
        # Floyd: a value already picked gives j instead, on cells col·m + x
        cols = np.arange(len(ids)) * m
        cells = draws[:size] + cols
        instead = np.arange(m - size, m)[:, None] + cols
        picked = np.zeros(len(ids) * m, dtype=bool)
        for cell, j in zip(cells, instead):
            np.copyto(cell, j, where=picked[cell])
            picked[cell] = True
        chosen = cells - cols
        # the shuffle swaps place i with the drawn place, on the flat (place, row) layout
        flat = chosen.reshape(-1)
        places = draws[size:] * len(ids) + np.arange(len(ids))
        for i, there in zip(range(size - 1, 0, -1), places):
            swapped = flat[there]
            flat[there] = chosen[i]
            chosen[i] = swapped
        block = picks[lo : lo + len(ids)]
        block[:] = chosen.T + 1
        for col in np.flatnonzero(rejects).tolist():
            block[col] = _draw_si(m, rngmod.substream(seed, *path, "si", lo + col + 1))
    return picks


def sample_si(m: int, gen: np.random.Generator) -> SIInstance:
    """Draw disjoint rests of size m/4-1 and a shared target from the remainder."""
    if m < 4 or m % 4:
        raise ValueError(f"universe size must be a positive multiple of 4, got {m}")
    if m > SI_M_CAP:
        raise ValueError(f"universe size m={m} is above the cap of {SI_M_CAP} for a drawn instance")
    q = m // 4 - 1
    picks = _draw_si(m, gen).tolist()
    e_star = picks[-1]
    return SIInstance(
        m=m,
        a=frozenset(picks[:q]) | {e_star},
        b=frozenset(picks[q : 2 * q]) | {e_star},
        e_star=e_star,
    )


def si_support_size(m: int) -> int:
    """Number of instances in the support of the intersection distribution.

    C(m, q) choices of Alice's rest, C(m - q, q) of Bob's disjoint rest and
    m - 2q of the shared target, with q = m/4 - 1.
    """
    if m < 4 or m % 4:
        raise ValueError(f"universe size must be a positive multiple of 4, got {m}")
    q = m // 4 - 1
    return math.comb(m, q) * math.comb(m - q, q) * (m - 2 * q)


def iter_si(m: int):
    """The support of the intersection distribution, one (instance, exact probability) at a time."""
    p = Fraction(1, si_support_size(m))
    q = m // 4 - 1
    universe = range(1, m + 1)
    for a_rest in combinations(universe, q):
        a_set = frozenset(a_rest)
        rest1 = [x for x in universe if x not in a_set]
        for b_rest in combinations(rest1, q):
            b_set = frozenset(b_rest)
            taken = a_set | b_set
            for e in universe:
                if e in taken:
                    continue
                yield SIInstance(m, a_set | {e}, b_set | {e}, e), p


# --- layered graphs ----------------------------------------------------------

@dataclass(frozen=True)
class LayerMap:
    """Contiguous global-id ranges, one per layer, in path order."""

    ranges: tuple  # ((name, lo, hi), ...), inclusive bounds

    def span(self, name: str) -> tuple[int, int]:
        for nm, lo, hi in self.ranges:
            if nm == name:
                return lo, hi
        raise KeyError(name)

    @property
    def order(self) -> tuple:
        return tuple(nm for nm, _, _ in self.ranges)


def ur_layer_map(n_side: int, r: int, direction: str) -> LayerMap:
    names = ("s", "V1", "V2", "V3") if direction == FORWARD else ("t", "U1", "U2", "U3")
    return LayerMap((
        (names[0], 0, 0),
        (names[1], 1, n_side),
        (names[2], n_side + 1, 2 * n_side),
        (names[3], 2 * n_side + 1, 2 * n_side + r),
    ))


def st_layer_map(n_side: int, r: int) -> LayerMap:
    N, R = n_side, r
    return LayerMap((
        ("s", 0, 0),
        ("V1", 1, N),
        ("V2", N + 1, 2 * N),
        ("V3", 2 * N + 1, 2 * N + R),
        ("U3", 2 * N + R + 1, 2 * N + 2 * R),
        ("U2", 2 * N + 2 * R + 1, 3 * N + 2 * R),
        ("U1", 3 * N + 2 * R + 1, 4 * N + 2 * R),
        ("t", 4 * N + 2 * R + 1, 4 * N + 2 * R + 1),
    ))


# --- unique reach ------------------------------------------------------------

@dataclass(frozen=True)
class URInstance:
    """A planted unique-reach input over a fixed RS digraph.

    Global ids: source/sink is 0, the two RS sides follow, then the r fresh
    layer-3 vertices. For the inverse direction all edges are reversed and the
    witness is the unique layer-3 vertex that reaches vertex 0.
    """

    rs: RSDigraph
    direction: str
    si_rows: SIRows  # one intersection pair over [1..r] per matching, pair i on matching i
    i_star: int
    e_star: int
    edges_a: EdgeBlock
    edges_b: EdgeBlock
    witness: int
    b_size: int
    layers: LayerMap
    n: int
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def s_star(self) -> int:
        if self.direction != FORWARD:
            raise AttributeError("inverse instances carry t_star")
        return self.witness

    @property
    def t_star(self) -> int:
        if self.direction != INVERSE:
            raise AttributeError("forward instances carry s_star")
        return self.witness

    def all_edges(self) -> EdgeBlock:
        return EdgeBlock.join((self.edges_a, self.edges_b))


def sample_ur(rs: RSDigraph, direction: str = FORWARD, seed: int = 0, path=("ur",)) -> URInstance:
    """Sample the unique-reach distribution over the given RS digraph.

    Matching i carries intersection pair i over [1..r], exactly what
    `sample_si` draws from substream (seed, *path, "si", i). The t draws are
    made in array passes (`_draw_si_rows`): one Philox, numpy's own, is reset
    to each row's key (`rng.substream_words`) for its raw words, and
    `Generator.choice`'s selection (`_choice_draws`, Floyd's algorithm, the
    shuffle) runs on a chunk of rows at a time; a row whose words hold a
    rejected draw is drawn by `choice` itself. The pairs are held as one
    `SIRows`, whose construction checks every row. Alice's edges are one
    gather from the RS digraph's edges by flat index, and `verify_ur_promise`
    then checks the edges.
    """
    if direction not in (FORWARD, INVERSE):
        raise ValueError(f"direction must be {FORWARD!r} or {INVERSE!r}")
    if rs.r < 4 or rs.r % 4:
        raise ValueError(f"matching size must be a positive multiple of 4, got {rs.r}")
    if rs.sizes != (rs.r,) * rs.t:
        raise ValueError(f"sampling needs t = {rs.t} matchings of r = {rs.r} edges each")
    N, r, t = rs.n_side, rs.r, rs.t
    check_vertex_count(2 * N + r + 1, f"a unique-reach instance on N = {N}, r = {r}")
    si_rows = SIRows.of_picks(r, _draw_si_rows(r, seed, path, t))
    i_star = int(rngmod.substream(seed, *path, "istar").integers(1, t + 1))
    e_star = int(si_rows.e_star[i_star - 1])

    # Alice's edges, matching by matching: edge j of matching i is edge (i - 1)·r + j - 1
    flat = (np.arange(0, t * r, r)[:, None] + si_rows.a - 1).reshape(-1)
    edges_a = EdgeBlock(rs.edges.us[flat], N + rs.edges.vs[flat])
    # for each j of the live second set, ascending: (0, u_j), then (N + v_j, 2N + j)
    js = si_rows.b[i_star - 1]
    star = rs.matching(i_star)
    edges_b = EdgeBlock(np.column_stack((np.zeros_like(js), N + star.vs[js - 1])).ravel(),
                        np.column_stack((star.us[js - 1], 2 * N + js)).ravel())

    witness = 2 * N + e_star
    if direction == INVERSE:
        edges_a = EdgeBlock(edges_a.vs, edges_a.us)
        edges_b = EdgeBlock(edges_b.vs, edges_b.us)

    inst = URInstance(
        rs=rs,
        direction=direction,
        si_rows=si_rows,
        i_star=i_star,
        e_star=e_star,
        edges_a=edges_a,
        edges_b=edges_b,
        witness=witness,
        b_size=r // 4,
        layers=ur_layer_map(N, r, direction),
        n=2 * N + r + 1,
        meta={"rng": rngmod.describe(seed, *path)},
    )
    check = verify_ur_promise(inst)
    if not check:
        raise AssertionError(f"sampled instance violates the reach promise: {check.reason}")
    return inst


def ur_witnesses(inst: URInstance) -> dict:
    """The hidden witnesses, as an instance's `.meta.json` records them."""
    return {
        "i_star": inst.i_star,
        "e_star": inst.e_star,
        "witness": inst.witness,
        "b_size": inst.b_size,
        "live_t": inst.si_rows.b[inst.i_star - 1].tolist(),
    }


def check_ur(edges: EdgeBlock, layers: LayerMap, witnesses: dict) -> Report:
    """BFS oracle: exactly one layer-3 vertex on the source side of the promise.

    An inverse layer map (`ur_layer_map` names its first layer "t") asks
    which layer-3 vertices reach vertex 0. Also confirms that the witness is the
    target-indexed layer-3 vertex and that its conditional support has size
    r/4 (the live pair's second set indexes it).
    """
    if layers.order[0] == "t":
        edges = EdgeBlock(edges.vs, edges.us)  # reachability *to* vertex 0
    lo, hi = layers.span(layers.order[3])
    witness = witnesses["witness"]
    hit = sorted(v for v in bfs(edges, 0) if lo <= v <= hi)
    if hit != [witness]:
        return fail_report(
            "promise broken: reachable layer-3 set is not exactly the witness",
            reachable=hit,
            witness=witness,
        )
    if witness != lo + witnesses["e_star"] - 1:
        return fail_report("witness is not the target-indexed layer-3 vertex")
    quarter = (hi - lo + 1) // 4
    if len(witnesses["live_t"]) != quarter or witnesses["b_size"] != quarter:
        return fail_report("conditional support size is not r/4",
                           live_t=witnesses["live_t"], b_size=witnesses["b_size"])
    return ok_report(witness=witness)


def verify_ur_promise(inst: URInstance) -> Report:
    return check_ur(inst.all_edges(), inst.layers, ur_witnesses(inst))


# --- st reachability ---------------------------------------------------------

@dataclass(frozen=True)
class STInstance:
    """Forward and reversed unique-reach halves glued by a random bipartite middle."""

    rs: RSDigraph
    forward: URInstance
    backward: URInstance
    e1: EdgeBlock
    e2: EdgeBlock
    e3: EdgeBlock
    s_star: int
    t_star: int
    reachable: bool
    e1_mode: str
    layers: LayerMap
    n: int
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def s(self) -> int:
        return 0

    @property
    def t(self) -> int:
        return self.n - 1

    def all_edges(self) -> EdgeBlock:
        return EdgeBlock.join((self.e1, self.e2, self.e3))


def _embed_backward(ids, N: int, r: int):
    """Ids of the local inverse layout (`ur_layer_map(N, r, INVERSE)`) in the
    global st layout (`st_layer_map(N, r)`): each layer moves by one offset."""
    local, st = ur_layer_map(N, r, INVERSE), st_layer_map(N, r)
    los = [lo for _, lo, _ in local.ranges]
    offsets = np.array([st.span(name)[0] - lo for name, lo, _ in local.ranges])
    return ids + offsets[np.searchsorted(los[1:], ids, side="right")]


def sample_st(
    rs: RSDigraph,
    seed: int = 0,
    e1_mode: str = "random",
    e1_seed: int | None = None,
    forward_seed: int | None = None,
    backward_seed: int | None = None,
) -> STInstance:
    """Sample the st distribution; the middle layer hook forces E1 in tests.

    The three components draw from disjoint substreams, and each component
    seed can be pinned independently of the master seed.
    """
    if e1_mode not in ("random", "complete", "empty"):
        raise ValueError(f"unknown e1 mode {e1_mode!r}")
    N, r = rs.n_side, rs.r
    check_vertex_count(4 * N + 2 * r + 2, f"an st instance on N = {N}, r = {r}")
    fwd_seed = seed if forward_seed is None else forward_seed
    bwd_seed = seed if backward_seed is None else backward_seed
    mid_seed = seed if e1_seed is None else e1_seed

    fwd = sample_ur(rs, FORWARD, fwd_seed, path=("st", "fwd"))
    bwd = sample_ur(rs, INVERSE, bwd_seed, path=("st", "bwd"))

    if e1_mode == "complete":
        coins = np.ones((r, r), dtype=bool)
    elif e1_mode == "empty":
        coins = np.zeros((r, r), dtype=bool)
    else:
        coins = rngmod.substream(mid_seed, "st", "e1").random((r, r)) < 0.5
    js, jps = np.nonzero(coins)  # row-major: j, then jp, ascending
    e1 = EdgeBlock(2 * N + 1 + js, 2 * N + r + 1 + jps)

    def backward(block):
        return EdgeBlock(_embed_backward(block.us, N, r), _embed_backward(block.vs, N, r))
    e2 = EdgeBlock.join((fwd.edges_a, backward(bwd.edges_a)))
    e3 = EdgeBlock.join((fwd.edges_b, backward(bwd.edges_b)))

    s_star = fwd.witness
    t_star = int(_embed_backward(bwd.witness, N, r))
    reachable = bool(coins[fwd.e_star - 1, bwd.e_star - 1])  # the middle edge (s*, t*)

    inst = STInstance(
        rs=rs,
        forward=fwd,
        backward=bwd,
        e1=e1,
        e2=e2,
        e3=e3,
        s_star=s_star,
        t_star=t_star,
        reachable=reachable,
        e1_mode=e1_mode,
        layers=st_layer_map(N, r),
        n=4 * N + 2 * r + 2,
        meta={
            "rng": {
                "e1": rngmod.describe(mid_seed, "st", "e1"),
                "forward": rngmod.describe(fwd_seed, "st", "fwd"),
                "backward": rngmod.describe(bwd_seed, "st", "bwd"),
            },
            "n_side": N,
            "r": r,
        },
    )
    check = verify_st_instance(inst)
    if not check:
        raise AssertionError(f"sampled st instance is inconsistent: {check.reason}")
    return inst


def st_witnesses(inst: STInstance) -> dict:
    """The hidden witnesses, as an instance's `.meta.json` records them."""
    return {
        "s_star": inst.s_star,
        "t_star": inst.t_star,
        "reachable": inst.reachable,
        "forward_i_star": inst.forward.i_star,
        "forward_e_star": inst.forward.e_star,
        "backward_i_star": inst.backward.i_star,
        "backward_e_star": inst.backward.e_star,
    }


def check_st(edges: EdgeBlock, e1: EdgeBlock, layers: LayerMap, witnesses: dict) -> Report:
    """BFS oracle for the reach dichotomy: the flag, the middle edge (s*, t*)
    looked up in E1, and the 7-edge witness path must all agree."""
    distance = bfs(edges, layers.span("s")[0]).get(layers.span("t")[0])
    bfs_says = distance is not None
    edge_says = bool(((e1.us == witnesses["s_star"]) & (e1.vs == witnesses["t_star"])).any())
    if bfs_says != edge_says:
        return fail_report(
            "reachability differs from middle-edge membership",
            bfs=bfs_says,
            middle_edge=edge_says,
        )
    if bfs_says != witnesses["reachable"]:
        return fail_report("recorded reachable flag contradicts BFS",
                           recorded=witnesses["reachable"], bfs=bfs_says)
    if bfs_says and distance != 7:
        return fail_report("witness path does not have 7 edges", distance=distance)
    return ok_report(reachable=bfs_says)


def verify_st_instance(inst: STInstance) -> Report:
    return check_st(inst.all_edges(), inst.e1, inst.layers, st_witnesses(inst))


# --- edge streams ------------------------------------------------------------

@dataclass(frozen=True)
class EdgeStream:
    """Ordered, segmented edge sequence: the unit streaming algorithms consume.

    The vertices are [0, n), n at most MAX_STREAM_N. Construction refuses an
    edge with an endpoint outside them, naming it as `parse_stream` does; past
    this check no layer tests an id again.
    """

    n: int
    directed: bool
    segments: tuple  # ((tag, EdgeBlock), ...), made from any (u, v) pairs
    layers: LayerMap | None = None

    def __post_init__(self):
        check_vertex_count(self.n, "a stream")
        segments = tuple((tag, EdgeBlock.of(seg)) for tag, seg in self.segments)
        for tag, seg in segments:
            if not len(seg):
                continue
            lo, hi = min(seg.us.min(), seg.vs.min()), max(seg.us.max(), seg.vs.max())
            if lo < 0 or hi >= self.n:
                bad = lo if lo < 0 else hi
                raise ValueError(f"vertex id {bad} in segment {tag!r} is outside [0, {self.n})")
        object.__setattr__(self, "segments", segments)

    def edges(self):
        """An iterator over every segment's (u, v) pairs, in stream order."""
        return chain.from_iterable(seg for _, seg in self.segments)

    def edge_block(self) -> EdgeBlock:
        """Every segment's edges, in stream order, as one block."""
        return EdgeBlock.join(seg for _, seg in self.segments)

    def edge_count(self) -> int:
        return sum(len(seg) for _, seg in self.segments)

    def endpoints(self, s: int = 0, t: int | None = None) -> tuple[int, int]:
        """(s, t), t defaulting to the last vertex; both must be vertices of the stream."""
        if t is None:
            t = self.n - 1
        if not (0 <= s < self.n and 0 <= t < self.n):
            raise ValueError(f"s={s} and t={t} must be vertices of the {self.n}-vertex stream")
        return s, t


def to_stream(inst, shuffle_seed: int | None = None) -> EdgeStream:
    """Emit segments in fixed order; order inside a segment is a seeded shuffle."""
    if isinstance(inst, STInstance):
        raw = (("E1", inst.e1), ("E2", inst.e2), ("E3", inst.e3))
    elif isinstance(inst, URInstance):
        raw = (("EA", inst.edges_a), ("EB", inst.edges_b))
    else:
        raise TypeError(f"cannot stream {type(inst).__name__}")
    segments = []
    for tag, seg in raw:
        if shuffle_seed is not None and len(seg):
            order = rngmod.substream(shuffle_seed, "stream", tag).permutation(len(seg))
            seg = EdgeBlock(seg.us[order], seg.vs[order])
        segments.append((tag, seg))
    return EdgeStream(n=inst.n, directed=True, segments=tuple(segments), layers=inst.layers)
