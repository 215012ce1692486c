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
from itertools import combinations

import numpy as np

from . import rng as rngmod
from .common import Report, fail_report, ok_report
from .rsgraph import RSDigraph, restrict_matching

Edge = tuple[int, int]

FORWARD = "forward"
INVERSE = "inverse"


def _as_generator(rng, *default_path):
    if isinstance(rng, (int, np.integer)):
        return rngmod.substream(int(rng), *default_path)
    return rng


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


def sample_si(m: int, rng) -> SIInstance:
    """Draw disjoint rests of size m/4-1 and a shared target from the remainder."""
    if m < 4 or m % 4:
        raise ValueError(f"universe size must be a positive multiple of 4, got {m}")
    rng = _as_generator(rng, "si")
    q = m // 4 - 1
    picks = [int(x) + 1 for x in rng.choice(m, size=2 * q + 1, replace=False)]
    e_star = picks[-1]
    return SIInstance(
        m=m,
        a=frozenset(picks[:q]) | {e_star},
        b=frozenset(picks[q : 2 * q]) | {e_star},
        e_star=e_star,
    )


def apply_permutation(inst: SIInstance, sigma) -> SIInstance:
    """Relabel an instance through a permutation of [1..m] (sigma[i-1] = image of i)."""
    sigma = tuple(int(x) for x in sigma)
    if sorted(sigma) != list(range(1, inst.m + 1)):
        raise ValueError("sigma is not a permutation of [1..m]")
    return SIInstance(
        m=inst.m,
        a=frozenset(sigma[x - 1] for x in inst.a),
        b=frozenset(sigma[x - 1] for x in inst.b),
        e_star=sigma[inst.e_star - 1],
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
        rest1 = [x for x in universe if x not in a_rest]
        for b_rest in combinations(rest1, q):
            taken = set(a_rest) | set(b_rest)
            for e in universe:
                if e in taken:
                    continue
                yield SIInstance(m, frozenset(a_rest) | {e}, frozenset(b_rest) | {e}, e), p


def enumerate_si(m: int):
    """The full support of the intersection distribution with exact probabilities."""
    return list(iter_si(m))


# --- layered graphs ----------------------------------------------------------

@dataclass(frozen=True)
class LayerMap:
    """Contiguous global-id ranges, one per layer, in path order."""

    ranges: tuple  # ((name, lo, hi), ...), inclusive bounds

    def layer_of(self, v: int) -> str:
        for name, lo, hi in self.ranges:
            if lo <= v <= hi:
                return name
        raise KeyError(f"vertex {v} has no layer")

    def span(self, name: str) -> tuple[int, int]:
        for nm, lo, hi in self.ranges:
            if nm == name:
                return lo, hi
        raise KeyError(name)

    def members(self, name: str) -> range:
        lo, hi = self.span(name)
        return range(lo, hi + 1)

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


def reachable_from(edges, start: int) -> set[int]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def shortest_path_length(edges, start: int, goal: int):
    """BFS distance in edges, or None when unreachable."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    if v == goal:
                        return dist[v]
                    nxt.append(v)
        frontier = nxt
    return dist.get(goal)


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
    si_pairs: tuple  # one SIInstance over [1..r] per matching
    i_star: int
    e_star: int
    edges_a: tuple
    edges_b: tuple
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

    def all_edges(self) -> tuple:
        return self.edges_a + self.edges_b


def sample_ur(rs: RSDigraph, direction: str = FORWARD, seed: int = 0, path=("ur",)) -> URInstance:
    """Sample the unique-reach distribution over the given RS digraph."""
    if direction not in (FORWARD, INVERSE):
        raise ValueError(f"direction must be {FORWARD!r} or {INVERSE!r}")
    if rs.r < 4 or rs.r % 4:
        raise ValueError(f"matching size must be a positive multiple of 4, got {rs.r}")
    N, r, t = rs.n_side, rs.r, rs.t
    pairs = tuple(
        sample_si(r, rngmod.substream(seed, *path, "si", i)) for i in range(1, t + 1)
    )
    i_star = int(rngmod.substream(seed, *path, "istar").integers(1, t + 1))
    live = pairs[i_star - 1]
    e_star = live.e_star

    edges_a = []
    for i in range(1, t + 1):
        for u, v in restrict_matching(rs, i, pairs[i - 1].a):
            edges_a.append((u, N + v))
    star_matching = rs.matching(i_star)
    edges_b = []
    for j in sorted(live.b):
        u, v = star_matching[j - 1]
        edges_b.append((0, u))
        edges_b.append((N + v, 2 * N + j))

    witness = 2 * N + e_star
    if direction == INVERSE:
        edges_a = [(v, u) for u, v in edges_a]
        edges_b = [(v, u) for u, v in edges_b]

    inst = URInstance(
        rs=rs,
        direction=direction,
        si_pairs=pairs,
        i_star=i_star,
        e_star=e_star,
        edges_a=tuple(edges_a),
        edges_b=tuple(edges_b),
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


def verify_ur_promise(inst: URInstance) -> Report:
    """BFS oracle: exactly one layer-3 vertex on the source side of the promise.

    Also confirms the witness's conditional support has size r/4 (the live
    pair's second set indexes it).
    """
    edges = inst.all_edges()
    if inst.direction == INVERSE:
        edges = [(v, u) for u, v in edges]  # reachability *to* vertex 0
    reach = reachable_from(edges, 0)
    layer3 = inst.layers.order[3]
    lo, hi = inst.layers.span(layer3)
    hit = sorted(v for v in reach if lo <= v <= hi)
    if hit != [inst.witness]:
        return fail_report(
            "promise broken: reachable layer-3 set is not exactly the witness",
            reachable=hit,
            witness=inst.witness,
        )
    live = inst.si_pairs[inst.i_star - 1]
    if len(live.b) != inst.b_size:
        return fail_report(
            "conditional support has wrong size", expected=inst.b_size, got=len(live.b)
        )
    if inst.witness != lo + inst.e_star - 1:
        return fail_report("witness is not the target-indexed layer-3 vertex")
    return ok_report(witness=inst.witness, support=sorted(lo + j - 1 for j in sorted(live.b)))


# --- st reachability ---------------------------------------------------------

@dataclass(frozen=True)
class STInstance:
    """Forward and reversed unique-reach halves glued by a random bipartite middle."""

    rs: RSDigraph
    forward: URInstance
    backward: URInstance
    e1: tuple
    e2: tuple
    e3: tuple
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

    def all_edges(self) -> tuple:
        return self.e1 + self.e2 + self.e3


def _embed_backward(v: int, N: int, r: int) -> int:
    # local inverse layout (0 | U1 1..N | U2 N+1..2N | U3 2N+1..2N+r) into the
    # global st layout
    if v == 0:
        return 4 * N + 2 * r + 1
    if v <= N:
        return 3 * N + 2 * r + v
    if v <= 2 * N:
        return N + 2 * r + v
    return r + v


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
    fwd_seed = seed if forward_seed is None else forward_seed
    bwd_seed = seed if backward_seed is None else backward_seed
    mid_seed = seed if e1_seed is None else e1_seed

    fwd = sample_ur(rs, FORWARD, fwd_seed, path=("st", "fwd"))
    bwd = sample_ur(rs, INVERSE, bwd_seed, path=("st", "bwd"))

    e1 = []
    if e1_mode == "complete":
        coins = np.ones((r, r), dtype=bool)
    elif e1_mode == "empty":
        coins = np.zeros((r, r), dtype=bool)
    else:
        coins = rngmod.substream(mid_seed, "st", "e1").random((r, r)) < 0.5
    for j in range(1, r + 1):
        for jp in range(1, r + 1):
            if coins[j - 1][jp - 1]:
                e1.append((2 * N + j, 2 * N + r + jp))

    e2 = [(u, v) for u, v in fwd.edges_a]
    e2 += [(_embed_backward(u, N, r), _embed_backward(v, N, r)) for u, v in bwd.edges_a]
    e3 = [(u, v) for u, v in fwd.edges_b]
    e3 += [(_embed_backward(u, N, r), _embed_backward(v, N, r)) for u, v in bwd.edges_b]

    s_star = fwd.witness
    t_star = _embed_backward(bwd.witness, N, r)
    reachable = (s_star, t_star) in set(e1)

    inst = STInstance(
        rs=rs,
        forward=fwd,
        backward=bwd,
        e1=tuple(e1),
        e2=tuple(e2),
        e3=tuple(e3),
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


def verify_st_instance(inst: STInstance) -> Report:
    """BFS oracle for the reach dichotomy: the flag, the middle edge, and the
    7-edge witness path must all agree."""
    edges = inst.all_edges()
    reach = reachable_from(edges, inst.s)
    bfs_says = inst.t in reach
    edge_says = (inst.s_star, inst.t_star) in set(inst.e1)
    if bfs_says != edge_says:
        return fail_report(
            "reachability differs from middle-edge membership",
            bfs=bfs_says,
            middle_edge=edge_says,
        )
    if bfs_says != inst.reachable:
        return fail_report(
            "recorded flag contradicts BFS", recorded=inst.reachable, bfs=bfs_says
        )
    if bfs_says:
        dist = shortest_path_length(edges, inst.s, inst.t)
        if dist != 7:
            return fail_report("witness path does not have 7 edges", distance=dist)
    return ok_report(reachable=bfs_says)


# --- edge streams ------------------------------------------------------------

@dataclass(frozen=True)
class EdgeStream:
    """Ordered, segmented edge sequence: the unit streaming algorithms consume."""

    n: int
    directed: bool
    segments: tuple  # ((tag, (edges...)), ...)
    layers: LayerMap | None = None

    def edges(self):
        for _, seg in self.segments:
            yield from seg

    def edge_count(self) -> int:
        return sum(len(seg) for _, seg in self.segments)

    def segment_tags(self) -> tuple:
        return tuple(tag for tag, _ in self.segments)


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
        seg = list(seg)
        if shuffle_seed is not None and seg:
            order = rngmod.substream(shuffle_seed, "stream", tag).permutation(len(seg))
            seg = [seg[int(i)] for i in order]
        segments.append((tag, tuple(seg)))
    return EdgeStream(n=inst.n, directed=True, segments=tuple(segments), layers=inst.layers)
