"""Stream-local reductions from s-t reachability, each with an offline oracle.

Every transformation maps one input edge to at most one output edge plus
static per-vertex bookkeeping, so it could be applied on the fly to a stream.
The oracles (Hopcroft-Karp matching, brute-force matching, BFS, Kahn's
topological sort) are deliberately separate code paths from the reductions
they certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import EdgeBlock, bfs
from .instances import EdgeStream, check_vertex_count


# Graphs whose vertices are made before any edge is read (a stream's
# `Digraph`, the sides of a bipartite file) are capped: 2^18 is over twice the
# side of `reduce matching` on an st instance built from the m = 10^4 RS
# digraph (n = 121,018).
MAX_BIPARTITE_SIDE = 1 << 18


@dataclass(frozen=True)
class Digraph:
    """The vertices [0, n), n at most MAX_STREAM_N, and the distinct edges
    between them, first occurrences in order, as one `EdgeBlock`.

    Construction refuses an endpoint outside [0, n), keys each edge by the
    int64 u·top + v (top past every id) and keeps the least edge index of each key.
    """

    n: int
    edges: EdgeBlock

    def __post_init__(self):
        check_vertex_count(self.n, "a digraph")
        block = EdgeBlock.of(self.edges)
        us, vs = block.us, block.vs
        top = int(max(us.max(initial=0), vs.max(initial=0))) + 1
        if len(block) and (min(us.min(), vs.min()) < 0 or top > self.n):
            raise ValueError(f"an edge has an endpoint outside [0, {self.n})")
        # a stable sort starts each run of equal keys at its least edge index,
        # by two radix passes on uint16 ids (v, then u) when they fit
        key = us * top + vs
        if top <= 1 << 16:
            order = np.argsort(vs.astype(np.uint16), kind="stable")
            order = order[np.argsort(us[order].astype(np.uint16), kind="stable")]
        else:
            order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.zeros(len(key), bool)
        if len(key):
            first[order[np.r_[True, key[1:] != key[:-1]]]] = True
        object.__setattr__(self, "edges", EdgeBlock(us[first], vs[first]))

    @staticmethod
    def from_stream(stream: EdgeStream) -> "Digraph":
        """The stream's distinct edges over its n vertices; n is at most
        MAX_BIPARTITE_SIDE, so `reduce matching`'s output reads back."""
        if stream.n > MAX_BIPARTITE_SIDE:
            raise ValueError(f"a graph is built on at most {MAX_BIPARTITE_SIDE} vertices, "
                             f"not the stream's {stream.n}")
        return Digraph(stream.n, stream.edge_block())


@dataclass(frozen=True)
class BipartiteGraph:
    """Undirected bipartite graph: `left` and `right` label the sides, and each
    edge (i, j) of the block `edges` joins left[i] to right[j]."""

    left: tuple
    right: tuple
    edges: EdgeBlock

    def __post_init__(self):
        block = EdgeBlock.of(self.edges)
        object.__setattr__(self, "edges", block)
        if len(block) and not (0 <= min(block.us.min(), block.vs.min())
                               and block.us.max() < len(self.left) and block.vs.max() < len(self.right)):
            raise ValueError(f"an edge lies outside [0, {len(self.left)}) x [0, {len(self.right)})")


def reduce_to_matching(h: Digraph, s: int, t: int):
    """Split every inner vertex into a left/right pair; reachability becomes
    perfect matching. Left is s, right is t, then each side has the inner
    vertices ascending; the labels are vertex ids.

    Edges into s and out of t (they can never help an s-t path) and loops are
    dropped; the count of dropped edges is reported alongside the graph. The
    kept edges' ids become indices through a table from id to 1 + rank.
    """
    if s == t:
        raise ValueError(f"s and t must differ, not both {s}")
    inner = np.arange(h.n)
    inner = inner[(inner != s) & (inner != t)]
    us, vs = h.edges.us, h.edges.vs
    keep = (vs != s) & (us != t) & (us != vs)
    us, vs = us[keep], vs[keep]
    identity = np.arange(1, len(inner) + 1)  # each inner vertex's left copy to its right copy
    table = np.zeros(h.n, np.int64)  # s and t, the only other endpoints, read 0
    table[inner] = identity
    edges = EdgeBlock(np.concatenate((table[us], identity)), np.concatenate((table[vs], identity)))
    inner = inner.tolist()
    return BipartiteGraph((s, *inner), (t, *inner), edges), len(keep) - len(us)


GREEDY_ROUNDS = 8  # numpy proposal rounds before Hopcroft-Karp takes over


def _greedy_matching(us, vs, n_left: int, n_right: int):
    """A start for Hopcroft-Karp, in at most GREEDY_ROUNDS array passes.

    `us` is sorted (stably) and `vs` follows it. In each round every free left
    vertex proposes along its first edge to a free right vertex, and each right
    vertex keeps the proposer with the fewest edges, the lowest-numbered among
    equals: a left vertex with one edge has no other choice. Returns the match
    arrays (-1 where free) and the number of matched pairs.
    """
    degree = np.bincount(us, minlength=n_left)
    match_l = np.full(n_left, -1, np.int64)
    match_r = np.full(n_right, -1, np.int64)
    for _ in range(GREEDY_ROUNDS):
        open_edges = np.flatnonzero((match_l[us] < 0) & (match_r[vs] < 0))
        if not len(open_edges):
            break
        pu = us[open_edges]
        first = open_edges[np.concatenate(([True], pu[1:] != pu[:-1]))]  # each free left's first open edge
        pu, pv = us[first], vs[first]
        order = np.lexsort((pu, degree[pu], pv))
        pu, pv = pu[order], pv[order]
        won = np.concatenate(([True], pv[1:] != pv[:-1]))  # each right vertex's best proposer
        match_l[pu[won]], match_r[pv[won]] = pv[won], pu[won]
    return match_l, match_r, int((match_l >= 0).sum())


def perfect_matching_exists(g: BipartiteGraph) -> bool:
    """Hopcroft-Karp with an explicit stack, so path length is not bounded by
    the interpreter's recursion limit; exact.

    The graph is one CSR: `dst` lists each left vertex's neighbours in edge
    order, from `ptr[u]` to `ptr[u + 1]`, as flat Python lists. A greedy start
    (`_greedy_matching`) matches most vertices in array passes. Each phase then
    layers the left vertices by BFS from the free ones, and augments along
    layered paths found by an iterative DFS; a left vertex that reaches no free
    right vertex is cut from its layer for the rest of the phase.
    """
    n = len(g.left)
    if n != len(g.right):
        return False
    # a stable sort keeps each vertex's edges in order; uint16 keys sort by radix
    order = np.argsort(g.edges.us.astype(np.uint16) if n <= 1 << 16 else g.edges.us, kind="stable")
    us, vs = g.edges.us[order], g.edges.vs[order]
    match_l, match_r, _ = _greedy_matching(us, vs, n, n)
    free = np.flatnonzero(match_l < 0).tolist()
    match_l, match_r = match_l.tolist(), match_r.tolist()
    dst = memoryview(vs)  # each index an int, with no list of every head
    ptr = [0] + np.cumsum(np.bincount(us, minlength=n)).tolist()
    while free:
        layer = [-1] * n
        for u in free:
            layer[u] = 0
        queue = list(free)
        for u in queue:  # the queue grows while it is read
            for v in dst[ptr[u] : ptr[u + 1]]:
                w = match_r[v]
                if w >= 0 and layer[w] < 0:
                    layer[w] = layer[u] + 1
                    queue.append(w)
        nxt = ptr[:-1]  # per left vertex, the index in `dst` of the next neighbour to try
        for root in free:
            stack = [root]
            while stack:
                u = stack[-1]
                if nxt[u] == ptr[u + 1]:
                    layer[u] = -1
                    stack.pop()
                    continue
                v = dst[nxt[u]]
                nxt[u] += 1
                w = match_r[v]
                if w < 0:
                    # stack[k] reached stack[k+1] through its last-tried neighbour
                    for x in stack:
                        y = dst[nxt[x] - 1]
                        match_l[x], match_r[y] = y, x
                    break
                if layer[w] == layer[u] + 1:
                    stack.append(w)
        still = [u for u in free if match_l[u] < 0]  # an augmenting path matches its root
        if len(still) == len(free):
            return False
        free = still
    return True


def perfect_matching_brute(g: BipartiteGraph) -> bool:
    """Naive backtracking over all assignments; the independent oracle."""
    if len(g.left) != len(g.right):
        return False
    adj = [sorted(j for i, j in g.edges if i == u) for u in range(len(g.left))]
    used: set = set()

    def place(i):
        if i == len(adj):
            return True
        for v in adj[i]:
            if v not in used:
                used.add(v)
                if place(i + 1):
                    return True
                used.discard(v)
        return False

    return place(0)


def reduce_to_sssp(stream: EdgeStream):
    """Forget directions; the s-t distance separates 7 from at least 9."""
    undirected = EdgeStream(stream.n, False, stream.segments, stream.layers)
    return (undirected, *stream.endpoints())


def reduce_to_acyclicity(h: Digraph, s, t) -> Digraph:
    """Append the edge (t, s): the result stays acyclic iff s cannot reach t."""
    if topological_order(h) is None:
        raise ValueError("input graph must be acyclic")
    return Digraph(h.n, EdgeBlock.join([h.edges, EdgeBlock([t], [s])]))


def reduce_to_reach_count(h: Digraph, s, t, n: int):
    """Hang 2n fresh vertices, h.n to h.n + 2n - 1, off t; the reach count
    from s then separates at-least-2n from at-most-n."""
    fresh = np.arange(h.n, h.n + 2 * n)
    edges = EdgeBlock.join([h.edges, EdgeBlock(np.full(len(fresh), t), fresh)])
    return Digraph(h.n + 2 * n, edges), tuple(fresh.tolist())


# --- offline oracles ----------------------------------------------------------

def bfs_reachable(edges, s, t) -> bool:
    """Whether s reaches t over `edges`, an `EdgeBlock` or (u, v) pairs."""
    return t in bfs(edges, s)


def undirected_distance(edges, s, t):
    return bfs(edges, s, directed=False).get(t)


def topological_order(h: Digraph):
    """Kahn's algorithm, largest ready vertex first; None when the graph has a cycle."""
    us, vs = h.edges.us, h.edges.vs
    indeg = np.bincount(vs, minlength=h.n).tolist()
    dst = vs[np.argsort(us, kind="stable")].tolist()
    ptr = [0] + np.cumsum(np.bincount(us, minlength=h.n)).tolist()
    ready = [v for v, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in dst[ptr[v] : ptr[v + 1]]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order if len(order) == h.n else None
