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

from .common import EdgeBlock, bfs, id_array
from .instances import EdgeStream


# Graphs whose vertices are made before any edge is read (a stream's
# `Digraph`, the sides of a bipartite file) are capped: 2^18 is over twice the
# side of `reduce matching` on an st instance built from the m = 10^4 RS
# digraph (n = 121,018).
MAX_BIPARTITE_SIDE = 1 << 18


@dataclass(frozen=True)
class Digraph:
    """Distinct edges between its vertices, first occurrences in order, as one `EdgeBlock`."""

    vertices: frozenset
    edges: EdgeBlock

    def __post_init__(self):
        block = EdgeBlock.of(self.edges)
        ids, ranks = np.unique(np.concatenate((block.us, block.vs)), return_inverse=True)
        if not self.vertices.issuperset(ids.tolist()):
            raise ValueError("an edge has an endpoint that is not a vertex")
        # distinct rows of ranks, not of ids, so ids beyond int64 sort alike; the
        # stable lexsort puts each row's first occurrence first among its copies
        ru, rv = ranks.reshape(2, -1)
        order = np.lexsort((rv, ru))
        ru, rv = ru[order], rv[order]
        new = np.ones(len(order), bool)
        new[1:] = (ru[1:] != ru[:-1]) | (rv[1:] != rv[:-1])
        first = np.sort(order[new])
        object.__setattr__(self, "edges", EdgeBlock(block.us[first], block.vs[first]))

    @staticmethod
    def from_stream(stream: EdgeStream) -> "Digraph":
        """The stream's distinct edges over its n vertices; n is at most
        MAX_BIPARTITE_SIDE, so `reduce matching`'s output reads back."""
        if stream.n > MAX_BIPARTITE_SIDE:
            raise ValueError(f"a graph is built on at most {MAX_BIPARTITE_SIDE} vertices, "
                             f"not the stream's {stream.n}")
        return Digraph(frozenset(range(stream.n)), stream.edge_block())


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


def reduce_to_matching(h: Digraph, s, t):
    """Split every inner vertex into a left/right pair; reachability becomes
    perfect matching. Left is s, right is t, then each side has the inner
    vertices ascending; the labels are vertex ids.

    Edges into s and out of t (they can never help an s-t path) and loops are
    dropped; the count of dropped edges is reported alongside the graph.
    """
    if s == t:
        raise ValueError(f"s and t must differ, not both {s}")
    inner = sorted(h.vertices - {s, t})
    ids = id_array(inner)
    us, vs = h.edges.us, h.edges.vs
    keep = (vs != s) & (us != t) & (us != vs)
    us, vs = us[keep], vs[keep]
    identity = np.arange(1, len(inner) + 1)  # each inner vertex's left copy to its right copy
    edges = EdgeBlock(np.concatenate((np.where(us == s, 0, np.searchsorted(ids, us) + 1), identity)),
                      np.concatenate((np.where(vs == t, 0, np.searchsorted(ids, vs) + 1), identity)))
    return BipartiteGraph((s, *inner), (t, *inner), edges), len(keep) - len(us)


def perfect_matching_exists(g: BipartiteGraph) -> bool:
    """Hopcroft-Karp with an explicit stack, so path length is not bounded by
    the interpreter's recursion limit; exact.

    Each phase layers the left vertices by BFS from the free ones, then
    augments along layered paths found by an iterative DFS; a left vertex that
    reaches no free right vertex is cut from its layer for the rest of the phase.
    """
    if len(g.left) != len(g.right):
        return False
    dst = g.edges.vs[np.argsort(g.edges.us, kind="stable")].tolist()  # neighbours in edge order
    ptr = [0] + np.cumsum(np.bincount(g.edges.us, minlength=len(g.left))).tolist()
    adj = [dst[ptr[u] : ptr[u + 1]] for u in range(len(g.left))]
    match_l = [-1] * len(g.left)
    match_r = [-1] * len(g.right)
    matched = 0
    while True:
        free = [u for u, v in enumerate(match_l) if v < 0]
        layer = [-1] * len(g.left)
        for u in free:
            layer[u] = 0
        queue = list(free)
        for u in queue:  # the queue grows while it is read
            for v in adj[u]:
                w = match_r[v]
                if w >= 0 and layer[w] < 0:
                    layer[w] = layer[u] + 1
                    queue.append(w)
        nxt = [0] * len(g.left)  # per left vertex, the next neighbour to try
        grew = 0
        for root in free:
            stack = [root]
            while stack:
                u = stack[-1]
                if nxt[u] == len(adj[u]):
                    layer[u] = -1
                    stack.pop()
                    continue
                v = adj[u][nxt[u]]
                nxt[u] += 1
                w = match_r[v]
                if w < 0:
                    # stack[k] reached stack[k+1] through its last-tried neighbour
                    for x in stack:
                        y = adj[x][nxt[x] - 1]
                        match_l[x], match_r[y] = y, x
                    grew += 1
                    break
                if layer[w] == layer[u] + 1:
                    stack.append(w)
        if not grew:
            return matched == len(g.left)
        matched += grew


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
    return Digraph(h.vertices, EdgeBlock.join([h.edges, EdgeBlock.of([(t, s)])]))


def reduce_to_reach_count(h: Digraph, s, t, n: int):
    """Hang 2n fresh vertices off t; the reach count from s then separates
    at-least-2n from at-most-n."""
    base = max(h.vertices, default=0) + 1
    fresh = tuple(range(base, base + 2 * n))
    edges = EdgeBlock.join([h.edges, EdgeBlock(id_array([t] * len(fresh)), id_array(fresh))])
    return Digraph(h.vertices | set(fresh), edges), fresh


# --- offline oracles ----------------------------------------------------------

def bfs_reachable(edges, s, t) -> bool:
    """Whether s reaches t over `edges`, an `EdgeBlock` or (u, v) pairs."""
    return t in bfs(edges, s)


def undirected_distance(edges, s, t):
    return bfs(edges, s, directed=False).get(t)


def topological_order(h: Digraph):
    """Kahn's algorithm, largest ready vertex first; None when the graph has a cycle."""
    ids = id_array(sorted(h.vertices))
    us, vs = np.searchsorted(ids, h.edges.us), np.searchsorted(ids, h.edges.vs)  # vertex ranks
    indeg = np.bincount(vs, minlength=len(ids)).tolist()
    dst = vs[np.argsort(us, kind="stable")].tolist()
    ptr = [0] + np.cumsum(np.bincount(us, minlength=len(ids))).tolist()
    ready = [v for v, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in dst[ptr[v] : ptr[v + 1]]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return ids[order].tolist() if len(order) == len(ids) else None
