"""Stream-local reductions from s-t reachability, each with an offline oracle.

Every transformation maps one input edge to at most one output edge plus
static per-vertex bookkeeping, so it could be applied on the fly to a stream.
The oracles (Hopcroft-Karp matching, brute-force matching, BFS, Kahn's
topological sort) are deliberately separate code paths from the reductions
they certify.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import EdgeStream


@dataclass(frozen=True)
class Digraph:
    vertices: frozenset
    edges: tuple

    @staticmethod
    def from_stream(stream: EdgeStream) -> "Digraph":
        edges = tuple(dict.fromkeys(stream.edges()))
        return Digraph(frozenset(range(stream.n)), edges)


@dataclass(frozen=True)
class BipartiteGraph:
    """Undirected bipartite graph; edges pair a left label with a right label."""

    left: tuple
    right: tuple
    edges: tuple

    def __post_init__(self):
        left, right = set(self.left), set(self.right)
        for u, v in self.edges:
            if u not in left or v not in right:
                raise ValueError(f"edge {(u, v)} does not go left-to-right")


def reduce_to_matching(h: Digraph, s, t):
    """Split every inner vertex into a left/right pair; reachability becomes
    perfect matching.

    Edges into s and out of t are dropped (they can never help an s-t path);
    the count of dropped edges is reported alongside the graph.
    """
    inner = sorted(v for v in h.vertices if v not in (s, t))
    left = tuple([("L", s)] + [("L", v) for v in inner])
    right = tuple([("R", t)] + [("R", v) for v in inner])
    dropped = 0
    edges = []
    for u, v in dict.fromkeys(h.edges):
        if v == s or u == t or u == v:
            dropped += 1
            continue
        edges.append((("L", u), ("R", v)))
    for v in inner:
        edges.append((("L", v), ("R", v)))
    return BipartiteGraph(left, right, tuple(dict.fromkeys(edges))), dropped


def perfect_matching_exists(g: BipartiteGraph) -> bool:
    """Hopcroft-Karp with an explicit stack, so path length is not bounded by
    the interpreter's recursion limit; exact.

    Each phase layers the left vertices by BFS from the free ones, then
    augments along layered paths found by an iterative DFS; a left vertex that
    reaches no free right vertex is cut from its layer for the rest of the phase.
    """
    if len(g.left) != len(g.right):
        return False
    left = {u: i for i, u in enumerate(g.left)}
    right = {v: j for j, v in enumerate(g.right)}
    adj: list[list[int]] = [[] for _ in g.left]
    for u, v in g.edges:
        adj[left[u]].append(right[v])
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
    adj = {u: sorted(v for x, v in g.edges if x == u) for u in g.left}
    lefts = list(g.left)
    used: set = set()

    def place(i):
        if i == len(lefts):
            return True
        for v in adj[lefts[i]]:
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
    return undirected, 0, stream.n - 1


def reduce_to_acyclicity(h: Digraph, s, t) -> Digraph:
    """Append the edge (t, s): the result stays acyclic iff s cannot reach t."""
    if topological_order(h) is None:
        raise ValueError("input graph must be acyclic")
    return Digraph(h.vertices, h.edges + ((t, s),))


def reduce_to_reach_count(h: Digraph, s, t, n: int):
    """Hang 2n fresh vertices off t; the reach count from s then separates
    at-least-2n from at-most-n."""
    base = max(h.vertices, default=0) + 1
    fresh = tuple(range(base, base + 2 * n))
    edges = h.edges + tuple((t, w) for w in fresh)
    return Digraph(h.vertices | set(fresh), edges), fresh


# --- offline oracles ----------------------------------------------------------

def bfs_reachable(h: Digraph, s, t) -> bool:
    return t in reach_set(h, s)


def reach_set(h: Digraph, s) -> set:
    adj: dict = {}
    for u, v in h.edges:
        adj.setdefault(u, []).append(v)
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def undirected_distance(edges, s, t):
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist.get(t)


def topological_order(h: Digraph):
    """Kahn's algorithm; None when the graph has a cycle."""
    indeg = {v: 0 for v in h.vertices}
    adj: dict = {v: [] for v in h.vertices}
    for u, v in h.edges:
        adj[u].append(v)
        indeg[v] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order if len(order) == len(h.vertices) else None


def min_feedback_arcs_upper(h: Digraph, cap: int = 1):
    """0 if acyclic, 1 if one deletion acyclifies, else '>cap' (tiny-scale check)."""
    if topological_order(h) is not None:
        return 0
    if cap >= 1:
        for i in range(len(h.edges)):
            pruned = Digraph(h.vertices, h.edges[:i] + h.edges[i + 1 :])
            if topological_order(pruned) is not None:
                return 1
    return f">{cap}"
