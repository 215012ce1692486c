"""Bipartite digraphs whose edges split into many induced matchings.

The midpoint construction: given a 3-AP-free set a over [1..m], matching
M_x = {(x + alpha, x + 2*alpha) : alpha in a} for x in [1..m], on N = 3m
vertices per side. A cross edge between two edges of the same matching would
force 2*beta = alpha + alpha' inside a, so induced-ness reduces exactly to
the progression-freeness of a. Left and right vertex indices live in
disjoint namespaces: an edge (u, v) always means u in L, v in R.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .behrend import BehrendSet, verify_no_3ap
from .common import EdgeBlock, Report, fail_report, ok_report

_CHUNK_PAIRS = 2**16  # cross pairs looked up per gather
_SLICE_BITS = 2**20  # bitmap cells per slice of left ranks, unless one left needs more
# most edges m * |S| `build_rs_digraph` expands, 16 bytes each: at m = 16,300
# (|S| = 511, 8.33M edges) the build takes 0.15 s and 159 MiB peak RSS, `gen rs`
# 1.6 s and 170 MiB, `experiment rs-verify` 15 s and 777 MiB, in a fresh
# process (2 vCPUs, Python 3.11, numpy 2.4)
RS_EDGE_CAP = 2**23


@dataclass(frozen=True)
class RSDigraph:
    """t edge-disjoint induced matchings of size r, directed L -> R, N per side.

    `edges` holds every matching's edges once, matching after matching, in
    (i, j) order; `sizes` holds each matching's edge count and must add up to
    `len(edges)`. Matching i is the slice of `edges` between the prefix sums
    of the first i - 1 and i sizes, taken once at construction. A graph read
    from a file may have other sizes or another count of matchings than t:
    `verify_induced` refuses it and `sample_ur` never samples from it.
    """

    n_side: int
    r: int
    t: int
    edges: EdgeBlock
    sizes: tuple  # (int, ...), one per matching
    source: dict = field(default_factory=dict, compare=False)
    _offsets: list = field(init=False, repr=False, compare=False)  # the prefix sums of sizes

    def __post_init__(self):
        offsets = list(accumulate(self.sizes, initial=0))
        if offsets[-1] != len(self.edges):
            raise ValueError(f"matching sizes add up to {offsets[-1]} edges, not {len(self.edges)}")
        object.__setattr__(self, "_offsets", offsets)

    @classmethod
    def of(cls, n_side: int, r: int, t: int, matchings) -> RSDigraph:
        """The graph of `matchings`, each an `EdgeBlock` or any (u, v) pairs, in order."""
        blocks = list(map(EdgeBlock.of, matchings))
        return cls(n_side, r, t, EdgeBlock.join(blocks), tuple(map(len, blocks)))

    @property
    def matchings(self) -> tuple:
        """Every matching in order, each a view into `edges`."""
        return tuple(map(self.matching, range(1, len(self.sizes) + 1)))

    def matching(self, i: int) -> EdgeBlock:
        """Matching i, 1-indexed as everywhere in this package, a view into `edges`."""
        if not 1 <= i <= len(self.sizes):
            raise IndexError(f"matching index {i} outside [1, {len(self.sizes)}]")
        lo, hi = self._offsets[i - 1], self._offsets[i]
        return EdgeBlock(self.edges.us[lo:hi], self.edges.vs[lo:hi])


def build_rs_digraph(a: BehrendSet) -> RSDigraph:
    """Expand a 3-AP-free set into the midpoint-construction digraph.

    A set whose m * |S| edges are above RS_EDGE_CAP is refused before anything
    is built, and a set that fails `verify_no_3ap` is refused.
    """
    if a.m * a.size > RS_EDGE_CAP:
        raise ValueError(f"an RS digraph on m={a.m} and |S|={a.size} has {a.m * a.size} edges, "
                         f"above the cap of {RS_EDGE_CAP}")
    report = verify_no_3ap(a)
    if not report:
        raise ValueError(f"input set failed 3-AP verification: {report.reason}")
    m = a.m
    alphas = np.array(a.elements, dtype=np.int64)
    x = np.arange(1, m + 1)[:, None]
    return RSDigraph(
        n_side=3 * m,
        r=len(alphas),
        t=m,
        edges=EdgeBlock((x + alphas).reshape(-1), (x + 2 * alphas).reshape(-1)),  # row x - 1: matching x
        sizes=(len(alphas),) * m,
        source={"m": m, "construction": a.construction, "size": len(alphas)},
    )


def _seen_before(keys: np.ndarray) -> np.ndarray:
    """True at each position whose key already occurs at an earlier position."""
    seen = np.ones(keys.size, dtype=bool)
    seen[np.unique(keys, return_index=True)[1]] = False
    return seen


def _first_cross_pair(left: np.ndarray, right: np.ndarray, r: int) -> int | None:
    """Smallest flat index (i*r + j)*r + jp with (u_ij, v_ijp) an edge, j != jp.

    `left` and `right` are the edges' endpoint ranks in (i, j) order. Rows
    (i, j) are grouped by the rank of u_ij into slices of left ranks whose
    slice x n_right bitmap fits `_SLICE_BITS` cells. A slice's bitmap holds
    every edge out of its lefts, so each cross pair of its rows is one gather.
    """
    n_right = int(right.max()) + 1
    per = max(1, _SLICE_BITS // n_right)
    bitmap = np.zeros(per * n_right, dtype=bool)
    right_rows = right.reshape(-1, r)
    order = np.argsort(left, kind="stable")
    bounds = np.searchsorted(left[order], np.arange(0, int(left.max()) + per + 1, per))
    step = max(1, _CHUNK_PAIRS // r)
    best = None
    for s in range(bounds.size - 1):
        rows = order[bounds[s] : bounds[s + 1]]
        cells = (left[rows] - s * per) * n_right
        own = cells + right[rows]
        bitmap[own] = True
        for c in range(0, rows.size, step):
            block = rows[c : c + step]
            hit = bitmap[cells[c : c + step, None] + right_rows[block // r]]
            hit[np.arange(block.size), block % r] = False
            if hit.any():
                k, jp = np.nonzero(hit)
                first = int((block[k] * r + jp).min())
                best = first if best is None else min(best, first)
        bitmap[own] = False
    return best


def _first_structural_flaw(g: RSDigraph, edges: EdgeBlock, left: np.ndarray,
                           right: np.ndarray) -> Report | None:
    """The first edge in (i, j) order outside [1, N], with an endpoint repeated
    inside its matching, or equal to an edge of an earlier matching; reasons
    in that priority, as one loop over the edges would report them."""
    r = g.r
    n_left, n_right = int(left.max()) + 1, int(right.max()) + 1
    row = np.arange(left.size) // r
    us, vs = edges.us, edges.vs
    outside = (us < 1) | (us > g.n_side) | (vs < 1) | (vs > g.n_side)
    repeated = _seen_before(row * n_left + left) | _seen_before(row * n_right + right)
    keys = left * n_right + right
    shared = _seen_before(keys)
    bad = outside | repeated | shared
    if not bad.any():
        return None
    e = int(bad.argmax())
    i = e // r
    edge = (int(us[e]), int(vs[e]))
    if outside[e]:
        return fail_report("vertex outside [1, N]", matching=i + 1, edge=edge)
    if repeated[e]:
        return fail_report("repeated endpoint inside a matching", matching=i + 1, edge=edge)
    owner = int(np.flatnonzero(keys == keys[e])[0]) // r
    return fail_report("edge shared between matchings", edge=edge, matchings=(owner + 1, i + 1))


def verify_induced(g: RSDigraph) -> Report:
    """Exhaustive check of all structural invariants; reports first violation.

    The checks run on the edges of the matchings before the first one of
    another size than r, a prefix of `edges` in (i, j) order, and the
    report is the first violating edge under the order and the reason
    priority of one loop over the edges: size of its matching, range,
    repeated endpoint, shared edge; then induced-ness, first in (i, j, jp) order.
    Vertex ids are ranked first, so any int64 ids work; the cross pairs are
    gathered from bitmaps over slices of left ranks (`_first_cross_pair`), and
    memory beyond the edges is one bitmap of max(_SLICE_BITS, n_right) cells,
    whatever N is.
    """
    if len(g.sizes) != g.t:
        return fail_report("matching count differs from t", expected=g.t, got=len(g.sizes))
    sized = next((i for i, size in enumerate(g.sizes) if size != g.r), g.t)
    count = sized * g.r
    if count:
        edges = EdgeBlock(g.edges.us[:count], g.edges.vs[:count])
        # ids become ranks first, so no key outgrows int64 whatever N claims
        left = np.unique(edges.us, return_inverse=True)[1].reshape(-1)
        right = np.unique(edges.vs, return_inverse=True)[1].reshape(-1)
        flaw = _first_structural_flaw(g, edges, left, right)
        if flaw is not None:
            return flaw
    if sized < g.t:
        return fail_report("matching has wrong size", matching=sized + 1, size=g.sizes[sized])
    # induced-ness: no edge may join matching i's left side to its right side
    # except the matching's own edges
    if count and g.r >= 2:
        first = _first_cross_pair(left, right, g.r)
        if first is not None:
            row, jp = divmod(first, g.r)
            i = row // g.r
            return fail_report("induced-ness violated", matching=i + 1,
                               cross_edge=(int(g.edges.us[row]), int(g.edges.vs[i * g.r + jp])))
    return ok_report(matchings_checked=g.t, edges=count)
