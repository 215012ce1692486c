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
from itertools import chain

import numpy as np

from .behrend import BehrendSet, verify_no_3ap
from .common import Report, fail_report, ok_report

Edge = tuple[int, int]
_CHUNK_PAIRS = 2**16  # cross pairs tested per searchsorted call


@dataclass(frozen=True)
class RSDigraph:
    """t edge-disjoint induced matchings of size r, directed L -> R, N per side."""

    n_side: int
    r: int
    t: int
    matchings: tuple[tuple[Edge, ...], ...]
    source: dict = field(default_factory=dict, compare=False)

    def all_edges(self) -> list[Edge]:
        return [e for matching in self.matchings for e in matching]

    def matching(self, i: int) -> tuple[Edge, ...]:
        """Matching i, 1-indexed as everywhere in this package."""
        if not 1 <= i <= self.t:
            raise IndexError(f"matching index {i} outside [1, {self.t}]")
        return self.matchings[i - 1]


def build_rs_digraph(a: BehrendSet, check: bool = True) -> RSDigraph:
    """Expand a 3-AP-free set into the midpoint-construction digraph.

    Unverified sets are rejected; `check=False` skips that gate so tests can
    watch the construction break on a progression-containing seed.
    """
    if check:
        report = verify_no_3ap(a)
        if not report:
            raise ValueError(f"input set failed 3-AP verification: {report.reason}")
    m = a.m
    alphas = a.elements
    matchings = tuple(
        tuple((x + alpha, x + 2 * alpha) for alpha in alphas) for x in range(1, m + 1)
    )
    return RSDigraph(
        n_side=3 * m,
        r=len(alphas),
        t=m,
        matchings=matchings,
        source={"m": m, "construction": a.construction, "size": len(alphas)},
    )


def restrict_matching(g: RSDigraph, i: int, s) -> tuple[Edge, ...]:
    """Edges {e_ij : j in s} of matching i, in index order; s is a subset of [1..r]."""
    matching = g.matching(i)
    indices = sorted(set(int(j) for j in s))
    if indices and (indices[0] < 1 or indices[-1] > g.r):
        raise IndexError(f"edge index outside [1, {g.r}]: {indices}")
    return tuple(matching[j - 1] for j in indices)


def verify_induced(g: RSDigraph) -> Report:
    """Exhaustive check of all structural invariants; reports first violation."""
    if len(g.matchings) != g.t:
        return fail_report("matching count differs from t", expected=g.t, got=len(g.matchings))
    edge_owner: dict[Edge, int] = {}
    for i, matching in enumerate(g.matchings, start=1):
        if len(matching) != g.r:
            return fail_report("matching has wrong size", matching=i, size=len(matching))
        lefts = set()
        rights = set()
        for u, v in matching:
            if not (1 <= u <= g.n_side and 1 <= v <= g.n_side):
                return fail_report("vertex outside [1, N]", matching=i, edge=(u, v))
            if u in lefts or v in rights:
                return fail_report("repeated endpoint inside a matching", matching=i, edge=(u, v))
            lefts.add(u)
            rights.add(v)
            if (u, v) in edge_owner:
                return fail_report(
                    "edge shared between matchings", edge=(u, v), matchings=(edge_owner[(u, v)], i)
                )
            edge_owner[(u, v)] = i
    # induced-ness: no global edge may join matching i's left side to its
    # right side except the matching's own edges. Every row (i, j) pairs u_j
    # with each v_jp of matching i; its keys are looked up among the sorted
    # edge keys, and the first hit in (i, j, jp) order is reported.
    if g.t >= 1 and g.r >= 2:
        # ids become ranks first, so no key outgrows int64 whatever N claims
        ids = chain.from_iterable(chain.from_iterable(g.matchings))
        dtype = np.int64 if g.n_side < 2**63 else object
        pairs = np.fromiter(ids, dtype, count=2 * g.t * g.r).reshape(g.t, g.r, 2)
        left_rank = np.unique(pairs[:, :, 0], return_inverse=True)[1].reshape(-1)
        right_rank = np.unique(pairs[:, :, 1], return_inverse=True)[1].reshape(g.t, g.r)
        row_keys = left_rank * (int(right_rank.max()) + 1)
        keys = np.sort(row_keys + right_rank.reshape(-1))
        step = max(1, _CHUNK_PAIRS // g.r)
        for start in range(0, g.t * g.r, step):
            rows = np.arange(start, min(start + step, g.t * g.r))
            block = row_keys[rows, None] + right_rank[rows // g.r]
            hit = keys[np.searchsorted(keys, block).clip(max=keys.size - 1)] == block
            hit[np.arange(rows.size), rows % g.r] = False
            if hit.any():
                row, jp = divmod(start * g.r + int(hit.argmax()), g.r)
                i, j = divmod(row, g.r)
                return fail_report("induced-ness violated", matching=i + 1,
                                   cross_edge=(g.matchings[i][j][0], g.matchings[i][jp][1]))
    return ok_report(matchings_checked=g.t, edges=len(edge_owner))


def owning_matching(g: RSDigraph, edge: Edge) -> int:
    """Partition identity of the midpoint construction: edge (u, v) lies in M_x, x = 2u - v."""
    return 2 * edge[0] - edge[1]
