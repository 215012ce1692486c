import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamlb import rng as rngmod
from streamlb.common import bfs
from streamlb.experiments import small_rs
from streamlb.instances import sample_st, to_stream
from streamlb.reductions import (
    BipartiteGraph,
    Digraph,
    _greedy_matching,
    bfs_reachable,
    perfect_matching_brute,
    perfect_matching_exists,
    reduce_to_acyclicity,
    reduce_to_matching,
    reduce_to_reach_count,
    reduce_to_sssp,
    topological_order,
    undirected_distance,
)

S, A, B, T = 0, 1, 2, 3


def digraph(*edges, n=4):
    return Digraph(n, tuple(edges))


# --- matching reduction ---------------------------------------------------------

def test_matching_single_edge():
    g, dropped = reduce_to_matching(digraph((0, 1), n=2), 0, 1)
    assert (g.left, g.right, g.edges) == ((0,), (1,), ((0, 0),))
    assert dropped == 0
    assert perfect_matching_exists(g)


def test_matching_path_through_inner():
    g, _ = reduce_to_matching(digraph((0, 1), (1, 2), n=3), 0, 2)
    assert (g.left, g.right, set(g.edges)) == ((0, 1), (2, 1), {(0, 1), (1, 0), (1, 1)})
    assert perfect_matching_exists(g)


def test_matching_isolated_endpoints():
    g, _ = reduce_to_matching(digraph(n=3), 0, 2)
    assert (g.left, g.right, set(g.edges)) == ((0, 1), (2, 1), {(1, 1)})
    assert not perfect_matching_exists(g)


def test_matching_drops_backward_edges():
    h = digraph((A, S), (T, B), (S, T))
    g, dropped = reduce_to_matching(h, S, T)
    assert dropped == 2
    assert perfect_matching_exists(g) == bfs_reachable(h.edges, S, T) == True  # noqa: E712


def test_matching_refuses_equal_endpoints():
    # s reaches itself, but the edges out of t = s are dropped, so s's left copy has no partner
    with pytest.raises(ValueError, match="s and t must differ"):
        reduce_to_matching(digraph((S, A), (A, T)), A, A)


def test_digraph_keeps_first_occurrences_in_order():
    h = digraph((A, B), (S, A), (A, B), (B, T), (S, A))
    assert h.edges == ((A, B), (S, A), (B, T))
    assert digraph().edges == ()
    h = digraph((1, 2), (0, 1), (1, 2), n=3)
    assert h.edges == ((1, 2), (0, 1))
    g, dropped = reduce_to_matching(h, 0, 2)
    assert (g.left, g.right, g.edges, dropped) == ((0, 1), (2, 1), ((1, 0), (0, 1), (1, 1)), 0)
    assert perfect_matching_exists(g) and topological_order(h) == [0, 1, 2]


def test_digraph_keeps_the_first_occurrences_of_a_dict_reference():
    gen = rngmod.substream(0, "digraph-dedup")
    for size in (1, 2, 40, 3000):
        edges = tuple(zip(gen.integers(0, 12, size).tolist(), gen.integers(0, 12, size).tolist()))
        assert digraph(*edges, n=12).edges == tuple(dict.fromkeys(edges))


def test_matching_reduction_ranks_any_ids_alike():
    # every vertex of [0, n) but s and t is an inner vertex, ranked by id;
    # ids outside [0, n), or past int64, never reach the reduction
    edges = ((0, 2), (2, 1), (1, 3), (2, 3), (3, 2), (4, 4))
    g, dropped = reduce_to_matching(Digraph(5, edges), 0, 3)
    assert (g.left, g.right, dropped) == ((0, 1, 2, 4), (3, 1, 2, 4), 2)
    assert g.edges == ((0, 2), (2, 1), (1, 0), (2, 0), (1, 1), (2, 2), (3, 3))
    for shift, message in ((-7, "outside"), (10**6, "outside"), (2**64, "int64")):
        moved = tuple((u + shift, v + shift) for u, v in edges)
        with pytest.raises(ValueError, match=message):
            Digraph(5, moved)


def test_digraph_refuses_an_endpoint_outside_its_vertices():
    for edge in ((S, 7), (-1, T), (4, S)):
        with pytest.raises(ValueError, match=r"^an edge has an endpoint outside \[0, 4\)$"):
            digraph((S, A), edge)
    with pytest.raises(ValueError, match="^a digraph has 2147483649 vertices"):
        Digraph(2**31 + 1, ())


def test_bipartite_graph_refuses_an_edge_outside_its_sides():
    for edge in ((2, 0), (0, 1), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside"):
            BipartiteGraph((0, 1), (0,), ((0, 0), edge))


def test_matching_equivalence_random():
    gen = rngmod.substream(0, "equiv")
    pairs = [(u, v) for u in range(5) for v in range(5) if u != v]
    for _ in range(300):
        edges = tuple(p for p in pairs if gen.random() < 0.25)
        h = Digraph(5, edges)
        g, _ = reduce_to_matching(h, 0, 4)
        assert bfs_reachable(edges, 0, 4) == perfect_matching_exists(g)


# --- matching oracles ------------------------------------------------------------

def test_pm_oracle_examples():
    complete = BipartiteGraph((0, 1), (0, 1), ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert perfect_matching_exists(complete) and perfect_matching_brute(complete)
    single = BipartiteGraph((0, 1), (0, 1), ((0, 0),))
    assert not perfect_matching_exists(single) and not perfect_matching_brute(single)


def test_pm_oracle_undoes_what_the_greedy_start_took():
    # left 0-{r1, r2}, 1-{r0, r1}, 2-{r0}: the proposal rounds match 0-r1 and 2-r0 and
    # leave left 1 free, so only the augmenting path 1-r1-0-r2 (undoing 0-r1) completes it;
    # without the edge 0-r2 no path exists
    perfect = ((0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    for edges, expected in ((perfect, True), (perfect[:1] + perfect[2:], False)):
        us, vs = (np.array(col) for col in zip(*edges))
        assert _greedy_matching(us, vs, 3, 3)[2] == 2
        g = BipartiteGraph((0, 1, 2), (0, 1, 2), edges)
        assert perfect_matching_exists(g) == perfect_matching_brute(g) == expected
    # left 0-{r0, r1}, 1-{r0}: a first-proposer start would take 0-r0; likewise on both sides
    for edges, expected in ((((0, 0), (0, 1), (1, 0)), True), (((0, 0), (1, 0)), False)):
        g = BipartiteGraph((0, 1), (0, 1), edges)
        assert perfect_matching_exists(g) == perfect_matching_brute(g) == expected


def test_pm_unbalanced_is_false():
    g = BipartiteGraph((0,), (0, 1), ())
    assert not perfect_matching_exists(g)
    assert not perfect_matching_brute(g)


def test_pm_oracles_agree_random():
    gen = rngmod.substream(1, "pm")
    for _ in range(60):
        n = int(gen.integers(1, 8))
        edges = tuple((i, j) for i in range(n) for j in range(n) if gen.random() < 0.4)
        g = BipartiteGraph(tuple(range(n)), tuple(range(n)), edges)
        assert perfect_matching_exists(g) == perfect_matching_brute(g)


@st.composite
def bipartite_graphs(draw):
    """Up to 7 vertices a side, equal sides more often than not; edges may repeat."""
    n_left = draw(st.integers(0, 7))
    n_right = draw(st.one_of(st.just(n_left), st.integers(0, 7)))
    pairs = [(i, j) for i in range(n_left) for j in range(n_right)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * len(pairs))) if pairs else []
    return BipartiteGraph(tuple(range(n_left)), tuple(range(n_right)), tuple(edges))


@settings(max_examples=400, deadline=None)
@given(bipartite_graphs())
@example(BipartiteGraph((), (), ()))
@example(BipartiteGraph((0, 1), (0, 1), ()))
@example(BipartiteGraph((0,), (0, 1), ((0, 0),)))
def test_pm_oracle_equals_brute_force(g):
    assert perfect_matching_exists(g) == perfect_matching_brute(g)


def test_pm_oracle_on_a_deep_chain():
    # augmenting paths thousands of edges long: no recursion-depth limit applies
    n = 5001
    path = tuple((v, v + 1) for v in range(n - 1))
    g, dropped = reduce_to_matching(Digraph(n, path), 0, n - 1)
    assert dropped == 0 and perfect_matching_exists(g)
    cut = path[: n // 2] + path[n // 2 + 1 :]
    g, _ = reduce_to_matching(Digraph(n, cut), 0, n - 1)
    assert not perfect_matching_exists(g)


# --- shortest path ----------------------------------------------------------------

def test_sssp_forced_modes():
    rs = small_rs()
    complete = sample_st(rs, seed=1, e1_mode="complete")
    und, s, t = reduce_to_sssp(to_stream(complete))
    assert undirected_distance(list(und.edges()), s, t) == 7
    empty = sample_st(rs, seed=1, e1_mode="empty")
    und, s, t = reduce_to_sssp(to_stream(empty))
    assert undirected_distance(list(und.edges()), s, t) is None


def test_sssp_gap_random():
    rs = small_rs()
    for seed in range(40):
        inst = sample_st(rs, seed=seed)
        und, s, t = reduce_to_sssp(to_stream(inst))
        d = undirected_distance(list(und.edges()), s, t)
        if inst.reachable:
            assert d == 7
        else:
            assert d is None or d >= 9


# --- acyclicity --------------------------------------------------------------------

def test_acyclicity_examples():
    cyclic = reduce_to_acyclicity(digraph((S, T)), S, T)
    assert topological_order(cyclic) is None
    still_acyclic = reduce_to_acyclicity(digraph(), S, T)
    assert topological_order(still_acyclic) is not None


def test_acyclicity_appends_an_edge_already_there_once():
    out = reduce_to_acyclicity(digraph((1, 0), n=2), 0, 1)
    assert out.edges == ((1, 0),)
    assert topological_order(out) == [1, 0]


def test_acyclicity_rejects_cyclic_input():
    with pytest.raises(ValueError):
        reduce_to_acyclicity(digraph((S, A), (A, S)), S, T)


def test_acyclicity_batch_equivalence():
    rs = small_rs()
    for seed in range(25):
        inst = sample_st(rs, seed=seed)
        h = Digraph(inst.n, tuple(inst.all_edges()))
        out = reduce_to_acyclicity(h, 0, inst.n - 1)
        assert (topological_order(out) is None) == inst.reachable


def test_feedback_arc_separation():
    rs = small_rs()
    for seed in range(10):
        inst = sample_st(rs, seed=seed)
        h = Digraph(inst.n, tuple(inst.all_edges()))
        out = reduce_to_acyclicity(h, 0, inst.n - 1)
        fas = min_feedback_arcs_upper(out)
        assert fas == (1 if inst.reachable else 0)


def min_feedback_arcs_upper(h: Digraph, cap: int = 1):
    """0 if acyclic, 1 if one deletion acyclifies, else '>cap' (tiny-scale check)."""
    if topological_order(h) is not None:
        return 0
    if cap >= 1:
        edges = tuple(h.edges)
        for i in range(len(edges)):
            pruned = Digraph(h.n, edges[:i] + edges[i + 1 :])
            if topological_order(pruned) is not None:
                return 1
    return f">{cap}"


# --- reach count --------------------------------------------------------------------

def test_reach_count_examples():
    h = digraph((S, T))
    out, fresh = reduce_to_reach_count(h, S, T, 2)
    assert fresh == (4, 5, 6, 7) and out.n == 8
    assert len(bfs(out.edges, S)) - 1 == 5  # t plus four fresh

    h2 = digraph()
    out2, _ = reduce_to_reach_count(h2, S, T, 3)
    assert len(bfs(out2.edges, S)) - 1 <= 3


def test_reach_count_threshold_batch():
    rs = small_rs()
    for seed in range(25):
        inst = sample_st(rs, seed=seed)
        h = Digraph(inst.n, tuple(inst.all_edges()))
        out, _ = reduce_to_reach_count(h, 0, inst.n - 1, inst.n)
        others = len(bfs(out.edges, 0)) - 1
        if inst.reachable:
            assert others >= 2 * inst.n
        else:
            assert others <= inst.n
