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


def digraph(*edges, vertices=(S, A, B, T)):
    return Digraph(frozenset(vertices), tuple(edges))


# --- matching reduction ---------------------------------------------------------

def test_matching_single_edge():
    g, dropped = reduce_to_matching(digraph((S, T), vertices=(S, T)), S, T)
    assert (g.left, g.right, g.edges) == ((S,), (T,), ((0, 0),))
    assert dropped == 0
    assert perfect_matching_exists(g)


def test_matching_path_through_inner():
    g, _ = reduce_to_matching(digraph((S, A), (A, T), vertices=(S, A, T)), S, T)
    assert (g.left, g.right, set(g.edges)) == ((S, A), (T, A), {(0, 1), (1, 0), (1, 1)})
    assert perfect_matching_exists(g)


def test_matching_isolated_endpoints():
    g, _ = reduce_to_matching(digraph(vertices=(S, A, T)), S, T)
    assert (g.left, g.right, set(g.edges)) == ((S, A), (T, A), {(1, 1)})
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
    big = 2**64  # beyond int64, so the block holds Python ints
    h = digraph((big, big + 1), (0, big), (big, big + 1), vertices=(0, big, big + 1))
    assert h.edges == ((big, big + 1), (0, big))
    g, dropped = reduce_to_matching(h, 0, big + 1)
    assert (g.left, g.right, g.edges, dropped) == ((0, big), (big + 1, big), ((1, 0), (0, 1), (1, 1)), 0)
    assert perfect_matching_exists(g) and topological_order(h) == [0, big, big + 1]


def test_digraph_keeps_the_first_occurrences_of_a_dict_reference():
    gen = rngmod.substream(0, "digraph-dedup")
    for size in (1, 2, 40, 3000):
        edges = tuple(zip(gen.integers(0, 12, size).tolist(), gen.integers(0, 12, size).tolist()))
        assert digraph(*edges, vertices=range(12)).edges == tuple(dict.fromkeys(edges))


def test_digraph_refuses_an_endpoint_outside_its_vertices():
    for edge in ((S, 7), (-1, T)):
        with pytest.raises(ValueError, match="not a vertex"):
            digraph((S, A), edge)


def test_bipartite_graph_refuses_an_edge_outside_its_sides():
    for edge in ((2, 0), (0, 1), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside"):
            BipartiteGraph((0, 1), (0,), ((0, 0), edge))


def test_matching_equivalence_random():
    gen = rngmod.substream(0, "equiv")
    pairs = [(u, v) for u in range(5) for v in range(5) if u != v]
    for _ in range(300):
        edges = tuple(p for p in pairs if gen.random() < 0.25)
        h = Digraph(frozenset(range(5)), edges)
        g, _ = reduce_to_matching(h, 0, 4)
        assert bfs_reachable(edges, 0, 4) == perfect_matching_exists(g)


# --- matching oracles ------------------------------------------------------------

def test_pm_oracle_examples():
    complete = BipartiteGraph((0, 1), (0, 1), ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert perfect_matching_exists(complete) and perfect_matching_brute(complete)
    single = BipartiteGraph((0, 1), (0, 1), ((0, 0),))
    assert not perfect_matching_exists(single) and not perfect_matching_brute(single)


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
    g, dropped = reduce_to_matching(Digraph(frozenset(range(n)), path), 0, n - 1)
    assert dropped == 0 and perfect_matching_exists(g)
    cut = path[: n // 2] + path[n // 2 + 1 :]
    g, _ = reduce_to_matching(Digraph(frozenset(range(n)), cut), 0, n - 1)
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
    cyclic = reduce_to_acyclicity(digraph((S, T), vertices=(S, T)), S, T)
    assert topological_order(cyclic) is None
    still_acyclic = reduce_to_acyclicity(digraph(vertices=(S, T)), S, T)
    assert topological_order(still_acyclic) is not None


def test_acyclicity_appends_an_edge_already_there_once():
    out = reduce_to_acyclicity(digraph((T, S), vertices=(S, T)), S, T)
    assert out.edges == ((T, S),)
    assert topological_order(out) == [T, S]


def test_acyclicity_rejects_cyclic_input():
    with pytest.raises(ValueError):
        reduce_to_acyclicity(digraph((S, A), (A, S)), S, T)


def test_acyclicity_batch_equivalence():
    rs = small_rs()
    for seed in range(25):
        inst = sample_st(rs, seed=seed)
        h = Digraph(frozenset(range(inst.n)), tuple(inst.all_edges()))
        out = reduce_to_acyclicity(h, 0, inst.n - 1)
        assert (topological_order(out) is None) == inst.reachable


def test_feedback_arc_separation():
    rs = small_rs()
    for seed in range(10):
        inst = sample_st(rs, seed=seed)
        h = Digraph(frozenset(range(inst.n)), tuple(inst.all_edges()))
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
            pruned = Digraph(h.vertices, edges[:i] + edges[i + 1 :])
            if topological_order(pruned) is not None:
                return 1
    return f">{cap}"


# --- reach count --------------------------------------------------------------------

def test_reach_count_examples():
    h = digraph((S, T), vertices=(S, T))
    out, fresh = reduce_to_reach_count(h, S, T, 2)
    assert len(fresh) == 4
    assert len(bfs(out.edges, S)) - 1 == 5  # t plus four fresh

    h2 = digraph(vertices=(S, A, B, T))
    out2, _ = reduce_to_reach_count(h2, S, T, 3)
    assert len(bfs(out2.edges, S)) - 1 <= 3


def test_reach_count_threshold_batch():
    rs = small_rs()
    for seed in range(25):
        inst = sample_st(rs, seed=seed)
        h = Digraph(frozenset(range(inst.n)), tuple(inst.all_edges()))
        out, _ = reduce_to_reach_count(h, 0, inst.n - 1, inst.n)
        others = len(bfs(out.edges, 0)) - 1
        if inst.reachable:
            assert others >= 2 * inst.n
        else:
            assert others <= inst.n
