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
    assert g.edges == ((("L", S), ("R", T)),)
    assert dropped == 0
    assert perfect_matching_exists(g)


def test_matching_path_through_inner():
    g, _ = reduce_to_matching(digraph((S, A), (A, T), vertices=(S, A, T)), S, T)
    assert set(g.edges) == {(("L", S), ("R", A)), (("L", A), ("R", T)), (("L", A), ("R", A))}
    assert perfect_matching_exists(g)


def test_matching_isolated_endpoints():
    g, _ = reduce_to_matching(digraph(vertices=(S, A, T)), S, T)
    assert set(g.edges) == {(("L", A), ("R", A))}
    assert not perfect_matching_exists(g)


def test_matching_drops_backward_edges():
    h = digraph((A, S), (T, B), (S, T))
    g, dropped = reduce_to_matching(h, S, T)
    assert dropped == 2
    assert perfect_matching_exists(g) == bfs_reachable(h.edges, S, T) == True  # noqa: E712


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
    left, right = (("L", 0), ("L", 1)), (("R", 0), ("R", 1))
    complete = BipartiteGraph(left, right, tuple((u, v) for u in left for v in right))
    assert perfect_matching_exists(complete) and perfect_matching_brute(complete)
    single = BipartiteGraph(left, right, ((left[0], right[0]),))
    assert not perfect_matching_exists(single) and not perfect_matching_brute(single)


def test_pm_unbalanced_is_false():
    g = BipartiteGraph((("L", 0),), (("R", 0), ("R", 1)), ())
    assert not perfect_matching_exists(g)
    assert not perfect_matching_brute(g)


def test_pm_oracles_agree_random():
    gen = rngmod.substream(1, "pm")
    for _ in range(60):
        n = int(gen.integers(1, 8))
        left = tuple(("L", i) for i in range(n))
        right = tuple(("R", i) for i in range(n))
        edges = tuple((u, v) for u in left for v in right if gen.random() < 0.4)
        g = BipartiteGraph(left, right, edges)
        assert perfect_matching_exists(g) == perfect_matching_brute(g)


@st.composite
def bipartite_graphs(draw):
    """Up to 7 vertices a side, equal sides more often than not; edges may repeat."""
    n_left = draw(st.integers(0, 7))
    n_right = draw(st.one_of(st.just(n_left), st.integers(0, 7)))
    left = tuple(("L", i) for i in range(n_left))
    right = tuple(("R", j) for j in range(n_right))
    pairs = [(u, v) for u in left for v in right]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * len(pairs))) if pairs else []
    return BipartiteGraph(left, right, tuple(edges))


@settings(max_examples=400, deadline=None)
@given(bipartite_graphs())
@example(BipartiteGraph((), (), ()))
@example(BipartiteGraph((("L", 0), ("L", 1)), (("R", 0), ("R", 1)), ()))
@example(BipartiteGraph((("L", 0),), (("R", 0), ("R", 1)), ((("L", 0), ("R", 0)),)))
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
        for i in range(len(h.edges)):
            pruned = Digraph(h.vertices, h.edges[:i] + h.edges[i + 1 :])
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
