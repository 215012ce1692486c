import math

import pytest

from streamlb import rng as rngmod
from streamlb.experiments import small_rs
from streamlb.instances import FORWARD, INVERSE, EdgeStream, sample_st, sample_ur, to_stream
from streamlb.reductions import reduce_to_sssp
from streamlb.streaming import (
    BfsFrontier,
    EdgeCounter,
    SpanningForest,
    StoreAll,
    XorSketch,
    bfs_reachability,
    make_algorithm,
    run_stream,
    spanning_forest_connectivity,
    store_all_reachability,
)


def tiny_stream(edges, n, directed=True):
    return EdgeStream(n=n, directed=directed, segments=(("E", tuple(edges)),))


def random_stream(gen, n, p, directed=True):
    edges = tuple(
        (u, v) for u in range(n) for v in range(n)
        if u != v and gen.random() < p and (directed or u < v)
    )
    return EdgeStream(n=n, directed=directed, segments=(("E", edges),))


def test_edge_counter_state_size():
    st = to_stream(sample_st(small_rs(), seed=0))
    run = run_stream(EdgeCounter(), st, passes=1)
    m = st.edge_count()
    assert run.output == m
    final = run.checkpoints[-1][1]
    assert final == math.ceil(math.log2(m + 1))


def test_empty_stream_defaults():
    empty = tiny_stream((), 4)
    assert run_stream(EdgeCounter(), empty, passes=1).output == 0
    assert run_stream(StoreAll(), empty, passes=1, s=0, t=3).output is False


def test_store_all_state_bits_match_encoding():
    st = to_stream(sample_st(small_rs(), seed=3))
    run = run_stream(StoreAll(), st, passes=1)
    expected = st.edge_count() * 2 * math.ceil(math.log2(st.n))
    assert run.max_state_bits >= 0.9 * expected
    assert run.max_state_bits <= 1.1 * expected


def test_bfs_direct_edge():
    assert bfs_reachability(tiny_stream([(0, 3)], 4), 0, 3, 1) is True


def test_bfs_three_valued_on_st():
    rs = small_rs()
    inst = sample_st(rs, seed=2, e1_mode="complete")
    st = to_stream(inst)
    assert bfs_reachability(st, 0, inst.n - 1, 2) == "unknown"
    assert bfs_reachability(st, 0, inst.n - 1, 7) is True


def test_bfs_false_on_exhaustion():
    stream = tiny_stream([(0, 1)], 4)
    assert bfs_reachability(stream, 0, 3, 5) is False


def test_spanning_forest_examples():
    path = tiny_stream([(0, 1), (1, 2)], 3, directed=False)
    assert spanning_forest_connectivity(path, 0, 2) is True
    isolated = tiny_stream([], 2, directed=False)
    assert spanning_forest_connectivity(isolated, 0, 1) is False
    with pytest.raises(ValueError):
        spanning_forest_connectivity(tiny_stream([(0, 1)], 2, directed=True), 0, 1)


def test_spanning_forest_agrees_with_offline_bfs():
    gen = rngmod.substream(0, "sf")
    for i in range(500):
        n = int(gen.integers(2, 20))
        stream = random_stream(gen, n, 0.15, directed=False)
        adj = {}
        for u, v in stream.edges():
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen, frontier = {0}, [0]
        while frontier:
            frontier = [w for u in frontier for w in adj.get(u, ()) if not (w in seen or seen.add(w))]
        assert spanning_forest_connectivity(stream, 0, n - 1) == ((n - 1) in seen)


def test_store_all_equals_full_bfs():
    gen = rngmod.substream(1, "sa")
    for _ in range(50):
        n = int(gen.integers(2, 16))
        stream = random_stream(gen, n, 0.2)
        assert store_all_reachability(stream, 0, n - 1) == \
            (bfs_reachability(stream, 0, n - 1, n) is True)


def test_store_all_matches_st_witness():
    for seed in range(20):
        inst = sample_st(small_rs(), seed=seed)
        assert store_all_reachability(to_stream(inst), 0, inst.n - 1) == inst.reachable


def test_run_stream_deterministic():
    st = to_stream(sample_st(small_rs(), seed=5), shuffle_seed=1)
    a = run_stream(XorSketch(3), st, passes=1)
    b = run_stream(XorSketch(3), st, passes=1)
    assert a.output == b.output and a.checkpoints == b.checkpoints


def test_xor_sketch_paired_runs():
    from streamlb.protocols import simulate_two_pass

    for seed in range(25):
        stream = to_stream(sample_st(small_rs(), seed=seed), shuffle_seed=seed)
        direct = run_stream(XorSketch(seed), stream, passes=2)
        _, simulated = simulate_two_pass(lambda: XorSketch(seed), stream)
        assert simulated == direct.output


def test_run_stream_pass_budget():
    st = to_stream(sample_st(small_rs(), seed=5))
    with pytest.raises(ValueError):
        run_stream(BfsFrontier(3), st, passes=2)


def test_per_edge_checkpoints():
    stream = tiny_stream([(0, 1), (1, 2)], 3)
    run = run_stream(EdgeCounter(), stream, passes=1, per_edge=True)
    assert len(run.checkpoints) == 2 + 2  # per edge + segment end + pass end


def test_make_algorithm_registry():
    assert make_algorithm("bfs-frontier:4").passes_needed == 4
    assert make_algorithm("edge-count").name == "edge-count"
    with pytest.raises(ValueError):
        make_algorithm("quantum")


def test_bfs_frontier_hop_counter_width():
    with pytest.raises(ValueError):
        make_algorithm("bfs-frontier:65536")
    assert make_algorithm("bfs-frontier:65535").passes_needed == 65535


def test_run_stream_rejects_endpoints_outside_the_stream():
    stream = tiny_stream([(0, 1)], 3)
    for s, t in ((3, 2), (0, 3), (-1, 2)):
        with pytest.raises(ValueError):
            run_stream(BfsFrontier(1), stream, passes=1, s=s, t=t)


def contract_streams():
    """The small_rs() corpus (st in all three E1 modes, ur both ways) and the m=100 st stream."""
    rs = small_rs()
    for seed, mode in enumerate(("random", "random", "complete", "empty")):
        yield to_stream(sample_st(rs, seed, e1_mode=mode), shuffle_seed=seed)
    for direction in (FORWARD, INVERSE):
        yield to_stream(sample_ur(rs, direction, seed=4), shuffle_seed=4)
    yield big_st_stream()


@pytest.mark.parametrize(
    "tag", ["edge-count", "store-all", "bfs-frontier:1", "bfs-frontier:3", "spanning-forest", "xor-sketch:5"]
)
def test_state_bits_equal_serialized_length(tag):
    for stream in contract_streams():
        if tag == "spanning-forest":
            stream = reduce_to_sssp(stream)[0]
        alg = make_algorithm(tag)
        measured = []

        def checked_state_bits(alg=alg, arithmetic=alg.state_bits):
            bits = arithmetic()
            assert bits == len(alg.serialize())
            measured.append(bits)
            return bits

        alg.state_bits = checked_state_bits
        run = run_stream(alg, stream, passes=alg.passes_needed, per_edge=True)
        assert [bits for _, bits in run.checkpoints] == measured
        assert len(measured) == alg.passes_needed * (stream.edge_count() + len(stream.segments) + 1)


def big_st_stream():
    from streamlb.behrend import construct_ap_free, trim_to_multiple
    from streamlb.rsgraph import build_rs_digraph

    rs = build_rs_digraph(trim_to_multiple(construct_ap_free(100, "behrend-sphere"), 4))
    assert rs.n_side == 300
    return to_stream(sample_st(rs, seed=0), shuffle_seed=0)


@pytest.mark.xfail(
    strict=True,
    reason="st streams at this scale are sparse (|E| < n), so the union-find "
    "forest serializes larger than a frontier bitmap; see the ordering that "
    "does hold in test_space_ordering_observed",
)
def test_space_ordering_as_specified():
    stream = big_st_stream()
    forest = run_stream(SpanningForest(), reduce_to_sssp(stream)[0], passes=1).max_state_bits
    frontier = run_stream(BfsFrontier(2), stream, passes=2).max_state_bits
    store = run_stream(StoreAll(), stream, passes=1).max_state_bits
    assert forest < frontier < store


def test_space_ordering_observed():
    # what actually holds at N=300: both structured states beat storing all
    stream = big_st_stream()
    forest = run_stream(SpanningForest(), reduce_to_sssp(stream)[0], passes=1).max_state_bits
    frontier = run_stream(BfsFrontier(2), stream, passes=2).max_state_bits
    store = run_stream(StoreAll(), stream, passes=1).max_state_bits
    assert frontier < store
    assert forest < store
