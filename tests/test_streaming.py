import hashlib
import math
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamlb import rng as rngmod
from streamlb import streamio
from streamlb.cli import OK, dispatch
from streamlb.common import encode_ints, int_width
from streamlb.experiments import small_rs
from streamlb.instances import FORWARD, INVERSE, EdgeStream, sample_st, sample_ur, to_stream
from streamlb.reductions import reduce_to_sssp
from streamlb.streaming import (
    BfsFrontier,
    EdgeCounter,
    SpanningForest,
    StoreAll,
    XorSketch,
    make_algorithm,
    run_stream,
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
    assert run_stream(BfsFrontier(1), tiny_stream([(0, 3)], 4), passes=1, s=0, t=3).output is True


def test_bfs_three_valued_on_st():
    rs = small_rs()
    inst = sample_st(rs, seed=2, e1_mode="complete")
    st = to_stream(inst)
    assert run_stream(BfsFrontier(2), st, passes=2, s=0, t=inst.n - 1).output == "unknown"
    assert run_stream(BfsFrontier(7), st, passes=7, s=0, t=inst.n - 1).output is True


def test_bfs_false_on_exhaustion():
    stream = tiny_stream([(0, 1)], 4)
    assert run_stream(BfsFrontier(5), stream, passes=5, s=0, t=3).output is False


def test_spanning_forest_examples():
    path = tiny_stream([(0, 1), (1, 2)], 3, directed=False)
    assert run_stream(SpanningForest(), path, passes=1, s=0, t=2).output is True
    isolated = tiny_stream([], 2, directed=False)
    assert run_stream(SpanningForest(), isolated, passes=1, s=0, t=1).output is False
    with pytest.raises(ValueError):
        run_stream(SpanningForest(), tiny_stream([(0, 1)], 2, directed=True), passes=1, s=0, t=1).output


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
        assert run_stream(SpanningForest(), stream, passes=1, s=0, t=n - 1).output == ((n - 1) in seen)


def test_store_all_equals_full_bfs():
    gen = rngmod.substream(1, "sa")
    for _ in range(50):
        n = int(gen.integers(2, 16))
        stream = random_stream(gen, n, 0.2)
        assert run_stream(StoreAll(), stream, passes=1, s=0, t=n - 1).output == \
            (run_stream(BfsFrontier(n), stream, passes=n, s=0, t=n - 1).output is True)


def test_store_all_matches_st_witness():
    for seed in range(20):
        inst = sample_st(small_rs(), seed=seed)
        assert run_stream(StoreAll(), to_stream(inst), passes=1, s=0, t=inst.n - 1).output == inst.reachable


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
    for tag in ("bfs-frontier:x", "xor-sketch:x", "bfs-frontier:1.5"):
        with pytest.raises(ValueError) as exc:
            make_algorithm(tag)
        assert str(exc.value) == f"algorithm tag {tag!r} expects an integer after ':'"
    for tag in ("store-all:7", "edge-count:x", "spanning-forest:0"):
        with pytest.raises(ValueError) as exc:
            make_algorithm(tag)
        assert str(exc.value) == f"algorithm tag {tag!r} takes nothing after ':'"


def test_bfs_frontier_hop_counter_width():
    with pytest.raises(ValueError):
        make_algorithm("bfs-frontier:65536")
    assert make_algorithm("bfs-frontier:65535").passes_needed == 65535


def test_bfs_frontier_needs_a_pass():
    for passes in (0, -1):
        with pytest.raises(ValueError, match="^bfs-frontier needs at least one pass$"):
            make_algorithm(f"bfs-frontier:{passes}")
        with pytest.raises(ValueError, match="^bfs-frontier needs at least one pass$"):
            run_stream(BfsFrontier(passes), tiny_stream([(0, 1)], 2), passes=passes, s=0, t=1).output
    assert make_algorithm("bfs-frontier:1").passes_needed == 1


def test_start_binds_the_context_and_enters_pass_one():
    for tag in ALGORITHM_TAGS:
        alg = make_algorithm(tag)
        alg.start(4, tag != "spanning-forest", 1, 2)
        assert (alg.n, alg.directed, alg.s, alg.t, alg._pass) == (4, tag != "spanning-forest", 1, 2, 1)
    with pytest.raises(ValueError, match="undirected"):
        SpanningForest().start(4, True, 0, 3)


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


# --- serialize / restore ---------------------------------------------------------

ALGORITHM_TAGS = ["edge-count", "store-all", "bfs-frontier:1", "bfs-frontier:3", "spanning-forest", "xor-sketch:5"]

# n = 10^20: ids beyond int64 make object-dtype blocks, and no n-sized state can be built
HUGE_STREAM = EdgeStream(n=10**20, directed=True, segments=(
    ("E1", ((0, 5), (5, 10**20 - 1))),
    ("E2", ((10**20 - 1, 2**63),)),
    ("E3", ((2**63, 10**20 - 1), (0, 0))),
))


def _run_outcome(tag, stream, per_edge):
    """What a run shows: its segment and pass checkpoints, output and final
    serialization, or the type and text of the error that stopped it."""
    alg = make_algorithm(tag)
    try:
        run = run_stream(alg, stream, passes=alg.passes_needed, per_edge=per_edge)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    try:
        final = alg.serialize()
    except Exception as exc:
        final = (type(exc), str(exc))
    return tuple(c for c in run.checkpoints if "->" not in c[0]), run.output, final


# streams with an id outside [0, n), each with the error that an algorithm
# keeping vertices raises at its first such edge
OUT_OF_RANGE = {
    "9 does not fit in 2 bits": tiny_stream([(0, 1), (1, 9), (2, 3)], 4),  # the error names (1, 9)
    "-1 does not fit in 2 bits": tiny_stream([(0, 1), (1, 2), (-1, 2)], 3),
    "3 is not a vertex of [0, 3)": tiny_stream([(0, 1), (1, 3), (2, 0)], 3),  # 1 is reached in pass 2 only
}
KEEPS_VERTICES = ("store-all", "bfs-frontier:1", "bfs-frontier:3", "spanning-forest")


@pytest.mark.parametrize("tag", ALGORITHM_TAGS)
def test_segment_blocks_equal_the_per_edge_run(tag):
    """The default run hands `process_block` whole segments; `per_edge=True`
    calls `process` once per edge. Both must show the same run."""
    streams = [*contract_streams(), HUGE_STREAM, *OUT_OF_RANGE.values(),
               EdgeStream(4, True, (("A", ((0, 1), (1, 2))), ("B", ((2, 3), (3, 4)))))]  # a block, then per edge
    for stream in streams:
        if tag == "spanning-forest":
            stream = reduce_to_sssp(stream)[0]
        assert _run_outcome(tag, stream, False) == _run_outcome(tag, stream, True)
    for message, stream in OUT_OF_RANGE.items():
        if tag in KEEPS_VERTICES:
            stream = reduce_to_sssp(stream)[0] if tag == "spanning-forest" else stream
            assert _run_outcome(tag, stream, False) == (ValueError, message)


def test_the_huge_stream_runs_as_it_did_per_edge():
    # outputs of the per-edge harness, before segments were handed over as blocks
    assert run_stream(StoreAll(), HUGE_STREAM, passes=1, s=0, t=2**63).output is True
    assert run_stream(BfsFrontier(2), HUGE_STREAM, passes=2, s=0, t=10**20 - 1).output is True
    run = run_stream(XorSketch(3), HUGE_STREAM, passes=1)
    assert run.output == (15194187978533636053, 5)
    with pytest.raises(ValueError, match="^bfs-frontier: a 200000000000000000017-bit state is longer"):
        _started(BfsFrontier(2), 10**20).serialize()


def _finish(alg, stream, from_pass, from_segment):
    """Run `alg` on from segment index `from_segment` of pass `from_pass` to the end."""
    for p in range(from_pass, alg.passes_needed + 1):
        if p > from_pass:
            alg.begin_pass(p)
        for _, seg in stream.segments[from_segment if p == from_pass else 0 :]:
            for u, v in seg:
                alg.process(u, v)
        alg.end_pass(p)
    return alg.result()


@pytest.mark.parametrize("tag", ALGORITHM_TAGS)
def test_restore_of_serialize_round_trips_at_every_segment_checkpoint(tag):
    for stream in contract_streams():
        if tag == "spanning-forest":
            stream = reduce_to_sssp(stream)[0]
        direct = make_algorithm(tag)
        expected = run_stream(direct, stream, passes=direct.passes_needed).output
        alg = make_algorithm(tag)
        alg.start(stream.n, stream.directed, 0, stream.n - 1)
        checked = 0
        for p in range(1, alg.passes_needed + 1):
            alg.begin_pass(p)
            for i, (_, seg) in enumerate(stream.segments):
                for u, v in seg:
                    alg.process(u, v)
                bits = alg.serialize()
                copy = make_algorithm(tag)
                copy.start(stream.n, stream.directed, 0, stream.n - 1)
                copy.restore(bits, p)
                assert copy.serialize() == bits
                assert _finish(copy, stream, p, i + 1) == expected
                checked += 1
            alg.end_pass(p)
        assert alg.result() == expected
        assert checked == alg.passes_needed * len(stream.segments)


def _started(alg, n, directed=True):
    alg.start(n, directed, 0, n - 1)
    return alg


@pytest.mark.parametrize(
    "alg, n, bits",
    [
        (StoreAll(), 1, "1111"),  # 0-bit vertex ids: only "" is a state
        (StoreAll(), 4, "101"),  # not a whole number of 4-bit edges
        (StoreAll(), 4, "01a1"),
        (SpanningForest(), 4, "10110"),
        (StoreAll(), 5, encode_ints([63], 6)),  # the edge (7, 7): no such vertices
        (StoreAll(), 5, encode_ints([9, 9, 1], 6)),  # serialize writes distinct sorted keys
        (SpanningForest(), 5, encode_ints([63], 6)),
        (SpanningForest(), 5, encode_ints([1, 2, 10], 6)),  # (1, 2) closes the cycle 0-1-2
        (BfsFrontier(2), 4, "0" * 16 + "1" + "10"),  # truncated: 17 + 2n = 25 bits
        (BfsFrontier(2), 4, "0" * 16 + "0" + "2x00" + "0000"),  # right length, not bits
        (BfsFrontier(2), 4, "0" * 26),
        (XorSketch(), 4, "0" * 97),  # bits beyond the 96 it writes
        (XorSketch(), 4, "0" * 95),
        (XorSketch(), 4, "0" * 95 + "2"),
        (EdgeCounter(), 4, "1_0"),
        (EdgeCounter(), 4, "011"),  # serialize writes no leading zero
    ],
    ids=lambda x: x.name if hasattr(x, "name") else str(x)[:8],
)
def test_restore_rejects_what_serialize_cannot_write(alg, n, bits):
    directed = not isinstance(alg, SpanningForest)
    with pytest.raises(ValueError):
        _started(alg, n, directed).restore(bits, 1)


def tuple_layout_bits(pairs, n):
    """How store-all and the spanning forest serialized when they kept (u, v) tuples."""
    return encode_ints(chain.from_iterable(sorted(pairs)), int_width(n - 1))


def forest_pairs_reference(edges, n):
    """The union-find forest as (u, v) tuples, in the order the old layout appended them."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    forest = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            forest.append((u, v))
    return forest


@st.composite
def sized_edge_lists(draw):
    k = draw(st.integers(1, 14))
    n = draw(st.sampled_from([1, 2, 1 << k, (1 << k) + 1]))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=60))


@settings(max_examples=300, deadline=None)
@given(case=sized_edge_lists())
@example(case=(1, [(0, 0)]))
@example(case=(2, [(1, 1), (0, 1), (1, 0), (0, 1)]))
@example(case=(1 << 14, [((1 << 14) - 1, (1 << 14) - 1), (0, (1 << 14) - 1)]))
@example(case=((1 << 14) + 1, [(1 << 14, 1 << 14), (1 << 14, 0)]))
def test_packed_keys_serialize_as_the_tuple_layout(case):
    n, edges = case
    store = _started(StoreAll(), n)
    forest = _started(SpanningForest(), n, directed=False)
    for u, v in edges:
        store.process(u, v)
        forest.process(u, v)
    assert store.serialize() == tuple_layout_bits(set(edges), n)
    assert forest.serialize() == tuple_layout_bits(forest_pairs_reference(edges, n), n)
    assert store.state_bits() == len(store.serialize())
    assert forest.state_bits() == len(forest.serialize())


@pytest.mark.parametrize("n", [1, 5, 8, 9])
@pytest.mark.parametrize("make", [StoreAll, SpanningForest])
def test_an_endpoint_outside_the_key_width_raises(make, n):
    w = int_width(n - 1)
    for u, v in ((0, 1 << w), (1 << w, 0), ((1 << w) + 3, 1 << (w + 5)), (-1, 0), (0, -1), (-5, -7)):
        alg = _started(make(), n, directed=make is StoreAll)
        with pytest.raises(ValueError, match=f"does not fit in {w} bits"):
            alg.process(u, v)
        assert alg.state_bits() == 0


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("make", [StoreAll, SpanningForest])
def test_an_endpoint_that_fits_the_width_but_is_no_vertex_raises(make, n):
    # what process accepts, serialize writes and restore must read back
    top = (1 << int_width(n - 1)) - 1
    for u, v in ((n, 0), (0, n), (top, top)):
        alg = _started(make(), n, directed=make is StoreAll)
        with pytest.raises(ValueError, match=rf"is not a vertex of \[0, {n}\)"):
            alg.process(u, v)
        assert alg.state_bits() == 0


# sha256 of what the tuple layout serialized on the README tour's st-0000
# (`gen rs --m 100 --trim 4`, `gen st --seed 7`): the three simulate_two_pass
# messages of store-all, and the spanning forest after one pass over the
# stream's reduce_to_sssp form
TOUR_STORE_ALL_MESSAGES = {
    "A1": (4488, "94b475dfaee9232b677a13b1c4c841fd60543bae2d1a4f747803f315c04375d7"),
    "B1": (26488, "d2836ed0308b42511e73b2ee50fffffc9896daf3a0f7cb98ce6af9946c1f7adc"),
    "A2": (26928, "396e182fd32a264a8e0d509656a8faa016d1cf0b48d9b3425d540ee20aab0ce2"),
}
TOUR_FOREST = (16808, "4f11c965ad817d91941507470fd0bb9e267ad1fe0b559ee9fb05cac0840fc9f7")


def test_tour_serializations_are_unchanged(tmp_path):
    from streamlb.protocols import simulate_two_pass

    assert dispatch(["gen", "rs", "--m", "100", "--trim", "4", "--out", str(tmp_path / "rs.txt")]) == OK
    assert dispatch(["gen", "st", "--rs", str(tmp_path / "rs.txt"), "--seed", "7", "--count", "1",
                     "--out", str(tmp_path / "st")]) == OK
    stream = streamio.read_stream(tmp_path / "st" / "st-0000.stream")

    def digest(bits):
        return len(bits), hashlib.sha256(bits.encode("ascii")).hexdigest()

    transcript, _ = simulate_two_pass(StoreAll, stream)
    assert {label: digest(bits) for label, (_, bits) in zip(transcript.labels, transcript.messages)} \
        == TOUR_STORE_ALL_MESSAGES
    forest = SpanningForest()
    run_stream(forest, reduce_to_sssp(stream)[0], passes=1)
    assert digest(forest.serialize()) == TOUR_FOREST
