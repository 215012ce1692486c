import hashlib
import math
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamlb import rng as rngmod
from streamlb import streamio
from streamlb.cli import OK, dispatch
from streamlb.common import Bits, encode_ints, int_width
from streamlb.experiments import small_rs
from streamlb.instances import FORWARD, INVERSE, MAX_STREAM_N, EdgeStream, sample_st, sample_ur, to_stream
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
from tests.test_common import forged, packed


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


@pytest.mark.parametrize("tag", ALGORITHM_TAGS)
def test_segment_blocks_equal_the_per_edge_run(tag):
    """The default run hands `process_block` whole segments; `per_edge=True`
    calls `process` once per edge. Both must show the same run."""
    streams = [*contract_streams(), EdgeStream(5, True, (("A", ((0, 1), (1, 2))), ("B", ((2, 3), (3, 4)))))]
    for stream in streams:
        if tag == "spanning-forest":
            stream = reduce_to_sssp(stream)[0]
        assert _run_outcome(tag, stream, False) == _run_outcome(tag, stream, True)


def test_a_stream_refuses_ids_outside_n_and_n_past_the_cap():
    # no algorithm is handed a block with an id outside [0, n), named as parse_stream names it
    for edges, n, bad in (([(0, 1), (1, 9), (2, 3)], 4, 9), ([(0, 1), (1, 2), (-1, 2)], 3, -1),
                          ([(0, 1), (1, 3), (2, 0)], 3, 3)):
        with pytest.raises(ValueError, match=rf"^vertex id {bad} in segment 'E' is outside \[0, {n}\)$"):
            tiny_stream(edges, n)
    # store-all and forest keys take 2·int_width(n - 1) bits, at most 62 under the cap
    assert EdgeStream(MAX_STREAM_N, True, (("E", ((0, MAX_STREAM_N - 1),)),)).n == MAX_STREAM_N
    assert 2 * int_width(MAX_STREAM_N - 1) == 62
    for n in (MAX_STREAM_N + 1, 10**20):
        with pytest.raises(ValueError, match=f"^a stream has {n} vertices; a stream holds at most {MAX_STREAM_N}$"):
            EdgeStream(n, True, (("E", ((0, 5),)),))
    with pytest.raises(ValueError, match="^vertex ids are int64"):
        EdgeStream(10, True, (("E1", ((0, 5),)), ("E2", ((5, 2**63),))))


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
        (StoreAll(), 1, packed("1111")),  # 0-bit vertex ids: only "" is a state
        (StoreAll(), 4, packed("101")),  # not a whole number of 4-bit edges
        (SpanningForest(), 4, packed("10110")),
        (StoreAll(), 5, encode_ints([63], 6)),  # the edge (7, 7): no such vertices
        (StoreAll(), 5, encode_ints([9, 9, 1], 6)),  # serialize writes distinct sorted keys
        (SpanningForest(), 5, encode_ints([63], 6)),
        (SpanningForest(), 5, encode_ints([1, 2, 10], 6)),  # (1, 2) closes the cycle 0-1-2
        (BfsFrontier(2), 4, packed("0" * 16 + "1" + "10")),  # truncated: 17 + 2n = 25 bits
        (BfsFrontier(2), 4, "0" * 16 + "0" + "2x00" + "0000"),  # text, not packed bits
        (BfsFrontier(2), 4, packed("0" * 26)),
        (XorSketch(), 4, packed("0" * 97)),  # bits beyond the 96 it writes
        (XorSketch(), 4, packed("0" * 95)),
        (XorSketch(), 4, "0" * 96),
        (EdgeCounter(), 4, "1_0"),
        (EdgeCounter(), 4, packed("011")),  # serialize writes no leading zero
    ],
    ids=lambda x: x.name if hasattr(x, "name") else str(x)[:8],
)
def test_restore_rejects_what_serialize_cannot_write(alg, n, bits):
    directed = not isinstance(alg, SpanningForest)
    with pytest.raises(ValueError):
        _started(alg, n, directed).restore(bits, 1)


# what serialize writes for each tag on n = 5 vertices after the edges 0-1, 1-2, 2-3
THREE_EDGE_STATE_BITS = {"edge-count": 2, "store-all": 18, "bfs-frontier:1": 27, "bfs-frontier:3": 27,
                         "spanning-forest": 18, "xor-sketch:5": 96}


@pytest.mark.parametrize("tag", ALGORITHM_TAGS)
def test_every_restore_refuses_a_wrong_length_a_padding_bit_and_text(tag):
    def started():
        return _started(make_algorithm(tag), 5, directed=tag != "spanning-forest")

    alg = started()
    for u, v in ((0, 1), (1, 2), (2, 3)):
        alg.process(u, v)
    state = alg.serialize()
    assert len(state) == THREE_EDGE_STATE_BITS[tag]
    text = str(state)
    # one bit more: a leading zero of the count, a part of an edge for store-all
    # and the forest, a length other than 17 + 2n or 96 for the frontier and the sketch
    longer = packed("0" + text)
    # the low bit of the last byte is padding, except in the sketch's 12 whole bytes,
    # which a 13th zero byte no longer holds exactly
    padded = forged(state.data[:-1] + bytes([state.data[-1] | 1]) if len(state) % 8 else state.data + b"\x00",
                    len(state))
    for bad in (longer, padded, text, text.encode("ascii"), None):
        with pytest.raises(ValueError):
            started().restore(bad, 1)
    copy = started()
    copy.restore(state, 1)
    assert copy.serialize() == state


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


# `process` is where a bare int enters an algorithm: it refuses an endpoint
# outside [0, n), naming the first one, and keeps no state of the edge
@pytest.mark.parametrize("n", [1, 5, 8, 9])
@pytest.mark.parametrize("make", [StoreAll, SpanningForest, BfsFrontier])
def test_an_endpoint_outside_the_key_width_raises(make, n):
    w = int_width(n - 1)
    for u, v, bad in ((0, 1 << w, 1 << w), (1 << w, 0, 1 << w), ((1 << w) + 3, 1 << (w + 5), (1 << w) + 3),
                      (-1, 0, -1), (0, -1, -1), (-5, -7, -5)):
        alg = _started(make(), n, directed=make is not SpanningForest)
        with pytest.raises(ValueError, match=rf"^vertex id {bad} is outside \[0, {n}\)$"):
            alg.process(u, v)
        assert alg.serialize() == _started(make(), n, directed=make is not SpanningForest).serialize()


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("make", [StoreAll, SpanningForest, BfsFrontier])
def test_an_endpoint_that_fits_the_width_but_is_no_vertex_raises(make, n):
    # what process accepts, serialize writes and restore must read back
    top = (1 << int_width(n - 1)) - 1
    for u, v, bad in ((n, 0, n), (0, n, n), (top, top, top)):
        alg = _started(make(), n, directed=make is not SpanningForest)
        with pytest.raises(ValueError, match=rf"^vertex id {bad} is outside \[0, {n}\)$"):
            alg.process(u, v)
        assert alg.serialize() == _started(make(), n, directed=make is not SpanningForest).serialize()


# sha256 of what the tuple layout serialized on the README tour's st-0000
# (`gen rs --m 100 --trim 4`, `gen st --seed 7`): the three simulate_two_pass
# messages of store-all and of bfs-frontier:2, the spanning forest after one
# pass over the stream's reduce_to_sssp form, and its three simulate_two_pass
# messages on that form
TOUR_STORE_ALL_MESSAGES = {
    "A1": (4488, "94b475dfaee9232b677a13b1c4c841fd60543bae2d1a4f747803f315c04375d7"),
    "B1": (26488, "d2836ed0308b42511e73b2ee50fffffc9896daf3a0f7cb98ce6af9946c1f7adc"),
    "A2": (26928, "396e182fd32a264a8e0d509656a8faa016d1cf0b48d9b3425d540ee20aab0ce2"),
}
TOUR_BFS_FRONTIER_MESSAGES = {
    "A1": (2501, "dec3f7dff9a2bc856f6d1890cebe0876f8769202357e941e82afd5c48f53460f"),
    "B1": (2501, "dec3f7dff9a2bc856f6d1890cebe0876f8769202357e941e82afd5c48f53460f"),
    "A2": (2501, "ff411434426959db26dcc398243551b2396d23051420b36ca8b5ea170c0b5bb5"),
}
TOUR_FOREST = (16808, "4f11c965ad817d91941507470fd0bb9e267ad1fe0b559ee9fb05cac0840fc9f7")
TOUR_FOREST_MESSAGES = {
    "A1": (858, "eb5ba61ae542beb42838bdaf0de09fda6b61bc025ad10a425410390bdf87c38d"),
    "B1": (16720, "652ba7f17a672def303b8442489e588f6a1ca98a9504ed261029ebe1fd65a58d"),
    "A2": TOUR_FOREST,
}


def test_tour_serializations_are_unchanged(tmp_path):
    from streamlb.protocols import simulate_two_pass

    assert dispatch(["gen", "rs", "--m", "100", "--trim", "4", "--out", str(tmp_path / "rs.txt")]) == OK
    assert dispatch(["gen", "st", "--rs", str(tmp_path / "rs.txt"), "--seed", "7", "--count", "1",
                     "--out", str(tmp_path / "st")]) == OK
    stream = streamio.read_stream(tmp_path / "st" / "st-0000.stream")

    def digest(bits):
        return len(bits), hashlib.sha256(str(bits).encode("ascii")).hexdigest()  # the text view

    def digests(factory, on):
        transcript, _ = simulate_two_pass(factory, on)
        return {label: digest(bits) for label, (_, bits) in zip(transcript.labels, transcript.messages)}

    undirected = reduce_to_sssp(stream)[0]
    assert digests(StoreAll, stream) == TOUR_STORE_ALL_MESSAGES
    assert digests(lambda: BfsFrontier(2), stream) == TOUR_BFS_FRONTIER_MESSAGES
    assert digests(SpanningForest, undirected) == TOUR_FOREST_MESSAGES
    forest = SpanningForest()
    run_stream(forest, undirected, passes=1)
    assert digest(forest.serialize()) == TOUR_FOREST
