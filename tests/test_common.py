import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamlb
from streamlb.common import ARRAY_LEVELS, ENCODE_CHUNK, ITER_CHUNK, Bits, EdgeBlock, bfs, check_bits, decode_array, \
    encode_ints
from streamlb.instances import EdgeStream
from streamlb.protocols import Transcript, encode_int


def encode_ints_reference(values, width):
    """The string-at-a-time form the packed encoder must reproduce."""
    return "".join(encode_int(v, width) for v in values)


def decode_ints_reference(bits, width):
    if width == 0:
        return []
    if len(bits) % width:
        raise ValueError("bit string length is not a multiple of the field width")
    return [int(bits[i : i + width], 2) for i in range(0, len(bits), width)]


def packed(text):
    """'0'/'1' text as `Bits`, packed here by Python ints, apart from the codec."""
    pad = -len(text) % 8
    return Bits((int(text or "0", 2) << pad).to_bytes((len(text) + pad) // 8, "big"), len(text))


def forged(data, length):
    """A `Bits` built around its own check, as no constructor would build it."""
    bits = object.__new__(Bits)
    object.__setattr__(bits, "data", data)
    object.__setattr__(bits, "length", length)
    return bits


def error_of(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("width", range(0, 71))  # widths above 64 are refused
def test_encode_decode_equal_string_reference(width):
    gen = random.Random(width)
    top = (1 << width) - 1
    values = [0, top, top, 0] + [gen.getrandbits(width) for _ in range(60)]
    bits = encode_ints_reference(values, width)
    if width > 64:
        for fn, arg in ((encode_ints, values), (encode_ints, []), (decode_array, packed(bits)),
                        (decode_array, packed(""))):
            with pytest.raises(ValueError, match=f"^a packed field is at most 64 bits, not {width}$"):
                fn(arg, width)
        return
    assert str(encode_ints(values, width)) == bits
    assert encode_ints(values, width) == packed(bits)
    assert str(encode_ints((v for v in values), width)) == bits  # generators, as intersection_protocol passes
    assert encode_ints([], width) == Bits(b"", 0) == encode_ints(iter(()), width)
    decoded = decode_array(packed(bits), width)
    assert decoded.dtype == np.uint64
    assert decoded.tolist() == decode_ints_reference(bits, width)
    if width:
        assert decoded.tolist() == values
    assert decode_array(packed(""), width).tolist() == []


@pytest.mark.parametrize("width", [1, 3, 8, 13, 34, 64])
@pytest.mark.parametrize("extra", [-1, 0, 1, 5])
def test_encode_decode_across_pack_chunks(width, extra):
    # encode_ints packs ENCODE_CHUNK values at a time; every chunk but the last
    # ends on a byte, so the chunks join bytewise whatever the width
    gen = random.Random(width * 10 + extra)
    values = [gen.getrandbits(width) for _ in range(2 * ENCODE_CHUNK + extra)]
    bits = encode_ints_reference(values, width)
    for given in (values, np.array(values, dtype=np.uint64)):
        assert str(encode_ints(given, width)) == bits
    assert decode_array(packed(bits), width).tolist() == values


@pytest.mark.parametrize("width", [0, 1, 5, 14, 62, 63, 64, 70])
def test_encode_decode_raise_the_reference_errors(width):
    if width > 64:  # no value is read at a width no field has
        assert error_of(encode_ints, [1 << width], width) == error_of(decode_array, packed("0" * width), width) \
            == f"a packed field is at most 64 bits, not {width}"
        return
    for values in ([1 << width], [0, 1, -1], [3, (1 << width) + 5, -2], [-(1 << 70)], [1 << 70]):
        expected = error_of(encode_ints_reference, values, width)
        assert error_of(encode_ints, values, width) == expected
        assert error_of(encode_ints, iter(values), width) == expected
    if width > 1:
        bits = "0" * (3 * width + 1)
        assert error_of(decode_array, packed(bits), width) == error_of(decode_ints_reference, bits, width)


@pytest.mark.parametrize("width", range(1, 65))
def test_encode_ints_of_an_array_equals_the_list_path(width):
    # store-all and the spanning forest serialize their key arrays without a list
    gen = random.Random(width)
    top = (1 << width) - 1
    values = [0, top, top, 0] + [gen.getrandbits(width) for _ in range(60)]
    dtypes = (np.uint64, np.int64) if width < 64 else (np.uint64,)
    for dtype in dtypes:
        assert encode_ints(np.array(values, dtype=dtype), width) == encode_ints(values, width)
        assert encode_ints(np.array([], dtype=dtype), width) == Bits(b"", 0)
    for values in ([3, top + 1, 5, top + 2], [top, 2 * top + 1]):
        if values[1] < 1 << 64:
            assert error_of(encode_ints, np.array(values, dtype=np.uint64), width) == \
                error_of(encode_ints, values, width)
    assert error_of(encode_ints, np.array([1, -2, 0], dtype=np.int64), width) == \
        error_of(encode_ints, [1, -2, 0], width) == f"-2 does not fit in {width} bits"


def test_decode_rejects_non_bits():
    # only packed Bits are read: text, even of '0' and '1', bytes and forged padding are refused
    for bits in ("0120", "01a1", "0 11", "0101", b"\x50", None, forged(b"\x51", 4), forged(b"\x50", 12)):
        with pytest.raises(ValueError):
            decode_array(bits, 2)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=5), length=st.integers(-9, 42))
@example(data=b"", length=0)
@example(data=b"\x80", length=1)
@example(data=b"\x81", length=8)
@example(data=b"\x40", length=1)
@example(data=b"", length=-3)
def test_bits_are_exactly_the_fewest_bytes_with_zero_padding(data, length):
    text = "".join(format(byte, "08b") for byte in data)
    canonical = length >= 0 and len(data) == -(-length // 8) and "1" not in text[length:]
    if not canonical:
        for make in (Bits, forged):
            with pytest.raises(ValueError, match="is not|packed"):
                check_bits(make(data, length))
        return
    bits = Bits(data, length)
    assert (len(bits), str(bits), int(bits)) == (length, text[:length], int(text[:length] or "0", 2))
    assert bits == packed(text[:length]) and bits.ones().tolist() == [i for i, c in enumerate(text) if c == "1"]
    assert Bits.of_ones(bits.ones(), length) == bits


def test_check_bits_names_the_type_and_the_length():
    assert error_of(check_bits, "0101", "a message") == "a message is packed Bits, not str"
    assert error_of(check_bits, packed("0101"), "a state", 5) == "a state is 5 bits, not 4"
    assert error_of(check_bits, forged(b"\x51", 4)) == "a bit string is not 4 bits in its fewest bytes with zero padding"
    check_bits(packed("0101"), "a state", 4)


def test_transcript_accepts_only_bits():
    tr = Transcript()
    tr.send("alice", packed("0101"))
    tr.send("bob", Bits(b"", 0))
    assert tr.total_bits == 4
    for bits in ("0101", "2", "01a", None, "0 1", 101, b"\x50", forged(b"\x51", 4), forged(b"\x50\x00", 4)):
        with pytest.raises(ValueError):
            tr.send("alice", bits)
    assert len(tr.messages) == 2


@pytest.mark.parametrize("length", [0, 1, ITER_CHUNK - 1, ITER_CHUNK, ITER_CHUNK + 1, 2 * ITER_CHUNK + 7])
def test_edge_block_iterates_its_pairs_a_chunk_at_a_time(length):
    gen = np.random.default_rng(length)
    us, vs = gen.integers(-2**62, 2**62, length), gen.integers(0, 50, length)
    block = EdgeBlock(us, vs)
    pairs = list(zip(us.tolist(), vs.tolist()))
    assert list(block) == pairs and all(type(u) is int and type(v) is int for u, v in block)
    assert block == pairs and block == tuple(pairs) and block == EdgeBlock.of(pairs)
    if length:
        assert block != pairs[:-1] and block != pairs[:-1] + [(pairs[-1][0], pairs[-1][1] + 1)]
    stream = EdgeStream(50, True, (("A", EdgeBlock(vs, vs)), ("B", EdgeBlock(vs[::-1], vs))))
    assert list(stream.edges()) == list(zip(vs.tolist(), vs.tolist())) + list(zip(vs[::-1].tolist(), vs.tolist()))


# --- breadth-first search ------------------------------------------------------

def bfs_reference(edges, start, directed):
    """The loop `StoreAll.result` ran before the shared kernel, with distances."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        if not directed:
            adj.setdefault(v, []).append(u)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


small_edges = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30)


@settings(max_examples=400, deadline=None)
@given(edges=small_edges, start=st.integers(0, 12), directed=st.booleans())
@example(edges=[], start=0, directed=True)
@example(edges=[], start=3, directed=False)
@example(edges=[(1, 2), (2, 1)], start=11, directed=True)  # no edge touches the start
@example(edges=[(0, 0), (0, 1), (0, 1), (1, 1), (2, 1)], start=0, directed=True)
@example(edges=[(0, 0), (0, 1), (0, 1), (1, 1), (2, 1)], start=0, directed=False)
def test_bfs_equals_the_loop_reference(edges, start, directed):
    expected = bfs_reference(edges, start, directed)
    assert bfs(edges, start, directed) == expected
    assert bfs(iter(edges), start, directed) == expected
    assert bfs(EdgeBlock.of(edges), start, directed) == expected  # the array entry point


# ids the CSR cannot index directly, so their ranks do: negative, and sparse up to the ends of int64
wide_ids = st.sampled_from([-2**63, -7, -1, 0, 3, 2**40, 2**63 - 1])


@settings(max_examples=300, deadline=None)
@given(edges=st.lists(st.tuples(wide_ids, wide_ids), max_size=20), start=wide_ids, directed=st.booleans())
@example(edges=[(0, 2**63 - 1), (2**63 - 1, -2**63), (-2**63, -2**63)], start=0, directed=True)
@example(edges=[(-7, -1), (-1, 3)], start=3, directed=False)
@example(edges=[(3, 3)], start=2**40, directed=True)  # the start is no edge's endpoint
def test_bfs_on_any_ids_equals_the_loop_reference(edges, start, directed):
    expected = bfs_reference(edges, start, directed)
    assert bfs(edges, start, directed) == expected
    assert bfs(EdgeBlock.of(edges), start, directed) == expected


@pytest.mark.parametrize("directed", [True, False])
def test_bfs_past_its_array_levels_equals_the_loop_reference(directed):
    # a spine longer than ARRAY_LEVELS, with chords and dead ends off it
    gen = random.Random(int(directed))
    spine = [(v, v + 1) for v in range(3 * ARRAY_LEVELS)]
    extra = [(gen.randrange(400), gen.randrange(400)) for _ in range(300)]
    edges = spine + extra
    gen.shuffle(edges)
    assert bfs(EdgeBlock.of(edges), 0, directed) == bfs_reference(edges, 0, directed)


@pytest.mark.parametrize("depth", [ARRAY_LEVELS - 1, ARRAY_LEVELS, ARRAY_LEVELS + 1])
@pytest.mark.parametrize("directed", [True, False])
def test_bfs_reaches_a_hub_by_many_edges_around_its_array_levels(depth, directed):
    # a spine to depth - 1, a fan of 40 vertices there, each with repeated
    # edges and a self-loop into one hub at `depth`, and a tail past the hub
    gen = random.Random(depth)
    spine = [(v, v + 1) for v in range(depth - 2)]
    fan = list(range(1000, 1040))
    hub = 2000
    edges = spine + [(depth - 2, f) for f in fan] + [(f, f) for f in fan] + [(f, hub) for f in fan] * 3
    edges += [(hub, hub), (hub, 2001), (2001, 2002), (2002, hub)]
    gen.shuffle(edges)
    expected = bfs_reference(edges, 0, directed)
    assert expected[hub] == depth
    assert bfs(EdgeBlock.of(edges), 0, directed) == expected
    assert bfs(edges, 0, directed) == expected


def test_bfs_stays_iterative_on_a_deep_path():
    n = 100_000
    block = EdgeBlock(np.arange(n - 1), np.arange(1, n))
    assert bfs(block, 0)[n - 1] == n - 1
    assert bfs(block, n - 1, directed=False)[0] == n - 1


def test_edge_block_is_its_pairs():
    block = EdgeBlock.of([(0, 1), (2, 3)])
    assert (block.us.dtype, block.vs.dtype) == (np.int64, np.int64)
    assert list(block) == [(0, 1), (2, 3)] and all(type(u) is int for u, _ in block)
    assert block == ((0, 1), (2, 3)) == block and block == [[0, 1], [2, 3]]
    assert block == EdgeBlock(np.array([0, 2]), np.array([1, 3]))
    assert block != ((0, 1),) and block != ((0, 1), (3, 2)) and block != EdgeBlock.of(((0, 1),))
    assert block != "ab" and block != 5 and block != ((0, 1, 2),)
    assert EdgeBlock.of(()) == () and len(EdgeBlock.of(())) == 0
    assert EdgeBlock.of(iter([(0, 2**63 - 1), (-2**63, 1)])) == ((0, 2**63 - 1), (-2**63, 1))
    assert EdgeBlock(np.array([2**63 - 1], np.uint64), [0]).us.dtype == np.int64
    with pytest.raises(ValueError):
        EdgeBlock(np.arange(3), np.arange(2))
    assert EdgeBlock.of([(1, 2, 3), (4, 5, 6)]) == ((1, 2), (3, 4), (5, 6))  # read as a flat run of ids


def test_edge_block_refuses_what_is_not_an_int64_id():
    # each once became a wrong edge: a float64 cast, a uint64 wrap, a truncated float
    big = "vertex ids are int64, not 9223372036854775808"
    probes = [
        (big, lambda: EdgeBlock([1, 2**63], [0, 0])),
        (big, lambda: EdgeBlock([2**63], [1])),
        ("vertex ids are int64, not 0.7", lambda: EdgeBlock([0.7], [1])),
        (big, lambda: EdgeStream(3, True, (("A", EdgeBlock([1, 2**63], [0, 0])),))),
        ("vertex ids are int64, not -9223372036854775809", lambda: EdgeBlock([0], [-2**63 - 1])),
        ("vertex ids are int64, not dtype('bool')", lambda: EdgeBlock([True], [False])),
    ]
    for message, build in probes:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    for pairs in ([(0, 1), (2**63, 0)], [(0, 1), (-2**63 - 1, 0)], [(0, 0.7)], [("1", 2)]):
        for edges in (pairs, iter(pairs)):
            with pytest.raises(ValueError, match="^vertex ids are int64: "):
                EdgeBlock.of(edges)


def test_importing_streamlb_loads_no_scipy():
    code = f"import sys; sys.path.insert(0, {str(Path(streamlb.__file__).parents[1])!r}); import streamlb; " \
           "sys.exit(2 if 'scipy' in sys.modules else 0)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


def test_decode_at_width_zero_takes_only_the_empty_string():
    assert decode_array(packed(""), 0).tolist() == []
    for bits in ("101", "0", "1111"):
        with pytest.raises(ValueError, match="0-bit fields"):
            decode_array(packed(bits), 0)


@pytest.mark.parametrize("width", [0, 3, 70])
def test_decode_rejects_text_at_every_width(width):
    # int(..., 2) alone would read "1_0", " 10" and "0b1"; no field is wider than 64 bits
    if width > 64:
        with pytest.raises(ValueError, match="at most 64 bits"):
            decode_array(packed("10" * width), width)
        return
    for bits in ("1_0", " 10", "0b1", "1é0", "101"):
        with pytest.raises(ValueError, match="^a bit string is packed Bits, not str$"):
            decode_array(bits * max(width, 1), width)  # a multiple of the width
