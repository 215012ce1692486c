import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamlb
from streamlb.common import EdgeBlock, bfs, decode_ints, encode_int, encode_ints, is_bit_string
from streamlb.protocols import Transcript


def encode_ints_reference(values, width):
    """The string-at-a-time form the packed encoder must reproduce."""
    return "".join(encode_int(v, width) for v in values)


def decode_ints_reference(bits, width):
    if width == 0:
        return []
    if len(bits) % width:
        raise ValueError("bit string length is not a multiple of the field width")
    return [int(bits[i : i + width], 2) for i in range(0, len(bits), width)]


def error_of(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("width", range(0, 71))  # widths above 64 take the exact-int path
def test_encode_decode_equal_string_reference(width):
    gen = random.Random(width)
    top = (1 << width) - 1
    values = [0, top, top, 0] + [gen.getrandbits(width) for _ in range(60)]
    bits = encode_ints_reference(values, width)
    assert encode_ints(values, width) == bits
    assert encode_ints((v for v in values), width) == bits  # generators, as intersection_protocol passes
    assert encode_ints([], width) == "" == encode_ints(iter(()), width)
    assert decode_ints(bits, width) == decode_ints_reference(bits, width)
    if width:
        assert decode_ints(bits, width) == values
    assert decode_ints("", width) == []


@pytest.mark.parametrize("width", [0, 1, 5, 14, 62, 63, 64, 70])
def test_encode_decode_raise_the_reference_errors(width):
    for values in ([1 << width], [0, 1, -1], [3, (1 << width) + 5, -2], [-(1 << 70)], [1 << 70]):
        expected = error_of(encode_ints_reference, values, width)
        assert error_of(encode_ints, values, width) == expected
        assert error_of(encode_ints, iter(values), width) == expected
    if width > 1:
        bits = "0" * (3 * width + 1)
        assert error_of(decode_ints, bits, width) == error_of(decode_ints_reference, bits, width)


def test_decode_rejects_non_bits():
    for bits in ("0120", "01a1", "0 11"):
        with pytest.raises(ValueError):
            decode_ints(bits, 2)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("01?2 \x00é"), max_size=12) | st.binary(max_size=4)
       | st.none() | st.integers())
@example("")
@example("0?1")
@example("1é")
@example(b"01")
def test_is_bit_string_equals_the_set_reference(bits):
    assert is_bit_string(bits) == (isinstance(bits, str) and set(bits) <= {"0", "1"})


def test_transcript_accepts_only_bit_strings():
    tr = Transcript()
    tr.send("alice", "0101")
    tr.send("bob", "")
    assert tr.total_bits == 4
    for bits in ("2", "01a", None, "0 1", 101):
        with pytest.raises(ValueError):
            tr.send("alice", bits)
    assert len(tr.messages) == 2


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


# ids the CSR cannot index directly: negative, sparse, and beyond int64 (object arrays)
wide_ids = st.sampled_from([-7, -1, 0, 3, 2**40, 2**63 - 1, 2**63, 10**20])


@settings(max_examples=300, deadline=None)
@given(edges=st.lists(st.tuples(wide_ids, wide_ids), max_size=20), start=wide_ids, directed=st.booleans())
@example(edges=[(0, 2**63), (2**63, 10**20), (10**20, 10**20)], start=0, directed=True)
@example(edges=[(-7, -1), (-1, 3)], start=3, directed=False)
@example(edges=[(3, 3)], start=2**40, directed=True)  # the start is no edge's endpoint
def test_bfs_on_any_ids_equals_the_loop_reference(edges, start, directed):
    expected = bfs_reference(edges, start, directed)
    assert bfs(edges, start, directed) == expected
    assert bfs(EdgeBlock.of(edges), start, directed) == expected


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
    huge = EdgeBlock.of([(0, 2**63), (10**20, 1)])
    assert huge.us.dtype == object and list(huge) == [(0, 2**63), (10**20, 1)]
    with pytest.raises(ValueError):
        EdgeBlock(np.arange(3), np.arange(2))


def test_importing_streamlb_loads_no_scipy():
    code = f"import sys; sys.path.insert(0, {str(Path(streamlb.__file__).parents[1])!r}); import streamlb; " \
           "sys.exit(2 if 'scipy' in sys.modules else 0)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


def test_decode_at_width_zero_takes_only_the_empty_string():
    assert decode_ints("", 0) == []
    for bits in ("101", "0", "1111"):
        with pytest.raises(ValueError, match="0-bit fields"):
            decode_ints(bits, 0)


@pytest.mark.parametrize("width", [0, 3, 70])
def test_decode_rejects_non_bits_at_every_width(width):
    # int(..., 2) alone would read "1_0", " 10" and "0b1" on the exact-int path
    for bits in ("1_0", " 10", "0b1", "1é0"):
        with pytest.raises(ValueError, match="only '0' and '1'"):
            decode_ints(bits * max(width, 1), width)  # a multiple of the width
