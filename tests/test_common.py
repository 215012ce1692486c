import random

import pytest

from streamlb.common import decode_ints, encode_int, encode_ints
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


def test_transcript_accepts_only_bit_strings():
    tr = Transcript()
    tr.send("alice", "0101")
    tr.send("bob", "")
    assert tr.total_bits == 4
    for bits in ("2", "01a", None, "0 1", 101):
        with pytest.raises(ValueError):
            tr.send("alice", bits)
    assert len(tr.messages) == 2
