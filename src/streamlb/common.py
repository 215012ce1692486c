"""Shared primitives: verification reports, budget errors, edge blocks,
breadth-first search, packed bit strings and their codec."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import index

import numpy as np


class BudgetError(RuntimeError):
    """An operation exceeded its configured enumeration or message budget."""


@dataclass(frozen=True)
class Report:
    """Outcome of a verification pass: ok plus the first violation found."""

    ok: bool
    reason: str | None = None
    detail: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def ok_report(**detail) -> Report:
    return Report(True, None, detail)


def fail_report(reason: str, **detail) -> Report:
    return Report(False, reason, detail)


_INT64 = np.iinfo(np.int64)


def _int64_ids(ids) -> np.ndarray:
    """`ids` as an int64 array; any value that is not an int within int64 raises."""
    array = np.asarray(ids)
    kind = array.dtype.kind
    if kind == "i" or not array.size or (kind == "u" and array.max() <= _INT64.max):
        return array.astype(np.int64, copy=False)
    values = ids.tolist() if isinstance(ids, np.ndarray) else ids
    bad = next((x for x in values if not (isinstance(x, (int, np.integer)) and _INT64.min <= x <= _INT64.max)),
               array.dtype)
    raise ValueError(f"vertex ids are int64, not {bad!r}")


ITER_CHUNK = 4096  # edges an `EdgeBlock` turns into Python ints at a time as it iterates


class EdgeBlock:
    """A run of edges (us[i], vs[i]) as two int64 id arrays; anything else is
    refused. It iterates as (u, v) pairs of ints; `==` holds against a block or
    any sequence of pairs with the same edges in the same order."""

    __slots__ = ("us", "vs")

    def __init__(self, us, vs):
        us, vs = _int64_ids(us), _int64_ids(vs)
        if us.ndim != 1 or us.shape != vs.shape:
            raise ValueError("an edge block is two id arrays of one length")
        self.us, self.vs = us, vs

    @classmethod
    def of(cls, edges) -> EdgeBlock:
        """`edges` itself if it is a block, else its (u, v) pairs as one, read
        as a flat run of ids by one `np.fromiter` of their `operator.index`."""
        if isinstance(edges, EdgeBlock):
            return edges
        try:
            ids = np.fromiter(map(index, chain.from_iterable(edges)), dtype=np.int64)
        except (OverflowError, TypeError) as exc:
            raise ValueError(f"vertex ids are int64: {exc}") from None
        return cls(ids[0::2], ids[1::2])

    @classmethod
    def join(cls, blocks) -> EdgeBlock:
        """The blocks' edges, block after block, as one block."""
        blocks = list(blocks) or [cls((), ())]
        return cls(np.concatenate([b.us for b in blocks]), np.concatenate([b.vs for b in blocks]))

    def __len__(self) -> int:
        return len(self.us)

    def __iter__(self):
        return chain.from_iterable(zip(self.us[i : i + ITER_CHUNK].tolist(), self.vs[i : i + ITER_CHUNK].tolist())
                                   for i in range(0, len(self.us), ITER_CHUNK))

    def __eq__(self, other):
        if isinstance(other, EdgeBlock):
            return np.array_equal(self.us, other.us) and np.array_equal(self.vs, other.vs)
        try:
            return list(self) == [tuple(e) for e in other]
        except TypeError:
            return NotImplemented


ARRAY_LEVELS = 64  # BFS levels expanded as arrays; a deeper search goes on vertex by vertex


def bfs(edges, start: int, directed: bool = True) -> dict[int, int]:
    """Hop distance from `start` to every vertex it reaches, `start` included,
    over `edges` (an `EdgeBlock` or any (u, v) pairs), both ways if undirected.

    One CSR build over int64 arrays: a stable sort of the tails (a radix sort
    of uint16 keys when the ids fit) puts each vertex's heads in one run. The
    first ARRAY_LEVELS levels are each one gather of the frontier's runs; the
    heads not yet reached, kept once each by a scatter of their positions, are
    the next frontier. Past them (a deep graph) a queue over Python lists
    takes the rest, so the search is linear in the edges at any depth. Ids
    index the CSR when they lie in [0, 2·|edges|], else their ranks do.
    """
    block = EdgeBlock.of(edges)
    us, vs = block.us, block.vs
    if not directed:
        us, vs = np.concatenate((us, vs)), np.concatenate((vs, us))
    k = len(us)
    if not k:
        return {start: 0}
    ids = None
    if not (0 <= min(us.min(), vs.min(), start) and max(us.max(), vs.max(), start) <= 2 * k):
        ids, ranks = np.unique(np.concatenate((us, vs, _int64_ids([start]))), return_inverse=True)
        us, vs, start = ranks[:k], ranks[k : 2 * k], int(ranks[-1])
    n = max(int(us.max()), int(vs.max()), start) + 1
    dst = vs[np.argsort(us.astype(np.uint16) if n <= 1 << 16 else us, kind="stable")]
    ptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(us, minlength=n), out=ptr[1:])
    dist = np.full(n, -1, np.int64)
    dist[start] = 0
    where = np.empty(n, np.int64)  # a vertex's last position among a level's new heads
    frontier = np.array([start])
    for hops in range(1, ARRAY_LEVELS + 1):
        lo, runs = ptr[frontier], ptr[frontier + 1] - ptr[frontier]
        # slot p, in run r, reads dst[lo[r] + p - (the slots before run r)]
        slots = np.arange(runs.sum()) + np.repeat(lo - np.cumsum(runs) + runs, runs)
        heads = dst[slots]
        heads = heads[dist[heads] < 0]
        if not len(heads):
            break
        at = np.arange(len(heads))
        where[heads] = at
        frontier = heads[where[heads] == at]
        dist[frontier] = hops
    else:
        dst, ptr, dist = dst.tolist(), ptr.tolist(), dist.tolist()
        queue = frontier.tolist()
        for u in queue:  # the queue grows while it is read
            hops = dist[u] + 1
            for v in dst[ptr[u] : ptr[u + 1]]:
                if dist[v] < 0:
                    dist[v] = hops
                    queue.append(v)
        dist = np.array(dist)
    reached = np.flatnonzero(dist >= 0)
    return dict(zip((reached if ids is None else ids[reached]).tolist(), dist[reached].tolist()))


# --- bit strings -----------------------------------------------------------
#
# Messages and serialized algorithm states are `Bits`; space and communication
# are measured as their bit length. The '0'/'1' text (`str`) is made only where
# a message is printed, written or hashed.

@dataclass(frozen=True, slots=True)
class Bits:
    """`length` bits packed big-endian into `data`, the fewest bytes that hold
    them, padding bits zero; construction refuses anything else. `len` is the
    bit length, `int` the value and `str` the '0'/'1' text."""

    data: bytes
    length: int

    def __post_init__(self):
        check_bits(self)

    @classmethod
    def of_ones(cls, ones: np.ndarray, length: int) -> Bits:
        """`length` bits, one exactly at each of the positions `ones`."""
        data = np.zeros(-(-length // 8), np.uint8)
        np.bitwise_or.at(data, ones >> 3, (0x80 >> (ones & 7)).astype(np.uint8))
        return cls(data.tobytes(), length)

    def ones(self) -> np.ndarray:
        """The positions of the set bits, ascending, read from the nonzero bytes only."""
        data = np.frombuffer(self.data, np.uint8)
        at = np.flatnonzero(data)
        rows, cols = np.nonzero(np.unpackbits(data[at]).reshape(-1, 8))
        return at[rows] * 8 + cols

    def __len__(self) -> int:
        return self.length

    def __int__(self) -> int:
        return int.from_bytes(self.data, "big") >> (-self.length % 8)

    def __str__(self) -> str:
        return format(int(self), f"0{self.length}b") if self.length else ""


def check_bits(bits, what: str = "a bit string", length: int | None = None):
    """Refuse anything but `Bits` whose bytes hold exactly its length with zero
    padding, and, given `length`, of any other length: a check of the type, the
    byte count and the last byte, whatever the length."""
    if not isinstance(bits, Bits):
        raise ValueError(f"{what} is packed Bits, not {type(bits).__name__}")
    if length is not None and bits.length != length:
        raise ValueError(f"{what} is {length} bits, not {bits.length}")
    if bits.length < 0 or len(bits.data) != -(-bits.length // 8) \
            or bits.data and bits.data[-1] & 0xFF >> (bits.length % 8 or 8):  # a padding bit
        raise ValueError(f"{what} is not {bits.length} bits in its fewest bytes with zero padding")


def int_width(max_value: int) -> int:
    """Bits needed to write any integer in [0, max_value]."""
    if max_value < 0:
        raise ValueError("max_value must be nonnegative")
    return index(max_value).bit_length()


def _check_width(width: int):
    if width > 64:
        raise ValueError(f"a packed field is at most 64 bits, not {width}")


ENCODE_CHUNK = 1 << 13  # values packed at a time; a multiple of 8, so each chunk but the last ends on a byte


def encode_ints(values, width: int) -> Bits:
    """Concatenate the `width`-bit forms of nonnegative integers, width <= 64.

    `values` is any iterable of ints or an integer array. The values pass as
    uint64 arrays of ENCODE_CHUNK at a time: each value is shifted to the top
    of its big-endian word, whose first `width` bits are unpacked and packed
    again, so an array argument is never turned into Python ints and
    no array holds a byte per bit of more than one chunk. The first value
    that does not fit raises, as in the string-at-a-time form.
    """
    _check_width(width)
    if isinstance(values, np.ndarray) and values.dtype.kind in "ui":
        bad = values < 0
        if width < 64:
            bad |= (values.astype(np.uint64) >> np.uint64(width)) != 0
        if bad.any():
            raise ValueError(f"{values[np.argmax(bad)]} does not fit in {width} bits")
    else:
        values = list(values)
        if values and (min(values) < 0 or max(values).bit_length() > width):
            bad = next(v for v in values if v < 0 or v.bit_length() > width)
            raise ValueError(f"{bad} does not fit in {width} bits")
    shift = np.uint64(64 - width)  # each field to the top of its big-endian word
    chunks = (np.asarray(values[i : i + ENCODE_CHUNK], dtype=np.uint64)[:, None] << shift
              for i in range(0, len(values), ENCODE_CHUNK))
    return Bits(b"".join(np.packbits(np.unpackbits(top.astype(">u8").view(np.uint8), axis=1, count=width)).tobytes()
                         for top in chunks), width * len(values))


def decode_array(bits: Bits, width: int) -> np.ndarray:
    """Split a concatenation of `width`-bit fields, width <= 64, into a uint64
    array of their integers.

    Every eighth field starts at the same bit of its byte, w bytes after the
    last, so each of the eight classes is read from the packed bytes in one
    strided pass: the nine bytes from a field's first, shifted into place.
    """
    _check_width(width)
    check_bits(bits)
    if width == 0:
        if len(bits):
            raise ValueError("0-bit fields concatenate only to the empty string")
        return np.zeros(0, np.uint64)
    if len(bits) % width:
        raise ValueError("bit string length is not a multiple of the field width")
    packed = np.concatenate((np.frombuffer(bits.data, dtype=np.uint8), np.zeros(9, dtype=np.uint8)))
    values = np.empty(len(bits) // width, dtype=np.uint64)
    for first in range(min(8, len(values))):
        start, skip = divmod(first * width, 8)  # field 8q + first starts at bit `skip` of byte start + q·w
        count = len(range(first, len(values), 8))
        word = np.ndarray(count, ">u8", packed, start, (width,)).astype(np.uint64)
        spill = np.ndarray(count, np.uint8, packed, start + 8, (width,)).astype(np.uint64)
        values[first::8] = (word << np.uint64(skip) | spill >> np.uint64(8 - skip)) >> np.uint64(64 - width)
    return values
