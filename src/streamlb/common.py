"""Shared primitives: verification reports, budget errors, edge blocks,
breadth-first search, bit-string encoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

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


def id_array(ids) -> np.ndarray:
    """Integer ids as one array: int64, or object (exact Python ints) once an id outgrows int64."""
    ids = ids if isinstance(ids, list) else list(ids)
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


class EdgeBlock:
    """A run of edges (us[i], vs[i]) as two id arrays, typed as `id_array` types
    them. It iterates as (u, v) pairs of ints; `==` holds against a block or
    any sequence of pairs with the same edges in the same order."""

    __slots__ = ("us", "vs")

    def __init__(self, us, vs):
        us, vs = (a if a.dtype == object else a.astype(np.int64, copy=False) for a in map(np.asarray, (us, vs)))
        if us.ndim != 1 or us.shape != vs.shape:
            raise ValueError("an edge block is two id arrays of one length")
        self.us, self.vs = us, vs

    @classmethod
    def of(cls, edges) -> EdgeBlock:
        """`edges` itself if it is a block, else its (u, v) pairs as one."""
        if isinstance(edges, EdgeBlock):
            return edges
        ids = id_array(chain.from_iterable(edges))
        return cls(ids[0::2], ids[1::2])

    @classmethod
    def join(cls, blocks) -> EdgeBlock:
        """The blocks' edges, block after block, as one block."""
        blocks = list(blocks) or [cls((), ())]
        return cls(np.concatenate([b.us for b in blocks]), np.concatenate([b.vs for b in blocks]))

    def __len__(self) -> int:
        return len(self.us)

    def __iter__(self):
        return zip(self.us.tolist(), self.vs.tolist())

    def __eq__(self, other):
        if isinstance(other, EdgeBlock):
            return np.array_equal(self.us, other.us) and np.array_equal(self.vs, other.vs)
        try:
            return list(self) == [tuple(e) for e in other]
        except TypeError:
            return NotImplemented


def bfs(edges, start: int, directed: bool = True) -> dict[int, int]:
    """Hop distance from `start` to every vertex it reaches, `start` included,
    over `edges` (an `EdgeBlock` or any (u, v) pairs), both ways if undirected.

    One CSR build, then a queue over Python lists: linear in the edges at any
    depth. Ids index the CSR when they lie in [0, 2·|edges|], else their ranks do.
    """
    block = EdgeBlock.of(edges)
    us, vs = block.us, block.vs
    if not directed:
        us, vs = np.concatenate((us, vs)), np.concatenate((vs, us))
    k = len(us)
    if not k:
        return {start: 0}
    ids = None
    if us.dtype == object or vs.dtype == object or not (
            0 <= min(us.min(), vs.min(), start) and max(us.max(), vs.max(), start) <= 2 * k):
        ids, ranks = np.unique(np.concatenate((us, vs, id_array([start]))), return_inverse=True)
        us, vs, start = ranks[:k], ranks[k : 2 * k], int(ranks[-1])
    n = max(int(us.max()), int(vs.max()), start) + 1
    dst = vs[np.argsort(us)].tolist()
    ptr = [0] + np.cumsum(np.bincount(us, minlength=n)).tolist()
    dist = {start: 0}
    queue = [start]
    for u in queue:  # the queue grows while it is read
        hops = dist[u] + 1
        for v in dst[ptr[u] : ptr[u + 1]]:
            if v not in dist:
                dist[v] = hops
                queue.append(v)
    if ids is None:
        return dist
    return dict(zip(ids[list(dist)].tolist(), dist.values()))


# --- bit strings -----------------------------------------------------------
#
# Messages and serialized algorithm states are strings over {0,1}; space and
# communication are measured as their length.

def is_bit_string(bits) -> bool:
    """Whether `bits` is a str over {'0', '1'}, read in one pass."""
    # a non-ASCII character becomes '?', which the deletion keeps
    return isinstance(bits, str) and not bits.encode("ascii", "replace").translate(None, b"01")


def int_width(max_value: int) -> int:
    """Bits needed to write any integer in [0, max_value]."""
    if max_value < 0:
        raise ValueError("max_value must be nonnegative")
    return max(1, math.ceil(math.log2(max_value + 1))) if max_value > 0 else 0


@lru_cache(maxsize=4096)
def encode_int(value: int, width: int) -> str:
    if value < 0 or (width < value.bit_length()):
        raise ValueError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width > 0 else ""


def encode_ints(values, width: int) -> str:
    """Concatenate the `width`-bit forms of nonnegative integers (any iterable)."""
    values = list(values)
    if values and (min(values) < 0 or max(values).bit_length() > width):
        bad = next(v for v in values if v < 0 or v.bit_length() > width)
        raise ValueError(f"{bad} does not fit in {width} bits")
    if not values or width == 0:
        return ""
    if width > 64:  # beyond uint64: one exact Python int per value
        return "".join(format(v, f"0{width}b") for v in values)
    octets = np.array(values, dtype=">u8").view(np.uint8).reshape(-1, 8)
    digits = np.unpackbits(octets, axis=1)[:, 64 - width :]
    digits += ord("0")
    return digits.tobytes().decode("ascii")


def decode_ints(bits: str, width: int) -> list[int]:
    """Split a concatenation of `width`-bit fields back into its integers."""
    if not is_bit_string(bits):
        raise ValueError("bit strings hold only '0' and '1'")
    if width == 0:
        if bits:
            raise ValueError("0-bit fields concatenate only to the empty string")
        return []
    if len(bits) % width:
        raise ValueError("bit string length is not a multiple of the field width")
    if width > 64:
        return [int(bits[i : i + width], 2) for i in range(0, len(bits), width)]
    # right-align each field in 64 bits and read the rows as big-endian words
    padded = np.zeros((len(bits) // width, 64), dtype=np.uint8)
    digits = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    padded[:, 64 - width :] = digits.reshape(-1, width)
    return np.packbits(padded, axis=1).view(">u8").ravel().tolist()
