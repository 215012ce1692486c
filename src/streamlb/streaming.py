"""Multi-pass streaming execution with bit-level space accounting.

Algorithms see edges strictly in stream order, once per pass, a segment at a time
(`process_block`), and are checkpointed at segment boundaries and pass ends by the
length of their serialized dynamic state; the longest checkpoint is the run's space figure.
`state_bits` gives that length without building the bit string.
Serialization must round-trip through `restore`, which is what lets the
communication simulation hand a computation across players mid-pass.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .common import EdgeBlock, bfs, decode_ints, encode_int, encode_ints, id_array, int_width, is_bit_string
from .instances import EdgeStream


class StreamAlgorithm:
    """Contract for streaming algorithms run by this harness.

    `start` binds the instance context (n, directed, s, t), enters pass 1 and
    calls `reset`, which each algorithm writes to clear its own state;
    `restore(bits, p)` overwrites the dynamic state with a previously
    serialized checkpoint taken during pass p. Pass bookkeeping calls arrive
    only at true pass boundaries. `state_bits()` must equal
    `len(serialize())` in every state.
    """

    name = "algorithm"
    passes_needed = 1

    def start(self, n: int, directed: bool, s: int, t: int):
        self.n, self.directed, self.s, self.t = n, directed, s, t
        self._pass = 1
        self.reset()

    def reset(self):
        raise NotImplementedError

    def begin_pass(self, p: int):
        self._pass = p

    def process(self, u: int, v: int):
        raise NotImplementedError

    def process_block(self, us, vs):
        """The edges (us[i], vs[i]) in order, one `process` call each; an
        override must leave the same state, and raise the same error."""
        for u, v in zip(us.tolist(), vs.tolist()):
            self.process(u, v)

    def end_pass(self, p: int):
        pass

    def serialize(self) -> str:
        raise NotImplementedError

    def state_bits(self) -> int:
        return len(self.serialize())

    def restore(self, bits: str, pass_index: int):
        raise NotImplementedError

    def result(self):
        raise NotImplementedError


def _check_state(name: str, bits: str, length: int | None = None):
    """Reject a state no `serialize()` could have written: a non-bit, or the wrong length."""
    if not is_bit_string(bits):
        raise ValueError(f"{name}: a serialized state holds only '0' and '1'")
    if length is not None and len(bits) != length:
        raise ValueError(f"{name}: a serialized state is {length} bits, not {len(bits)}")


# --- edge lists as packed keys -------------------------------------------------
#
# An edge (u, v) between w-bit vertex ids is the 2w-bit key u << w | v. The
# 2w-bit form of the key is the w-bit form of u followed by that of v, and keys
# sort as their pairs do lexicographically, so a sorted key list encodes to the
# same bits as the sorted pair list.

def _bad_endpoint(u: int, v: int, n: int, width: int) -> ValueError:
    """The error for an edge with an endpoint outside [0, n); n <= 2^width."""
    bad = v if 0 <= u < n else u
    if bad < 0 or bad >> width:
        return ValueError(f"{bad} does not fit in {width} bits")
    return ValueError(f"{bad} is not a vertex of [0, {n})")


def _outside(us, vs, n: int) -> bool:
    """Whether a block's id arrays hold an id outside [0, n)."""
    return len(us) > 0 and bool(min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n)


def _key_array(keys, width: int) -> np.ndarray:
    """Keys as one array: uint64 while 2w <= 64, exact Python ints beyond."""
    return np.fromiter(keys, dtype=np.uint64 if 2 * width <= 64 else object, count=len(keys))


def _key_block(array: np.ndarray, width: int) -> EdgeBlock:
    """The (u, v) pairs of a key array, split on the array rather than per key."""
    return EdgeBlock(array >> width, array & ((1 << width) - 1))


def _decode_keys(name: str, bits: str, n: int, width: int) -> np.ndarray:
    """The key array of a serialized edge list, refusing any `serialize()`
    cannot write: keys not strictly increasing, or an endpoint outside [0, n)."""
    keys = decode_ints(bits, 2 * width)
    array = _key_array(keys, width)
    if (array[1:] <= array[:-1]).any():
        raise ValueError(f"{name}: serialized edge keys are not strictly increasing")
    if len(keys) and max((array >> width).max(), (array & ((1 << width) - 1)).max()) >= n:
        raise ValueError(f"{name}: a serialized edge has an endpoint outside [0, {n})")
    return array


class EdgeCounter(StreamAlgorithm):
    """Counts the stream's edges during the first pass; state is one integer."""

    name = "edge-count"

    def reset(self):
        self.count = 0

    def process(self, u, v):
        if self._pass == 1:
            self.count += 1

    def serialize(self) -> str:
        return format(self.count, "b") if self.count else ""

    def restore(self, bits, pass_index):
        _check_state(self.name, bits)
        if bits.startswith("0"):
            raise ValueError(f"{self.name}: a serialized count has no leading zero")
        self.count = int(bits, 2) if bits else 0
        self._pass = pass_index

    def result(self):
        return self.count


class StoreAll(StreamAlgorithm):
    """Stores every edge, then answers s-t reachability offline: the trivial upper bound.

    The state is the distinct edges as packed keys `u << w | v`, w = int_width(n - 1):
    a sorted array after blocks and restores, a set after `process`. Serialized, it is
    the sorted keys in 2w bits each, bit for bit the sorted (u, v) pairs in w bits per
    endpoint; `restore` refuses keys not strictly increasing or naming a vertex outside [0, n).
    """

    name = "store-all"

    def reset(self):
        self.width = int_width(self.n - 1)
        self.stored = _key_array((), self.width)
        self.keys: set[int] = set()  # empty unless `stored` is

    def process(self, u, v):
        if self._pass == 1:
            n = self.n
            if not (0 <= u < n and 0 <= v < n):
                raise _bad_endpoint(u, v, n, self.width)
            if len(self.stored):  # an edge at a time, the set holds every key
                self.keys, self.stored = set(self.stored.tolist()), self.stored[:0]
            self.keys.add(u << self.width | v)

    def process_block(self, us, vs):
        """Pass 1 keys the block at once while its ids are vertices and keys
        fit int64; otherwise per edge, so an error names the same first edge."""
        if self._pass != 1 or not len(us):
            return
        if us.dtype == object or vs.dtype == object or 2 * self.width > 63 or _outside(us, vs, self.n):
            return super().process_block(us, vs)
        self.stored, self.keys = self._all_keys((us << self.width | vs).astype(np.uint64)), set()

    def _all_keys(self, *more) -> np.ndarray:
        """Every distinct key, sorted, with the key arrays `more` merged in."""
        keys = np.sort(np.concatenate((self.stored, _key_array(self.keys, self.width), *more)))
        return np.delete(keys, np.flatnonzero(keys[1:] == keys[:-1]) + 1)  # np.unique hashes: slower

    def serialize(self) -> str:
        return encode_ints(self._all_keys().tolist(), 2 * self.width)

    def state_bits(self) -> int:
        return 2 * self.width * (len(self.stored) + len(self.keys))

    def restore(self, bits, pass_index):
        self.stored, self.keys = _decode_keys(self.name, bits, self.n, self.width), set()
        self._pass = pass_index

    def result(self):
        return self.t in bfs(_key_block(self._all_keys(), self.width), self.s, self.directed)


class BfsFrontier(StreamAlgorithm):
    """One frontier expansion per pass: after pass j the set of vertices
    within j hops of s is known. Three-valued answer; `unknown` is exactly the
    few-pass limitation made observable. An edge with an endpoint outside [0, n) is refused."""

    name = "bfs-frontier"

    def __init__(self, passes: int = 2):
        if passes < 1:
            raise ValueError("bfs-frontier needs at least one pass")
        if passes >= 1 << 16:
            raise ValueError("the hop counter is serialized in 16 bits")
        self.passes_needed = passes

    def reset(self):
        self.reached = {self.s}
        self.additions: set[int] = set()
        self.exhausted = False
        self.hops = 0

    def begin_pass(self, p):
        self._pass = p
        self.additions = set()

    def process(self, u, v):
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise _bad_endpoint(u, v, n, int_width(n - 1))
        if u in self.reached:
            self.additions.add(v)
        if not self.directed and v in self.reached:
            self.additions.add(u)

    def process_block(self, us, vs):
        """One gather: the heads of the block's edges whose tail is reached;
        per edge when an id is outside [0, n), so an error names the same first edge."""
        if _outside(us, vs, self.n):
            return super().process_block(us, vs)
        reached = id_array(self.reached)
        self.additions.update(vs[np.isin(us, reached)].tolist())
        if not self.directed:
            self.additions.update(us[np.isin(vs, reached)].tolist())

    def end_pass(self, p):
        grew = bool(self.additions - self.reached)
        self.reached |= self.additions
        self.additions = set()
        self.hops += 1
        if not grew:
            self.exhausted = True

    def serialize(self) -> str:
        if 17 + 2 * self.n > sys.maxsize:
            raise ValueError(f"{self.name}: a {17 + 2 * self.n}-bit state is longer than any string")
        bitmap = ["0"] * self.n
        for v in self.reached:
            bitmap[v] = "1"
        adds = ["0"] * self.n
        for v in self.additions:
            adds[v] = "1"
        flags = "1" if self.exhausted else "0"
        return encode_int(self.hops, 16) + flags + "".join(bitmap) + "".join(adds)

    def state_bits(self) -> int:
        return 17 + 2 * self.n

    def restore(self, bits, pass_index):
        _check_state(self.name, bits, 17 + 2 * self.n)
        self.hops = int(bits[:16], 2)
        self.exhausted = bits[16] == "1"
        body = bits[17:]
        self.reached = {i for i, c in enumerate(body[: self.n]) if c == "1"}
        self.additions = {i for i, c in enumerate(body[self.n : 2 * self.n]) if c == "1"}
        self._pass = pass_index

    def result(self):
        if self.t in self.reached:
            return True
        if self.exhausted:
            return False
        return "unknown"


class SpanningForest(StreamAlgorithm):
    """Union-find over an undirected stream; state is the forest's edge list.

    Forest edges are packed keys `u << w | v`, as in `StoreAll`, and serialize
    the same way: sorted keys in 2w bits each, the bits of the sorted pairs.
    `restore` replays union-find over the decoded edges and refuses, besides
    what store-all refuses, an edge that joins no two components.
    """

    name = "spanning-forest"

    def reset(self):
        if self.directed:
            raise ValueError("spanning forest needs an undirected stream")
        self.width = int_width(self.n - 1)
        self.parent = list(range(self.n))
        self.forest: list[int] = []

    def _find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def process(self, u, v):
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise _bad_endpoint(u, v, n, self.width)
        ru, rv = self._find(u), self._find(v)
        if ru != rv:
            self.parent[ru] = rv
            self.forest.append(u << self.width | v)

    def serialize(self) -> str:
        return encode_ints(np.sort(_key_array(self.forest, self.width)).tolist(), 2 * self.width)

    def state_bits(self) -> int:
        return 2 * self.width * len(self.forest)

    def restore(self, bits, pass_index):
        keys = _decode_keys(self.name, bits, self.n, self.width)
        self.parent = list(range(self.n))
        self.forest = []
        for u, v in _key_block(keys, self.width):
            self.process(u, v)
        if len(self.forest) != len(keys):
            raise ValueError(f"{self.name}: a serialized edge joins no two components")
        self._pass = pass_index

    def result(self):
        return self._find(self.s) == self._find(self.t)


def _mix64(x: int) -> int:
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 % (1 << 64)
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB % (1 << 64)
    return x ^ (x >> 31)


class XorSketch(StreamAlgorithm):
    """Seeded 64-bit xor sketch of the first-pass edge multiset."""

    name = "xor-sketch"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def reset(self):
        self.acc = 0
        self.count = 0

    def process(self, u, v):
        if self._pass == 1:
            self.acc ^= _mix64((u << 24) ^ v ^ (self.seed << 48) % (1 << 63))
            self.count += 1

    def serialize(self) -> str:
        return encode_int(self.acc, 64) + encode_int(self.count, 32)

    def restore(self, bits, pass_index):
        _check_state(self.name, bits, 96)
        self.acc = int(bits[:64], 2)
        self.count = int(bits[64:96], 2)
        self._pass = pass_index

    def result(self):
        return (self.acc, self.count)


@dataclass(frozen=True)
class StreamRun:
    algorithm: str
    passes_used: int
    checkpoints: tuple  # ((label, state bits), ...)
    max_state_bits: int
    output: object
    wall_time_s: float


def start_on(alg: StreamAlgorithm, stream: EdgeStream, passes: int,
             s: int = 0, t: int | None = None) -> StreamAlgorithm:
    """Start the algorithm on the stream within a budget of `passes`, with the
    endpoints `stream.endpoints(s, t)` resolves; returns the algorithm."""
    if alg.passes_needed > passes:
        raise ValueError(
            f"{alg.name} declares {alg.passes_needed} passes but the budget is {passes}"
        )
    alg.start(stream.n, stream.directed, *stream.endpoints(s, t))
    return alg


def run_stream(alg: StreamAlgorithm, stream: EdgeStream, passes: int,
               s: int = 0, t: int | None = None, per_edge: bool = False) -> StreamRun:
    """Feed the stream to the algorithm once per pass, a segment at a time,
    measuring state at segment boundaries and pass ends (opt in: an edge at a
    time, measuring after every edge)."""
    t0 = time.perf_counter()
    start_on(alg, stream, passes, s, t)
    checkpoints = []
    for p in range(1, alg.passes_needed + 1):
        alg.begin_pass(p)
        for tag, seg in stream.segments:
            if per_edge:
                for u, v in seg:
                    alg.process(u, v)
                    checkpoints.append((f"pass{p}:{tag}:{u}->{v}", alg.state_bits()))
            else:
                alg.process_block(seg.us, seg.vs)
            checkpoints.append((f"pass{p}:{tag}", alg.state_bits()))
        alg.end_pass(p)
        checkpoints.append((f"pass{p}:end", alg.state_bits()))
    return StreamRun(
        algorithm=alg.name,
        passes_used=alg.passes_needed,
        checkpoints=tuple(checkpoints),
        max_state_bits=max(bits for _, bits in checkpoints) if checkpoints else 0,
        output=alg.result(),
        wall_time_s=time.perf_counter() - t0,
    )


def make_algorithm(tag: str) -> StreamAlgorithm:
    """CLI algorithm registry; parametrized tags look like `bfs-frontier:2`."""
    name, _, arg = tag.partition(":")
    if name == "bfs-frontier":
        return BfsFrontier(_tag_int(tag, arg, 2))
    if name == "xor-sketch":
        return XorSketch(_tag_int(tag, arg, 0))
    plain = {"edge-count": EdgeCounter, "store-all": StoreAll, "spanning-forest": SpanningForest}
    if name not in plain:
        raise ValueError(f"unknown algorithm tag {tag!r}")
    if arg:
        raise ValueError(f"algorithm tag {tag!r} takes nothing after ':'")
    return plain[name]()


def _tag_int(tag: str, arg: str, default: int) -> int:
    """The integer after `:` in a parametrized tag, or `default` without one."""
    if not arg:
        return default
    try:
        return int(arg)
    except ValueError:
        raise ValueError(f"algorithm tag {tag!r} expects an integer after ':'") from None
