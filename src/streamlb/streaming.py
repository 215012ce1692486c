"""Multi-pass streaming execution with bit-level space accounting.

Algorithms see edges strictly in stream order, once per pass, a segment at a time
(`process_block`), and are checkpointed at segment boundaries and pass ends by the
length of their serialized dynamic state; the longest checkpoint is the run's space figure.
`state_bits` gives that length without building the state. A state is
`common.Bits`, packed bits; serialization must round-trip through `restore`, which is what lets the
communication simulation hand a computation across players mid-pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .common import Bits, EdgeBlock, bfs, check_bits, decode_array, encode_ints, int_width
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

    def _check_edge(self, u: int, v: int):
        """Refuse an edge with an endpoint outside [0, n): `process` is where a
        bare int enters an algorithm, while a block comes from an `EdgeStream`,
        whose ids are vertices already."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex id {v if 0 <= u < self.n else u} is outside [0, {self.n})")

    def process_block(self, us, vs):
        """A segment's edges (us[i], vs[i]) in order, one `process` call each;
        an override must leave the same state."""
        for u, v in zip(us.tolist(), vs.tolist()):
            self.process(u, v)

    def end_pass(self, p: int):
        pass

    def serialize(self) -> Bits:
        raise NotImplementedError

    def state_bits(self) -> int:
        return len(self.serialize())

    def restore(self, bits: Bits, pass_index: int):
        raise NotImplementedError

    def result(self):
        raise NotImplementedError


# --- edge lists as packed keys -------------------------------------------------
#
# An edge (u, v) between w-bit vertex ids is the 2w-bit key u << w | v. The
# 2w-bit form of the key is the w-bit form of u followed by that of v, and keys
# sort as their pairs do lexicographically, so a sorted key list encodes to the
# same bits as the sorted pair list. A stream has at most 2^31 vertices, so a
# key has at most 62 bits.

def _array(ids, dtype=np.uint64) -> np.ndarray:
    """A collection of keys (or of vertex ids, as int64) as one array."""
    return np.fromiter(ids, dtype=dtype, count=len(ids))


def _key_block(array: np.ndarray, width: int) -> EdgeBlock:
    """The (u, v) pairs of a key array, split on the array rather than per key."""
    return EdgeBlock(array >> width, array & ((1 << width) - 1))


def _decode_keys(name: str, bits: Bits, n: int, width: int) -> np.ndarray:
    """The key array of a serialized edge list, refusing any `serialize()`
    cannot write: keys not strictly increasing, or an endpoint outside [0, n)."""
    array = decode_array(bits, 2 * width)
    if (array[1:] <= array[:-1]).any():
        raise ValueError(f"{name}: serialized edge keys are not strictly increasing")
    if len(array) and max((array >> width).max(), (array & ((1 << width) - 1)).max()) >= n:
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

    def serialize(self) -> Bits:
        return encode_ints([self.count], self.count.bit_length())

    def restore(self, bits, pass_index):
        check_bits(bits, f"{self.name}: a serialized state")
        if int(bits).bit_length() != len(bits):
            raise ValueError(f"{self.name}: a serialized count has no leading zero")
        self.count = int(bits)
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
        self.stored = _array(())
        self.keys: set[int] = set()  # empty unless `stored` is

    def process(self, u, v):
        if self._pass == 1:
            self._check_edge(u, v)
            if len(self.stored):  # an edge at a time, the set holds every key
                self.keys, self.stored = set(self.stored.tolist()), self.stored[:0]
            self.keys.add(u << self.width | v)

    def process_block(self, us, vs):
        """Pass 1 keys the block at once."""
        if self._pass != 1 or not len(us):
            return
        self.stored, self.keys = self._all_keys((us << self.width | vs).astype(np.uint64)), set()

    def _all_keys(self, *more) -> np.ndarray:
        """Every distinct key, sorted, with the key arrays `more` merged in."""
        if not self.keys and not more:  # `stored` alone is sorted and distinct already
            return self.stored
        keys = np.sort(np.concatenate((self.stored, _array(self.keys), *more)))
        return np.delete(keys, np.flatnonzero(keys[1:] == keys[:-1]) + 1)  # np.unique hashes: slower

    def serialize(self) -> Bits:
        return encode_ints(self._all_keys(), 2 * self.width)

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
    few-pass limitation made observable."""

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

    def process(self, u, v):
        self._check_edge(u, v)
        if u in self.reached:
            self.additions.add(v)
        if not self.directed and v in self.reached:
            self.additions.add(u)

    def process_block(self, us, vs):
        """One gather: the heads of the block's edges whose tail is reached."""
        reached = _array(self.reached, np.int64)
        self.additions.update(vs[np.isin(us, reached)].tolist())
        if not self.directed:
            self.additions.update(us[np.isin(vs, reached)].tolist())

    def end_pass(self, p):
        self.exhausted = self.exhausted or self.additions <= self.reached  # the pass reached no new vertex
        self.reached |= self.additions
        self.additions = set()
        self.hops += 1

    def serialize(self) -> Bits:
        """The hop count in 16 bits, the exhausted flag, then one bit per vertex
        for `reached` and one per vertex for `additions`, set where they hold."""
        head = [16 - i for i in range(17) if (self.hops << 1 | self.exhausted) >> i & 1]
        ones = np.concatenate((np.array(head, np.int64), 17 + _array(self.reached, np.int64),
                               17 + self.n + _array(self.additions, np.int64)))
        return Bits.of_ones(ones, 17 + 2 * self.n)

    def state_bits(self) -> int:
        return 17 + 2 * self.n

    def restore(self, bits, pass_index):
        check_bits(bits, f"{self.name}: a serialized state", 17 + 2 * self.n)
        head, ones = int.from_bytes(bits.data[:3], "big") >> 7, bits.ones()
        self.hops, self.exhausted = head >> 1, bool(head & 1)
        ones = ones[ones >= 17] - 17
        split = np.searchsorted(ones, self.n)
        self.reached = set(ones[:split].tolist())
        self.additions = set((ones[split:] - self.n).tolist())
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
    what store-all refuses, an edge that joins no two components. Parents are
    kept for the vertices seen only; any other vertex is its own root.
    """

    name = "spanning-forest"

    def reset(self):
        if self.directed:
            raise ValueError("spanning forest needs an undirected stream")
        self.width = int_width(self.n - 1)
        self.parent: dict[int, int] = {}
        self.forest: list[int] = []

    def _find(self, x):
        parent = self.parent
        while (up := parent.get(x, x)) != x:
            parent[x] = parent.get(up, up)
            x = parent[x]
        return x

    def process(self, u, v):
        self._check_edge(u, v)
        ru, rv = self._find(u), self._find(v)
        if ru != rv:
            self.parent[ru] = rv
            self.forest.append(u << self.width | v)

    def serialize(self) -> Bits:
        return encode_ints(np.sort(_array(self.forest)), 2 * self.width)

    def state_bits(self) -> int:
        return 2 * self.width * len(self.forest)

    def restore(self, bits, pass_index):
        keys = _decode_keys(self.name, bits, self.n, self.width)
        self.reset()
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

    def serialize(self) -> Bits:
        return encode_ints([self.acc >> 32, self.acc & 0xFFFFFFFF, self.count], 32)

    def restore(self, bits, pass_index):
        check_bits(bits, f"{self.name}: a serialized state", 96)
        high, low, self.count = decode_array(bits, 32).tolist()
        self.acc = high << 32 | low
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


_ALGORITHMS = {"edge-count": EdgeCounter, "store-all": StoreAll, "spanning-forest": SpanningForest,
               "bfs-frontier": BfsFrontier, "xor-sketch": XorSketch}
_PARAMETRIZED = ("bfs-frontier", "xor-sketch")  # the tags that take an integer after ':'


def make_algorithm(tag: str) -> StreamAlgorithm:
    """CLI algorithm registry; parametrized tags look like `bfs-frontier:2`, and
    without their integer take the class default (2 passes, seed 0)."""
    name, _, arg = tag.partition(":")
    if name not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm tag {tag!r}")
    if not arg:
        return _ALGORITHMS[name]()
    if name not in _PARAMETRIZED:
        raise ValueError(f"algorithm tag {tag!r} takes nothing after ':'")
    try:
        value = int(arg)
    except ValueError:
        raise ValueError(f"algorithm tag {tag!r} expects an integer after ':'") from None
    return _ALGORITHMS[name](value)
