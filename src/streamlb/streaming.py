"""Multi-pass streaming execution with bit-level space accounting.

Algorithms see edges strictly in stream order, once per pass, and are
checkpointed at segment boundaries and pass ends by the length of their
serialized dynamic state; the longest checkpoint is the run's space figure.
`state_bits` gives that length without building the bit string.
Serialization must round-trip through `restore`, which is what lets the
communication simulation hand a computation across players mid-pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

from .common import decode_ints, encode_int, encode_ints, int_width
from .instances import EdgeStream


class StreamAlgorithm:
    """Contract for streaming algorithms run by this harness.

    `start` binds the instance context and resets state; `restore(bits, p)`
    overwrites the dynamic state with a previously serialized checkpoint taken
    during pass p. Pass bookkeeping calls arrive only at true pass boundaries.
    `state_bits()` must equal `len(serialize())` in every state.
    """

    name = "algorithm"
    passes_needed = 1

    def start(self, n: int, directed: bool, s: int = 0, t: int | None = None):
        raise NotImplementedError

    def begin_pass(self, p: int):
        self._pass = p

    def process(self, u: int, v: int):
        raise NotImplementedError

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


class EdgeCounter(StreamAlgorithm):
    """Counts the stream's edges during the first pass; state is one integer."""

    name = "edge-count"

    def start(self, n, directed, s=0, t=None):
        self.count = 0
        self._pass = 1

    def process(self, u, v):
        if self._pass == 1:
            self.count += 1

    def serialize(self) -> str:
        return format(self.count, "b") if self.count else ""

    def restore(self, bits, pass_index):
        self.count = int(bits, 2) if bits else 0
        self._pass = pass_index

    def result(self):
        return self.count


class StoreAll(StreamAlgorithm):
    """Stores every edge, then answers s-t reachability offline: the trivial upper bound."""

    name = "store-all"

    def start(self, n, directed, s=0, t=None):
        self.n = n
        self.directed = directed
        self.s = s
        self.t = n - 1 if t is None else t
        self.edges = set()
        self._pass = 1

    def process(self, u, v):
        if self._pass == 1:
            self.edges.add((u, v))

    def serialize(self) -> str:
        return encode_ints(chain.from_iterable(sorted(self.edges)), int_width(self.n - 1))

    def state_bits(self) -> int:
        return 2 * int_width(self.n - 1) * len(self.edges)

    def restore(self, bits, pass_index):
        vals = decode_ints(bits, int_width(self.n - 1))
        self.edges = set(zip(vals[::2], vals[1::2]))
        self._pass = pass_index

    def result(self):
        adj: dict[int, list[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            if not self.directed:
                adj.setdefault(v, []).append(u)
        seen = {self.s}
        frontier = [self.s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return self.t in seen


class BfsFrontier(StreamAlgorithm):
    """One frontier expansion per pass: after pass j the set of vertices
    within j hops of s is known. Three-valued answer; `unknown` is exactly the
    few-pass limitation made observable."""

    name = "bfs-frontier"

    def __init__(self, passes: int = 2):
        if passes >= 1 << 16:
            raise ValueError("the hop counter is serialized in 16 bits")
        self.passes_needed = passes

    def start(self, n, directed, s=0, t=None):
        self.n = n
        self.directed = directed
        self.s = s
        self.t = n - 1 if t is None else t
        self.reached = {s}
        self.additions: set[int] = set()
        self.exhausted = False
        self.hops = 0
        self._pass = 1

    def begin_pass(self, p):
        self._pass = p
        self.additions = set()

    def process(self, u, v):
        if u in self.reached:
            self.additions.add(v)
        if not self.directed and v in self.reached:
            self.additions.add(u)

    def end_pass(self, p):
        grew = bool(self.additions - self.reached)
        self.reached |= self.additions
        self.additions = set()
        self.hops += 1
        if not grew:
            self.exhausted = True

    def serialize(self) -> str:
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
    """Union-find over an undirected stream; state is the forest's edge list."""

    name = "spanning-forest"

    def start(self, n, directed, s=0, t=None):
        if directed:
            raise ValueError("spanning forest needs an undirected stream")
        self.n = n
        self.s = s
        self.t = n - 1 if t is None else t
        self.parent = list(range(n))
        self.forest: list[tuple[int, int]] = []
        self._pass = 1

    def _find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def process(self, u, v):
        ru, rv = self._find(u), self._find(v)
        if ru != rv:
            self.parent[ru] = rv
            self.forest.append((u, v))

    def serialize(self) -> str:
        return encode_ints(chain.from_iterable(sorted(self.forest)), int_width(self.n - 1))

    def state_bits(self) -> int:
        return 2 * int_width(self.n - 1) * len(self.forest)

    def restore(self, bits, pass_index):
        vals = decode_ints(bits, int_width(self.n - 1))
        self.parent = list(range(self.n))
        self.forest = []
        for i in range(0, len(vals), 2):
            self.process(vals[i], vals[i + 1])
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

    def start(self, n, directed, s=0, t=None):
        self.acc = 0
        self.count = 0
        self._pass = 1

    def process(self, u, v):
        if self._pass == 1:
            self.acc ^= _mix64((u << 24) ^ v ^ (self.seed << 48) % (1 << 63))
            self.count += 1

    def serialize(self) -> str:
        return encode_int(self.acc, 64) + encode_int(self.count, 32)

    def restore(self, bits, pass_index):
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


def run_stream(alg: StreamAlgorithm, stream: EdgeStream, passes: int,
               s: int = 0, t: int | None = None, per_edge: bool = False) -> StreamRun:
    """Feed the stream to the algorithm once per pass, measuring state at
    segment boundaries and pass ends (and after every edge, opt in)."""
    if alg.passes_needed > passes:
        raise ValueError(
            f"{alg.name} declares {alg.passes_needed} passes but the budget is {passes}"
        )
    t = stream.n - 1 if t is None else t
    if not (0 <= s < stream.n and 0 <= t < stream.n):
        raise ValueError(f"s={s} and t={t} must be vertices of the {stream.n}-vertex stream")
    t0 = time.perf_counter()
    alg.start(stream.n, stream.directed, s, t)
    checkpoints = []
    for p in range(1, alg.passes_needed + 1):
        alg.begin_pass(p)
        for tag, seg in stream.segments:
            for u, v in seg:
                alg.process(u, v)
                if per_edge:
                    checkpoints.append((f"pass{p}:{tag}:{u}->{v}", alg.state_bits()))
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


def spanning_forest_connectivity(stream: EdgeStream, s: int, t: int) -> bool:
    """One-pass undirected s-t connectivity via a spanning forest."""
    if stream.directed:
        raise ValueError("spanning forest connectivity is defined on undirected streams")
    return run_stream(SpanningForest(), stream, passes=1, s=s, t=t).output


def bfs_reachability(stream: EdgeStream, s: int, t: int, p: int):
    """p-hop reachability in p passes; True, False, or "unknown"."""
    if p < 1:
        raise ValueError("at least one pass is needed")
    return run_stream(BfsFrontier(p), stream, passes=p, s=s, t=t).output


def store_all_reachability(stream: EdgeStream, s: int, t: int) -> bool:
    """Store the whole stream, then answer offline."""
    return run_stream(StoreAll(), stream, passes=1, s=s, t=t).output


def make_algorithm(tag: str) -> StreamAlgorithm:
    """CLI algorithm registry; parametrized tags look like `bfs-frontier:2`."""
    name, _, arg = tag.partition(":")
    if name == "edge-count":
        return EdgeCounter()
    if name == "store-all":
        return StoreAll()
    if name == "bfs-frontier":
        return BfsFrontier(int(arg) if arg else 2)
    if name == "spanning-forest":
        return SpanningForest()
    if name == "xor-sketch":
        return XorSketch(int(arg) if arg else 0)
    raise ValueError(f"unknown algorithm tag {tag!r}")
