"""The benchmark workloads: input generation, set-up, one op, and its checks.

Every workload draws its inputs from named substreams of the `--seed`
argument, so op i of a given seed is the same input on every run. The
program under test only ever sees those generated inputs. Each call into a
streamlb module sits in a span named `<module>.<function>`; the spans are
no-ops unless the run is traced.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from streamlb.behrend import construct_ap_free, trim_to_multiple
from streamlb.infometrics import (
    DiscreteDistribution,
    conditional_mutual_information,
    expectation_transfer_bound,
    from_weights,
    kl,
    top_half_check,
    tvd,
)
from streamlb.instances import LayerMap, sample_st, to_stream
from streamlb.protocols import (
    EXACT_FULL_M_CAP,
    MinAnnouncerOracle,
    ParityHintOracle,
    RevealOracle,
    measure_internal_eps,
    simulate_two_pass,
)
from streamlb.reductions import (
    Digraph,
    perfect_matching_exists,
    reduce_to_matching,
    reduce_to_sssp,
    undirected_distance,
)
from streamlb.rng import substream
from streamlb.rsgraph import build_rs_digraph, verify_induced
from streamlb.streamio import parse_rs, parse_stream, render_rs, render_stream, st_metadata, verify_st_file
from streamlb.streaming import BfsFrontier, StoreAll, run_stream


class OpRecord:
    """Checks and counters of one op. A check is ok, wrong, raised, or known.

    `known` marks a check that raised one of the exception types its caller
    named as a recorded defect of the program: the check is failed, but its op
    is not. Every other raise, and every op that stops early, fails the op and
    makes the run incorrect. Each check runs in a `check` span, so the spans of a traced op cover
    the benchmark's own checking work as well as its calls into streamlb.
    """

    def __init__(self, index: int, tracer):
        self.index = index
        self.tracer = tracer
        self.seconds = 0.0
        self.checks: list[tuple[str, str]] = []
        self.errors: list[str] = []
        self.counts: dict[str, int] = {}

    def check(self, name: str, fn, known: tuple[type[BaseException], ...] = ()):
        try:
            with self.tracer.span("check"):
                ok = bool(fn())
        except Exception as exc:  # a check that raises is graded as failed
            status = "known" if isinstance(exc, known) else "raised"
            self.checks.append((name, status))
            self.errors.append(f"{name}: {status}: {type(exc).__name__}: {exc}")
        else:
            self.checks.append((name, "ok" if ok else "wrong"))

    def count(self, name: str, value):
        self.counts[name] = value

    def abort(self, exc: Exception, expected: int):
        """The op stopped early: every check it did not reach counts as raised."""
        self.errors.append(f"op aborted: {type(exc).__name__}: {exc}")
        self.checks += [("not reached", "raised")] * max(0, expected - len(self.checks))

    def tally(self, status: str) -> int:
        return sum(1 for _, s in self.checks if s == status)

    @property
    def failed(self) -> bool:
        """The op saw a wrong answer or an unrecorded raise, or stopped early."""
        return self.tally("wrong") + self.tally("raised") > 0


def never_wrong(answer, truth: bool) -> bool:
    """A three-valued reachability answer is wrong only when it is decided and false."""
    return answer == "unknown" or (answer is True and truth) or (answer is False and not truth)


class StPipeline:
    """gen rs -> verify rs -> gen st -> verify st -> stream run -> protocol simulate, plus two reductions.

    Set-up is the CLI tour's `gen rs --m 1000 --trim 4`, `verify rs` and the
    read of rs.txt by `gen st`; each op is one st instance of `gen st`.
    """

    name = "st-pipeline"
    checks_per_op = 12
    M = 1000

    def setup(self, seed: int, tr) -> dict:
        with tr.span("behrend.construct_ap_free"):
            base = construct_ap_free(self.M, "behrend-sphere")
        with tr.span("behrend.trim_to_multiple"):
            trimmed = trim_to_multiple(base, 4)
        with tr.span("rsgraph.build_rs_digraph"):
            g = build_rs_digraph(trimmed)
        with tr.span("rsgraph.verify_induced"):
            report = verify_induced(g)
        if not report:
            raise AssertionError(f"verify_induced rejected the RS digraph: {report.reason}")
        with tr.span("streamio.render_rs"):
            text = render_rs(g)
        with tr.span("streamio.parse_rs"):
            self.rs = parse_rs(text)
        if (self.rs.n_side, self.rs.t, self.rs.r, self.rs.matchings) != (g.n_side, g.t, g.r, g.matchings):
            raise AssertionError("parse_rs(render_rs(g)) lost the matchings")
        self.seed = seed
        return {"behrend.set_size": g.r, "rsgraph.edges": g.t * g.r,
                "rsgraph.cross_pairs": g.t * g.r * (g.r - 1)}

    def describe(self) -> str:
        g = self.rs
        return (f"RS digraph m={self.M} behrend-sphere trimmed to r%4==0: N={g.n_side} r={g.r} t={g.t}, "
                "verified and read back from its text form; "
                "op i samples st instance seed=substream(seed,'gen','st',i) as `gen st` does")

    def op(self, i: int, tr, rec: OpRecord):
        inst_seed = int(substream(self.seed, "gen", "st", i).integers(0, 2**63))
        with tr.span("instances.sample_st"):
            inst = sample_st(self.rs, inst_seed)
        with tr.span("instances.to_stream"):
            stream = to_stream(inst, shuffle_seed=inst_seed)
        edges = stream.edge_count()
        rec.count("instances.stream_edges", edges)

        # the sampler writes the instance, the file verifier reads it back
        with tr.span("streamio.render_stream"):
            text = render_stream(stream)
        with tr.span("streamio.st_metadata"):
            meta = json.loads(json.dumps(st_metadata(inst)))
        rec.count("streamio.bytes", len(text))
        layers = LayerMap(tuple(tuple(r) for r in meta["layers"]))
        with tr.span("streamio.parse_stream"):
            read = parse_stream(text, layers)
        rec.check("stream file round-trips",
                  lambda: (read.n, read.segments) == (stream.n, stream.segments))

        def verify_file():
            with tr.span("streamio.verify_st_file"):
                return verify_st_file(read, meta).ok
        rec.check("verify_st_file is ok", verify_file)

        store, frontier = StoreAll(), BfsFrontier(2)
        with tr.span("streaming.run_stream.store-all"):
            run_store = run_stream(store, read, passes=1)
        with tr.span("streaming.run_stream.bfs-frontier"):
            run_frontier = run_stream(frontier, read, passes=2)
        rec.count("streaming.edges_processed", 3 * edges)
        rec.count("streaming.checkpoints", len(run_store.checkpoints) + len(run_frontier.checkpoints))
        rec.count("streaming.max_state_bits", max(run_store.max_state_bits, run_frontier.max_state_bits))
        rec.check("store-all equals the planted flag", lambda: run_store.output == inst.reachable)
        rec.check("bfs-frontier:2 is never wrong", lambda: never_wrong(run_frontier.output, inst.reachable))
        for alg, run in ((store, run_store), (frontier, run_frontier)):
            def last_checkpoint(alg=alg, run=run):
                with tr.span("streaming.serialize"):
                    return run.checkpoints[-1][1] == len(alg.serialize())
            rec.check(f"{alg.name} last checkpoint equals its serialization", last_checkpoint)

        transcript_bits = 0
        for factory, run in ((StoreAll, run_store), (lambda: BfsFrontier(2), run_frontier)):
            with tr.span("protocols.simulate_two_pass"):
                transcript, output = simulate_two_pass(factory, read)
            transcript_bits += transcript.total_bits
            rec.check(f"simulated {run.algorithm} equals the direct run",
                      lambda output=output, run=run: output == run.output)
            rec.check(f"{run.algorithm} transcript fits in three states",
                      lambda bits=transcript.total_bits, run=run: bits <= 3 * run.max_state_bits)
        rec.count("protocols.transcript_bits", transcript_bits)

        with tr.span("reductions.reduce_to_sssp"):
            undirected, s, t = reduce_to_sssp(read)

        def distance_dichotomy():
            with tr.span("reductions.undirected_distance"):
                d = undirected_distance(list(undirected.edges()), s, t)
            return (d == 7) == inst.reachable
        rec.check("distance is 7 iff reachable", distance_dichotomy)

        with tr.span("reductions.reduce_to_matching"):
            bipartite, _ = reduce_to_matching(Digraph.from_stream(read), s, t)
        rec.count("reductions.perfect_matching_exists.failed", 0)

        def matching_oracle():
            try:
                with tr.span("reductions.perfect_matching_exists"):
                    return perfect_matching_exists(bipartite) == inst.reachable
            except Exception:
                rec.count("reductions.perfect_matching_exists.failed", 1)
                raise
        # the recursive Kuhn search overflows Python's recursion limit at m=1000: a
        # recorded defect of the program: a failed check, but not a failed op
        rec.check("perfect-matching oracle equals the planted flag", matching_oracle,
                  known=(RecursionError,))


def _float_distribution(gen, size: int) -> DiscreteDistribution:
    w = gen.random(size) + 1e-9
    return from_weights(tuple(range(size)), tuple(float(x) for x in w))


def _rational_distribution(gen, size: int, denom: int = 64) -> DiscreteDistribution:
    cuts = sorted(int(x) for x in gen.integers(0, denom + 1, size - 1)) + [denom]
    parts = [b - a for a, b in zip([0] + cuts, cuts)]
    return from_weights(tuple(range(size)), tuple(Fraction(p, denom) for p in parts))


class ExactInfo:
    """Exact posterior-shift enumeration at the cap, plus a fixed batch of infometrics calls."""

    name = "exact-info"
    M = EXACT_FULL_M_CAP
    SIZES = tuple(range(2, 17))  # tvd's subset-form self-check runs on sizes <= 12
    checks_per_op = 3 + 3 * len(SIZES) + 2 * sum(1 for s in SIZES if s % 2 == 0) + 1

    def setup(self, seed: int, tr) -> dict:
        self.seed = seed
        return {}

    def describe(self) -> str:
        return (f"op i: measure_internal_eps(m={self.M}, exact) with each oracle in turn, reveal(p), "
                f"parity-hint(p') and min-announcer, p and p' = k/16 from the seed; then for support sizes "
                f"{self.SIZES[0]}..{self.SIZES[-1]} one seeded rational and one float pair through "
                "tvd, kl, top_half_check (even sizes), expectation_transfer_bound, and one CMI chain rule")

    def op(self, i: int, tr, rec: OpRecord):
        # every op measures all three oracles, so ops are alike in cost and
        # their median does not depend on which oracle an op happened to get
        gen = substream(self.seed, "exact-info", i)
        p, p_hint = (Fraction(int(gen.integers(1, 16)), 16) for _ in range(2))
        q = self.M // 4 - 1
        items = 0
        for oracle in (RevealOracle(p), ParityHintOracle(p_hint), MinAnnouncerOracle()):
            items += (math.comb(self.M, q) * math.comb(self.M - q, q) * (self.M - 2 * q)
                      * len(oracle.randomness_support(self.M)))
            with tr.span("protocols.measure_internal_eps"):
                rep = measure_internal_eps(oracle, self.M, mode="exact")
            if isinstance(oracle, RevealOracle):
                expected = float(p * (1 - Fraction(4, self.M)))
                rec.check("reveal(p) measures p(1-4/m) on both sides",
                          lambda: rep.alice_side == rep.bob_side == expected)
            elif isinstance(oracle, ParityHintOracle):
                rec.check("parity-hint(p) shifts both sides equally",
                          lambda: rep.alice_side == rep.bob_side)
            else:
                rec.check("min-announcer leaves Alice's side at 0", lambda: rep.alice_side == 0)
        rec.count("protocols.enumerated_items", items)

        tvd_calls = 0
        for size in self.SIZES:
            branch = "small" if size <= 12 else "large"
            pairs = (
                (_rational_distribution(gen, size), _rational_distribution(gen, size)),
                (_float_distribution(gen, size), _float_distribution(gen, size)),
            )
            for mu, nu in pairs:
                with tr.span(f"infometrics.tvd.{branch}"):
                    d = tvd(mu, nu)
                with tr.span("infometrics.kl"):
                    div = kl(mu, nu, base="e")
                tvd_calls += 1
                rec.check("pinsker", lambda d=d, div=div: float(d) <= math.sqrt(div / 2.0) + 1e-9)
                if size % 2 == 0:
                    def top_half(mu=mu):
                        with tr.span("infometrics.top_half_check"):
                            return top_half_check(mu).bound_holds
                    rec.check("top-half floor", top_half)
            mu, nu = pairs[0]
            f = {x: Fraction(int(gen.integers(0, 129)), 8) for x in mu.support}

            def transfer(mu=mu, nu=nu, f=f):
                with tr.span("infometrics.expectation_transfer_bound"):
                    return expectation_transfer_bound(mu, nu, f)
            rec.check("expectation transfer bound", transfer)
        rec.count("infometrics.tvd.calls", tvd_calls)

        shape = tuple(int(gen.integers(2, 4)) for _ in range(4))
        joint = gen.random(shape)
        joint /= joint.sum()

        def chain_rule():
            with tr.span("infometrics.conditional_mutual_information"):
                lhs = conditional_mutual_information(joint, (0, 1), (2,), (3,))
            with tr.span("infometrics.conditional_mutual_information"):
                first = conditional_mutual_information(joint, (0,), (2,), (3,))
            with tr.span("infometrics.conditional_mutual_information"):
                second = conditional_mutual_information(joint, (1,), (2,), (0, 3))
            return abs(lhs - first - second) <= 1e-9
        rec.check("cmi chain rule", chain_rule)

WORKLOADS = {w.name: w for w in (StPipeline, ExactInfo)}
