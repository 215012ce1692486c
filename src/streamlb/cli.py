"""Single entry point: generation, verification, runs, and reports.

Every generating command writes a manifest next to its outputs (argv, seed,
substream names, input/output hashes), and re-running the manifest's argv
reproduces the artifacts byte for byte. Exit codes: 0 success, 1 a
verification failed, 2 usage or input errors, reported as one `error:` line.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from functools import cache
from pathlib import Path

from . import __version__, rng as rngmod, streamio
from .behrend import STRATEGIES, construct_ap_free, trim_to_multiple
from .common import BudgetError
from .experiments import EXPERIMENTS, make_si_oracle, run_experiment
from .infometrics import (
    DiscreteDistribution,
    JointDistribution,
    entropy,
    kl,
    mutual_information,
    top_half_check,
    tvd,
)
from .instances import FORWARD, INVERSE, EdgeStream, sample_si, sample_st, sample_ur, to_stream
from .protocols import MEASURE_MODES, measure_internal_eps, simulate_two_pass
from .reductions import (
    Digraph,
    bfs_reachable,
    perfect_matching_exists,
    reduce_to_acyclicity,
    reduce_to_matching,
    reduce_to_reach_count,
    reduce_to_sssp,
    topological_order,
)
from .rsgraph import build_rs_digraph, verify_induced
from .streaming import make_algorithm, run_stream

OK, VERIFY_FAILED, USAGE = 0, 1, 2


def _write_manifest(argv, seed, substreams, inputs, outputs, elapsed):
    if not outputs:
        return
    manifest = {
        "argv": list(argv),
        "seed": seed,
        "substreams": substreams,
        "inputs": {str(p): streamio.sha256_file(p) for p in inputs},
        "outputs": {str(p): streamio.sha256_file(p) for p in outputs},
        "elapsed_s": round(elapsed, 4),
        "version": __version__,
    }
    first = Path(sorted(str(p) for p in outputs)[0])
    streamio.write_json(first.with_suffix(first.suffix + ".manifest.json"), manifest)


def _emit(payload: dict, out: str | None = None):
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


# --- gen -----------------------------------------------------------------------

def _cmd_gen(args, argv) -> int:
    t0 = time.perf_counter()
    outputs = []
    inputs = []
    substreams = []
    if args.kind == "behrend":
        s = construct_ap_free(args.m, args.strategy)
        record = {"m": s.m, "strategy": s.construction, "size": s.size,
                  "elements": list(s.elements)}
        if args.out:
            streamio.write_json(args.out, record)
            outputs.append(args.out)
        else:
            print(json.dumps(record, sort_keys=True))
    elif args.kind == "rs":
        base = construct_ap_free(args.m, args.strategy)
        if args.trim:
            base = trim_to_multiple(base, args.trim)
        g = build_rs_digraph(base)
        streamio.write_rs(args.out, g)
        outputs.append(args.out)
    elif args.kind == "si":
        for i in range(args.count):
            inst = sample_si(args.m, rngmod.substream(args.seed, "gen-si", i))
            substreams.append(f"gen-si/{i}")
            Path(args.out).mkdir(parents=True, exist_ok=True)  # after sampling: refusals make none
            path = Path(args.out) / f"si-{i:04d}.json"
            streamio.write_json(path, {
                "m": inst.m, "a": sorted(inst.a), "b": sorted(inst.b),
                "e_star": inst.e_star, "rng": rngmod.describe(args.seed, "gen-si", i),
            })
            outputs.append(path)
    elif args.kind in ("ur", "st"):
        rs = streamio.read_rs(args.rs)
        inputs.append(args.rs)
        for i in range(args.count):
            inst_seed = int(rngmod.substream(args.seed, "gen", args.kind, i).integers(0, 2**63))
            substreams.append(f"gen/{args.kind}/{i}")
            if args.kind == "ur":
                inst = sample_ur(rs, args.direction, inst_seed)
                meta = streamio.ur_metadata(inst)
            else:
                inst = sample_st(
                    rs, inst_seed, e1_mode=args.e1_mode,
                    e1_seed=args.e1_seed, forward_seed=args.forward_seed,
                    backward_seed=args.backward_seed,
                )
                meta = streamio.st_metadata(inst)
            stream = to_stream(inst, shuffle_seed=inst_seed)
            Path(args.out).mkdir(parents=True, exist_ok=True)  # after sampling: refusals make none
            path = Path(args.out) / f"{args.kind}-{i:04d}.stream"
            streamio.write_stream(path, stream)
            streamio.write_json(streamio.default_meta_path(path), meta)
            outputs += [path, streamio.default_meta_path(path)]
    _write_manifest(argv, getattr(args, "seed", None), substreams, inputs, outputs,
                    time.perf_counter() - t0)
    return OK


# --- verify ---------------------------------------------------------------------

def _cmd_verify(args, argv) -> int:
    if args.kind == "rs":
        report = verify_induced(streamio.read_rs(args.path))
    else:
        stream = streamio.read_stream(args.path)
        meta = streamio.read_meta(streamio.default_meta_path(args.path), args.kind)
        report = (streamio.verify_ur_file if args.kind == "ur" else streamio.verify_st_file)(
            stream, meta
        )
    payload = {"ok": report.ok, "reason": report.reason, "detail": report.detail}
    print(json.dumps(payload, sort_keys=True, default=str))
    return OK if report.ok else VERIFY_FAILED


# --- stream / protocol ------------------------------------------------------------

def _cmd_stream_run(args, argv) -> int:
    stream = streamio.read_stream(args.input)
    alg = make_algorithm(args.alg)
    run = run_stream(alg, stream, passes=args.passes, s=args.s, t=args.t,
                     per_edge=args.per_edge)
    payload = {
        "algorithm": run.algorithm,
        "passes_used": run.passes_used,
        "max_state_bits": run.max_state_bits,
        "output": run.output,
        "wall_time_s": round(run.wall_time_s, 4),
        "checkpoints": [list(c) for c in run.checkpoints],
    }
    _emit(payload, args.report)
    return OK


def _cmd_protocol(args, argv) -> int:
    if args.action == "boost":
        report = run_experiment(
            "boost-trials", oracle_tag=args.oracle, m=args.m, eps=args.eps,
            gamma1=args.gamma1, gamma2=args.gamma2, trials=args.trials, seed=args.seed,
        )
        _emit({k: report[k] for k in
               ("success_rate", "mean_bits", "k", "t", "tau", "oracle", "trials")}, args.out)
        return OK
    if args.action == "measure-eps":
        oracle = make_si_oracle(args.oracle, args.eps, args.m)
        report = measure_internal_eps(oracle, args.m, mode=args.mode)
        _emit(report.as_dict(), args.out)
        return OK
    # simulate
    stream = streamio.read_stream(args.instance)
    tr, simulated = simulate_two_pass(lambda: make_algorithm(args.alg), stream)
    direct = run_stream(make_algorithm(args.alg), stream, passes=2)
    payload = {
        "algorithm": args.alg,
        "simulated_output": simulated,
        "direct_output": direct.output,
        "match": simulated == direct.output,
        "transcript_bits": tr.total_bits,
        "message_labels": tr.labels,
        "max_state_bits": direct.max_state_bits,
    }
    _emit(payload, args.out)
    return OK if payload["match"] else VERIFY_FAILED


# --- reduce / oracle ----------------------------------------------------------------

def _cmd_reduce(args, argv) -> int:
    t0 = time.perf_counter()
    stream = streamio.read_stream(args.input)
    if args.kind == "sssp":
        undirected, _, _ = reduce_to_sssp(stream)
        streamio.write_stream(args.out, undirected)
    else:
        h = Digraph.from_stream(stream)
        s, t = stream.endpoints(args.s, args.t)
        if args.kind == "matching":
            g, dropped = reduce_to_matching(h, s, t)
            streamio.write_bipartite(args.out, g)
            print(json.dumps({"dropped_edges": dropped, "left": len(g.left),
                              "right": len(g.right)}))
        elif args.kind == "acyclic":
            out = reduce_to_acyclicity(h, s, t)
            streamio.write_stream(args.out, EdgeStream(
                n=stream.n, directed=True,
                segments=(("E", out.edges),), layers=None))
        else:  # reachcount
            out, fresh = reduce_to_reach_count(h, s, t, stream.n)
            streamio.write_stream(args.out, EdgeStream(
                n=max(out.vertices) + 1, directed=True,
                segments=(("E", out.edges),), layers=None))
            print(json.dumps({"fresh_vertices": len(fresh)}))
    _write_manifest(argv, None, [], [args.input], [args.out], time.perf_counter() - t0)
    return OK


def _cmd_oracle(args, argv) -> int:
    if args.kind == "pm":
        g = streamio.read_bipartite(args.input)
        _emit({"perfect_matching": perfect_matching_exists(g)})
        return OK
    stream = streamio.read_stream(args.input)
    if args.kind == "bfs":
        _emit({"reachable": bfs_reachable(stream.edge_block(), *stream.endpoints(args.s, args.t))})
        return OK
    order = topological_order(Digraph.from_stream(stream))
    _emit({"acyclic": order is not None, "order": order})
    return OK


# --- info -----------------------------------------------------------------------

def _load_distribution(obj) -> DiscreteDistribution:
    return DiscreteDistribution(tuple(obj["support"]), tuple(obj["probs"]))


def _cmd_info(args, argv) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError:  # not a readable file: the value is the JSON itself
        text = args.input
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--input {args.input!r} is neither a JSON file nor JSON: {exc}") from None
    if args.kind == "tvd":
        value = float(tvd(_load_distribution(payload["mu"]), _load_distribution(payload["nu"])))
    elif args.kind == "kl":
        value = kl(_load_distribution(payload["mu"]), _load_distribution(payload["nu"]),
                   base=payload.get("base", "2"))
    elif args.kind == "entropy":
        value = entropy(_load_distribution(payload))
    elif args.kind == "mi":
        value = mutual_information(JointDistribution(
            tuple(payload["rows"]), tuple(payload["cols"]),
            tuple(tuple(row) for row in payload["probs"])))
    else:  # tophalf
        report = top_half_check(_load_distribution(payload))
        _emit({"set": list(report.chosen), "mass": float(report.mass),
               "delta": float(report.delta), "bound_holds": report.bound_holds})
        return OK
    _emit({args.kind: value})
    return OK


# JSON value types a parameter takes, by the type of its default
_PARAM_TYPES = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
                float: ((int, float), "a number")}


def _cmd_experiment(args, argv) -> int:
    t0 = time.perf_counter()
    params = inspect.signature(EXPERIMENTS[args.name]).parameters
    kwargs = {}
    for item in args.param or []:
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        default = params[key].default if key in params else None
        # a string parameter takes its text unless that is a quoted JSON string
        if isinstance(default, str) and not isinstance(value, str):
            value = raw
        expected = _PARAM_TYPES.get(type(default))
        if expected and type(value) not in expected[0]:
            raise ValueError(f"--param {key} expects {expected[1]}, got {raw!r}")
        kwargs[key] = value
    if args.workers > 1:  # an experiment without a `workers` parameter refuses it
        kwargs.setdefault("workers", args.workers)
    report = run_experiment(args.name, **kwargs)
    _emit(report, args.out)
    if args.out:
        _write_manifest(argv, kwargs.get("seed"), [], [], [args.out],
                        time.perf_counter() - t0)
    return OK


# --- parser -----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Every parse failure is one `error:` line: a `ValueError` naming the
    command, in place of argparse's usage block and exit."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    """argparse type: an int, refused below `low`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" names the type by it
    return parse


_NATURAL, _POSITIVE = _int_at_least(0), _int_at_least(1)


def _endpoint_options(p):
    """`--s` and `--t`, resolved by `EdgeStream.endpoints`."""
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--t", type=int, default=None, help="default: the last vertex")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one place that decides what each command accepts, built once per
    process (`parse_args` starts each parse from a fresh namespace). An option
    is declared only on the commands that read it; the parser bounds what only
    the CLI knows and leaves every other value to the library's own check."""
    p = _Parser(prog="streamlb", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate artifacts")
    g.set_defaults(run=_cmd_gen)
    gsub = g.add_subparsers(dest="kind", required=True)
    gen = {kind: gsub.add_parser(kind) for kind in ("behrend", "rs", "si", "ur", "st")}
    for kind in ("behrend", "rs", "si"):
        gen[kind].add_argument("--m", type=int, required=True)
    for kind in ("behrend", "rs"):
        gen[kind].add_argument("--strategy", choices=STRATEGIES, default="behrend-sphere")
    gen["rs"].add_argument("--trim", type=_NATURAL, default=0,
                           help="drop largest elements until the set size divides this")
    for kind in ("ur", "st"):
        gen[kind].add_argument("--rs", required=True)
    for kind in ("si", "ur", "st"):
        gen[kind].add_argument("--seed", type=_NATURAL, default=0)
        gen[kind].add_argument("--count", type=_POSITIVE, default=1)
    for kind, gx in gen.items():
        gx.add_argument("--out", required=kind != "behrend")
    gen["ur"].add_argument("--direction", choices=(FORWARD, INVERSE), default=FORWARD)
    gen["st"].add_argument("--e1-mode", choices=("random", "complete", "empty"), default="random")
    for flag in ("--e1-seed", "--forward-seed", "--backward-seed"):
        gen["st"].add_argument(flag, type=_NATURAL, default=None)

    v = sub.add_parser("verify", help="verify artifacts")
    v.set_defaults(run=_cmd_verify)
    v.add_argument("kind", choices=("rs", "ur", "st"))
    v.add_argument("path")

    s = sub.add_parser("stream", help="streaming runs")
    s.set_defaults(run=_cmd_stream_run)
    ssub = s.add_subparsers(dest="action", required=True)
    sr = ssub.add_parser("run")
    sr.add_argument("--alg", required=True)
    sr.add_argument("--input", required=True)
    sr.add_argument("--passes", type=_POSITIVE, default=1)
    _endpoint_options(sr)
    sr.add_argument("--per-edge", action="store_true")
    sr.add_argument("--report")

    pr = sub.add_parser("protocol", help="protocol experiments")
    pr.set_defaults(run=_cmd_protocol)
    psub = pr.add_subparsers(dest="action", required=True)
    pb = psub.add_parser("boost")
    pb.add_argument("--m", type=int, default=32)
    pb.add_argument("--eps", type=float, default=0.5)
    pb.add_argument("--gamma1", type=float, default=0.5)
    pb.add_argument("--gamma2", type=float, default=2.0)
    pb.add_argument("--oracle", default="mock-reveal")
    pb.add_argument("--trials", type=int, default=300)
    pb.add_argument("--seed", type=_NATURAL, default=0)
    pm = psub.add_parser("measure-eps")
    pm.add_argument("--oracle", required=True)
    pm.add_argument("--m", type=int, required=True)
    pm.add_argument("--eps", type=float, default=0.5)
    pm.add_argument("--mode", choices=MEASURE_MODES, default="auto")
    ps = psub.add_parser("simulate")
    ps.add_argument("--alg", required=True)
    ps.add_argument("--instance", required=True)
    for px in (pb, pm, ps):
        px.add_argument("--out")

    r = sub.add_parser("reduce", help="reductions")
    r.set_defaults(run=_cmd_reduce)
    rsub = r.add_subparsers(dest="kind", required=True)
    for kind in ("matching", "sssp", "acyclic", "reachcount"):
        rx = rsub.add_parser(kind)
        rx.add_argument("--input", required=True)
        rx.add_argument("--out", required=True)
        if kind != "sssp":  # the distance gap is between the stream's own s = 0 and t = n - 1
            _endpoint_options(rx)

    o = sub.add_parser("oracle", help="offline oracles")
    o.set_defaults(run=_cmd_oracle)
    osub = o.add_subparsers(dest="kind", required=True)
    for kind in ("pm", "bfs", "toposort"):
        ox = osub.add_parser(kind)
        ox.add_argument("--input", required=True)
        if kind == "bfs":
            _endpoint_options(ox)

    i = sub.add_parser("info", help="information-theory computations")
    i.set_defaults(run=_cmd_info)
    i.add_argument("kind", choices=("tvd", "kl", "entropy", "mi", "tophalf"))
    i.add_argument("--input", required=True)

    e = sub.add_parser("experiment", help="registered batch experiments")
    e.set_defaults(run=_cmd_experiment)
    e.add_argument("name", choices=sorted(EXPERIMENTS))
    e.add_argument("--param", action="append", metavar="KEY=VALUE")
    e.add_argument("--workers", type=_POSITIVE, default=1,
                   help="process-pool size for batch experiments")
    e.add_argument("--out")

    return p


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args, argv)
    except (ValueError, TypeError, KeyError, OSError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
