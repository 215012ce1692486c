"""Single entry point: generation, verification, runs, and reports.

Every generating command writes a manifest next to its outputs (argv, seed,
substream names, input/output hashes), and re-running the manifest's argv
reproduces the artifacts byte for byte. Exit codes: 0 success, 1 a
verification failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from pathlib import Path

from . import __version__, rng as rngmod
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
from .instances import FORWARD, INVERSE, sample_si, sample_st, sample_ur, to_stream
from .protocols import measure_internal_eps, simulate_two_pass
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
from . import streamio
from .instances import EdgeStream

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
    if "count" in args and args.count < 1:
        raise ValueError("--count must be at least 1")
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
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for i in range(args.count):
            inst = sample_si(args.m, rngmod.substream(args.seed, "gen-si", i))
            substreams.append(f"gen-si/{i}")
            path = outdir / f"si-{i:04d}.json"
            streamio.write_json(path, {
                "m": inst.m, "a": sorted(inst.a), "b": sorted(inst.b),
                "e_star": inst.e_star, "rng": rngmod.describe(args.seed, "gen-si", i),
            })
            outputs.append(path)
    elif args.kind in ("ur", "st"):
        rs = streamio.read_rs(args.rs)
        inputs.append(args.rs)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
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
            path = outdir / f"{args.kind}-{i:04d}.stream"
            streamio.write_stream(path, stream)
            streamio.write_json(streamio.default_meta_path(path), meta)
            outputs += [path, streamio.default_meta_path(path)]
    _write_manifest(argv, getattr(args, "seed", None), substreams, inputs, outputs,
                    time.perf_counter() - t0)
    return OK


# --- verify ---------------------------------------------------------------------

def _cmd_verify(args) -> int:
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

def _cmd_stream_run(args) -> int:
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


def _cmd_protocol(args) -> int:
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

def _graph_from_stream_file(path) -> tuple[Digraph, EdgeStream]:
    stream = streamio.read_stream(path)
    return Digraph.from_stream(stream), stream


def _cmd_reduce(args, argv) -> int:
    t0 = time.perf_counter()
    h, stream = _graph_from_stream_file(args.input)
    s, t = stream.endpoints(args.s, args.t)
    outputs = [args.out]
    if args.kind == "matching":
        g, dropped = reduce_to_matching(h, s, t)
        streamio.write_bipartite(args.out, g)
        print(json.dumps({"dropped_edges": dropped, "left": len(g.left),
                          "right": len(g.right)}))
    elif args.kind == "sssp":
        undirected, _, _ = reduce_to_sssp(stream)
        streamio.write_stream(args.out, undirected)
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
    _write_manifest(argv, None, [], [args.input], outputs, time.perf_counter() - t0)
    return OK


def _cmd_oracle(args) -> int:
    if args.kind == "pm":
        g = streamio.read_bipartite(args.input)
        _emit({"perfect_matching": perfect_matching_exists(g)})
        return OK
    h, stream = _graph_from_stream_file(args.input)
    if args.kind == "bfs":
        _emit({"reachable": bfs_reachable(h, *stream.endpoints(args.s, args.t))})
        return OK
    order = topological_order(h)
    _emit({"acyclic": order is not None,
           "order": order if order is not None else None})
    return OK


# --- info -----------------------------------------------------------------------

def _load_distribution(obj) -> DiscreteDistribution:
    return DiscreteDistribution(tuple(obj["support"]), tuple(obj["probs"]))


def _cmd_info(args) -> int:
    payload = json.loads(Path(args.input).read_text()) if Path(args.input).exists() \
        else json.loads(args.input)
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
    import inspect

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
    if args.workers > 1 and "workers" in params:
        kwargs.setdefault("workers", args.workers)
    report = run_experiment(args.name, **kwargs)
    _emit(report, args.out)
    if args.out:
        _write_manifest(argv, kwargs.get("seed"), [], [], [args.out],
                        time.perf_counter() - t0)
    return OK


# --- parser -----------------------------------------------------------------------

def _endpoint_options(p):
    """`--s` and `--t`, resolved by `EdgeStream.endpoints`."""
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--t", type=int, default=None, help="default: the last vertex")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="streamlb", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate artifacts")
    gsub = g.add_subparsers(dest="kind", required=True)
    gb = gsub.add_parser("behrend")
    gb.add_argument("--m", type=int, required=True)
    gb.add_argument("--strategy", choices=STRATEGIES, default="behrend-sphere")
    gb.add_argument("--out")
    gr = gsub.add_parser("rs")
    gr.add_argument("--m", type=int, required=True)
    gr.add_argument("--strategy", choices=STRATEGIES, default="behrend-sphere")
    gr.add_argument("--trim", type=int, default=0,
                    help="drop largest elements until the set size divides this")
    gr.add_argument("--out", required=True)
    gi = gsub.add_parser("si")
    gi.add_argument("--m", type=int, required=True)
    gi.add_argument("--seed", type=int, default=0)
    gi.add_argument("--count", type=int, default=1)
    gi.add_argument("--out", required=True)
    for kind in ("ur", "st"):
        gx = gsub.add_parser(kind)
        gx.add_argument("--rs", required=True)
        gx.add_argument("--seed", type=int, default=0)
        gx.add_argument("--count", type=int, default=1)
        gx.add_argument("--out", required=True)
        if kind == "ur":
            gx.add_argument("--direction", choices=(FORWARD, INVERSE), default=FORWARD)
        else:
            gx.add_argument("--e1-mode", choices=("random", "complete", "empty"),
                            default="random")
            gx.add_argument("--e1-seed", type=int, default=None)
            gx.add_argument("--forward-seed", type=int, default=None)
            gx.add_argument("--backward-seed", type=int, default=None)

    v = sub.add_parser("verify", help="verify artifacts")
    v.add_argument("kind", choices=("rs", "ur", "st"))
    v.add_argument("path")

    s = sub.add_parser("stream", help="streaming runs")
    ssub = s.add_subparsers(dest="action", required=True)
    sr = ssub.add_parser("run")
    sr.add_argument("--alg", required=True)
    sr.add_argument("--input", required=True)
    sr.add_argument("--passes", type=int, default=1)
    _endpoint_options(sr)
    sr.add_argument("--per-edge", action="store_true")
    sr.add_argument("--report")

    pr = sub.add_parser("protocol", help="protocol experiments")
    psub = pr.add_subparsers(dest="action", required=True)
    pb = psub.add_parser("boost")
    pb.add_argument("--m", type=int, default=32)
    pb.add_argument("--eps", type=float, default=0.5)
    pb.add_argument("--gamma1", type=float, default=0.5)
    pb.add_argument("--gamma2", type=float, default=2.0)
    pb.add_argument("--oracle", default="mock-reveal")
    pb.add_argument("--trials", type=int, default=300)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out")
    pm = psub.add_parser("measure-eps")
    pm.add_argument("--oracle", required=True)
    pm.add_argument("--m", type=int, required=True)
    pm.add_argument("--eps", type=float, default=0.5)
    pm.add_argument("--mode", default="auto")
    pm.add_argument("--out")
    ps = psub.add_parser("simulate")
    ps.add_argument("--alg", required=True)
    ps.add_argument("--instance", required=True)
    ps.add_argument("--out")

    r = sub.add_parser("reduce", help="reductions")
    r.add_argument("kind", choices=("matching", "sssp", "acyclic", "reachcount"))
    r.add_argument("--input", required=True)
    r.add_argument("--out", required=True)
    _endpoint_options(r)

    o = sub.add_parser("oracle", help="offline oracles")
    o.add_argument("kind", choices=("pm", "bfs", "toposort"))
    o.add_argument("--input", required=True)
    _endpoint_options(o)

    i = sub.add_parser("info", help="information-theory computations")
    i.add_argument("kind", choices=("tvd", "kl", "entropy", "mi", "tophalf"))
    i.add_argument("--input", required=True)

    e = sub.add_parser("experiment", help="registered batch experiments")
    e.add_argument("name", choices=sorted(EXPERIMENTS))
    e.add_argument("--param", action="append", metavar="KEY=VALUE")
    e.add_argument("--workers", type=int, default=1,
                   help="process-pool size for batch experiments")
    e.add_argument("--out")

    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs far more than a parse, and
    `parse_args` starts each parse from a fresh namespace."""
    return build_parser()


def dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        if args.command == "gen":
            return _cmd_gen(args, argv)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "stream":
            return _cmd_stream_run(args)
        if args.command == "protocol":
            return _cmd_protocol(args)
        if args.command == "reduce":
            return _cmd_reduce(args, argv)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "experiment":
            return _cmd_experiment(args, argv)
        return USAGE
    except (ValueError, TypeError, KeyError, FileNotFoundError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
