#!/usr/bin/env python3
"""Run one streamlb benchmark workload and print its metrics.

    python3 perfbench/run.py --workload st-pipeline --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; streamlb is imported from `src/` there.
The workloads, metric names and units are those of `BENCHMARK.json`.

One process, no pool. Set-up is timed as the wall time of fresh child
processes (`--setup-only`) that start the interpreter, import streamlb and
build the workload; `setup_s` is their median. The timed phase then runs ops
(closed loop, one at a time) until `--seconds` have passed, every op to the
end, and grades every check of every op.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the same ops with
a span around every call into streamlb, prints the per-layer metrics, and
writes the spans to `.perfbench/`. Its tracing overhead is the calibrated cost
of its spans; its own median op time is printed too, to set against the
`op_p50_s` of the untraced run of the same seed.

The last line of standard output is one JSON object: correct, attempted,
failed (ops) and metrics. An op fails when one of its checks saw a wrong
answer or raised, or when it stopped early; `correct` is true only when no op
failed. The one raise that does not fail an op is the recorded
`RecursionError` of `perfect_matching_exists` on st-pipeline (see
`workloads.py`): that check is failed, and it is counted in `error_rate`
(failed over attempted checks, printed on every run) and in
`reductions.perfect_matching_exists.failed`. CPUs cannot be pinned and the
page cache cannot be dropped where this runs, so every timing is a median
over ops or set-ups.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    src = ROOT / "src"
    if not (src / "streamlb" / "__init__.py").is_file():
        fail(f"no streamlb sources under {src}; run from the root of a streamlb checkout")
    sys.path.insert(0, str(src))
    import streamlb

    if Path(streamlb.__file__).resolve().parent != (src / "streamlb").resolve():
        fail(f"imported streamlb from {streamlb.__file__}, not from {src}")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text())


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # keeps git from reporting an enclosing repository
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "note": "CPUs are not pinned and the page cache is not dropped (neither is possible here); "
                "timings are medians over ops and set-ups",
    }


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import streamlb and build the workload."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        samples.append(time.perf_counter() - t)
        if child.returncode != 0:
            fail(f"set-up child exited with {child.returncode}: {child.stderr.strip()[-500:]}")
    return samples


def run_op(wl, i: int, tracer):
    from workloads import OpRecord

    rec = OpRecord(i, tracer)
    tracer.op = i
    t = time.perf_counter()
    with tracer.span("op"):
        try:
            wl.op(i, tracer, rec)
        except Exception as exc:  # the op failed before all its checks ran
            rec.abort(exc, wl.checks_per_op)
    rec.seconds = time.perf_counter() - t
    tracer.op = None
    return rec


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile (nearest rank) with TAIL_BEYOND samples above it.

    With too few samples no percentile above the median qualifies, and the
    median is reported.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 50, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


def median_low_count(records, setup_counts: dict, name: str):
    values = [r.counts[name] for r in records if name in r.counts]
    if name in setup_counts:
        values.append(setup_counts[name])
    return statistics.median_low(values) if values else 0


def span_cost_s(samples: int = 20_000) -> float:
    """Median over five batches of the time one empty span costs."""
    from spans import Tracer

    costs = []
    for _ in range(5):
        tr = Tracer(True)
        t = time.perf_counter()
        for _ in range(samples):
            with tr.span("calibration"):
                pass
        costs.append((time.perf_counter() - t) / samples)
    return statistics.median(costs)


def layer_metrics(spec, tracer, records, setup_counts, error_rate) -> dict:
    """`<layer>.s` is the layer's busy time per op, summed over the op's calls
    and taken as the median over ops; for a layer called only in set-up it is
    its busy time there."""
    from spans import busy_by_name, unaccounted_per_op

    by_name = busy_by_name(tracer.spans)

    def busy(name):
        return sum(by_name.get(name, {}).values())

    def busy_per_op(name):
        per_op = by_name.get(name, {})
        if any(op is not None for op in per_op):
            return statistics.median(per_op.get(r.index, 0.0) for r in records)
        return per_op.get(None, 0.0)

    def total(name):
        return setup_counts.get(name, 0) + sum(r.counts.get(name, 0) for r in records)

    n = len(records)
    op_spans = sum(1 for s in tracer.spans if s[2] is not None)
    out = {
        "rsgraph.pairs_per_s": total("rsgraph.cross_pairs") / busy("rsgraph.verify_induced")
        if busy("rsgraph.verify_induced") else 0.0,
        "streaming.edges_per_s": total("streaming.edges_processed")
        / (busy("streaming.run_stream.store-all") + busy("streaming.run_stream.bfs-frontier"))
        if total("streaming.edges_processed") else 0.0,
        "reductions.perfect_matching_exists.failed": total("reductions.perfect_matching_exists.failed"),
        "error_rate": error_rate,
        "trace.spans_per_op": op_spans / n,
        "trace.unaccounted_s_per_op": statistics.median(unaccounted_per_op(tracer.spans)),
        "trace.span_cost_s_per_op": span_cost_s() * op_spans / n,
    }
    for m in spec["per_layer"]:
        name = m["name"]
        if name in out:
            continue
        if m["unit"] == "s":
            out[name] = busy_per_op(name[:-2])
        else:
            out[name] = median_low_count(records, setup_counts, name)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="length of the timed phase (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = load_spec()
    seconds_wanted = args.seconds or spec["run_seconds"]
    load_program()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from the benchmark's own list")
    wl = WORKLOADS[args.workload]()
    tracer = Tracer(bool(args.trace))

    if args.setup_only:
        wl.setup(args.seed, tracer)
        return 0

    setups = [] if args.trace else time_setups(args.workload, args.seed)
    with tracer.span("setup"):
        setup_counts = wl.setup(args.seed, tracer)

    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds_wanted:
        records.append(run_op(wl, len(records), tracer))
    seconds = [r.seconds for r in records]

    failed_ops = sum(r.failed for r in records)
    correct = failed_ops == 0
    checks = sum(len(r.checks) for r in records)
    failed_checks = checks - sum(r.tally("ok") for r in records)
    known = sum(r.tally("known") for r in records)
    error_rate = failed_checks / checks
    p, tail_s = tail(seconds)
    env = environment()

    if args.trace:
        metrics = layer_metrics(spec, tracer, records, setup_counts, error_rate)
        declared = spec["per_layer"]
    else:
        metrics = {
            "throughput_ops_s": len(records) / sum(seconds),
            "op_p50_s": statistics.median(seconds),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    errors = sorted({e for r in records for e in r.errors})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(records)} in {sum(seconds):.3f} s")
    print(f"inputs: {wl.describe()}")
    for key, value in env.items():
        print(f"env {key}: {value}")
    if setups:
        print("set-up samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
    print(f"op_tail_s is p{p} of {len(records)} ops")
    print(f"ops attempted {len(records)}  failed {failed_ops}  correct {correct}")
    print(f"checks attempted {checks}  failed {failed_checks} (of which known defect {known})  "
          f"error_rate {error_rate:.6f}")
    for e in errors:
        print(f"failed check: {e}")
    if args.trace:
        print(f"traced op p50 {statistics.median(seconds):.6g} s: its difference from op_p50_s of "
              f"the --trace 0 run of seed {args.seed} is the tracing overhead; "
              f"the spans' calibrated cost is trace.span_cost_s_per_op")
    for m in declared:
        value = metrics[m["name"]]
        print(f"{m['name']} = {value if isinstance(value, int) else format(value, '.6g')} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": seconds_wanted,
        "inputs": wl.describe(), "environment": env, "setup_samples_s": setups,
        "op_seconds": seconds, "op_tail_percentile": p,
        "ops": {"attempted": len(records), "failed": failed_ops, "correct": correct},
        "checks": {"attempted": checks, "failed": failed_checks, "known_defect": known,
                   "error_rate": error_rate, "errors": errors},
        "metrics": metrics,
    }, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed_ops,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
