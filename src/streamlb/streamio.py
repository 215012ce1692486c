"""Plain-text artifact formats: streams, RS digraphs, bipartite graphs, metadata.

Streams are grep-able text; witnesses live in a sibling JSON metadata file so
an algorithm under test never sees them. Every format round-trips exactly.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from .common import Report, fail_report, ok_report
from .instances import EdgeStream, LayerMap, STInstance, URInstance, reachable_from, shortest_path_length
from .reductions import BipartiteGraph
from .rsgraph import RSDigraph


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- streams -------------------------------------------------------------------

def render_stream(stream: EdgeStream) -> str:
    lines = [f"STREAM {stream.n} directed={1 if stream.directed else 0}"]
    for tag, seg in stream.segments:
        lines.append(f"SEG {tag}")
        lines.extend(f"{u} {v}" for u, v in seg)
    return "\n".join(lines) + "\n"


def write_stream(path, stream: EdgeStream):
    Path(path).write_text(render_stream(stream))


_HEADER = re.compile(r"STREAM[ \t]+(\d+)[ \t]+directed=([01])", re.ASCII)
_SEG_LINE = re.compile(r"^[ \t]*SEG(?:[ \t].*)?$", re.MULTILINE)
# the text between two SEG lines: edge lines of two integers, blank lines between
_EDGE_LINES = re.compile(r"(?:\s*\n[ \t]*-?\d+[ \t]+-?\d+)*\s*", re.ASCII)


def parse_stream(text: str, layers: LayerMap | None = None) -> EdgeStream:
    """Read the text form strictly; every defect raises a one-line ValueError.

    The file opens with `STREAM <n> directed=<0|1>` (n >= 1). Every edge line
    `u v` holds two vertex ids in [0, n) and follows a `SEG <tag>` line, and no
    tag repeats. Blank lines and whitespace around lines are ignored.
    """
    marks = list(_SEG_LINE.finditer(text))
    rows = [ln.strip() for ln in text[: marks[0].start() if marks else len(text)].splitlines()]
    rows = [ln for ln in rows if ln]
    if not rows:
        raise ValueError("missing stream header 'STREAM <n> directed=<0|1>'" if marks
                         else "empty stream file")
    head = _HEADER.fullmatch(rows[0])
    if head is None or int(head[1]) < 1:
        raise ValueError(f"malformed stream header {rows[0][:80]!r}: "
                         "expected 'STREAM <n> directed=<0|1>' with n >= 1")
    if len(rows) > 1:
        raise ValueError(f"line {rows[1][:80]!r} comes between the header and the first SEG line")
    n = int(head[1])
    segments = []
    for mark, nxt in zip(marks, marks[1:] + [None]):
        seg_head = mark[0].split(maxsplit=1)
        if len(seg_head) != 2:
            raise ValueError("a SEG line has no tag")
        tag = seg_head[1].strip()
        if any(tag == seen for seen, _ in segments):
            raise ValueError(f"segment tag {tag!r} repeats")
        body = text[mark.end() : nxt.start() if nxt else len(text)]
        valid = _EDGE_LINES.match(body).end()
        if valid != len(body):
            stop = body.find("\n", valid)
            bad = body[body.rfind("\n", 0, valid) + 1 : stop if stop >= 0 else len(body)].strip()
            raise ValueError(f"malformed edge line {bad[:80]!r} in segment {tag!r}: expected 'u v'")
        ids = list(map(int, body.split()))
        if ids and (min(ids) < 0 or max(ids) >= n):
            bad_id = min(ids) if min(ids) < 0 else max(ids)
            raise ValueError(f"vertex id {bad_id} in segment {tag!r} is outside [0, {n})")
        segments.append((tag, tuple(zip(ids[::2], ids[1::2]))))
    return EdgeStream(n=n, directed=head[2] == "1", segments=tuple(segments), layers=layers)


def read_stream(path, meta_path=None) -> EdgeStream:
    layers = None
    meta_path = Path(meta_path) if meta_path else default_meta_path(path)
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if "layers" in meta:
            layers = LayerMap(tuple((nm, lo, hi) for nm, lo, hi in meta["layers"]))
    return parse_stream(Path(path).read_text(), layers)


def default_meta_path(path) -> Path:
    p = Path(path)
    return p.with_suffix(p.suffix + ".meta.json")


# --- instance metadata -----------------------------------------------------------

def ur_metadata(inst: URInstance) -> dict:
    live = inst.si_pairs[inst.i_star - 1]
    return {
        "kind": "ur",
        "direction": inst.direction,
        "n": inst.n,
        "n_side": inst.rs.n_side,
        "r": inst.rs.r,
        "t": inst.rs.t,
        "layers": [list(rr) for rr in inst.layers.ranges],
        "witnesses": {
            "i_star": inst.i_star,
            "e_star": inst.e_star,
            "witness": inst.witness,
            "b_size": inst.b_size,
            "live_t": sorted(live.b),
        },
        "rng": inst.meta.get("rng", {}),
    }


def st_metadata(inst: STInstance) -> dict:
    return {
        "kind": "st",
        "n": inst.n,
        "n_side": inst.rs.n_side,
        "r": inst.rs.r,
        "layers": [list(rr) for rr in inst.layers.ranges],
        "e1_mode": inst.e1_mode,
        "witnesses": {
            "s_star": inst.s_star,
            "t_star": inst.t_star,
            "reachable": inst.reachable,
            "forward_i_star": inst.forward.i_star,
            "forward_e_star": inst.forward.e_star,
            "backward_i_star": inst.backward.i_star,
            "backward_e_star": inst.backward.e_star,
        },
        "rng": inst.meta.get("rng", {}),
    }


# --- file-level verification (tamper-evident: stream and meta must agree) --------

def verify_ur_file(stream: EdgeStream, meta: dict) -> Report:
    w = meta["witnesses"]
    edges = list(stream.edges())
    if meta["direction"] == "inverse":
        edges = [(v, u) for u, v in edges]
    reach = reachable_from(edges, 0)
    layers = {nm: (lo, hi) for nm, lo, hi in meta["layers"]}
    name3 = "V3" if meta["direction"] == "forward" else "U3"
    lo, hi = layers[name3]
    hit = sorted(v for v in reach if lo <= v <= hi)
    if hit != [w["witness"]]:
        return fail_report("reachable layer-3 set differs from the recorded witness",
                           reachable=hit, witness=w["witness"])
    if w["witness"] != lo + w["e_star"] - 1:
        return fail_report("witness does not sit at the target index")
    if len(w["live_t"]) != meta["r"] // 4 or w["b_size"] != meta["r"] // 4:
        return fail_report("conditional support size is not r/4", live_t=w["live_t"])
    return ok_report(witness=w["witness"])


def verify_st_file(stream: EdgeStream, meta: dict) -> Report:
    w = meta["witnesses"]
    edges = list(stream.edges())
    n = stream.n
    reach = reachable_from(edges, 0)
    bfs_says = (n - 1) in reach
    e1 = dict(stream.segments).get("E1", ())
    edge_says = (w["s_star"], w["t_star"]) in set(e1)
    if bfs_says != edge_says:
        return fail_report("reachability differs from middle-edge membership",
                           bfs=bfs_says, middle_edge=edge_says)
    if bfs_says != w["reachable"]:
        return fail_report("recorded reachable flag contradicts BFS",
                           recorded=w["reachable"], bfs=bfs_says)
    if bfs_says and shortest_path_length(edges, 0, n - 1) != 7:
        return fail_report("witness path does not have 7 edges")
    return ok_report(reachable=bfs_says)


# --- RS digraphs ------------------------------------------------------------------

def render_rs(g: RSDigraph) -> str:
    lines = [f"RS {g.n_side} {g.t} {g.r}"]
    for i, matching in enumerate(g.matchings, start=1):
        lines.append(f"M {i}")
        lines.extend(f"{u} {v}" for u, v in matching)
    return "\n".join(lines) + "\n"


def write_rs(path, g: RSDigraph):
    Path(path).write_text(render_rs(g))


def parse_rs(text: str) -> RSDigraph:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "RS":
        raise ValueError("malformed RS header")
    n_side, t, r = int(head[1]), int(head[2]), int(head[3])
    matchings = []
    current: list = []
    for ln in lines[1:]:
        if ln.startswith("M "):
            if current:
                matchings.append(tuple(current))
            current = []
        else:
            u, v = ln.split()
            current.append((int(u), int(v)))
    if current:
        matchings.append(tuple(current))
    return RSDigraph(n_side=n_side, r=r, t=t, matchings=tuple(matchings), source={"file": True})


def read_rs(path) -> RSDigraph:
    return parse_rs(Path(path).read_text())


# --- bipartite graphs --------------------------------------------------------------

def render_bipartite(g: BipartiteGraph) -> str:
    index_l = {u: i + 1 for i, u in enumerate(g.left)}
    index_r = {v: i + 1 for i, v in enumerate(g.right)}
    lines = [f"BIPARTITE {len(g.left)} {len(g.right)}"]
    lines += [f"# L{i + 1} {u}" for i, u in enumerate(g.left)]
    lines += [f"# R{i + 1} {v}" for i, v in enumerate(g.right)]
    lines += [f"{index_l[u]} {index_r[v]}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def write_bipartite(path, g: BipartiteGraph):
    Path(path).write_text(render_bipartite(g))


def parse_bipartite(text: str) -> BipartiteGraph:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "BIPARTITE":
        raise ValueError("malformed bipartite header")
    n_l, n_r = int(head[1]), int(head[2])
    left = tuple(range(1, n_l + 1))
    right = tuple(-(i + 1) for i in range(n_r))  # distinct namespaces
    edges = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            continue
        i, j = ln.split()
        edges.append((int(i), -int(j)))
    return BipartiteGraph(left, right, tuple(edges))


def read_bipartite(path) -> BipartiteGraph:
    return parse_bipartite(Path(path).read_text())


def write_json(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
