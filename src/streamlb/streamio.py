"""Plain-text artifact formats: streams, RS digraphs, bipartite graphs, metadata.

Streams are grep-able text; witnesses live in a sibling JSON metadata file
that only `read_meta` opens, so an algorithm under test never sees them.
Every format round-trips exactly.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from .common import EdgeBlock, Report, id_array
from .instances import (
    FORWARD,
    INVERSE,
    EdgeStream,
    LayerMap,
    STInstance,
    URInstance,
    check_st,
    check_ur,
    st_layer_map,
    st_witnesses,
    ur_layer_map,
    ur_witnesses,
)
from .reductions import MAX_BIPARTITE_SIDE, BipartiteGraph
from .rsgraph import RSDigraph


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- streams -------------------------------------------------------------------

def render_stream(stream: EdgeStream) -> str:
    lines = [f"STREAM {stream.n} directed={1 if stream.directed else 0}"]
    for tag, seg in stream.segments:
        lines.append(f"SEG {tag}")
        lines.extend(f"{u} {v}" for u, v in zip(seg.us.tolist(), seg.vs.tolist()))  # caches no pairs
    return "\n".join(lines) + "\n"


def write_stream(path, stream: EdgeStream):
    Path(path).write_text(render_stream(stream))


_HEADER = re.compile(r"STREAM[ \t]+(\d+)[ \t]+directed=([01])", re.ASCII)
_SEG_LINE = re.compile(r"^[ \t]*SEG(?:[ \t].*)?$", re.MULTILINE)
# the text between two SEG lines: edge lines of two integers, blank lines between
_EDGE_LINES = re.compile(r"(?:\s*\n[ \t]*-?\d+[ \t]+-?\d+)*\s*", re.ASCII)


def _edge_ids(body: str, where: str) -> list[int]:
    """The ids of a block of `u v` edge lines, flat; any other line raises."""
    valid = _EDGE_LINES.match(body).end()
    if valid != len(body):
        stop = body.find("\n", valid)
        bad = body[body.rfind("\n", 0, valid) + 1 : stop if stop >= 0 else len(body)].strip()
        raise ValueError(f"malformed edge line {bad[:80]!r} in {where}: expected 'u v'")
    return list(map(int, body.split()))


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
        ids = id_array(_edge_ids(text[mark.end() : nxt.start() if nxt else len(text)], f"segment {tag!r}"))
        if len(ids) and (ids.min() < 0 or ids.max() >= n):
            bad_id = ids.min() if ids.min() < 0 else ids.max()
            raise ValueError(f"vertex id {bad_id} in segment {tag!r} is outside [0, {n})")
        segments.append((tag, EdgeBlock(ids[0::2], ids[1::2])))
    return EdgeStream(n=n, directed=head[2] == "1", segments=tuple(segments), layers=layers)


def meta_layers(meta: dict) -> LayerMap:
    return LayerMap(tuple((nm, lo, hi) for nm, lo, hi in meta["layers"]))


def read_stream(path) -> EdgeStream:
    """The stream file alone; its `.meta.json` witness file is never opened."""
    return parse_stream(Path(path).read_text())


def default_meta_path(path) -> Path:
    p = Path(path)
    return p.with_suffix(p.suffix + ".meta.json")


# --- instance metadata -----------------------------------------------------------

def ur_metadata(inst: URInstance) -> dict:
    return {
        "kind": "ur",
        "direction": inst.direction,
        "n": inst.n,
        "n_side": inst.rs.n_side,
        "r": inst.rs.r,
        "t": inst.rs.t,
        "layers": [list(rr) for rr in inst.layers.ranges],
        "witnesses": ur_witnesses(inst),
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
        "witnesses": st_witnesses(inst),
        "rng": inst.meta.get("rng", {}),
    }


# the witness fields each kind's metadata records, with their JSON types
_WITNESS_TYPES = {
    "ur": {"i_star": int, "e_star": int, "witness": int, "b_size": int, "live_t": list},
    "st": {"s_star": int, "t_star": int, "reachable": bool, "forward_i_star": int,
           "forward_e_star": int, "backward_i_star": int, "backward_e_star": int},
}
_TYPE_NAMES = {int: "an integer", bool: "true or false", list: "a list of integers"}


def _json_type_ok(value, typ) -> bool:
    if typ is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if typ is list:
        return isinstance(value, list) and all(_json_type_ok(v, int) for v in value)
    return isinstance(value, typ)


def read_meta(path, kind: str) -> dict:
    """Read an instance's `.meta.json` strictly; every defect raises a one-line ValueError.

    The message names the file and the field. `kind` must equal the kind
    asked for, `layers` must be [name, lo, hi] entries naming that kind's
    layers in order, and `witnesses` must hold every witness field of the
    kind with its JSON type. The other fields describe the instance and are
    not read.
    """
    path = Path(path)
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON metadata file: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if meta.get("kind") != kind:
        raise ValueError(f"{path}: metadata kind {meta.get('kind')!r} does not match {kind!r}")
    rows = meta.get("layers")
    if not isinstance(rows, list):
        raise ValueError(f"{path}: field 'layers' is missing or not a list")
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3 and isinstance(row[0], str)
                and _json_type_ok(row[1], int) and _json_type_ok(row[2], int)):
            raise ValueError(f"{path}: field 'layers[{i}]' is {repr(row)[:80]}, not [name, lo, hi]")
    orders = ((st_layer_map(1, 1).order,) if kind == "st" else
              (ur_layer_map(1, 1, FORWARD).order, ur_layer_map(1, 1, INVERSE).order))
    order = tuple(name for name, _, _ in rows)
    if order not in orders:
        raise ValueError(f"{path}: field 'layers' names {list(order)}, not the {kind} layers")
    witnesses = meta.get("witnesses")
    if not isinstance(witnesses, dict):
        raise ValueError(f"{path}: field 'witnesses' is missing or not an object")
    for name, typ in _WITNESS_TYPES[kind].items():
        if name not in witnesses:
            raise ValueError(f"{path}: field 'witnesses.{name}' is missing")
        if not _json_type_ok(witnesses[name], typ):
            raise ValueError(f"{path}: field 'witnesses.{name}' is {repr(witnesses[name])[:80]}, "
                             f"not {_TYPE_NAMES[typ]}")
    return meta


# --- file-level verification (tamper-evident: stream and meta must agree) --------

def verify_ur_file(stream: EdgeStream, meta: dict) -> Report:
    return check_ur(stream.edge_block(), meta_layers(meta), meta["witnesses"])


def verify_st_file(stream: EdgeStream, meta: dict) -> Report:
    e1 = dict(stream.segments).get("E1", EdgeBlock((), ()))
    return check_st(stream.edge_block(), e1, meta_layers(meta), meta["witnesses"])


# --- RS digraphs ------------------------------------------------------------------

def render_rs(g: RSDigraph) -> str:
    blocks = [f"RS {g.n_side} {g.t} {g.r}"]  # one string per matching: no list of every line
    for i, matching in enumerate(g.matchings, start=1):
        pairs = zip(matching.us.tolist(), matching.vs.tolist())
        blocks.append("\n".join([f"M {i}", *(f"{u} {v}" for u, v in pairs)]))
    return "\n".join(blocks) + "\n"


def write_rs(path, g: RSDigraph):
    Path(path).write_text(render_rs(g))


_RS_HEADER = re.compile(r"RS[ \t]+(\d+)[ \t]+(\d+)[ \t]+(\d+)", re.ASCII)
_M_LINE = re.compile(r"^[ \t]*M(?:[ \t].*)?$", re.MULTILINE)
_M_INDEX = re.compile(r"M[ \t]+(\d+)", re.ASCII)


def parse_rs(text: str) -> RSDigraph:
    """Read the text form strictly; every defect raises a one-line ValueError.

    The file opens with `RS <N> <t> <r>`, then blocks `M 1`, `M 2`, ... in
    order, each followed by its edge lines `u v` (two integers); a block is
    empty only when r = 0. Blank lines and whitespace around lines are
    ignored. Counts that disagree with the header and ids outside [1, N] are
    left to `verify_induced`.
    """
    marks = list(_M_LINE.finditer(text))
    rows = [ln.strip() for ln in text[: marks[0].start() if marks else len(text)].splitlines()]
    rows = [ln for ln in rows if ln]
    if not rows:
        raise ValueError("missing RS header 'RS <N> <t> <r>'" if marks else "empty RS file")
    head = _RS_HEADER.fullmatch(rows[0])
    if head is None:
        raise ValueError(f"malformed RS header {rows[0][:80]!r}: expected 'RS <N> <t> <r>'")
    if len(rows) > 1:
        raise ValueError(f"line {rows[1][:80]!r} comes before the first 'M 1' line")
    n_side, t, r = int(head[1]), int(head[2]), int(head[3])
    matchings = []
    for mark, nxt in zip(marks, marks[1:] + [None]):
        i = len(matchings) + 1
        index = _M_INDEX.fullmatch(mark[0].strip())
        if index is None or int(index[1]) != i:
            raise ValueError(f"matching header {mark[0].strip()[:80]!r} out of order: expected 'M {i}'")
        ids = id_array(_edge_ids(text[mark.end() : nxt.start() if nxt else len(text)], f"matching {i}"))
        if not len(ids) and r:
            raise ValueError(f"matching {i} has no edges")
        matchings.append(EdgeBlock(ids[0::2], ids[1::2]))
    return RSDigraph(n_side=n_side, r=r, t=t, matchings=tuple(matchings), source={"file": True})


def read_rs(path) -> RSDigraph:
    return parse_rs(Path(path).read_text())


# --- bipartite graphs --------------------------------------------------------------

def render_bipartite(g: BipartiteGraph) -> str:
    lines = [f"BIPARTITE {len(g.left)} {len(g.right)}"]
    lines += [f"# L{i} {u}" for i, u in enumerate(g.left, 1)]
    lines += [f"# R{j} {v}" for j, v in enumerate(g.right, 1)]
    lines += [f"{i} {j}" for i, j in zip((g.edges.us + 1).tolist(), (g.edges.vs + 1).tolist())]
    return "\n".join(lines) + "\n"


def write_bipartite(path, g: BipartiteGraph):
    Path(path).write_text(render_bipartite(g))


# the header's side counts size the graph before any edge is read, so they are capped
_BIPARTITE_HEADER = re.compile(r"BIPARTITE[ \t]+(\d+)[ \t]+(\d+)", re.ASCII)
_LABEL_LINE = re.compile(r"#[ \t]*([LR])(\d+)[ \t]+\S.*", re.ASCII)
_INDEX_PAIR = re.compile(r"(\d+)[ \t]+(\d+)", re.ASCII)


def parse_bipartite(text: str) -> BipartiteGraph:
    """Read the text form strictly; every defect raises a one-line ValueError.

    The file opens with `BIPARTITE <nL> <nR>`. Every later line is a label
    `# L<i> <id>` / `# R<i> <id>` or an edge `i j` with i in [1, nL] and j in
    [1, nR]. Labels are not read back: both sides are labelled from 1, and the
    edges are 0-based. Neither side may exceed MAX_BIPARTITE_SIDE vertices.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty bipartite file")
    head = _BIPARTITE_HEADER.fullmatch(lines[0])
    if head is None:
        raise ValueError(f"malformed bipartite header {lines[0][:80]!r}: expected 'BIPARTITE <nL> <nR>'")
    n_l, n_r = int(head[1]), int(head[2])
    if max(n_l, n_r) > MAX_BIPARTITE_SIDE:
        raise ValueError(f"bipartite header {lines[0][:80]!r} declares more than "
                         f"{MAX_BIPARTITE_SIDE} vertices on a side")
    edges = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            label = _LABEL_LINE.fullmatch(ln)
            if label is None or not 1 <= int(label[2]) <= (n_l if label[1] == "L" else n_r):
                raise ValueError(f"malformed label line {ln[:80]!r}: expected '# L<i> <id>' or '# R<i> <id>'")
            continue
        pair = _INDEX_PAIR.fullmatch(ln)
        if pair is None:
            raise ValueError(f"malformed edge line {ln[:80]!r}: expected 'i j'")
        i, j = int(pair[1]), int(pair[2])
        if not (1 <= i <= n_l and 1 <= j <= n_r):
            raise ValueError(f"edge {ln[:80]!r} is outside [1, {n_l}] x [1, {n_r}]")
        edges.append((i - 1, j - 1))
    return BipartiteGraph(tuple(range(1, n_l + 1)), tuple(range(1, n_r + 1)), edges)


def read_bipartite(path) -> BipartiteGraph:
    return parse_bipartite(Path(path).read_text())


def write_json(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
