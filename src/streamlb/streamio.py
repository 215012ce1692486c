"""Plain-text artifact formats: streams, RS digraphs, bipartite graphs, metadata.

Streams are grep-able text; witnesses live in a sibling JSON metadata file
that only `read_meta` opens, so an algorithm under test never sees them.
Every format round-trips exactly.
"""

from __future__ import annotations

import hashlib
import json
import re
from array import array
from functools import lru_cache
from pathlib import Path

import numpy as np

from .common import EdgeBlock, Report
from .instances import (
    FORWARD,
    INVERSE,
    EdgeStream,
    LayerMap,
    STInstance,
    URInstance,
    check_st,
    check_ur,
    check_vertex_count,
    st_layer_map,
    st_witnesses,
    ur_layer_map,
    ur_witnesses,
)
from .reductions import MAX_BIPARTITE_SIDE, BipartiteGraph
from .rsgraph import RSDigraph


def sha256_file(path) -> str:
    """The file's sha256, read a megabyte at a time."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as data:
        for block in iter(lambda: data.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --- streams -------------------------------------------------------------------

RENDER_CHUNK = 1 << 16  # edges per formatted string: no stream is held as one string per edge
TABLE_SLACK = 1 << 16  # ids a decimal table may hold beyond the edges it formats


def _decimal_table(count: int, head: bytes = b"", end: bytes = b"") -> np.ndarray:
    """Row i, for i in [0, count): `head`, the decimal digits of i, then `end`,
    padded with NUL bytes to the table's fixed width."""
    places = len(str(max(count - 1, 0)))
    digits = np.arange(count).astype(f"S{places}").view(np.uint8).reshape(count, places)
    table = np.zeros((count, len(head) + digits.shape[1] + len(end)), dtype=np.uint8)
    table[:, : len(head)] = np.frombuffer(head, dtype=np.uint8)
    table[:, len(head) : len(head) + digits.shape[1]] = digits
    stop = len(head) + np.count_nonzero(digits, axis=1)  # where each row's digits end
    table[np.arange(count)[:, None], stop[:, None] + np.arange(len(end))] = np.frombuffer(end, dtype=np.uint8)
    return table


@lru_cache(maxsize=2)
def _line_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables of "i " and "i\\n" for the ids i in [0, n), read-only: every caller shares them."""
    tables = _decimal_table(n, end=b" "), _decimal_table(n, end=b"\n")
    for table in tables:
        table.flags.writeable = False
    return tables


def _tabled(ids: np.ndarray, n: int) -> bool:
    """Whether every id lies in [0, n), so a line table of n rows formats them."""
    return not ids.size or (ids.min() >= 0 and ids.max() < n)


def _table_lines(rows: np.ndarray) -> str:
    """The text of fixed-width NUL-padded rows of bytes, without the padding."""
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _stream_text(stream: EdgeStream):
    """The text of `render_stream`, in strings of at most RENDER_CHUNK edge lines."""
    yield f"STREAM {stream.n} directed={1 if stream.directed else 0}\n"
    tabled = stream.n <= stream.edge_count() + TABLE_SLACK
    for tag, seg in stream.segments:
        yield f"SEG {tag}\n"
        for lo in range(0, len(seg), RENDER_CHUNK):
            us, vs = seg.us[lo : lo + RENDER_CHUNK], seg.vs[lo : lo + RENDER_CHUNK]
            if tabled:
                first, last = _line_tables(stream.n)
                yield _table_lines(np.concatenate((first[us], last[vs]), axis=1))
            else:
                yield "%d %d\n" * len(us) % tuple(np.column_stack((us, vs)).ravel().tolist())


def render_stream(stream: EdgeStream) -> str:
    """The text form of a stream: its header, then each segment's SEG line and
    its edges, one "u v" line each.

    The edges are formatted in chunks of RENDER_CHUNK. While the stream's n is
    at most TABLE_SLACK beyond its edge count, a chunk is one gather from two
    fixed-width byte tables of "i " and "i\\n", NUL padded (`_line_tables`,
    built on first use and kept for the next stream of that n), with the
    padding deleted by `bytes.translate`; `EdgeStream` holds every id in
    [0, n). A stream of fewer edges is formatted by `%`.
    """
    return "".join(_stream_text(stream))


def write_stream(path, stream: EdgeStream):
    with Path(path).open("w") as out:
        out.writelines(_stream_text(stream))


_HEADER = re.compile(r"STREAM[ \t]+(\d+)[ \t]+directed=([01])", re.ASCII)
_SEG_LINE = re.compile(r"^[ \t]*SEG(?:[ \t].*)?$", re.MULTILINE)
# the text between two SEG lines: edge lines of two integers, blank lines between
_EDGE_LINES = re.compile(r"(?:\s*\n[ \t]*-?\d+[ \t]+-?\d+)*\s*", re.ASCII)


_SPACE_BYTES = np.zeros(256, bool)
_SPACE_BYTES[list(b" \t\n")] = True
_INT64 = np.iinfo(np.int64)


def _plain_ids(body: str) -> np.ndarray | None:
    """The ids of a plain block of edge lines, or None where only the exact path can tell.

    Plain means: only the bytes of `[0-9 \\t\\n-]`, split by the runs of
    space, tab and newline into tokens -?\\d+ (a '-' only where a token starts
    and before a digit); a newline in the run before each line's first token,
    none in the run between its two, and an even count of tokens. Such a block
    matches `_EDGE_LINES`, and `np.fromstring` reads it in one pass. The checks
    run on the separator bytes alone, found by one comparison. A value at
    either end of int64 may have saturated there, so it is not trusted either.
    """
    try:
        raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    if not len(raw) or raw.max() > ord("9"):
        return None
    seps = np.flatnonzero(raw < ord("0"))  # whitespace and '-', once every other byte is a digit
    kind = raw[seps]
    minus = kind == ord("-")
    signs = seps[minus]
    if len(signs):
        seps, kind = seps[~minus], kind[~minus]
    if not len(seps) or seps[0] != 0 or not _SPACE_BYTES[kind].all():
        return None
    if len(signs) and not (_SPACE_BYTES[raw[signs - 1]].all() and signs[-1] + 1 < len(raw)
                           and (raw[signs + 1] >= ord("0")).all()):
        return None
    gap = np.empty(len(seps), dtype=bool)  # where each run of separators starts
    gap[0] = True
    np.not_equal(seps[1:], seps[:-1] + 1, out=gap[1:])
    runs = np.flatnonzero(gap)
    newline = np.logical_or.reduceat(kind == ord("\n"), runs)
    tokens = len(runs) - (seps[-1] == len(raw) - 1)  # one after each run, but a run that ends the block
    between = newline[1:tokens]  # the run after each token but the last
    if not tokens or tokens % 2 or not newline[0] or between[0::2].any() or not between[1::2].all():
        return None
    ids = np.fromstring(raw, dtype=np.int64, sep=" ")
    if len(ids) != tokens or ids.min() == _INT64.min or ids.max() == _INT64.max:
        return None
    return ids


def _marker_lines(pattern: re.Pattern, word: str, text: str) -> list[re.Match]:
    """The matches of `pattern`, a whole-line pattern of lines holding `word`,
    in text order, as `pattern.finditer(text)` finds them. Only the lines where
    `word` occurs are tried, each once, so the edge lines are skipped by
    `str.find` rather than tried one by one."""
    marks, at = [], text.find(word)
    while at >= 0:
        mark = pattern.match(text, text.rfind("\n", 0, at) + 1)
        if mark:
            marks.append(mark)
            at = text.find(word, mark.end())
        else:
            stop = text.find("\n", at)
            at = text.find(word, stop) if stop >= 0 else -1
    return marks


def _edge_ids(body: str, where: str, span: str) -> np.ndarray:
    """The ids of a block of `u v` edge lines, flat, as one int64 array; any
    other line raises, and so does an id past int64, as outside `span`. A
    plain block (`_plain_ids`) is read in one C-level pass; any other, or one
    without edges, is checked by the strict regex and read one Python int per
    token."""
    ids = _plain_ids(body)
    if ids is not None:
        return ids
    valid = _EDGE_LINES.match(body).end()
    if valid != len(body):
        stop = body.find("\n", valid)
        bad = body[body.rfind("\n", 0, valid) + 1 : stop if stop >= 0 else len(body)].strip()
        raise ValueError(f"malformed edge line {bad[:80]!r} in {where}: expected 'u v'")
    ids = list(map(int, body.split()))
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        bad = min(ids) if min(ids) < _INT64.min else max(ids)
        raise ValueError(f"vertex id {bad} in {where} is outside {span}") from None


def parse_stream(text: str, layers: LayerMap | None = None) -> EdgeStream:
    """Read the text form strictly; every defect raises a one-line ValueError.

    The file opens with `STREAM <n> directed=<0|1>`, 1 <= n <= MAX_STREAM_N.
    Every edge line `u v` holds two vertex ids in [0, n), which `EdgeStream`
    checks, and follows a `SEG <tag>` line, and no tag repeats. Blank lines
    and whitespace around lines are ignored.

    The SEG lines are found by `str.find`. A segment of plain lines (digits,
    '-', spaces, tabs and newlines; two -?\\d+ tokens a line) is checked by a
    byte-class pass and read by one `np.fromstring`; anything else, a segment
    without edges, or an id at either end of int64 (where that read saturates)
    goes through the strict regex and one Python int per token, so an error
    names the exact line or id.
    """
    marks = _marker_lines(_SEG_LINE, "SEG", text)
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
    check_vertex_count(n, f"stream header {rows[0][:80]!r}")
    segments = []
    for mark, nxt in zip(marks, marks[1:] + [None]):
        seg_head = mark[0].split(maxsplit=1)
        if len(seg_head) != 2:
            raise ValueError("a SEG line has no tag")
        tag = seg_head[1].strip()
        if any(tag == seen for seen, _ in segments):
            raise ValueError(f"segment tag {tag!r} repeats")
        ids = _edge_ids(text[mark.end() : nxt.start() if nxt else len(text)], f"segment {tag!r}", f"[0, {n})")
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

def _rs_text(g: RSDigraph):
    """The text form of an RS digraph, in strings of whole matchings of at most
    RENDER_CHUNK edges (one matching at least).

    When every matching has r edges with ids in [0, N], which holds for every
    graph `verify_induced` accepts, and N is at most TABLE_SLACK beyond the
    edge count, a chunk is one gather: each matching's "M i" line from a table
    of them, then its edge lines from the stream's line tables, read from
    (count, r) views of the edges. Otherwise each matching is formatted line
    by line.
    """
    yield f"RS {g.n_side} {g.t} {g.r}\n"
    bound, k, edges = g.n_side + 1, len(g.sizes), g.edges
    if g.sizes == (g.r,) * k and bound <= len(edges) + TABLE_SLACK and _tabled(edges.us, bound) \
            and _tabled(edges.vs, bound):
        first, last = _line_tables(bound)
        width = first.shape[1] + last.shape[1]
        heads = _decimal_table(k + 1, head=b"M ", end=b"\n")[1:]
        left, right = edges.us.reshape(k, g.r), edges.vs.reshape(k, g.r)
        step = max(1, RENDER_CHUNK // max(g.r, 1))
        for lo in range(0, k, step):
            us, vs = left[lo : lo + step], right[lo : lo + step]
            lines = np.concatenate((first[us], last[vs]), axis=2).reshape(len(us), g.r * width)
            yield _table_lines(np.concatenate((heads[lo : lo + step], lines), axis=1))
        return
    for i, matching in enumerate(g.matchings, start=1):
        pairs = zip(matching.us.tolist(), matching.vs.tolist())
        yield "".join([f"M {i}\n", *(f"{u} {v}\n" for u, v in pairs)])


def render_rs(g: RSDigraph) -> str:
    return "".join(_rs_text(g))


def write_rs(path, g: RSDigraph):
    with Path(path).open("w") as out:
        out.writelines(_rs_text(g))


_RS_HEADER = re.compile(r"RS[ \t]+(\d+)[ \t]+(\d+)[ \t]+(\d+)", re.ASCII)
_M_LINE = re.compile(r"^[ \t]*M(?:[ \t].*)?$", re.MULTILINE)
_M_INDEX = re.compile(r"M[ \t]+(\d+)", re.ASCII)


def parse_rs(text: str) -> RSDigraph:
    """Read the text form strictly; every defect raises a one-line ValueError.

    The file opens with `RS <N> <t> <r>`, then blocks `M 1`, `M 2`, ... in
    order, each followed by its edge lines `u v` (two integers); a block is
    empty only when r = 0. Blank lines and whitespace around lines are
    ignored; an id past int64 raises. Counts that disagree with the header
    and ids outside [1, N] are left to `verify_induced`.
    """
    marks = _marker_lines(_M_LINE, "M", text)
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
    # the ids are appended to one growing buffer as each matching is read: a
    # list of one array per matching would leave its freed blocks behind in
    # the heap once joined
    ids, sizes = array("q"), []
    for mark, nxt in zip(marks, marks[1:] + [None]):
        i = len(sizes) + 1
        index = _M_INDEX.fullmatch(mark[0].strip())
        if index is None or int(index[1]) != i:
            raise ValueError(f"matching header {mark[0].strip()[:80]!r} out of order: expected 'M {i}'")
        block = _edge_ids(text[mark.end() : nxt.start() if nxt else len(text)], f"matching {i}", "int64")
        if not len(block) and r:
            raise ValueError(f"matching {i} has no edges")
        ids.frombytes(block.view(np.uint8))
        sizes.append(len(block) // 2)
    ids = np.frombuffer(ids, dtype=np.int64)
    return RSDigraph(n_side, r, t, EdgeBlock(ids[0::2], ids[1::2]), tuple(sizes), source={"file": True})


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
