"""Plain-text artifact formats: streams, RS digraphs, bipartite graphs, metadata.

Streams are grep-able text; witnesses live in a sibling JSON metadata file
that only `read_meta` opens, so an algorithm under test never sees them.
Every format round-trips exactly. The three graph formats are a header,
marker lines and blocks of `u v` edge lines: every edge line is written by
`_edge_text` and read by `_edge_ids`.
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

RENDER_CHUNK = 1 << 16  # edge lines per formatted string: no file is held as one string per edge
TABLE_SLACK = 1 << 16  # ids a decimal table may hold beyond the edges it formats


@lru_cache(maxsize=2)
def _line_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables of "i " and "i\\n" for the ids i in [0, n), read-only: every
    caller shares them. Row i holds the decimal digits of i, then the space or
    the newline, padded with NUL bytes to the table's fixed width."""
    places = len(str(max(n - 1, 0)))
    digits = np.zeros((n, places + 1), dtype=np.uint8)
    digits[:, :places] = np.arange(n).astype(f"S{places}").view(np.uint8).reshape(n, places)
    rows, stop = np.arange(n), np.count_nonzero(digits, axis=1)  # where each row's digits end
    tables = digits, digits.copy()
    for table, end in zip(tables, b" \n"):
        table[rows, stop] = end
        table.flags.writeable = False
    return tables


def _table_lines(rows: np.ndarray) -> str:
    """The text of fixed-width NUL-padded rows of bytes, without the padding."""
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _edge_text(us: np.ndarray, vs: np.ndarray, n: int, tabled: bool):
    """The edges' "u v" lines, in strings of at most RENDER_CHUNK lines: the
    one formatter of every file's edge lines.

    Each file takes one rule for all its edges: `tabled` only when every id
    lies in [0, n) and n is at most TABLE_SLACK beyond the file's edge count.
    A tabled string is one gather from two fixed-width byte tables of "i " and
    "i\\n", NUL padded (`_line_tables`, built on first use and kept for the
    next file of that n), with the padding deleted by `bytes.translate`; any
    other is one `%` format.
    """
    for lo in range(0, len(us), RENDER_CHUNK):
        u, v = us[lo : lo + RENDER_CHUNK], vs[lo : lo + RENDER_CHUNK]
        if tabled:
            first, last = _line_tables(n)
            yield _table_lines(np.concatenate((first[u], last[v]), axis=1))
        else:
            yield "%d %d\n" * len(u) % tuple(np.column_stack((u, v)).ravel().tolist())


def _stream_text(stream: EdgeStream):
    """The text of `render_stream`, in strings of at most RENDER_CHUNK edge lines."""
    yield f"STREAM {stream.n} directed={1 if stream.directed else 0}\n"
    tabled = stream.n <= stream.edge_count() + TABLE_SLACK  # `EdgeStream` holds every id in [0, n)
    for tag, seg in stream.segments:
        yield f"SEG {tag}\n"
        yield from _edge_text(seg.us, seg.vs, stream.n, tabled)


def render_stream(stream: EdgeStream) -> str:
    """The text form of a stream: its header, then each segment's SEG line and
    its edges, one "u v" line each (`_edge_text`)."""
    return "".join(_stream_text(stream))


def write_stream(path, stream: EdgeStream):
    with Path(path).open("w") as out:
        out.writelines(_stream_text(stream))


_HEADER = re.compile(r"STREAM[ \t]+0*([1-9]\d*)[ \t]+directed=([01])", re.ASCII)
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


def _marked_blocks(text: str, kind: str, header: re.Pattern, form: str, rule: str,
                   marker: re.Pattern, word: str, before: str):
    """The header match of a file of `kind` and its blocks, as (marker line,
    the text up to the next one), each sliced only when it is reached.

    The header is the first non-blank line and fully matches `header`; no
    other line comes before the first line that `marker` matches (found by
    `_marker_lines` with `word`). Each defect raises a one-line ValueError
    naming the file's `form` and the `rule` its header keeps.
    """
    marks = _marker_lines(marker, word, text)
    rows = [ln.strip() for ln in text[: marks[0].start() if marks else len(text)].splitlines()]
    rows = [ln for ln in rows if ln]
    if not rows:
        raise ValueError(f"missing {kind} header '{form}'" if marks else f"empty {kind} file")
    head = header.fullmatch(rows[0])
    if head is None:
        raise ValueError(f"malformed {kind} header {rows[0][:80]!r}: expected '{form}'{rule}")
    if len(rows) > 1:
        raise ValueError(f"line {rows[1][:80]!r} comes {before}")
    stops = [mark.start() for mark in marks[1:]] + [len(text)]
    return head, ((mark, text[mark.end() : stop]) for mark, stop in zip(marks, stops))


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
    head, blocks = _marked_blocks(text, "stream", _HEADER, "STREAM <n> directed=<0|1>", " with n >= 1",
                                  _SEG_LINE, "SEG", "between the header and the first SEG line")
    n = int(head[1])
    check_vertex_count(n, f"stream header {head[0][:80]!r}")
    segments = []
    for mark, body in blocks:
        seg_head = mark[0].split(maxsplit=1)
        if len(seg_head) != 2:
            raise ValueError("a SEG line has no tag")
        tag = seg_head[1].strip()
        if any(tag == seen for seen, _ in segments):
            raise ValueError(f"segment tag {tag!r} repeats")
        ids = _edge_ids(body, f"segment {tag!r}", f"[0, {n})")
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
    """The text form of an RS digraph: its header, then one string per matching,
    its "M i" line and its edge lines (`_edge_text`). Tabled when every id lies
    in [0, N], which holds for every graph `verify_induced` accepts."""
    yield f"RS {g.n_side} {g.t} {g.r}\n"
    bound, edges = g.n_side + 1, g.edges
    tabled = bound <= len(edges) + TABLE_SLACK and (not len(edges) or (
        min(edges.us.min(), edges.vs.min()) >= 0 and max(edges.us.max(), edges.vs.max()) < bound))
    for i, matching in enumerate(g.matchings, start=1):
        yield "".join((f"M {i}\n", *_edge_text(matching.us, matching.vs, bound, tabled)))


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
    head, blocks = _marked_blocks(text, "RS", _RS_HEADER, "RS <N> <t> <r>", "",
                                  _M_LINE, "M", "before the first 'M 1' line")
    n_side, t, r = int(head[1]), int(head[2]), int(head[3])
    # the ids are appended to one growing buffer as each matching is read: a
    # list of one array per matching would leave its freed blocks behind in
    # the heap once joined
    ids, sizes = array("q"), []
    for mark, body in blocks:
        i = len(sizes) + 1
        index = _M_INDEX.fullmatch(mark[0].strip())
        if index is None or int(index[1]) != i:
            raise ValueError(f"matching header {mark[0].strip()[:80]!r} out of order: expected 'M {i}'")
        block = _edge_ids(body, f"matching {i}", "int64")
        if not len(block) and r:
            raise ValueError(f"matching {i} has no edges")
        ids.frombytes(block.view(np.uint8))
        sizes.append(len(block) // 2)
    ids = np.frombuffer(ids, dtype=np.int64)
    return RSDigraph(n_side, r, t, EdgeBlock(ids[0::2], ids[1::2]), tuple(sizes), source={"file": True})


def read_rs(path) -> RSDigraph:
    return parse_rs(Path(path).read_text())


# --- bipartite graphs --------------------------------------------------------------

def _bipartite_text(g: BipartiteGraph):
    """The text form of a bipartite graph: its header, its label lines, then
    its edges 1-based (`_edge_text`)."""
    n_l, n_r = len(g.left), len(g.right)
    yield f"BIPARTITE {n_l} {n_r}\n"
    yield "".join([*(f"# L{i} {u}\n" for i, u in enumerate(g.left, 1)),
                   *(f"# R{j} {v}\n" for j, v in enumerate(g.right, 1))])
    bound = max(n_l, n_r) + 1  # `BipartiteGraph` holds every index in [0, nL) x [0, nR)
    yield from _edge_text(g.edges.us + 1, g.edges.vs + 1, bound, bound <= len(g.edges) + TABLE_SLACK)


def write_bipartite(path, g: BipartiteGraph):
    with Path(path).open("w") as out:
        out.writelines(_bipartite_text(g))


# the header's side counts size the graph before any edge is read, so they are capped
_BIPARTITE_HEADER = re.compile(r"BIPARTITE[ \t]+(\d+)[ \t]+(\d+)", re.ASCII)
_LABEL_MARK = re.compile(r"^[ \t]*#.*$", re.MULTILINE)
_LABEL_LINE = re.compile(r"#[ \t]*([LR])(\d+)[ \t]+\S.*", re.ASCII)
_FIRST_LINE = re.compile(r"\s*([^\n]*)")  # the first non-blank line, from its first non-blank


def parse_bipartite(text: str) -> BipartiteGraph:
    """Read the text form strictly; every defect raises a one-line ValueError.

    The file opens with `BIPARTITE <nL> <nR>`. A later line whose first
    non-blank is '#' is a label `# L<i> <id>` / `# R<i> <id>`, i on its side,
    and may come anywhere; the lines around the labels are read as one block
    of edge lines `i j` by `_edge_ids`, as a stream's segment is, with i in
    [1, nL] and j in [1, nR]. Labels are not read back: both sides are
    labelled from 1, and the edges are 0-based. Neither side may exceed
    MAX_BIPARTITE_SIDE vertices.
    """
    first = _FIRST_LINE.match(text)
    line = first[1].strip()
    if not line:
        raise ValueError("empty bipartite file")
    head = _BIPARTITE_HEADER.fullmatch(line)
    if head is None:
        raise ValueError(f"malformed bipartite header {line[:80]!r}: expected 'BIPARTITE <nL> <nR>'")
    n_l, n_r = int(head[1]), int(head[2])
    if max(n_l, n_r) > MAX_BIPARTITE_SIDE:
        raise ValueError(f"bipartite header {line[:80]!r} declares more than "
                         f"{MAX_BIPARTITE_SIDE} vertices on a side")
    marks = _marker_lines(_LABEL_MARK, "#", text)
    for mark in marks:
        ln = mark[0].strip()
        label = _LABEL_LINE.fullmatch(ln)
        if label is None or not 1 <= int(label[2]) <= (n_l if label[1] == "L" else n_r):
            raise ValueError(f"malformed label line {ln[:80]!r}: expected '# L<i> <id>' or '# R<i> <id>'")
    starts = [first.end()] + [mark.end() for mark in marks]
    stops = [mark.start() for mark in marks] + [len(text)]
    sides = f"[1, {n_l}] x [1, {n_r}]"
    ids = _edge_ids("".join(text[lo:hi] for lo, hi in zip(starts, stops)), "the bipartite file", sides)
    us, vs = ids[0::2], ids[1::2]
    outside = np.flatnonzero((us < 1) | (us > n_l) | (vs < 1) | (vs > n_r))
    if len(outside):
        raise ValueError(f"edge '{us[outside[0]]} {vs[outside[0]]}' is outside {sides}")
    return BipartiteGraph(tuple(range(1, n_l + 1)), tuple(range(1, n_r + 1)), EdgeBlock(us - 1, vs - 1))


def read_bipartite(path) -> BipartiteGraph:
    return parse_bipartite(Path(path).read_text())


def write_json(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
