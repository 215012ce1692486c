import argparse
import ast
import contextlib
import copy
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamlb.cli import OK, USAGE, VERIFY_FAILED, build_parser, dispatch
from streamlb.experiments import EXPERIMENTS, small_rs
from streamlb.instances import sample_st, to_stream
from streamlb.reductions import BipartiteGraph
from streamlb.rsgraph import RSDigraph, verify_induced
import streamlb
from streamlb import behrend, experiments, instances, protocols, rsgraph, streamio


@pytest.fixture
def rs_file(tmp_path):
    path = tmp_path / "rs.txt"
    streamio.write_rs(path, small_rs())
    return path


def run(*argv):
    return dispatch([str(a) for a in argv])


def test_gen_behrend_record(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run("gen", "behrend", "--m", 10, "--strategy", "digit-base3", "--out", out) == OK
    record = json.loads(out.read_text())
    assert record == {"m": 10, "strategy": "digit-base3", "size": 5,
                      "elements": [1, 3, 4, 9, 10]}


def test_rs_roundtrip(rs_file):
    g = streamio.read_rs(rs_file)
    assert g == small_rs() or (g.matchings == small_rs().matchings and g.r == small_rs().r)
    assert streamio.render_rs(g) == rs_file.read_text()


def test_gen_st_deterministic(tmp_path, rs_file):
    for sub in ("a", "b"):
        assert run("gen", "st", "--rs", rs_file, "--seed", 9, "--count", 2,
                   "--out", tmp_path / sub) == OK
    for name in ("st-0000.stream", "st-0001.stream"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert run("gen", "st", "--rs", rs_file, "--seed", 10, "--count", 1,
               "--out", tmp_path / "c") == OK
    assert (tmp_path / "a" / "st-0000.stream").read_bytes() != \
        (tmp_path / "c" / "st-0000.stream").read_bytes()


def test_manifest_reproduces(tmp_path, rs_file):
    argv = ["gen", "ur", "--rs", str(rs_file), "--seed", "4", "--count", "1",
            "--out", str(tmp_path / "x")]
    assert dispatch(argv) == OK
    manifest_path = next((tmp_path / "x").glob("*.manifest.json"))
    manifest = json.loads(manifest_path.read_text())
    before = {p: h for p, h in manifest["outputs"].items()}
    assert dispatch(manifest["argv"]) == OK
    for p, h in before.items():
        assert streamio.sha256_file(p) == h


def test_verify_st_ok_and_tampered(tmp_path, rs_file):
    assert run("gen", "st", "--rs", rs_file, "--seed", 2, "--count", 1,
               "--out", tmp_path) == OK
    stream_path = tmp_path / "st-0000.stream"
    assert run("verify", "st", stream_path) == OK
    meta_path = streamio.default_meta_path(stream_path)
    meta = json.loads(meta_path.read_text())
    meta["witnesses"]["reachable"] = not meta["witnesses"]["reachable"]
    meta_path.write_text(json.dumps(meta))
    assert run("verify", "st", stream_path) == VERIFY_FAILED


META_DEFECTS = {  # (kind, field the message names, keys down to the edited entry, new value or None to delete)
    "st witnesses deleted": ("st", "'witnesses'", ("witnesses",), None),
    "ur witnesses deleted": ("ur", "'witnesses'", ("witnesses",), None),
    "two-number layers entry": ("st", "'layers[2]'", ("layers", 2, 2), None),
    "ur two-number layers entry": ("ur", "'layers[0]'", ("layers", 0, 2), None),
    "layers deleted": ("st", "'layers'", ("layers",), None),
    "layer renamed": ("st", "'layers'", ("layers", 0, 0), "source"),
    "witness field deleted": ("st", "'witnesses.s_star'", ("witnesses", "s_star"), None),
    "flag not a boolean": ("st", "'witnesses.reachable'", ("witnesses", "reachable"), "yes"),
    "live_t not a list": ("ur", "'witnesses.live_t'", ("witnesses", "live_t"), 3),
    "wrong kind": ("ur", "metadata kind", ("kind",), "st"),
}


@pytest.mark.parametrize("case", sorted(META_DEFECTS))
def test_verify_names_the_file_and_field_of_a_malformed_meta(tmp_path, capsys, rs_file, case):
    kind, field, (*keys, last), value = META_DEFECTS[case]
    assert run("gen", kind, "--rs", rs_file, "--seed", 2, "--count", 1, "--out", tmp_path) == OK
    stream_path = tmp_path / f"{kind}-0000.stream"
    meta_path = streamio.default_meta_path(stream_path)
    meta = json.loads(meta_path.read_text())
    box = meta
    for key in keys:
        box = box[key]
    if value is None:
        del box[last]
    else:
        box[last] = value
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", kind, stream_path) == USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta_path}: ") and err.count("\n") == 1
    assert field in err


def test_verify_names_a_meta_file_that_is_not_json(tmp_path, capsys, rs_file):
    assert run("gen", "st", "--rs", rs_file, "--seed", 2, "--count", 1, "--out", tmp_path) == OK
    stream_path = tmp_path / "st-0000.stream"
    meta_path = streamio.default_meta_path(stream_path)
    meta_path.write_text(meta_path.read_text()[:-10])
    capsys.readouterr()
    assert run("verify", "st", stream_path) == USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta_path}: not a JSON metadata file") and err.count("\n") == 1


@pytest.fixture(scope="module")
def generated_metas(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    rs = out / "rs.txt"
    streamio.write_rs(rs, small_rs())
    for kind in ("st", "ur"):
        assert run("gen", kind, "--rs", rs, "--seed", 3, "--count", 1, "--out", out) == OK
    return out


JUNK_JSON = st.one_of(st.none(), st.booleans(), st.integers(-10**30, 10**30), st.floats(allow_nan=False),
                      st.text(max_size=4), st.lists(st.integers(-3, 300), max_size=4), st.just({}))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["st", "ur"]), data=st.data())
def test_verify_meta_fuzz(generated_metas, kind, data):
    """Deleting or replacing 1-3 fields anywhere in a meta file gives exit 0, 1 or 2,
    and every exit 2 names the file."""
    stream_path = generated_metas / f"{kind}-0000.stream"
    meta_path = streamio.default_meta_path(stream_path)
    meta = json.loads(meta_path.read_text())
    mutated = copy.deepcopy(meta)
    for _ in range(data.draw(st.integers(1, 3))):
        boxes = [mutated] + [v for v in mutated.values() if isinstance(v, (dict, list)) and v]
        layers = mutated.get("layers")
        boxes += [row for row in layers if isinstance(row, list) and row] if isinstance(layers, list) else []
        box = data.draw(st.sampled_from(boxes))
        key = data.draw(st.sampled_from(list(box) if isinstance(box, dict) else range(len(box))))
        if data.draw(st.booleans()):
            del box[key]
        else:
            box[key] = data.draw(JUNK_JSON)
    err = io.StringIO()
    try:
        meta_path.write_text(json.dumps(mutated))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("verify", kind, stream_path)
    finally:
        meta_path.write_text(json.dumps(meta))
    assert code in (OK, VERIFY_FAILED, USAGE)
    if code == USAGE:
        assert err.getvalue().startswith(f"error: {meta_path}: ") and err.getvalue().count("\n") == 1


def test_verify_ur(tmp_path, rs_file):
    assert run("gen", "ur", "--rs", rs_file, "--seed", 2, "--count", 1,
               "--out", tmp_path) == OK
    assert run("verify", "ur", tmp_path / "ur-0000.stream") == OK


def test_verify_rs(tmp_path, rs_file):
    assert run("verify", "rs", rs_file) == OK


def test_usage_errors(tmp_path):
    assert run("frobnicate") == USAGE
    assert run("gen", "si", "--m", 6, "--seed", 0, "--out", tmp_path) == USAGE
    assert run("verify", "st", tmp_path / "missing.stream") == USAGE


def test_stream_run_and_report(tmp_path, rs_file):
    run("gen", "st", "--rs", rs_file, "--seed", 5, "--count", 1, "--out", tmp_path)
    report = tmp_path / "run.json"
    assert run("stream", "run", "--alg", "edge-count",
               "--input", tmp_path / "st-0000.stream", "--passes", 1,
               "--report", report) == OK
    payload = json.loads(report.read_text())
    stream = streamio.read_stream(tmp_path / "st-0000.stream")
    assert payload["output"] == stream.edge_count()


def test_protocol_simulate_cli(tmp_path, rs_file):
    run("gen", "st", "--rs", rs_file, "--seed", 6, "--count", 1, "--out", tmp_path)
    assert run("protocol", "simulate", "--alg", "store-all",
               "--instance", tmp_path / "st-0000.stream") == OK


def test_reduce_and_oracle_cli(tmp_path, rs_file):
    run("gen", "st", "--rs", rs_file, "--seed", 7, "--count", 1, "--out", tmp_path)
    stream_path = tmp_path / "st-0000.stream"
    bip = tmp_path / "bip.txt"
    assert run("reduce", "matching", "--input", stream_path, "--out", bip) == OK
    assert run("oracle", "pm", "--input", bip) == OK
    assert run("oracle", "bfs", "--input", stream_path) == OK
    assert run("oracle", "toposort", "--input", stream_path) == OK
    und = tmp_path / "und.stream"
    assert run("reduce", "sssp", "--input", stream_path, "--out", und) == OK
    assert streamio.read_stream(und).directed is False
    assert run("reduce", "acyclic", "--input", stream_path, "--out", tmp_path / "ac.stream") == OK
    assert run("reduce", "reachcount", "--input", stream_path,
               "--out", tmp_path / "rc.stream") == OK


def test_info_cli(tmp_path):
    d = tmp_path / "d.json"
    d.write_text(json.dumps({"support": [1, 2, 3, 4], "probs": [0.5, 0.3, 0.1, 0.1]}))
    assert run("info", "tophalf", "--input", d) == OK
    assert run("info", "entropy", "--input", d) == OK
    two = tmp_path / "two.json"
    two.write_text(json.dumps({
        "mu": {"support": [1, 2], "probs": [0.5, 0.5]},
        "nu": {"support": [1, 2], "probs": [1.0, 0.0]},
    }))
    assert run("info", "tvd", "--input", two) == OK
    assert run("info", "kl", "--input", two) == OK


def test_experiment_cli(tmp_path):
    out = tmp_path / "report.json"
    assert run("experiment", "rs-verify", "--param", "m=12", "--out", out) == OK
    payload = json.loads(out.read_text())
    assert payload["violations"] == 0


def test_experiment_string_param_keeps_its_text(capsys):
    # "null" is JSON for None; oracle_tag's default is a str, so the text is kept
    assert run("experiment", "boost-trials", "--param", "oracle_tag=null",
               "--param", "trials=2") == OK
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"] == "null" and report["trials"] == 2
    assert run("experiment", "boost-trials", "--param", 'oracle_tag="null"',
               "--param", "trials=2") == OK
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("param, message", [
    ("trials=abc", "--param trials expects an integer, got 'abc'"),
    ("trials=2.5", "--param trials expects an integer, got '2.5'"),
    ("trials=true", "--param trials expects an integer, got 'true'"),
    ("eps=half", "--param eps expects a number, got 'half'"),
])
def test_experiment_param_of_the_wrong_type_is_a_usage_error(capsys, param, message):
    assert run("experiment", "boost-trials", "--param", param) == USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_rs_verify_reports_edges_cross_pairs_and_exponent(capsys):
    assert run("experiment", "rs-verify", "--param", "m=100") == OK
    report = json.loads(capsys.readouterr().out)
    assert (report["n_side"], report["t"], report["r"]) == (300, 100, 23)
    assert report["edges"] == 2300 and report["cross_pairs"] == 2300 * 22
    assert report["exponent"] == round(math.log(2300) / math.log(300), 4) == 1.3571
    assert report["violations"] == 0


def test_shared_parser_keeps_no_param_between_dispatches(capsys):
    assert run("experiment", "rs-verify", "--param", "m=12") == OK
    first = json.loads(capsys.readouterr().out)
    assert run("experiment", "rs-verify") == OK
    second = json.loads(capsys.readouterr().out)
    assert first["m"] == 12 and second["m"] == 100  # 100 is rs_verify's default
    assert second["n_side"] == 300


# sha256 of the README tour's artifacts and the `verify` lines on them: `gen`
# output bytes are a fixed contract, so these change only on purpose
TOUR_HASHES = {
    "rs.txt": "23ee0c02d3a6f7685f69dbc41932c94dfde88f48a966ca1e62d019d0ce3fbc5c",
    "st/st-0000.stream": "41b656dffe23dc07c9d60d3930506e59b1c97f7f96b6aa0656eddfd8414249e1",
    "st/st-0000.stream.meta.json": "6996f06eb7ef43a999721a8650bf8579665c1fc1fdcf2c2ef6bba936964bb788",
    "st/st-0001.stream": "1504775a5cdf74620ed2817d52c79382df53d978fea7b723b2cb1ada8083e443",
    "st/st-0001.stream.meta.json": "a52efbf5990f1e95c2b75919bf28755eaf97db51ec7e8b133e43cbdb67f44eae",
    "st/st-0002.stream": "830bed24e2449deb75ac9181fde191db982d0a57e0e7fc6461c1558e02740522",
    "st/st-0002.stream.meta.json": "e753946fb5240181a564c74ae0126329dd59b5526d773fbfcd37199cb92c8b34",
    "ur/ur-0000.stream": "1b19bf8586e90df77f209d931faca49d24b74f4d9782cd5ccd226e39900ad7cf",
    "ur/ur-0000.stream.meta.json": "36343634cfc49ebc3403ddcb4a6c9fb2f75d7f06147b7f70cbf16a9cb8c8dd04",
    "ur/ur-0001.stream": "9af02246cb10de277f5a82da1401e126fa41153ab85156926a0f348d8a78fd9d",
    "ur/ur-0001.stream.meta.json": "6e12ec386066b994cb51fdc5abfe62cd4b1c52e5d3c89165e215e6fe14ce8945",
    "ur/ur-0002.stream": "f8c056399c9ce0d12285a10a64560e76505829bcb8f6829daaf8c67e1263dfee",
    "ur/ur-0002.stream.meta.json": "b613fd0e3e3b45982703b6e0917745b9fec43e340ba357c379c82d801eff4b7e",
}
TOUR_VERIFY_LINES = {
    "st": ['{"detail": {"reachable": false}, "ok": true, "reason": null}'] * 3,
    "ur": ['{"detail": {"witness": %d}, "ok": true, "reason": null}' % w for w in (617, 603, 607)],
}


def test_tour_artifacts_and_verify_lines_are_unchanged(tmp_path, capsys):
    assert run("gen", "rs", "--m", 100, "--trim", 4, "--out", tmp_path / "rs.txt") == OK
    for kind in ("st", "ur"):
        assert run("gen", kind, "--rs", tmp_path / "rs.txt", "--seed", 7, "--count", 3,
                   "--out", tmp_path / kind) == OK
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
               if p.is_file() and not p.name.endswith(".manifest.json")}
    assert written == set(TOUR_HASHES)
    for name, digest in TOUR_HASHES.items():
        assert streamio.sha256_file(tmp_path / name) == digest, name
    capsys.readouterr()
    for kind, lines in TOUR_VERIFY_LINES.items():
        for i, line in enumerate(lines):
            assert run("verify", kind, tmp_path / kind / f"{kind}-{i:04d}.stream") == OK
            assert capsys.readouterr().out == line + "\n"


# sha256 of `gen rs --m 1000 --trim 4` (the benchmark's graph, r = 104), of
# `gen st --seed 7 --count 1` on it, and of `reduce matching` on that stream
# (69,697 edge lines, so `write_bipartite` writes them in two table chunks)
M1000_HASHES = {
    "rs.txt": "49df98ce5f21a0b9b4bbe3e5d89ec7b192e590472e92ada5143494c2d812de04",
    "st/st-0000.stream": "2bedf84f55cabb99228b1d0c190e3d6c3b4aa1b286cdde0704d8c39471aaf565",
    "st/st-0000.stream.meta.json": "107863759612079220dc18883d034a72c20a6e959e41601fbd7aca99bec6ba67",
    "bip.txt": "a29dfa21c571a1b8256fea4d0b99a73e0dc615b0e5d4133ae982c94b27ad1ab8",
}


def test_benchmark_size_artifacts_and_verify_lines_are_unchanged(tmp_path, capsys):
    assert run("gen", "rs", "--m", 1000, "--trim", 4, "--out", tmp_path / "rs.txt") == OK
    g = streamio.read_rs(tmp_path / "rs.txt")
    assert (g.r, g.t) == (104, 1000)
    # after the header, each string `write_rs` writes is one whole matching
    pieces = list(streamio._rs_text(g))
    assert len(pieces) == 1 + g.t
    assert all(piece.startswith(f"M {i}\n") and piece.count("\n") == 1 + g.r
               for i, piece in enumerate(pieces[1:], start=1))
    assert run("gen", "st", "--rs", tmp_path / "rs.txt", "--seed", 7, "--count", 1,
               "--out", tmp_path / "st") == OK
    assert run("reduce", "matching", "--input", tmp_path / "st" / "st-0000.stream",
               "--out", tmp_path / "bip.txt") == OK
    lines = (tmp_path / "bip.txt").read_text().splitlines()
    assert sum(not ln.startswith("#") for ln in lines) == 1 + 69697  # the header, then the edges
    for name, digest in M1000_HASHES.items():
        assert streamio.sha256_file(tmp_path / name) == digest, name
    capsys.readouterr()
    assert run("verify", "rs", tmp_path / "rs.txt") == OK
    assert capsys.readouterr().out == \
        '{"detail": {"edges": 104000, "matchings_checked": 1000}, "ok": true, "reason": null}\n'
    assert run("verify", "st", tmp_path / "st" / "st-0000.stream") == OK


# sha256 of `gen` outputs the tour does not make: the inverse direction, both
# forced middle layers and pinned component seeds, on the tour's rs.txt with
# --seed 7 --count 2
GEN_VARIANTS = {
    "ur-inverse": ("ur", "--direction", "inverse"),
    "st-complete": ("st", "--e1-mode", "complete"),
    "st-empty": ("st", "--e1-mode", "empty"),
    "st-seeds": ("st", "--e1-seed", 3, "--forward-seed", 4, "--backward-seed", 5),
}
GEN_VARIANT_HASHES = {
    "ur-inverse/ur-0000.stream": "4c106f65fa97759d4ba26c86a05deb05b4d37264e00ca5c00c6c8bd347e8d65e",
    "ur-inverse/ur-0000.stream.meta.json": "706ab961626be1ebf318ba1bdd8bdc63a93a229fbde60f236ec00e38f91c6d44",
    "ur-inverse/ur-0001.stream": "5829083c863789e8a019debe6fe31ec170a0b4357efc7ef68c5868f39f2457a8",
    "ur-inverse/ur-0001.stream.meta.json": "65832a7371b7e8b12663017cb71cb447522efb9219e894dbfa0215d2f522807d",
    "st-complete/st-0000.stream": "0ec16ffc19bd91e9e909dcfceafd62e4488c99be8654ce3ffa1453c948cf5984",
    "st-complete/st-0000.stream.meta.json": "0b50a87172ef16c721747a47811c2c41f2004d3124b64d4921fefe4346ae3369",
    "st-complete/st-0001.stream": "d567f49bd5702ca43e4cbd1968041fb069f5fb67f52329e71b269f61b3268f86",
    "st-complete/st-0001.stream.meta.json": "a84e94e3c8a8445d95ff5be2584d445aba1d6b8cad6d2f4f653df77ae5a10586",
    "st-empty/st-0000.stream": "a12a6ea6487f5d9c874f20456fb6eda2cd60f48763974e197041adb88563c122",
    "st-empty/st-0000.stream.meta.json": "53f477c9b934c59957797020fd36f66796c08a5b94c30b47afe01a0b732e95e9",
    "st-empty/st-0001.stream": "e50ca17d9e8279ebac65c4ed33624f5897b3c7e34cc796a210d806ad2946d4cc",
    "st-empty/st-0001.stream.meta.json": "3d3bf90a5dec22a5601deb47d135c355f442650a6a2b239eb4a963174f479f9a",
    "st-seeds/st-0000.stream": "3f5b3553415d8181faa5f32110578126261d95d2c45c8ce7379d8909d8a4bbd1",
    "st-seeds/st-0000.stream.meta.json": "5dcffa9390fa9a19990912538763de1ba3003c7ccf54dc7b250f404f62d7bd02",
    "st-seeds/st-0001.stream": "46a3c84cd52fe298140881b663b3283691409d9c76b5505a3397dfd50928a350",
    "st-seeds/st-0001.stream.meta.json": "5dcffa9390fa9a19990912538763de1ba3003c7ccf54dc7b250f404f62d7bd02",
}


def test_gen_variant_bytes_are_unchanged(tmp_path):
    assert run("gen", "rs", "--m", 100, "--trim", 4, "--out", tmp_path / "rs.txt") == OK
    for name, (kind, *options) in GEN_VARIANTS.items():
        assert run("gen", kind, *options, "--rs", tmp_path / "rs.txt", "--seed", 7, "--count", 2,
                   "--out", tmp_path / name) == OK
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
               if p.is_file() and p.name != "rs.txt" and not p.name.endswith(".manifest.json")}
    assert written == set(GEN_VARIANT_HASHES)
    for name, digest in GEN_VARIANT_HASHES.items():
        assert streamio.sha256_file(tmp_path / name) == digest, name


@pytest.fixture(scope="module")
def tour_stream(tmp_path_factory):
    """The README tour's st-0000.stream, with its .meta.json beside it."""
    out = tmp_path_factory.mktemp("tour")
    assert run("gen", "rs", "--m", 100, "--trim", 4, "--out", out / "rs.txt") == OK
    assert run("gen", "st", "--rs", out / "rs.txt", "--seed", 7, "--count", 1, "--out", out) == OK
    return out / "st-0000.stream"


# every command that takes --s/--t and resolves them on a stream; `reduce sssp`
# keeps the stream's own s = 0 and t = n - 1 and refuses both options
ENDPOINT_COMMANDS = ["stream run", "reduce matching", "reduce acyclic", "reduce reachcount",
                     "oracle bfs"]


def _stream_argv(command, stream_path, out):
    """argv of `command` on the stream, writing its report or output to `out`."""
    argv = [*command.split(), "--input", stream_path]
    if command == "stream run":
        return argv + ["--alg", "store-all", "--report", out]
    if command.startswith("reduce"):
        return argv + ["--out", out]
    return argv


def _without_wall_time(text):
    return "\n".join(ln for ln in text.splitlines() if '"wall_time_s"' not in ln)


@pytest.mark.parametrize("value", [-1, -5, "n", 10**8])
@pytest.mark.parametrize("option", ["--s", "--t"])
@pytest.mark.parametrize("command", ENDPOINT_COMMANDS + ["reduce sssp"])
def test_an_endpoint_outside_the_stream_exits_2_and_writes_nothing(tmp_path, capsys, tour_stream,
                                                                    command, option, value):
    n = streamio.read_stream(tour_stream).n
    value = n if value == "n" else value
    capsys.readouterr()
    assert run(*_stream_argv(command, tour_stream, tmp_path / "out"), option, value) == USAGE
    captured = capsys.readouterr()
    s, t = (value, n - 1) if option == "--s" else (0, value)
    if command in ENDPOINT_COMMANDS:
        assert captured.err == f"error: s={s} and t={t} must be vertices of the {n}-vertex stream\n"
    else:
        assert captured.err == f"error: streamlb: unrecognized arguments: {option} {value}\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ENDPOINT_COMMANDS)
def test_default_t_is_the_last_vertex(tmp_path, capsys, tour_stream, command):
    n = streamio.read_stream(tour_stream).n
    results = []
    for name, extra in (("default", ()), ("explicit", ("--t", n - 1))):
        out = tmp_path / name
        capsys.readouterr()
        assert run(*_stream_argv(command, tour_stream, out), *extra) == OK
        written = out.read_text() if out.exists() else ""
        results.append((_without_wall_time(capsys.readouterr().out), _without_wall_time(written)))
    assert results[0] == results[1] and any(results[0])


def test_reduce_matching_refuses_equal_endpoints(tmp_path, capsys, tour_stream):
    # `oracle bfs` calls s = t reachable, which no perfect matching of the split graph says
    capsys.readouterr()
    assert run("reduce", "matching", "--input", tour_stream, "--out", tmp_path / "bip.txt",
               "--s", 5, "--t", 5) == USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: s and t must differ, not both 5\n" and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["complete", "empty"])
def test_reductions_answer_as_oracle_bfs(tmp_path, capsys, tour_stream, mode):
    assert run("gen", "st", "--e1-mode", mode, "--rs", tour_stream.parent / "rs.txt", "--seed", 7,
               "--count", 1, "--out", tmp_path) == OK
    stream_path = tmp_path / "st-0000.stream"

    def oracle(kind, path):
        capsys.readouterr()
        assert run("oracle", kind, "--input", path) == OK
        return json.loads(capsys.readouterr().out)

    reachable = oracle("bfs", stream_path)["reachable"]
    assert reachable == (mode == "complete")
    assert run("reduce", "matching", "--input", stream_path, "--out", tmp_path / "bip.txt") == OK
    assert oracle("pm", tmp_path / "bip.txt")["perfect_matching"] == reachable
    assert run("reduce", "acyclic", "--input", stream_path, "--out", tmp_path / "ac.stream") == OK
    assert oracle("toposort", tmp_path / "ac.stream")["acyclic"] == (not reachable)


# sha256 of what the reductions write for the README tour's st-0000.stream, and
# of the oracles' JSON on it. `reduce matching` is pinned whole and also without
# its `# L<i> <id>` / `# R<i> <id>` label lines, so its header and edge lines are
# held apart from how the labels are written.
REDUCTION_HASHES = {
    "acyclic": "997ee50df824b0074658e18f14b319a21946c0bcb75a88caeeb2842a388f8e2f",
    "reachcount": "1268ae4749e8c1b4b44d0b4fafdd336f67e515724fc1955081fed1e1732a0073",
    "sssp": "1ee0db14b9bfc372d310bb5ebbc968b46a5f4aa18d0d9aeb9711cdb748d05a14",
    "matching": "247be94bfc4c57273de89b37c5fa80bdd3aade82931d53d2d240a36282c9ee83",
}
MATCHING_WITHOUT_LABELS_HASH = "abda88485b5e211ca60036f285744cd13f8a20f49122d64314d6c410a98cef1b"
ORACLE_HASHES = {
    "toposort": "7361c2fbb95e3e28da0a944676520e21646e34d7b4e93024fc832b629d33ef95",
    "bfs": "7e5d81f8753225f6f501cfd867b987d2d76861d3c1e700ea5e1d21f57829335d",
}


def test_reduction_and_oracle_outputs_are_unchanged(tmp_path, capsys, tour_stream):
    for kind, digest in REDUCTION_HASHES.items():
        assert run("reduce", kind, "--input", tour_stream, "--out", tmp_path / kind) == OK
        assert streamio.sha256_file(tmp_path / kind) == digest, kind
    lines = (tmp_path / "matching").read_text().splitlines(keepends=True)
    unlabelled = "".join(ln for ln in lines if not ln.startswith("#"))
    assert hashlib.sha256(unlabelled.encode()).hexdigest() == MATCHING_WITHOUT_LABELS_HASH
    for kind, digest in ORACLE_HASHES.items():
        capsys.readouterr()
        assert run("oracle", kind, "--input", tour_stream) == OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, kind


def _stream_command_outputs(tmp_path, capsys, stream_path):
    """stdout of every command that reads a stream, then the files they wrote, wall time aside."""
    commands = [_stream_argv(c, stream_path, tmp_path / c.replace(" ", "-"))
                for c in ENDPOINT_COMMANDS + ["reduce sssp"]]
    commands += [["protocol", "simulate", "--alg", alg, "--instance", stream_path]
                 for alg in ("store-all", "bfs-frontier:2")]
    commands += [["oracle", "toposort", "--input", stream_path]]
    outputs = []
    for argv in commands:
        capsys.readouterr()
        assert run(*argv) == OK, argv
        outputs.append(_without_wall_time(capsys.readouterr().out))
    written = sorted(p for p in tmp_path.iterdir() if not p.name.endswith(".manifest.json"))
    return outputs + [_without_wall_time(p.read_text()) for p in written]


def test_stream_commands_never_open_the_meta_file(tmp_path, capsys, tour_stream):
    stream_path = tmp_path / tour_stream.name
    meta_path = streamio.default_meta_path(stream_path)
    stream_path.write_bytes(tour_stream.read_bytes())
    meta_path.write_bytes(streamio.default_meta_path(tour_stream).read_bytes())
    (tmp_path / "intact").mkdir()
    intact = _stream_command_outputs(tmp_path / "intact", capsys, stream_path)
    meta_path.write_text("not json")
    (tmp_path / "broken").mkdir()
    assert _stream_command_outputs(tmp_path / "broken", capsys, stream_path) == intact
    capsys.readouterr()
    assert run("verify", "st", stream_path) == USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta_path}: not a JSON metadata file") and err.count("\n") == 1


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("kind", ["si", "ur", "st"])
def test_gen_count_below_one_exits_2_and_makes_nothing(tmp_path, capsys, rs_file, kind, count):
    source = ("--m", 8) if kind == "si" else ("--rs", rs_file)
    assert run("gen", kind, *source, "--count", count, "--out", tmp_path / "out") == USAGE
    assert capsys.readouterr().err == \
        f"error: streamlb gen {kind}: argument --count: must be at least 1, got {count}\n"
    assert not (tmp_path / "out").exists()


def test_bfs_frontier_of_no_pass_exits_2(tmp_path, capsys, tour_stream):
    report = tmp_path / "run.json"
    assert run("stream", "run", "--alg", "bfs-frontier:0", "--passes", 2, "--input", tour_stream,
               "--report", report) == USAGE
    assert capsys.readouterr().err == "error: bfs-frontier needs at least one pass\n"
    assert not report.exists()


def test_stream_roundtrip(tmp_path):
    stream = to_stream(sample_st(small_rs(), seed=3), shuffle_seed=1)
    path = tmp_path / "x.stream"
    streamio.write_stream(path, stream)
    back = streamio.parse_stream(path.read_text())
    assert back.n == stream.n and back.directed == stream.directed
    assert back.segments == stream.segments


def test_bipartite_roundtrip(tmp_path):
    g = BipartiteGraph((1, 2), (1, 2), ((0, 1),))
    path = tmp_path / "b.txt"
    streamio.write_bipartite(path, g)
    assert path.read_text() == "BIPARTITE 2 2\n# L1 1\n# L2 2\n# R1 1\n# R2 2\n1 2\n"
    back = streamio.read_bipartite(path)
    assert (back.left, back.right, back.edges) == (g.left, g.right, g.edges)


def test_experiment_worker_pool_parity():
    from streamlb.experiments import st_batch

    serial = st_batch(count=40, seed=3, with_distances=True)
    pooled = st_batch(count=40, seed=3, with_distances=True, workers=3)
    assert serial == pooled


def test_st_batch_report_is_the_same_on_two_workers(capsys):
    # instances cross to the pool's processes pickled, edge blocks and all
    argv = ("experiment", "st-batch", "--param", "count=24", "--param", "seed=5",
            "--param", "with_distances=true")
    outputs = []
    for workers in (1, 2):
        assert run(*argv, "--workers", workers) == OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["distances"] == {"eight": 0, "infinite": 6, "nine_plus": 8, "seven": 10}


def test_fan_out_never_asks_for_more_processes_than_jobs_or_cpus(monkeypatch):
    import concurrent.futures

    sizes = []

    class RecordingPool:  # records the size asked for and starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for cpus, jobs, workers, size in [(8, 3, 10**6, 3), (2, 5, 10**6, 2), (8, 5, 4, 4), (None, 5, 4, None),
                                      (8, 1, 4, None), (8, 5, 1, None)]:
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert experiments._fan_out(abs, list(range(-jobs, 0)), workers) == list(range(jobs, 0, -1))
        assert sizes == ([] if size is None else [size])


# --- the whole CLI, one option at a time ---------------------------------------------

# small valid values for every leaf command; {name} is a file of `walk_files`
WALK_BASE = {
    "gen behrend": "--m 8",
    "gen rs": "--m 8 --out rs.txt",
    "gen si": "--m 8 --out si",
    "gen ur": "--rs {rs} --out ur",
    "gen st": "--rs {rs} --out st",
    "verify rs": "{rs}",
    "verify ur": "{ur}",
    "verify st": "{st}",
    "stream run": "--alg store-all --input {st}",
    "protocol boost": "--m 8 --trials 1",
    "protocol measure-eps": "--oracle mock-reveal --m 8",
    "protocol simulate": "--alg store-all --instance {st}",
    "reduce matching": "--input {st} --out out",
    "reduce sssp": "--input {st} --out out",
    "reduce acyclic": "--input {st} --out out",
    "reduce reachcount": "--input {st} --out out",
    "oracle pm": "--input {bip}",
    "oracle bfs": "--input {st}",
    "oracle toposort": "--input {st}",
    "info tvd": "--input {pair}",
    "info kl": "--input {pair}",
    "info entropy": "--input {dist}",
    "info mi": "--input {joint}",
    "info tophalf": "--input {dist}",
    "experiment boost-trials": "--param m=8 --param trials=1",
    "experiment info-props": "--param cases=1",
    "experiment random-apfree-rs": "--param count=1",
    "experiment reduction-equiv": "--param pm_trials=1",
    "experiment rs-verify": "--param m=12",
    "experiment si-uniformity": "--param m=4 --param samples=10",
    "experiment st-batch": "--param count=1",
}
PATH_OPTIONS = {"out", "report", "input", "rs", "instance", "path"}
# the options the commands without endpoints once accepted and ignored
REMOVED_OPTIONS = {"oracle pm": ["--s", "--t"], "oracle toposort": ["--s", "--t"],
                   "reduce sssp": ["--s", "--t"]}


def _leaf_commands(parser, words=()):
    """(command words, parser) of every leaf command; a positional with choices
    (`verify KIND`, `info KIND`, `experiment NAME`) makes one leaf per choice."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaf_commands(child, (*words, name))
            return
    kinds = next((a.choices for a in parser._actions if not a.option_strings and a.choices), [None])
    for kind in kinds:
        yield (*words, kind) if kind else words, parser


def _walk_values(action):
    """The values the walk gives one option, or None for an option it leaves alone."""
    if action.dest in PATH_OPTIONS:
        return ["missing/file", "dir"]
    if action.dest in ("alg", "oracle"):
        return ["bogus", "bfs-frontier:x", "store-all:7", "edge-count:x"]
    if action.choices:
        return ["bogus"]
    if action.type is not None:
        big = "seed" in action.dest or action.dest in ("s", "t", "passes")
        return ["-1", "0", "x"] + [str(10**8)] * big
    assert action.nargs == 0 or action.dest == "param", action  # flags; --param values are the experiment's
    return None


def _walk_cases(words, parser, files):
    """argv of the leaf with its base values, then with one option varied at a time."""
    base = [*words, *WALK_BASE[" ".join(words)].format(**files).split()]
    yield None, None, base
    positional = len(words)
    for action in parser._actions:
        if action.dest == "help" or action.choices and not action.option_strings:
            continue  # a positional with choices is one of the leaf's words
        for value in _walk_values(action) or []:
            if action.option_strings:
                yield action.option_strings[0], value, base + [action.option_strings[0], value]
            else:
                yield action.dest, value, base[:positional] + [value] + base[positional + 1:]
        positional += not action.option_strings
    for option in REMOVED_OPTIONS.get(" ".join(words), []):
        yield option, "0", base + [option, "0"]


def _named(line, option, value):
    """Whether the line names the option (as a flag or a word) or echoes the value."""
    names = {option, option.lstrip("-"), option.lstrip("-").replace("-", "_"), value}
    return any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", line) for name in names)


@pytest.fixture(scope="module")
def walk_files(tour_stream):
    """The README tour's RS digraph and st/ur streams, a bipartite graph and info inputs."""
    out = tour_stream.parent
    assert run("gen", "ur", "--rs", out / "rs.txt", "--seed", 7, "--count", 1, "--out", out) == OK
    assert run("reduce", "matching", "--input", tour_stream, "--out", out / "bip.txt") == OK
    inputs = {"dist": {"support": [1, 2, 3, 4], "probs": [0.5, 0.3, 0.1, 0.1]},
              "pair": {"mu": {"support": [1, 2], "probs": [0.5, 0.5]},
                       "nu": {"support": [1, 2], "probs": [1.0, 0.0]}},
              "joint": {"rows": [0, 1], "cols": [0, 1], "probs": [[0.25, 0.25], [0.25, 0.25]]}}
    for name, payload in inputs.items():
        (out / f"{name}.json").write_text(json.dumps(payload))
    return {"rs": out / "rs.txt", "st": tour_stream, "ur": out / "ur-0000.stream",
            "bip": out / "bip.txt", **{name: out / f"{name}.json" for name in inputs}}


def test_walk_covers_every_leaf_command():
    assert {" ".join(words) for words, _ in _leaf_commands(build_parser())} == set(WALK_BASE)


@pytest.mark.parametrize("command", sorted(WALK_BASE))
def test_walk_one_bad_option_at_a_time(tmp_path, monkeypatch, capsys, walk_files, command):
    """Each case exits 0, 1 from `verify`, or 2 with one `error:` line that names
    the option or echoes its value; no case prints a traceback, and no refusal
    leaves a file or directory behind."""
    words, parser = next((w, p) for w, p in _leaf_commands(build_parser()) if " ".join(w) == command)
    failures = []
    for i, (option, value, argv) in enumerate(_walk_cases(words, parser, walk_files)):
        cwd = tmp_path / str(i)
        (cwd / "dir").mkdir(parents=True)
        monkeypatch.chdir(cwd)
        before = sorted(cwd.rglob("*"))
        capsys.readouterr()
        code = dispatch([str(a) for a in argv])
        err = capsys.readouterr().err
        if option is None:
            assert code == OK, (argv, err)
        elif code == USAGE:
            lines = err.splitlines()
            if not (len(lines) == 1 and err.endswith("\n") and lines[0].startswith("error: ")
                    and _named(lines[0], option, value)):
                failures.append((argv, err))
            elif sorted(cwd.rglob("*")) != before:
                failures.append((argv, "left files"))
        elif not (code == OK or code == VERIFY_FAILED and words[0] == "verify"):
            failures.append((argv, code, err))
    assert failures == []


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_workers_reach_only_an_experiment_that_takes_them(capsys, walk_files, name):
    takes_workers = "workers" in inspect.signature(EXPERIMENTS[name]).parameters
    argv = ["experiment", name, *WALK_BASE[f"experiment {name}"].split(), "--workers", "2"]
    capsys.readouterr()
    assert run(*argv) == (OK if takes_workers else USAGE)
    err = capsys.readouterr().err
    assert err == ("" if takes_workers else
                   f"error: {EXPERIMENTS[name].__name__}() got an unexpected keyword argument 'workers'\n")


# each refusal the CLI once let through, or gave as a traceback, exit 1 or a nameless message
REFUSALS = {
    "stream run --alg store-all --input dir": "[Errno 21] Is a directory: 'dir'",
    "verify rs dir": "[Errno 21] Is a directory: 'dir'",
    "oracle pm --input dir": "[Errno 21] Is a directory: 'dir'",
    "info tvd --input dir": "--input 'dir' is neither a JSON file nor JSON: "
                            "Expecting value: line 1 column 1 (char 0)",
    "gen st --rs dir --out out": "[Errno 21] Is a directory: 'dir'",
    "gen rs --m 8 --out dir": "[Errno 21] Is a directory: 'dir'",
    "protocol boost --m 8 --trials 0": "trials must be at least 1",
    "experiment boost-trials --param trials=0": "trials must be at least 1",
    "experiment st-batch --param count=-3": "count must be at least 1",
    "experiment st-batch --param count=1000001": "count must be at most 1000000",
    "experiment boost-trials --param trials=1000001": "trials must be at most 1000000",
    "protocol boost --m 8 --trials 1000001": "trials must be at most 1000000",
    "experiment st-batch --param rs=5": "st_batch() got an unexpected keyword argument 'rs'",
    "experiment si-uniformity --param samples=0": "samples must be at least 1",
    "experiment random-apfree-rs --param count=-3": "count must be at least 1",
    "experiment random-apfree-rs --param max_m=0": "max_m must be at least 1",
    "experiment info-props --param cases=-1": "cases must be at least 1",
    "experiment reduction-equiv --param pm_trials=-1": "pm_trials must be at least 0",
    "gen si --m 6 --out out": "universe size must be a positive multiple of 4, got 6",
    "gen st --rs {rs} --e1-seed -1 --out out": "streamlb gen st: argument --e1-seed: must be at least 0, got -1",
    "gen rs --m 8 --trim -2 --out rs.txt": "streamlb gen rs: argument --trim: must be at least 0, got -2",
    "stream run --alg store-all --passes 0 --input {st}":
        "streamlb stream run: argument --passes: must be at least 1, got 0",
    "stream run --alg bfs-frontier:x --input {st}": "algorithm tag 'bfs-frontier:x' expects an integer after ':'",
    "stream run --alg store-all:7 --input {st}": "algorithm tag 'store-all:7' takes nothing after ':'",
    "protocol simulate --alg edge-count:x --instance {st}": "algorithm tag 'edge-count:x' takes nothing after ':'",
    "protocol measure-eps --oracle null --m 8 --eps -7": "eps must lie in [0, 1]",
    "protocol measure-eps --oracle perfect --m 8 --eps 1.5": "eps must lie in [0, 1]",
    "protocol boost --oracle null --m 8 --trials 1 --eps -7": "eps must lie in [0, 1]",
    "info entropy --input nothing": "--input 'nothing' is neither a JSON file nor JSON: "
                                    "Expecting value: line 1 column 1 (char 0)",
    "oracle toposort --input {st} --s 99999999": "streamlb: unrecognized arguments: --s 99999999",
    "experiment rs-verify --workers 0": "streamlb experiment: argument --workers: must be at least 1, got 0",
    "protocol measure-eps --oracle null --m 8 --mode bogus":
        "streamlb protocol measure-eps: argument --mode: invalid choice: 'bogus' "
        "(choose from 'auto', 'exact', 'exact-symmetric', 'monte-carlo')",
}


@pytest.mark.parametrize("argv", sorted(REFUSALS))
def test_a_refusal_is_one_error_line_and_leaves_nothing(tmp_path, monkeypatch, capsys, walk_files, argv):
    (tmp_path / "dir").mkdir()
    monkeypatch.chdir(tmp_path)
    assert run(*argv.format(**walk_files).split()) == USAGE
    assert capsys.readouterr() == ("", f"error: {REFUSALS[argv]}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"] and not any((tmp_path / "dir").iterdir())


GOOD_STREAM = "STREAM 4 directed=1\nSEG E1\n0 1\nSEG E2\n1 2\n2 3\n"
BAD_STREAMS = {
    "empty file": "",
    "blank file": "\n  \n",
    "missing header": "SEG E1\n0 1\n",
    "header without direction": "STREAM 4\nSEG E1\n0 1\n",
    "header with a word for n": "STREAM four directed=1\nSEG E1\n0 1\n",
    "header with a bad direction": "STREAM 4 directed=yes\nSEG E1\n0 1\n",
    "header with no vertices": "STREAM 0 directed=1\n",
    "edge before the first SEG": "STREAM 4 directed=1\n0 1\nSEG E1\n1 2\n",
    "repeated tag": "STREAM 4 directed=1\nSEG E1\n0 1\nSEG E1\n1 2\n",
    "SEG without a tag": "STREAM 4 directed=1\nSEG\n0 1\n",
    "edge with three ids": "STREAM 4 directed=1\nSEG E1\n0 1 2\n",
    "edge with one id": "STREAM 4 directed=1\nSEG E1\n0 1\n2\n",
    "edge with a junk token": "STREAM 4 directed=1\nSEG E1\n0 x\n",
    "id equal to n": "STREAM 4 directed=1\nSEG E1\n0 1\nSEG E2\n3 4\n",
    "negative id": "STREAM 4 directed=1\nSEG E1\n-1 2\n",
}
# the exact error of each case, which `error:` prints
BAD_STREAM_ERRORS = {
    "SEG without a tag": "a SEG line has no tag",
    "blank file": "empty stream file",
    "edge before the first SEG": "line '0 1' comes between the header and the first SEG line",
    "edge with a junk token": "malformed edge line '0 x' in segment 'E1': expected 'u v'",
    "edge with one id": "malformed edge line '2' in segment 'E1': expected 'u v'",
    "edge with three ids": "malformed edge line '0 1 2' in segment 'E1': expected 'u v'",
    "empty file": "empty stream file",
    "header with a bad direction":
        "malformed stream header 'STREAM 4 directed=yes': expected 'STREAM <n> directed=<0|1>' with n >= 1",
    "header with a word for n":
        "malformed stream header 'STREAM four directed=1': expected 'STREAM <n> directed=<0|1>' with n >= 1",
    "header with no vertices":
        "malformed stream header 'STREAM 0 directed=1': expected 'STREAM <n> directed=<0|1>' with n >= 1",
    "header without direction":
        "malformed stream header 'STREAM 4': expected 'STREAM <n> directed=<0|1>' with n >= 1",
    "id equal to n": "vertex id 4 in segment 'E2' is outside [0, 4)",
    "missing header": "missing stream header 'STREAM <n> directed=<0|1>'",
    "negative id": "vertex id -1 in segment 'E1' is outside [0, 4)",
    "repeated tag": "segment tag 'E1' repeats",
}


@pytest.mark.parametrize("alg", ["store-all", "bfs-frontier:2", "edge-count"])
@pytest.mark.parametrize("case", sorted(BAD_STREAMS))
def test_stream_run_rejects_malformed_input(tmp_path, capsys, case, alg):
    path = tmp_path / "bad.stream"
    path.write_text(BAD_STREAMS[case])
    with pytest.raises(ValueError) as info:
        streamio.parse_stream(BAD_STREAMS[case])
    assert str(info.value) == BAD_STREAM_ERRORS[case]
    assert run("stream", "run", "--alg", alg, "--input", path, "--passes", 2) == USAGE
    assert capsys.readouterr().err == f"error: {BAD_STREAM_ERRORS[case]}\n"


def test_a_header_past_the_vertex_cap_is_refused_under_every_command(tmp_path, capsys):
    # a header n past MAX_STREAM_N, whose ids could outgrow int64 and whose
    # packed edge keys would outgrow 64 bits, is refused before any edge is read
    cap = instances.MAX_STREAM_N
    edges = f"SEG E1\n0 5\n5 {cap}\nSEG E2\n{cap} {2**63}\n"
    for n in (10**20, cap + 1):
        path = tmp_path / "huge.stream"
        path.write_text(f"STREAM {n} directed=1\n{edges}")
        commands = [("stream", "run", "--alg", alg, "--input", path, "--passes", 2)
                    for alg in ("edge-count", "store-all", "bfs-frontier:2", "xor-sketch:3", "spanning-forest")]
        commands += [("protocol", "simulate", "--alg", "store-all", "--instance", path),
                     ("oracle", "bfs", "--input", path), ("oracle", "toposort", "--input", path)]
        commands += [("reduce", kind, "--input", path, "--out", tmp_path / kind)
                     for kind in ("sssp", "matching", "acyclic", "reachcount")]
        for argv in commands:
            assert run(*argv) == USAGE
            assert capsys.readouterr() == ("", f"error: stream header 'STREAM {n} directed=1' has {n} vertices; "
                                               f"a stream holds at most {cap}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["huge.stream"]
    # a header n at the cap still parses
    assert streamio.parse_stream(f"STREAM {cap} directed=1\nSEG E1\n0 {cap - 1}\n").n == cap


def test_stream_run_accepts_the_wellformed_neighbour(tmp_path):
    path = tmp_path / "good.stream"
    path.write_text(GOOD_STREAM)
    assert run("stream", "run", "--alg", "store-all", "--input", path) == OK
    assert streamio.parse_stream(GOOD_STREAM).segments == (("E1", ((0, 1),)), ("E2", ((1, 2), (2, 3))))
    assert run("stream", "run", "--alg", "store-all", "--input", path, "--s", 4) == USAGE


def test_parse_stream_reads_a_segment_with_no_edges(tmp_path):
    back = streamio.parse_stream("STREAM 4 directed=1\nSEG E1\nSEG E2\n1 2\n \nSEG E3\n\n")
    assert [(tag, list(seg), seg.us.dtype.name) for tag, seg in back.segments] == \
        [("E1", [], "int64"), ("E2", [(1, 2)], "int64"), ("E3", [], "int64")]
    # `gen st --e1-mode empty` writes such a segment, and reads it back
    stream = to_stream(sample_st(small_rs(), seed=3, e1_mode="empty"), shuffle_seed=1)
    path = tmp_path / "empty-e1.stream"
    streamio.write_stream(path, stream)
    assert streamio.read_stream(path).segments == stream.segments
    assert dict(stream.segments)["E1"] == ()


@pytest.mark.parametrize("bad", [10**20, -10**20, 2**63 - 1, -2**63])
def test_parse_stream_names_an_id_beyond_int64_exactly(bad):
    # a C-level read would saturate these at the ends of int64
    for line in (f"2 {bad}", f"{bad} 2"):
        with pytest.raises(ValueError) as info:
            streamio.parse_stream(f"STREAM 10 directed=1\nSEG E1\n0 1\n{line}\n")
        assert str(info.value) == f"vertex id {bad} in segment 'E1' is outside [0, 10)"


def test_parse_stream_reads_other_whitespace_as_the_plain_form_does():
    # CRLF, form feeds and vertical tabs are outside the plain bytes, so the strict regex reads these
    plain = streamio.parse_stream("STREAM 6 directed=0\nSEG A\n0 1\n\t2   3 \n\nSEG B\n4 5\n")
    for text in ("STREAM 6 directed=0\r\nSEG A\r\n0 1\r\n2\t3\r\nSEG B\r\n4 5\r\n",
                 "STREAM 6 directed=0\nSEG A\n 0\t1\f\n2 3\v\nSEG B\n4 5"):
        back = streamio.parse_stream(text)
        assert (back.n, back.directed, back.segments) == (plain.n, plain.directed, plain.segments)
    with pytest.raises(ValueError, match=r"malformed edge line '00 \+1' in segment 'A'"):
        streamio.parse_stream("STREAM 6 directed=0\nSEG A\n00 +1\n2 3\n")


FUZZ_BASE = streamio.render_stream(to_stream(sample_st(small_rs(), seed=3), shuffle_seed=1))
FUZZ_N = int(FUZZ_BASE.split()[1])
JUNK = st.sampled_from(["x", "1.5", "SEG", "STREAM", "--", "0x1", "+3", "1_0", "\u0663", "directed=1", "\t",
                        "M", "M 1", "RS", "#", "# L1", "BIPARTITE"])


@st.composite
def mutated_texts(draw, base, heads, top):
    """`base` with 1-4 lines dropped, duplicated, swapped, given ids beyond `top`,
    negative or huge ids, junk tokens or junk lines, then maybe truncated.
    Lines starting with one of `heads` (the header and block lines) are drawn
    half the time for the structural mutations."""
    lines = base.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        kind = draw(st.sampled_from(["drop", "duplicate", "swap", "big id", "huge id", "negative id",
                                     "junk token", "junk line"]))
        structural = [i for i, ln in enumerate(lines) if ln.startswith(heads)]
        if structural and kind in ("drop", "duplicate", "swap") and draw(st.booleans()):
            i = draw(st.sampled_from(structural))
        else:
            i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        elif kind == "big id":
            lines[i] = f"{draw(st.integers(0, top - 1))} {top + draw(st.integers(0, 10**6))}"
        elif kind == "huge id":
            lines[i] = f"{10 ** draw(st.integers(12, 40))} {draw(st.integers(0, top - 1))}"
        elif kind == "negative id":
            lines[i] = f"-{draw(st.integers(1, 10**6))} {draw(st.integers(0, top - 1))}"
        elif kind == "junk token":
            tokens = lines[i].split()
            tokens.insert(draw(st.integers(0, len(tokens))), draw(JUNK))
            lines[i] = " ".join(tokens)
        else:
            lines.insert(i, draw(JUNK))
    text = "\n".join(lines) + "\n"
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_texts(FUZZ_BASE, ("STREAM", "SEG"), FUZZ_N),
       alg=st.sampled_from(["store-all", "bfs-frontier:2", "edge-count", "spanning-forest", "xor-sketch:1"]))
def test_stream_reader_fuzz(tmp_path, text, alg):
    path = tmp_path / "fuzz.stream"
    path.write_text(text)
    code = run("stream", "run", "--alg", alg, "--input", path, "--passes", 2)
    assert code in (OK, VERIFY_FAILED, USAGE)
    try:
        streamio.parse_stream(text)
    except ValueError:
        assert code == USAGE


# --- RS and bipartite readers -------------------------------------------------------

GOOD_RS = "RS 9 3 2\nM 1\n2 3\n3 5\nM 2\n3 4\n4 6\nM 3\n4 5\n5 7\n"
BAD_RS = {
    "empty file": "",
    "blank file": "\n \n",
    "missing header": "M 1\n2 3\n3 5\n",
    "header without r": "RS 9 3\nM 1\n2 3\n3 5\n",
    "header with a word for N": "RS nine 3 2\nM 1\n2 3\n3 5\n",
    "header with an extra token": "RS 9 3 2 1\nM 1\n2 3\n3 5\n",
    "header with a wrong keyword": "RX 9 3 2\nM 1\n2 3\n3 5\n",
    "edge before the first M": "RS 9 3 2\n1 1\nM 1\n2 3\n3 5\n",
    "matchings out of order": GOOD_RS.replace("M 2", "M 9").replace("M 3", "M 2").replace("M 9", "M 3"),
    "matching index repeated": GOOD_RS.replace("M 3", "M 2"),
    "matching index skipped": GOOD_RS.replace("M 2", "M 3").replace("M 3\n4 5", "M 4\n4 5"),
    "M line without an index": GOOD_RS.replace("M 2", "M"),
    "empty matching": "RS 9 3 2\nM 1\nM 2\n3 4\n4 6\nM 3\n4 5\n5 7\n",
    "empty last matching": "RS 9 3 2\nM 1\n2 3\n3 5\nM 2\n3 4\n4 6\nM 3\n",
    "edge with three ids": GOOD_RS.replace("4 6", "4 6 1"),
    "edge with one id": GOOD_RS.replace("4 6", "4"),
    "edge with a junk token": GOOD_RS.replace("4 6", "4 x"),
    "edge with a non-ASCII digit": GOOD_RS.replace("4 6", "4 \u0666"),
    "edge with an underscore": GOOD_RS.replace("4 6", "4 1_0"),
    "huge id": GOOD_RS.replace("4 6", f"4 {10**30}"),  # past int64: no graph holds it
}
# the exact error of each case, which `error:` prints
BAD_RS_ERRORS = {
    "M line without an index": "matching header 'M' out of order: expected 'M 2'",
    "blank file": "empty RS file",
    "edge before the first M": "line '1 1' comes before the first 'M 1' line",
    "edge with a junk token": "malformed edge line '4 x' in matching 2: expected 'u v'",
    "edge with a non-ASCII digit": "malformed edge line '4 \u0666' in matching 2: expected 'u v'",
    "edge with an underscore": "malformed edge line '4 1_0' in matching 2: expected 'u v'",
    "edge with one id": "malformed edge line '4' in matching 2: expected 'u v'",
    "edge with three ids": "malformed edge line '4 6 1' in matching 2: expected 'u v'",
    "empty file": "empty RS file",
    "empty last matching": "matching 3 has no edges",
    "empty matching": "matching 1 has no edges",
    "header with a word for N": "malformed RS header 'RS nine 3 2': expected 'RS <N> <t> <r>'",
    "header with a wrong keyword": "malformed RS header 'RX 9 3 2': expected 'RS <N> <t> <r>'",
    "header with an extra token": "malformed RS header 'RS 9 3 2 1': expected 'RS <N> <t> <r>'",
    "header without r": "malformed RS header 'RS 9 3': expected 'RS <N> <t> <r>'",
    "huge id": "vertex id 1000000000000000000000000000000 in matching 2 is outside int64",
    "matching index repeated": "matching header 'M 2' out of order: expected 'M 3'",
    "matching index skipped": "matching header 'M 3' out of order: expected 'M 2'",
    "matchings out of order": "matching header 'M 3' out of order: expected 'M 2'",
    "missing header": "missing RS header 'RS <N> <t> <r>'",
}
TAMPERED_RS = {  # well formed, so verify_induced has the last word: exit 1
    "fewer matchings than t": "RS 9 4 2\nM 1\n2 3\n3 5\nM 2\n3 4\n4 6\nM 3\n4 5\n5 7\n",
    "matching smaller than r": GOOD_RS.replace("4 6\n", ""),
    "id beyond N": GOOD_RS.replace("4 6", "4 10"),
    "negative id": GOOD_RS.replace("4 6", "-4 6"),
    "cross edge": GOOD_RS.replace("4 6", "2 5"),
}


@pytest.mark.parametrize("case", sorted(BAD_RS))
def test_rs_readers_reject_malformed_input(tmp_path, capsys, case):
    path = tmp_path / "bad.txt"
    path.write_text(BAD_RS[case])
    with pytest.raises(ValueError) as info:
        streamio.parse_rs(BAD_RS[case])
    assert str(info.value) == BAD_RS_ERRORS[case]
    assert run("verify", "rs", path) == USAGE
    assert run("gen", "st", "--rs", path, "--seed", 1, "--count", 1, "--out", tmp_path / "st") == USAGE
    assert capsys.readouterr().err == f"error: {BAD_RS_ERRORS[case]}\n" * 2


# the whole `verify rs` line on each tampered file: a numpy scalar in a report
# would print as a quoted string here
TAMPERED_RS_LINES = {
    "cross edge":
        '{"detail": {"cross_edge": [2, 5], "matching": 1}, "ok": false, "reason": "induced-ness violated"}',
    "fewer matchings than t":
        '{"detail": {"expected": 4, "got": 3}, "ok": false, "reason": "matching count differs from t"}',
    "id beyond N":
        '{"detail": {"edge": [4, 10], "matching": 2}, "ok": false, "reason": "vertex outside [1, N]"}',
    "matching smaller than r":
        '{"detail": {"matching": 2, "size": 1}, "ok": false, "reason": "matching has wrong size"}',
    "negative id":
        '{"detail": {"edge": [-4, 6], "matching": 2}, "ok": false, "reason": "vertex outside [1, N]"}',
}


@pytest.mark.parametrize("case", sorted(TAMPERED_RS))
def test_verify_rs_fails_a_wellformed_tampered_file(tmp_path, capsys, case):
    path = tmp_path / "rs.txt"
    path.write_text(TAMPERED_RS[case])
    assert run("verify", "rs", path) == VERIFY_FAILED
    out = capsys.readouterr().out
    assert json.loads(out)["ok"] is False
    assert out == TAMPERED_RS_LINES[case] + "\n"


def test_rs_reader_keeps_what_it_is_given(tmp_path):
    assert streamio.parse_rs(GOOD_RS).matchings == (((2, 3), (3, 5)), ((3, 4), (4, 6)), ((4, 5), (5, 7)))
    spaced = "\n  RS 9 3 2 \n\nM 1\n 2  3\n3\t5\n\nM 2\n3 4\n4 6\nM 3\n4 5\n5 7"
    assert streamio.parse_rs(spaced) == streamio.parse_rs(GOOD_RS)
    # r = 0: every matching is empty, and the file still reads back
    empty = RSDigraph.of(9, 0, 3, ((), (), ()))
    assert streamio.parse_rs(streamio.render_rs(empty)) == empty
    path = tmp_path / "empty.txt"
    streamio.write_rs(path, empty)
    assert run("verify", "rs", path) == OK


def percent_stream_text(stream):
    """The stream's text as one `%` per edge line writes it."""
    lines = [f"STREAM {stream.n} directed={1 if stream.directed else 0}"]
    for tag, seg in stream.segments:
        lines += [f"SEG {tag}", *("%d %d" % edge for edge in seg)]
    return "\n".join(lines) + "\n"


def test_render_stream_from_tables_equals_the_percent_text():
    from streamlb.instances import EdgeStream
    streams = [
        EdgeStream(1, True, (("A", [(0, 0), (0, 0)]),)),
        EdgeStream(12, True, (("A", [(10, 11), (0, 9), (11, 0)]), ("B", []), ("C", [(1, 2)]))),
        EdgeStream(6, False, (("A", [(0, 4), (5, 3)]), ("B", [(4, 5), (2, 2)]))),
        EdgeStream(10**9, True, (("A", [(10, 11)]),)),  # n far beyond the edges: no table
        to_stream(sample_st(small_rs(), seed=3), shuffle_seed=1),
    ]
    for stream in streams:
        assert streamio.render_stream(stream) == percent_stream_text(stream)


def test_render_rs_from_tables_equals_the_line_text():
    def lines(g):
        blocks = [f"RS {g.n_side} {g.t} {g.r}"]
        blocks += ["\n".join([f"M {i}", *(f"{u} {v}" for u, v in m)]) for i, m in enumerate(g.matchings, 1)]
        return "\n".join(blocks) + "\n"
    graphs = [
        small_rs(),
        RSDigraph.of(9, 0, 3, ((), (), ())),
        RSDigraph.of(9, 2, 2, (((1, 4), (2, 5)), ((3, 6), (9, 9)))),
        RSDigraph.of(9, 2, 2, (((1, 4),), ((3, 6), (9, 9)))),  # a matching of the wrong size
        RSDigraph.of(9, 1, 2, (((0, 10),), ((-1, 2),))),  # ids outside [0, N]
        RSDigraph.of(2**64, 1, 1, (((2**63 - 1, 1),),)),  # N past int64, an id at its end
    ]
    for g in graphs:
        assert streamio.render_rs(g) == lines(g)


FUZZ_RS = streamio.render_rs(small_rs())


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_texts(FUZZ_RS, ("RS", "M"), small_rs().n_side + 1))
def test_rs_reader_fuzz(tmp_path, text):
    path = tmp_path / "fuzz.txt"
    path.write_text(text)
    code = run("verify", "rs", path)
    assert code in (OK, VERIFY_FAILED, USAGE)
    try:
        g = streamio.parse_rs(text)
    except ValueError:
        assert code == USAGE
    else:
        assert code == (OK if verify_induced(g).ok else VERIFY_FAILED)


GOOD_BIPARTITE = "BIPARTITE 2 2\n# L1 a\n# L2 b\n# R1 ('R', 1)\n# R2 d\n1 2\n2 1\n"
BAD_BIPARTITE = {
    "empty file": "",
    "blank file": " \n\n",
    "truncated header": "BIPARTITE 2\n1 1\n",
    "header with a word for nL": "BIPARTITE two 2\n1 1\n",
    "header with an extra token": "BIPARTITE 2 2 2\n1 1\n",
    "missing header": "1 2\n2 1\n",
    "edge with three indices": GOOD_BIPARTITE.replace("2 1\n", "2 1 1\n"),
    "edge with a junk token": GOOD_BIPARTITE.replace("2 1\n", "2 x\n"),
    "edge with a non-ASCII digit": GOOD_BIPARTITE.replace("2 1\n", "2 \u0661\n"),
    "left index beyond nL": GOOD_BIPARTITE.replace("2 1\n", "3 1\n"),
    "right index beyond nR": GOOD_BIPARTITE.replace("2 1\n", "2 3\n"),
    "index zero": GOOD_BIPARTITE.replace("2 1\n", "0 1\n"),
    "negative index": GOOD_BIPARTITE.replace("2 1\n", "-2 1\n"),
    "label of no side": GOOD_BIPARTITE.replace("# L2 b", "# X2 b"),
    "label without an id": GOOD_BIPARTITE.replace("# L2 b", "# L2"),
    "label beyond nR": GOOD_BIPARTITE.replace("# R2 d", "# R3 d"),
    "bare comment": GOOD_BIPARTITE.replace("# L2 b", "# note"),
    "index past int64": GOOD_BIPARTITE.replace("2 1\n", f"2 {10**30}\n"),
}
# the exact error of each case, which `error:` prints
BAD_BIPARTITE_ERRORS = {
    "bare comment": "malformed label line '# note': expected '# L<i> <id>' or '# R<i> <id>'",
    "blank file": "empty bipartite file",
    "edge with a junk token": "malformed edge line '2 x' in the bipartite file: expected 'u v'",
    "edge with a non-ASCII digit": "malformed edge line '2 \u0661' in the bipartite file: expected 'u v'",
    "edge with three indices": "malformed edge line '2 1 1' in the bipartite file: expected 'u v'",
    "index past int64": f"vertex id {10**30} in the bipartite file is outside [1, 2] x [1, 2]",
    "empty file": "empty bipartite file",
    "header with a word for nL": "malformed bipartite header 'BIPARTITE two 2': expected 'BIPARTITE <nL> <nR>'",
    "header with an extra token": "malformed bipartite header 'BIPARTITE 2 2 2': expected 'BIPARTITE <nL> <nR>'",
    "index zero": "edge '0 1' is outside [1, 2] x [1, 2]",
    "label beyond nR": "malformed label line '# R3 d': expected '# L<i> <id>' or '# R<i> <id>'",
    "label of no side": "malformed label line '# X2 b': expected '# L<i> <id>' or '# R<i> <id>'",
    "label without an id": "malformed label line '# L2': expected '# L<i> <id>' or '# R<i> <id>'",
    "left index beyond nL": "edge '3 1' is outside [1, 2] x [1, 2]",
    "missing header": "malformed bipartite header '1 2': expected 'BIPARTITE <nL> <nR>'",
    "negative index": "edge '-2 1' is outside [1, 2] x [1, 2]",
    "right index beyond nR": "edge '2 3' is outside [1, 2] x [1, 2]",
    "truncated header": "malformed bipartite header 'BIPARTITE 2': expected 'BIPARTITE <nL> <nR>'",
}


@pytest.mark.parametrize("case", sorted(BAD_BIPARTITE))
def test_oracle_pm_rejects_malformed_input(tmp_path, capsys, case):
    path = tmp_path / "bad.txt"
    path.write_text(BAD_BIPARTITE[case])
    with pytest.raises(ValueError) as info:
        streamio.parse_bipartite(BAD_BIPARTITE[case])
    assert str(info.value) == BAD_BIPARTITE_ERRORS[case]
    assert run("oracle", "pm", "--input", path) == USAGE
    assert capsys.readouterr().err == f"error: {BAD_BIPARTITE_ERRORS[case]}\n"


def test_oracle_pm_accepts_the_wellformed_neighbour(tmp_path, capsys):
    path = tmp_path / "good.txt"
    path.write_text(GOOD_BIPARTITE)
    assert run("oracle", "pm", "--input", path) == OK
    assert json.loads(capsys.readouterr().out) == {"perfect_matching": True}
    g = streamio.parse_bipartite(GOOD_BIPARTITE)
    assert (g.left, g.right, g.edges) == ((1, 2), (1, 2), ((0, 1), (1, 0)))


def test_bipartite_reader_caps_the_header_sides():
    cap = streamio.MAX_BIPARTITE_SIDE
    assert len(streamio.parse_bipartite(f"BIPARTITE {cap} 1\n").left) == cap
    for header in (f"BIPARTITE {cap + 1} 1", f"BIPARTITE 1 {cap + 1}"):
        with pytest.raises(ValueError, match="more than"):
            streamio.parse_bipartite(header + "\n1 1\n")


def test_oracle_pm_refuses_a_huge_header_before_sizing_the_graph(tmp_path):
    # a 26-byte file once cost `oracle pm` seconds and hundreds of MiB; run it
    # in a child so that such a regression is bounded by the timeout
    path = tmp_path / "huge.txt"
    path.write_text(f"BIPARTITE {10**6} {10**6}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(streamlb.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "streamlb.cli", "oracle", "pm", "--input", str(path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == USAGE and proc.stdout == ""
    assert proc.stderr.startswith("error: bipartite header") and proc.stderr.count("\n") == 1


def _dispatch_in_bounded_child(commands, cwd=None, timeout=120):
    """Run each argv through `dispatch` in one child capped at 1 GiB of address
    space, so a size that is not refused fails there instead of exhausting the
    host; the child prints one exit code a line."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from streamlb.cli import dispatch\n"
             f"for argv in {commands!r}:\n"
             "    print(dispatch(argv), flush=True)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(streamlb.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=timeout, env=env, cwd=cwd)


def test_graph_commands_refuse_a_huge_header_within_bounded_memory(tmp_path):
    # `oracle toposort` and `reduce matching|acyclic|reachcount` build a graph
    # over the stream's n vertices: n = 10^20 is refused at the header, and
    # n = 2^20, which a stream may have, where the graph would be built
    refusals = {10**20: f"stream header 'STREAM {10**20} directed=1' has {10**20} vertices; "
                        f"a stream holds at most {instances.MAX_STREAM_N}",
                2**20: f"a graph is built on at most {streamio.MAX_BIPARTITE_SIDE} vertices, "
                       f"not the stream's {2**20}"}
    for n, message in refusals.items():
        path = tmp_path / "huge.stream"
        path.write_text(f"STREAM {n} directed=1\nSEG E\n0 1\n1 2\n2 3\n")
        commands = [["oracle", "toposort", "--input", str(path)]]
        commands += [["reduce", kind, "--input", str(path), "--out", str(tmp_path / kind)]
                     for kind in ("matching", "acyclic", "reachcount")]
        proc = _dispatch_in_bounded_child(commands)
        assert proc.stdout == f"{USAGE}\n" * len(commands), proc.stderr[-500:]
        assert proc.stderr == f"error: {message}\n" * len(commands)
        assert [p.name for p in tmp_path.iterdir()] == ["huge.stream"]


def test_stream_commands_on_a_header_at_the_vertex_cap_within_bounded_memory(tmp_path):
    # n = 2^31 over three edges: the spanning forest keeps parents for the
    # vertices it sees, `stream run` only asks the frontier's state size, and
    # `protocol simulate` refuses the frontier's 2n-bit state before serializing it
    n = instances.MAX_STREAM_N
    path = tmp_path / "huge.stream"
    path.write_text(f"STREAM {n} directed=0\nSEG E1\n0 1\nSEG E2\n1 2\nSEG E3\n2 3\n")
    commands = [["stream", "run", "--alg", alg, "--passes", "2", "--input", str(path),
                 "--report", str(tmp_path / f"{alg}.json")] for alg in ("spanning-forest", "bfs-frontier:2")]
    commands += [["protocol", "simulate", "--alg", "bfs-frontier:2", "--instance", str(path)]]
    proc = _dispatch_in_bounded_child(commands, timeout=60)
    codes = [int(line) for line in proc.stdout.splitlines() if line.isdigit()]
    assert codes == [OK, OK, USAGE], proc.stderr[-500:]
    assert json.loads((tmp_path / "spanning-forest.json").read_text())["output"] is False
    assert json.loads((tmp_path / "bfs-frontier:2.json").read_text())["max_state_bits"] == 2 * n + 17
    assert proc.stderr == (f"error: bfs-frontier: a {2 * n + 17}-bit state is above the message cap "
                           f"of {protocols.MESSAGE_BITS_CAP} bits\n")


def test_simulate_just_under_the_message_cap_holds_packed_messages(tmp_path):
    # bfs-frontier:2 on n = 2^26 - 9 sends three (2n + 17)-bit messages, the
    # longest the cap admits; packed, each is 16 MiB, where one character per
    # bit peaked at 675 MiB. A child's own ru_maxrss starts at its parent's
    # RSS, so a small middle process waits for the command and reads its peak
    n = (protocols.MESSAGE_BITS_CAP - 17) // 2
    assert n == 2**26 - 9
    path = tmp_path / "cap.stream"
    path.write_text(f"STREAM {n} directed=1\nSEG E1\n0 1\nSEG E2\n1 2\nSEG E3\n2 3\n")
    argv = [sys.executable, "-m", "streamlb.cli", "protocol", "simulate", "--alg", "bfs-frontier:2",
            "--instance", str(path)]
    middle = ("import resource, subprocess, sys\n"
              f"done = subprocess.run({argv!r}, capture_output=True, text=True)\n"
              "print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
              "sys.stdout.write(done.stdout + done.stderr)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(streamlb.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", middle], capture_output=True, text=True, timeout=120, env=env)
    first, _, report = proc.stdout.partition("\n")
    code, peak_kib = map(int, first.split())
    assert code == OK, report[-500:]
    payload = json.loads(report)
    assert (payload["match"], payload["transcript_bits"]) == (True, 3 * (2 * n + 17))
    assert peak_kib < 200 * 1024


def test_symmetric_measurement_refuses_a_huge_m_within_bounded_memory():
    # mock-reveal is calibrated in exact-symmetric mode, whose rows hold
    # (m/4)^2 cells per rand: the budget refuses them before any row is built
    commands = [["protocol", "measure-eps", "--oracle", "mock-reveal", "--eps", "0.5", "--m", str(m)]
                for m in (65540, 10**8)]
    commands += [["protocol", "boost", "--oracle", "mock-reveal", "--eps", "0.5", "--m", str(10**8)]]
    proc = _dispatch_in_bounded_child(commands, timeout=60)
    assert proc.stdout == f"{USAGE}\n" * len(commands), proc.stderr[-500:]
    lines = proc.stderr.splitlines()
    assert len(lines) == len(commands)
    assert all(line.startswith("error: exact-symmetric mode at m=") for line in lines), lines


def test_si_draws_refuse_a_huge_m_within_bounded_memory(tmp_path):
    # one intersection draw at m = 10^8 would need gigabytes; `sample_si`
    # refuses any m above its cap before drawing, and nothing is written
    commands = [["gen", "si", "--m", str(10**8), "--out", "si"],
                ["experiment", "si-uniformity", "--param", f"m={10**8}"],
                ["protocol", "boost", "--m", str(10**8), "--oracle", "null", "--trials", "1"]]
    proc = _dispatch_in_bounded_child(commands, cwd=tmp_path, timeout=60)
    assert proc.stdout == f"{USAGE}\n" * len(commands), proc.stderr[-500:]
    assert proc.stderr == (f"error: universe size m={10**8} is above the cap of "
                           f"{instances.SI_M_CAP} for a drawn instance\n") * len(commands)
    assert list(tmp_path.iterdir()) == []


def test_rs_constructions_refuse_a_huge_m_within_bounded_memory(tmp_path):
    # a 3-AP-free set at m = 10^8 does not finish, and the RS digraph at
    # m = 10^5 (|S| = 2,047) needs 1.5 GiB an array: `construct_ap_free` and
    # `build_rs_digraph` refuse before the scan or the allocation, and the
    # commands that call them read the same caps
    commands = [["gen", "behrend", "--m", str(10**8), "--out", "b.json"],
                ["gen", "rs", "--m", str(10**8), "--out", "rs.txt"],
                ["gen", "rs", "--m", str(10**5), "--out", "rs.txt"],
                ["experiment", "rs-verify", "--param", f"m={10**5}"]]
    proc = _dispatch_in_bounded_child(commands, cwd=tmp_path, timeout=60)
    assert proc.stdout == f"{USAGE}\n" * len(commands), proc.stderr[-500:]
    huge_m = (f"error: universe size m={10**8} is above the cap of {behrend.AP_FREE_M_CAP} "
              "for a constructed set\n")
    huge_rs = (f"error: an RS digraph on m={10**5} and |S|=2047 has {2047 * 10**5} edges, "
               f"above the cap of {rsgraph.RS_EDGE_CAP}\n")
    assert proc.stderr == huge_m * 2 + huge_rs * 2
    assert list(tmp_path.iterdir()) == []


def test_job_lists_refuse_a_huge_count_within_bounded_memory(tmp_path):
    # st-batch and the booster build one job per instance or trial, and
    # si-uniformity and info-props run one draw or case after another: 10^8 is
    # refused before the list is built or the first draw, where it once ended
    # in a MemoryError or ran for hours
    commands = [["experiment", "st-batch", "--param", f"count={10**8}"],
                ["experiment", "boost-trials", "--param", f"trials={10**8}"],
                ["protocol", "boost", "--m", "32", "--eps", "0.5", "--oracle", "mock-reveal",
                 "--trials", str(10**8)],
                ["experiment", "si-uniformity", "--param", f"samples={10**8}"],
                ["experiment", "info-props", "--param", f"cases={10**8}"]]
    proc = _dispatch_in_bounded_child(commands, cwd=tmp_path, timeout=60)
    assert proc.stdout == f"{USAGE}\n" * len(commands), proc.stderr[-500:]
    assert proc.stderr == (f"error: count must be at most {experiments.ST_BATCH_COUNT_CAP}\n"
                           + f"error: trials must be at most {experiments.BOOST_TRIALS_CAP}\n" * 2
                           + f"error: samples * m must be at most {experiments.SI_SAMPLES_M_CAP}\n"
                           + f"error: cases must be at most {experiments.INFO_PROPS_CASES_CAP}\n")
    assert list(tmp_path.iterdir()) == []


def test_si_uniformity_caps_samples_times_m_before_any_draw(monkeypatch):
    # the cap bounds samples * m, not samples alone: at a cap of 80, m = 8
    # admits 10 samples and m = 16 only 5
    monkeypatch.setattr(experiments, "SI_SAMPLES_M_CAP", 80)
    assert experiments.si_uniformity(m=8, samples=10)["samples"] == 10
    assert experiments.si_uniformity(m=16, samples=5)["samples"] == 5

    def refuse(m, gen):
        raise AssertionError("the cap must be checked before the first draw")

    monkeypatch.setattr(experiments, "sample_si", refuse)
    for m, samples in ((8, 11), (16, 6)):
        with pytest.raises(ValueError, match="samples \\* m must be at most 80"):
            experiments.si_uniformity(m=m, samples=samples)


def test_si_uniformity_leaves_an_m_above_si_m_cap_to_sample_si():
    # one sample at m = 10^8 is above both caps: the refusal names m, as
    # `sample_si` words it, not the product
    with pytest.raises(ValueError, match=f"m={10**8} is above the cap of {instances.SI_M_CAP}"):
        experiments.si_uniformity(m=10**8, samples=1)


def test_info_props_caps_cases_before_any_case(monkeypatch):
    monkeypatch.setattr(experiments, "INFO_PROPS_CASES_CAP", 3)
    assert experiments.info_props(cases=3)["cases"] == 3

    def refuse(gen, size):
        raise AssertionError("the cap must be checked before the first case")

    monkeypatch.setattr(experiments, "_random_distribution", refuse)
    with pytest.raises(ValueError, match="cases must be at most 3"):
        experiments.info_props(cases=4)


def test_readme_caps_match_the_code():
    # every cap README names with a value, as `NAME` = value, is that constant
    # of the package, so the docs cannot drift from the code
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = [(name, int(base.replace(",", "")) ** int(exp or 1))
             for name, base, exp in re.findall(r"`([A-Z][A-Z0-9_]*)` = (\d[\d,]*)(?:\^(\d+))?", text)]
    assert {"SI_M_CAP", "MAX_BIPARTITE_SIDE", "REVEAL_M_CAP", "MAX_STREAM_N", "ST_BATCH_COUNT_CAP",
            "BOOST_TRIALS_CAP", "AP_FREE_M_CAP", "RS_EDGE_CAP", "SI_SAMPLES_M_CAP",
            "INFO_PROPS_CASES_CAP"} <= {name for name, _ in named}
    constants = {}
    for info in pkgutil.iter_modules(streamlb.__path__):
        module = importlib.import_module(f"streamlb.{info.name}")
        constants.update((k, v) for k, v in vars(module).items() if k.isupper() and type(v) is int)
    assert [(name, constants.get(name)) for name, _ in named] == named


def test_every_src_definition_is_reached_outside_the_tests():
    # src holds no code that only tests reach: each def and class name of the
    # package, top-level or a method, dunders exempt, occurs as a whole word
    # besides the def/class lines in the package (not its re-exports), the
    # benchmark or the CI workflow
    root = Path(__file__).resolve().parents[1]
    src = sorted((root / "src" / "streamlb").glob("*.py"))
    corpus = [path for path in src if path.name != "__init__.py"]
    corpus += [*sorted((root / "perfbench").glob("*.py")), root / ".github" / "workflows" / "tier1.yml"]
    text = re.sub(r"\b(?:def|class)\s+\w+", "", "\n".join(path.read_text() for path in corpus))
    words = set(re.findall(r"\w+", text))

    def defined(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name
            if isinstance(node, ast.ClassDef):
                yield from defined(node.body)

    unreached = sorted(f"{path.name}: {name}" for path in src
                       for name in set(defined(ast.parse(path.read_text()).body))
                       if not (name.startswith("__") and name.endswith("__")) and name not in words)
    assert unreached == []


def test_perfect_oracle_refuses_a_target_beyond_16_bits_before_any_round():
    # RevealOracle writes e* - 1 in 16 bits: the oracle is refused as built,
    # where the refusal names the size and the cap, not from inside a round
    commands = [["protocol", "boost", "--m", str(m), "--oracle", "perfect", "--trials", "1"]
                for m in (65544, 10**8)]
    commands += [["protocol", "measure-eps", "--m", "65544", "--oracle", "perfect"],
                 ["experiment", "boost-trials", "--param", "m=65544", "--param", "oracle_tag=perfect"]]
    proc = _dispatch_in_bounded_child(commands, timeout=60)
    assert proc.stdout == f"{USAGE}\n" * len(commands), proc.stderr[-500:]
    sizes = (65544, 10**8, 65544, 65544)
    assert proc.stderr == "".join(f"error: m={m} is above {protocols.REVEAL_M_CAP}: the perfect oracle "
                                  "writes its target in 16 bits\n" for m in sizes)
    assert protocols.REVEAL_M_CAP == 65536


def test_mock_bias_refuses_an_m_beyond_exact_enumeration_before_calibrating(monkeypatch, capsys):
    # mock-bias is calibrated by exact enumeration of the full joint, which
    # stops at EXACT_FULL_M_CAP: the refusal names the oracle and echoes m
    monkeypatch.setattr(experiments, "mock_eps_solver", None)  # calibrating would raise TypeError
    commands = [("protocol", "boost", "--oracle", "mock-bias", "--m", 32),
                ("protocol", "measure-eps", "--oracle", "mock-bias", "--m", 16),
                ("experiment", "boost-trials", "--param", "m=16", "--param", "oracle_tag=mock-bias")]
    for argv, m in zip(commands, (32, 16, 16)):
        assert run(*argv) == USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: m={m} is above 12: the mock-bias oracle is calibrated by exact enumeration\n"
    assert protocols.EXACT_FULL_M_CAP == 12


FUZZ_BIPARTITE = "".join(streamio._bipartite_text(BipartiteGraph(
    tuple(range(6)), tuple(range(6)),
    tuple((i, j) for i in range(6) for j in range(6) if (j - i) % 6 in (0, 1, 3)))))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_texts(FUZZ_BIPARTITE, ("BIPARTITE", "#"), 7))
def test_bipartite_reader_fuzz(tmp_path, text):
    path = tmp_path / "fuzz.txt"
    path.write_text(text)
    code = run("oracle", "pm", "--input", path)
    try:
        streamio.parse_bipartite(text)
    except ValueError:
        assert code == USAGE
    else:
        assert code == OK


_REFERENCE_HEADER = re.compile(r"BIPARTITE[ \t]+(\d+)[ \t]+(\d+)", re.ASCII)
_REFERENCE_LABEL = re.compile(r"#[ \t]*([LR])(\d+)[ \t]+\S.*", re.ASCII)
_REFERENCE_PAIR = re.compile(r"(\d+)[ \t]+(\d+)", re.ASCII)


def reference_parse_bipartite(text):
    """The bipartite reader as it once was, line by line: the (left, right,
    edges) it reads, or None where it refuses the text."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    head = _REFERENCE_HEADER.fullmatch(lines[0]) if lines else None
    if head is None or max(int(head[1]), int(head[2])) > streamio.MAX_BIPARTITE_SIDE:
        return None
    n_l, n_r = int(head[1]), int(head[2])
    edges = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            label = _REFERENCE_LABEL.fullmatch(ln)
            if label is None or not 1 <= int(label[2]) <= (n_l if label[1] == "L" else n_r):
                return None
            continue
        pair = _REFERENCE_PAIR.fullmatch(ln)
        if pair is None or not (1 <= int(pair[1]) <= n_l and 1 <= int(pair[2]) <= n_r):
            return None
        edges.append((int(pair[1]) - 1, int(pair[2]) - 1))
    return tuple(range(1, n_l + 1)), tuple(range(1, n_r + 1)), tuple(edges)


# the tokens of a bipartite file's grammar, CRLF as one line break
BIPARTITE_TOKENS = [" ", "\t", "\n", "\r\n", "#", "L", "R", "-", "x", *"0123456789"]


@st.composite
def bipartite_token_texts(draw):
    """A bipartite file's lines (header, labels and edges in any order, blank
    lines), each padded by spaces and tabs and ended by LF or CRLF, each part
    well formed nine times in ten; then 0-2 of its tokens dropped, inserted
    or replaced by tokens of `BIPARTITE_TOKENS`."""
    def pick(good, bad):
        return draw(st.sampled_from(good if draw(st.integers(0, 9)) else bad))

    n_l, n_r = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    index = {"L": [str(i) for i in range(1, n_l + 1)] or ["1"], "R": [str(j) for j in range(1, n_r + 1)] or ["1"]}
    odd = ["0", "4", "00", "01", "-1", "-0", "x", ""]
    blank = [" ", "\t", " \t "]
    lines = [f"BIPARTITE {n_l} {n_r}"]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["label", "edge", "blank"]))
        if kind == "label":
            side = pick(["L", "R"], ["x", "LR", ""])
            lines.append("#" + pick(["", " "], ["\t", " \t"]) + side + pick(index.get(side, ["1"]), odd)
                         + pick([" ", "\t"], [""]) + pick(["a", "x", "#", "L1", "9 9"], ["", " "]))
        elif kind == "edge":
            lines.append(pick(index["L"], odd) + pick([" ", "\t", "  "], [""]) + pick(index["R"], odd)
                         + pick([""], [" 1", " #", "-"]))
        else:
            lines.append("")
    tokens = [pick([""], ["\n", " \n", "\t\r\n"])]  # a blank line before the header
    for line in lines:
        tokens += [pick([""], blank), *line, pick([""], blank), draw(st.sampled_from(["\n", "\r\n"]))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        kind = draw(st.sampled_from(["drop", "insert", "replace"]))
        if kind == "insert" or at == len(tokens):
            tokens.insert(at, draw(st.sampled_from(BIPARTITE_TOKENS)))
        elif kind == "drop":
            del tokens[at]
        else:
            tokens[at] = draw(st.sampled_from(BIPARTITE_TOKENS))
    return "".join(tokens)


@settings(max_examples=1000, deadline=None)
@given(text=bipartite_token_texts())
def test_bipartite_reader_equals_the_line_by_line_reference(text):
    expected = reference_parse_bipartite(text)
    try:
        g = streamio.parse_bipartite(text)
    except ValueError:
        assert expected is None
    else:
        assert (g.left, g.right, tuple(g.edges)) == expected


def workflow_commands(text):
    """The argv after `streamlb` of every `streamlb ...` line of a workflow
    file, read as plain text: a `> file` redirect and an `|| ...` fallback are
    cut off, and the rest is split as the shell would."""
    commands = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("streamlb "):
            line = line.split("||")[0].split(">")[0]
            commands.append(shlex.split(line)[1:])
    return commands


def test_ci_workflow_commands_parse():
    # the CI job runs these lines through the installed console script; a
    # renamed option or command must fail here, where tier-1 runs
    text = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml").read_text()
    commands = workflow_commands(text)
    assert len(commands) >= 12 and ["verify", "rs", "rs.txt"] in commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"tier1.yml runs `streamlb {shlex.join(argv)}`, which the parser refuses")
    assert workflow_commands("  streamlb gen si --m 8 --out x || code=$?\n  streamlb verify rs a > b.json\n") \
        == [["gen", "si", "--m", "8", "--out", "x"], ["verify", "rs", "a"]]
