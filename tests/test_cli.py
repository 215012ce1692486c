import argparse
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
from streamlb import experiments, instances, protocols, streamio


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


@pytest.mark.parametrize("alg", ["store-all", "bfs-frontier:2", "edge-count"])
@pytest.mark.parametrize("case", sorted(BAD_STREAMS))
def test_stream_run_rejects_malformed_input(tmp_path, capsys, case, alg):
    path = tmp_path / "bad.stream"
    path.write_text(BAD_STREAMS[case])
    assert run("stream", "run", "--alg", alg, "--input", path, "--passes", 2) == USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ids_beyond_int64_run_under_every_command(tmp_path, capsys):
    path = tmp_path / "huge.stream"
    path.write_text(f"STREAM {10**20} directed=1\nSEG E1\n0 5\n5 {10**20 - 1}\nSEG E2\n{10**20 - 1} {2**63}\n"
                    f"SEG E3\n{2**63} {10**20 - 1}\n0 0\n")
    # the outputs of the per-edge harness, which read these ids as Python ints
    for alg, output in {"edge-count": 5, "store-all": True, "bfs-frontier:2": True,
                        "xor-sketch:3": [15194187978533636053, 5]}.items():
        assert run("stream", "run", "--alg", alg, "--input", path, "--passes", 2) == OK
        assert json.loads(capsys.readouterr().out)["output"] == output
        if alg != "bfs-frontier:2":  # its 2·10^20-bit state is never serialized in a run
            assert run("protocol", "simulate", "--alg", alg, "--instance", path) == OK
            assert json.loads(capsys.readouterr().out)["match"] is True
    assert run("oracle", "bfs", "--input", path, "--t", 2**63) == OK
    assert json.loads(capsys.readouterr().out) == {"reachable": True}
    refusals = {("stream", "run", "--alg", "spanning-forest", "--input", path):
                "spanning forest needs an undirected stream",
                ("protocol", "simulate", "--alg", "bfs-frontier:2", "--instance", path):
                "bfs-frontier: a 200000000000000000017-bit state is longer than any string"}
    for argv, message in refusals.items():
        assert run(*argv) == USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_stream_run_accepts_the_wellformed_neighbour(tmp_path):
    path = tmp_path / "good.stream"
    path.write_text(GOOD_STREAM)
    assert run("stream", "run", "--alg", "store-all", "--input", path) == OK
    assert streamio.parse_stream(GOOD_STREAM).segments == (("E1", ((0, 1),)), ("E2", ((1, 2), (2, 3))))
    assert run("stream", "run", "--alg", "store-all", "--input", path, "--s", 4) == USAGE


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
}
TAMPERED_RS = {  # well formed, so verify_induced has the last word: exit 1
    "fewer matchings than t": "RS 9 4 2\nM 1\n2 3\n3 5\nM 2\n3 4\n4 6\nM 3\n4 5\n5 7\n",
    "matching smaller than r": GOOD_RS.replace("4 6\n", ""),
    "id beyond N": GOOD_RS.replace("4 6", "4 10"),
    "negative id": GOOD_RS.replace("4 6", "-4 6"),
    "huge id": GOOD_RS.replace("4 6", f"4 {10**30}"),
    "cross edge": GOOD_RS.replace("4 6", "2 5"),
}


@pytest.mark.parametrize("case", sorted(BAD_RS))
def test_rs_readers_reject_malformed_input(tmp_path, capsys, case):
    path = tmp_path / "bad.txt"
    path.write_text(BAD_RS[case])
    with pytest.raises(ValueError):
        streamio.parse_rs(BAD_RS[case])
    assert run("verify", "rs", path) == USAGE
    assert run("gen", "st", "--rs", path, "--seed", 1, "--count", 1, "--out", tmp_path / "st") == USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 2


# the whole `verify rs` line on each tampered file: a numpy scalar in a report
# would print as a quoted string here
TAMPERED_RS_LINES = {
    "cross edge":
        '{"detail": {"cross_edge": [2, 5], "matching": 1}, "ok": false, "reason": "induced-ness violated"}',
    "fewer matchings than t":
        '{"detail": {"expected": 4, "got": 3}, "ok": false, "reason": "matching count differs from t"}',
    "huge id":
        '{"detail": {"edge": [4, 1000000000000000000000000000000], "matching": 2}, "ok": false, "reason": "vertex outside [1, N]"}',
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
    empty = RSDigraph(9, 0, 3, ((), (), ()))
    assert streamio.parse_rs(streamio.render_rs(empty)) == empty
    path = tmp_path / "empty.txt"
    streamio.write_rs(path, empty)
    assert run("verify", "rs", path) == OK


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
}


@pytest.mark.parametrize("case", sorted(BAD_BIPARTITE))
def test_oracle_pm_rejects_malformed_input(tmp_path, capsys, case):
    path = tmp_path / "bad.txt"
    path.write_text(BAD_BIPARTITE[case])
    with pytest.raises(ValueError):
        streamio.parse_bipartite(BAD_BIPARTITE[case])
    assert run("oracle", "pm", "--input", path) == USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    # over the stream's n vertices, so a build for n = 10^20 must be refused
    path = tmp_path / "huge.stream"
    path.write_text(f"STREAM {10**20} directed=1\nSEG E\n0 1\n1 2\n2 3\n")
    commands = [["oracle", "toposort", "--input", str(path)]]
    commands += [["reduce", kind, "--input", str(path), "--out", str(tmp_path / kind)]
                 for kind in ("matching", "acyclic", "reachcount")]
    proc = _dispatch_in_bounded_child(commands)
    assert proc.stdout == f"{USAGE}\n" * len(commands), proc.stderr[-500:]
    assert proc.stderr == (f"error: a graph is built on at most {streamio.MAX_BIPARTITE_SIDE} "
                           f"vertices, not the stream's {10**20}\n") * len(commands)
    assert [p.name for p in tmp_path.iterdir()] == ["huge.stream"]


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


def test_readme_caps_match_the_code():
    # every cap README names with a value, as `NAME` = value, is that constant
    # of the package, so the docs cannot drift from the code
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = [(name, int(base.replace(",", "")) ** int(exp or 1))
             for name, base, exp in re.findall(r"`([A-Z][A-Z0-9_]*)` = (\d[\d,]*)(?:\^(\d+))?", text)]
    assert {"SI_M_CAP", "MAX_BIPARTITE_SIDE", "REVEAL_M_CAP"} <= {name for name, _ in named}
    constants = {}
    for info in pkgutil.iter_modules(streamlb.__path__):
        module = importlib.import_module(f"streamlb.{info.name}")
        constants.update((k, v) for k, v in vars(module).items() if k.isupper() and type(v) is int)
    assert [(name, constants.get(name)) for name, _ in named] == named


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


FUZZ_BIPARTITE = streamio.render_bipartite(BipartiteGraph(
    tuple(range(6)), tuple(range(6)),
    tuple((i, j) for i in range(6) for j in range(6) if (j - i) % 6 in (0, 1, 3))))


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
