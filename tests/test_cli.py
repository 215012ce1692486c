import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamlb.cli import OK, USAGE, VERIFY_FAILED, dispatch
from streamlb.experiments import small_rs
from streamlb.instances import sample_st, to_stream
from streamlb.reductions import BipartiteGraph
from streamlb import streamio


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


def test_stream_roundtrip(tmp_path):
    stream = to_stream(sample_st(small_rs(), seed=3), shuffle_seed=1)
    path = tmp_path / "x.stream"
    streamio.write_stream(path, stream)
    back = streamio.parse_stream(path.read_text())
    assert back.n == stream.n and back.directed == stream.directed
    assert back.segments == stream.segments


def test_bipartite_roundtrip(tmp_path):
    g = BipartiteGraph((("L", 1), ("L", 2)), (("R", 1), ("R", 2)),
                       (((("L", 1)), ("R", 2)),))
    path = tmp_path / "b.txt"
    streamio.write_bipartite(path, g)
    back = streamio.read_bipartite(path)
    assert len(back.left) == 2 and len(back.right) == 2 and len(back.edges) == 1


def test_experiment_worker_pool_parity():
    from streamlb.experiments import st_batch

    serial = st_batch(count=40, seed=3, with_distances=True)
    pooled = st_batch(count=40, seed=3, with_distances=True, workers=3)
    assert serial == pooled


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


def test_stream_run_accepts_the_wellformed_neighbour(tmp_path):
    path = tmp_path / "good.stream"
    path.write_text(GOOD_STREAM)
    assert run("stream", "run", "--alg", "store-all", "--input", path) == OK
    assert streamio.parse_stream(GOOD_STREAM).segments == (("E1", ((0, 1),)), ("E2", ((1, 2), (2, 3))))
    assert run("stream", "run", "--alg", "store-all", "--input", path, "--s", 4) == USAGE


FUZZ_BASE = streamio.render_stream(to_stream(sample_st(small_rs(), seed=3), shuffle_seed=1))
FUZZ_N = int(FUZZ_BASE.split()[1])
JUNK = st.sampled_from(["x", "1.5", "SEG", "STREAM", "--", "0x1", "+3", "1_0", "\u0663", "directed=1", "\t"])


@st.composite
def mutated_stream_texts(draw):
    lines = FUZZ_BASE.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        kind = draw(st.sampled_from(["drop", "duplicate", "big id", "negative id", "junk token", "junk line"]))
        structural = [i for i, ln in enumerate(lines) if ln.startswith(("STREAM", "SEG"))]
        if structural and kind in ("drop", "duplicate") and draw(st.booleans()):
            i = draw(st.sampled_from(structural))  # the header and SEG lines
        else:
            i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "big id":
            lines[i] = f"{draw(st.integers(0, FUZZ_N - 1))} {FUZZ_N + draw(st.integers(0, 10**6))}"
        elif kind == "negative id":
            lines[i] = f"-{draw(st.integers(1, 10**6))} {draw(st.integers(0, FUZZ_N - 1))}"
        elif kind == "junk token":
            tokens = lines[i].split()
            tokens.insert(draw(st.integers(0, len(tokens))), draw(JUNK))
            lines[i] = " ".join(tokens)
        else:
            lines.insert(i, draw(JUNK))
    text = "\n".join(lines) + "\n"
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_stream_texts(),
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
