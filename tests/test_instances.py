import dataclasses
import json
from collections import Counter
from functools import cache
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamlb import instances
from streamlb import rng as rngmod
from streamlb.behrend import construct_ap_free, trim_to_multiple
from streamlb.common import EdgeBlock
from streamlb.experiments import small_rs
from streamlb.instances import (
    CHOICE_FLOYD_MAX,
    FORWARD,
    INVERSE,
    MAX_STREAM_N,
    EdgeStream,
    SIInstance,
    SIRows,
    STInstance,
    iter_si,
    sample_si,
    sample_st,
    sample_ur,
    to_stream,
    verify_st_instance,
    verify_ur_promise,
    _choice_draws,
    _draw_si,
    _draw_si_rows,
)
from streamlb.reductions import reduce_to_sssp
from streamlb.rsgraph import RSDigraph, build_rs_digraph
from streamlb.streamio import (
    render_stream,
    st_metadata,
    ur_metadata,
    verify_st_file,
    verify_ur_file,
)


def identity_matching_rs(r: int) -> RSDigraph:
    """Degenerate single-matching graph: r parallel edges (i, i)."""
    return RSDigraph.of(n_side=r, r=r, t=1,
                     matchings=(tuple((i, i) for i in range(1, r + 1)),))


def si_pair(rows: SIRows, i: int) -> SIInstance:
    """Pair i of `rows` (1-indexed, as the matchings are) as an `SIInstance`."""
    return SIInstance(rows.m, frozenset(rows.a[i - 1].tolist()), frozenset(rows.b[i - 1].tolist()),
                      int(rows.e_star[i - 1]))


# --- set intersection ---------------------------------------------------------

def test_sample_si_m4_forced():
    inst = sample_si(4, rngmod.substream(0, "a"))
    assert inst.a == inst.b == frozenset({inst.e_star})


def test_sample_si_m8_shape():
    inst = sample_si(8, rngmod.substream(1, "b"))
    assert len(inst.a) == len(inst.b) == 2
    assert inst.a & inst.b == {inst.e_star}
    assert inst.a | inst.b <= set(range(1, 9))


def test_sample_si_rejects_bad_m():
    with pytest.raises(ValueError):
        sample_si(6, rngmod.substream(0, "c"))
    with pytest.raises(ValueError):
        sample_si(0, rngmod.substream(0, "c"))


def apply_permutation(inst: SIInstance, sigma) -> SIInstance:
    """Relabel an instance through a permutation of [1..m] (sigma[i-1] = image of i),
    as `protocols.boost_si` relabels each round."""
    sigma = tuple(int(x) for x in sigma)
    if sorted(sigma) != list(range(1, inst.m + 1)):
        raise ValueError("sigma is not a permutation of [1..m]")
    return SIInstance(
        m=inst.m,
        a=frozenset(sigma[x - 1] for x in inst.a),
        b=frozenset(sigma[x - 1] for x in inst.b),
        e_star=sigma[inst.e_star - 1],
    )


def test_apply_permutation_identity_and_swap():
    inst = SIInstance(4, frozenset({2}), frozenset({2}), 2)
    assert apply_permutation(inst, (1, 2, 3, 4)) == inst
    swapped = apply_permutation(inst, (2, 1, 3, 4))
    assert swapped.a == swapped.b == frozenset({1}) and swapped.e_star == 1


def test_apply_permutation_rejects_non_bijection():
    inst = SIInstance(4, frozenset({2}), frozenset({2}), 2)
    with pytest.raises(ValueError):
        apply_permutation(inst, (1, 1, 3, 4))


def test_rerandomization_covers_support_uniformly():
    # images of one fixed instance under all 24 relabelings hit the full
    # support of the m=4 distribution with equal multiplicity
    inst = SIInstance(4, frozenset({2}), frozenset({2}), 2)
    images = Counter(
        apply_permutation(inst, sigma) for sigma in permutations(range(1, 5))
    )
    support = {si for si, _ in iter_si(4)}
    assert set(images) == support
    assert set(images.values()) == {6}


def test_enumerate_si_exact_conditional_uniformity():
    by_a = {}
    for inst, p in iter_si(8):
        by_a.setdefault(inst.a, Counter())[inst.e_star] += p
    for a, posterior in by_a.items():
        masses = set(posterior.values())
        assert len(masses) == 1 and set(posterior) == set(a)


# --- unique reach ---------------------------------------------------------------

def test_sample_ur_degenerate_single_matching():
    rs = identity_matching_rs(4)
    inst = sample_ur(rs, FORWARD, seed=5)
    assert inst.i_star == 1
    assert inst.si_rows.a.shape == inst.si_rows.b.shape == (1, 1)
    assert verify_ur_promise(inst).ok


def test_sample_ur_rows_are_the_per_matching_draws():
    # pair i is what `sample_si` draws from substream (seed, *path, "si", i)
    rs = small_rs()
    inst = sample_ur(rs, INVERSE, seed=11, path=("st", "bwd"))
    assert inst.si_rows.a.shape == inst.si_rows.b.shape == (rs.t, rs.r // 4)
    for i in range(1, rs.t + 1):
        assert si_pair(inst.si_rows, i) == sample_si(rs.r, rngmod.substream(11, "st", "bwd", "si", i))
    assert inst.e_star == inst.si_rows.e_star[inst.i_star - 1]


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 2**63 - 1, 2**64, 2**64 + 5]), st.integers(2**64, 2**130)),
       path=st.sampled_from([("ur",), ("st", "fwd"), ("st", "bwd")]),
       r=st.sampled_from([4, 8, 12, 104, 1000, 8000]), t=st.integers(1, 6))
def test_batched_si_rows_are_numpys_draws(seed, path, r, t):
    # every row of the batch is what `Generator.choice` draws from that row's substream
    rows = _draw_si_rows(r, seed, path, t)
    for i in range(1, t + 1):
        assert rows[i - 1].tolist() == _draw_si(r, rngmod.substream(seed, *path, "si", i)).tolist()


def test_a_row_that_rejects_a_word_is_drawn_by_numpy():
    # row 172 of seed 3 at r = 8000 holds a Lemire rejection: its draws after it
    # read a later word, so the batch hands the row to `choice`
    words = rngmod.substream_words(3, "ur", "si", ids=[171, 172], count=(8000 - 2) // 2)
    assert _choice_draws(8000, words)[1].tolist() == [False, True]
    rows = _draw_si_rows(8000, 3, ("ur",), 172)
    for i in (171, 172):
        assert rows[i - 1].tolist() == _draw_si(8000, rngmod.substream(3, "ur", "si", i)).tolist()


def test_rows_past_the_floyd_range_take_numpys_path():
    r = CHOICE_FLOYD_MAX + 4  # `choice` shuffles all of [0, r) here
    rows = _draw_si_rows(r, 5, ("ur",), 2)
    for i in (1, 2):
        assert rows[i - 1].tolist() == _draw_si(r, rngmod.substream(5, "ur", "si", i)).tolist()


def test_si_rows_refuse_a_corrupted_row():
    # four pairs over [1..16]; each corruption of pair 3 is refused by name
    picks = np.array([rngmod.substream(2, "rows", i).choice(16, 7, replace=False) + 1 for i in range(4)])
    rows = SIRows.of_picks(16, picks)
    assert rows == SIRows(16, rows.a.copy(), rows.b.copy(), rows.e_star.copy())
    a, b, e = rows.a[2].tolist(), rows.b[2].tolist(), int(rows.e_star[2])
    a_other, b_other = next(x for x in a if x != e), next(x for x in b if x != e)
    free = next(x for x in range(1, 17) if x not in a + b)

    def swap(row, old, new):
        return sorted(new if x == old else x for x in row)

    cases = [
        ("first set is not strictly increasing", swap(a, a_other, e), b),  # a repeated element
        ("first set is not strictly increasing", swap(a, a_other, 0), b),  # below [1, 16]
        ("second set is not strictly increasing", a, swap(b, b_other, 17)),  # above [1, 16]
        ("second set misses the target", a, swap(b, e, free)),
        ("sets share more than the target", swap(a, a_other, b_other), b),
    ]
    for reason, a_row, b_row in cases:
        a_rows, b_rows = rows.a.copy(), rows.b.copy()
        a_rows[2], b_rows[2] = a_row, b_row
        with pytest.raises(ValueError, match=f"pair 3: {reason}"):
            SIRows(16, a_rows, b_rows, rows.e_star)
    with pytest.raises(ValueError, match="two \\(t, m/4\\) arrays"):
        SIRows(16, rows.a[:, 1:], rows.b, rows.e_star)


def test_ur_conditional_support_exhaustive_r4():
    # with r=4 the live pair's second set is a singleton, so the witness's
    # conditional support is that singleton in every draw of the distribution
    for inst, _ in iter_si(4):
        assert len(inst.b) == 1 and inst.e_star in inst.b


def test_ur_conditional_support_uniform_monte_carlo():
    rs = identity_matching_rs(8)
    by_t = {}
    for i in range(4000):
        inst = sample_ur(rs, FORWARD, seed=i)
        live = si_pair(inst.si_rows, inst.i_star)
        by_t.setdefault(live.b, Counter())[inst.e_star] += 1
    for t_set, counts in by_t.items():
        assert set(counts) <= t_set
        total = sum(counts.values())
        if total >= 60:
            for e in t_set:
                assert abs(counts.get(e, 0) / total - 1 / len(t_set)) < 0.2


def test_sample_ur_small_rs_shape():
    inst = sample_ur(small_rs(), FORWARD, seed=9)
    assert len(inst.edges_b) == 2 * (inst.rs.r // 4)
    lo, hi = inst.layers.span("V3")
    assert lo <= inst.s_star <= hi
    assert verify_ur_promise(inst).ok


def test_sample_ur_inverse():
    inst = sample_ur(small_rs(), INVERSE, seed=9)
    assert inst.direction == INVERSE
    assert verify_ur_promise(inst).ok
    fwd = sample_ur(small_rs(), FORWARD, seed=9)
    assert inst.edges_a == tuple((v, u) for u, v in fwd.edges_a)
    assert inst.edges_b == tuple((v, u) for u, v in fwd.edges_b)
    with pytest.raises(AttributeError):
        inst.s_star
    assert inst.t_star == inst.witness


def test_sample_ur_rejects_bad_r():
    with pytest.raises(ValueError):
        sample_ur(identity_matching_rs(3), FORWARD, seed=0)
    ragged = RSDigraph.of(8, 4, 2, (((1, 1), (2, 2), (3, 3), (4, 4)), ((1, 2),)))  # matching 2 has one edge
    assert ragged.sizes == (4, 1)
    with pytest.raises(ValueError, match="sampling needs t = 2 matchings of r = 4 edges"):
        sample_ur(ragged, FORWARD, seed=0)


def test_sample_ur_gathers_alice_edges_exactly_and_refuses_a_huge_n(monkeypatch):
    # edges_a must equal the loop over each matching's Alice indices, ascending
    r = 8
    rs = RSDigraph.of(100, r, 2, (tuple((30 + j, 80 + j) for j in range(r)),
                               tuple((10 + j, 60 + j) for j in range(r))))
    inst = sample_ur(rs, FORWARD, seed=3)
    expected = [(u, 100 + v) for i, matching in enumerate(rs.matchings, start=1)
                for j, (u, v) in enumerate(matching, start=1) if j in si_pair(inst.si_rows, i).a]
    assert list(inst.edges_a) == expected
    with pytest.raises(ValueError, match="^vertex ids are int64"):  # ids past int64 never make a graph
        RSDigraph.of(100, r, 1, (tuple((2**70 + j, 50 + j) for j in range(r)),))
    # an instance no stream can hold is refused before any draw
    monkeypatch.setattr(instances, "_draw_si_rows", None)
    square = (((1, 1), (2, 2), (3, 3), (4, 4)),)
    for N, kind, n in ((2**62, "unique-reach", 2**63 + 5), (2**29 + 1, "st", 2**31 + 14)):
        message = rf"^an? {kind} instance on N = {N}, r = 4 has {n} vertices; a stream holds at most {MAX_STREAM_N}$"
        with pytest.raises(ValueError, match=message):
            (sample_ur if kind == "unique-reach" else sample_st)(RSDigraph.of(N, 4, 1, square), seed=0)


def test_ur_promise_detects_second_path():
    rs = identity_matching_rs(8)
    inst = sample_ur(rs, FORWARD, seed=3)
    live = si_pair(inst.si_rows, 1)
    other = next(j for j in sorted(live.a) if j != inst.e_star)
    extra = ((0, other), (rs.n_side + other, 2 * rs.n_side + other))
    tampered = dataclasses.replace(inst, edges_b=EdgeBlock.of(tuple(inst.edges_b) + extra))
    report = verify_ur_promise(tampered)
    assert not report.ok
    assert "promise" in report.reason


def layer_of(layers, v: int) -> str:
    """The name of the layer holding vertex v."""
    return next(name for name, lo, hi in layers.ranges if lo <= v <= hi)


def test_ur_layer_discipline():
    inst = sample_ur(small_rs(), FORWARD, seed=21)
    order = inst.layers.order
    for u, v in inst.all_edges():
        assert order.index(layer_of(inst.layers, v)) == order.index(layer_of(inst.layers, u)) + 1


# --- st reachability ---------------------------------------------------------------

def test_sample_st_forced_modes():
    rs = small_rs()
    complete = sample_st(rs, seed=2, e1_mode="complete")
    empty = sample_st(rs, seed=2, e1_mode="empty")
    assert complete.reachable and not empty.reachable
    assert verify_st_instance(complete).ok and verify_st_instance(empty).ok
    assert len(empty.e1) == 0 and len(complete.e1) == rs.r * rs.r


def test_sample_st_reachable_rate_near_half():
    rs = small_rs()
    hits = sum(sample_st(rs, seed=1000 + i).reachable for i in range(200))
    assert 0.35 <= hits / 200 <= 0.65


def test_verify_st_rejects_flipped_flag():
    inst = sample_st(small_rs(), seed=8)
    tampered = dataclasses.replace(inst, reachable=not inst.reachable)
    report = verify_st_instance(tampered)
    assert not report.ok and "flag" in report.reason


def test_st_layer_discipline():
    inst = sample_st(small_rs(), seed=13)
    order = inst.layers.order
    for u, v in inst.all_edges():
        assert order.index(layer_of(inst.layers, v)) == order.index(layer_of(inst.layers, u)) + 1


def test_st_component_independence():
    rs = small_rs()
    base = sample_st(rs, seed=1, e1_seed=10, forward_seed=20, backward_seed=30)
    new_mid = sample_st(rs, seed=2, e1_seed=11, forward_seed=20, backward_seed=30)
    assert new_mid.e2 == base.e2 and new_mid.e3 == base.e3
    assert new_mid.forward == base.forward and new_mid.backward == base.backward
    new_fwd = sample_st(rs, seed=3, e1_seed=10, forward_seed=21, backward_seed=30)
    assert new_fwd.e1 == base.e1 and new_fwd.backward == base.backward
    assert new_fwd.forward != base.forward


# --- streams -------------------------------------------------------------------------

def test_to_stream_deterministic_and_complete():
    inst = sample_st(small_rs(), seed=6)
    s1 = to_stream(inst, shuffle_seed=77)
    s2 = to_stream(inst, shuffle_seed=77)
    assert render_stream(s1) == render_stream(s2)
    assert tuple(tag for tag, _ in s1.segments) == ("E1", "E2", "E3")
    assert [len(seg) for _, seg in s1.segments] == [len(inst.e1), len(inst.e2), len(inst.e3)]
    assert render_stream(s1) != render_stream(to_stream(inst, shuffle_seed=78)) or len(inst.e1) <= 1


def test_to_stream_empty_first_segment():
    inst = sample_st(small_rs(), seed=6, e1_mode="empty")
    stream = to_stream(inst)
    assert stream.segments[0] == ("E1", ())


def test_ur_stream_segments():
    inst = sample_ur(small_rs(), FORWARD, seed=4)
    stream = to_stream(inst)
    assert tuple(tag for tag, _ in stream.segments) == ("EA", "EB")
    assert reduce_to_sssp(stream)[0].directed is False


# --- the instance and the file path give one verdict ------------------------------

@cache
def drift_rs(name: str) -> RSDigraph:
    if name == "small":
        return small_rs()
    return build_rs_digraph(trim_to_multiple(construct_ap_free(100, "behrend-sphere"), 4))


def second_layer3_path(inst):
    """Two edges through an existing middle edge that let the source side
    reach a second layer-3 vertex."""
    forward = inst.direction == FORWARD
    first = next(iter(inst.edges_a))
    u, w = first if forward else first[::-1]
    other = 2 if inst.e_star == 1 else 1
    extra = ((0, u), (w, 2 * inst.rs.n_side + other))
    return extra if forward else tuple((b, a) for a, b in extra)


def ur_tampers(inst):
    """(label, instance, expected): expected is "ok" or a word of the failure reason."""
    yield "none", inst, "ok"
    yield "second path", dataclasses.replace(
        inst, edges_b=EdgeBlock.of(tuple(inst.edges_b) + second_layer3_path(inst))), "promise"
    yield "witness moved", dataclasses.replace(inst, witness=inst.witness + 1), "promise"
    yield "target moved", dataclasses.replace(inst, e_star=inst.e_star + 1), "target-indexed"
    yield "support resized", dataclasses.replace(inst, b_size=inst.b_size + 1), "r/4"


def st_tampers(inst):
    """As `ur_tampers`; None marks a tamper that may or may not break the dichotomy."""
    yield "none", inst, "ok"
    yield "flag flipped", dataclasses.replace(inst, reachable=not inst.reachable), "flag"
    yield "second path", dataclasses.replace(
        inst, e3=EdgeBlock.of(tuple(inst.e3) + second_layer3_path(inst.forward))), None
    yield "witness moved", dataclasses.replace(inst, s_star=inst.s_star + 1), None
    middle = (inst.s_star, inst.t_star)
    if middle in inst.e1:
        yield "middle edge in E2", dataclasses.replace(
            inst, e1=EdgeBlock.of(e for e in inst.e1 if e != middle),
            e2=EdgeBlock.of(tuple(inst.e2) + (middle,))), "middle-edge"


def file_report(inst, seed):
    stream = to_stream(inst, shuffle_seed=seed)
    if isinstance(inst, STInstance):
        return verify_st_file(stream, json.loads(json.dumps(st_metadata(inst))))
    return verify_ur_file(stream, json.loads(json.dumps(ur_metadata(inst))))


def assert_expected(report, expected, label):
    if expected == "ok":
        assert report.ok, (label, report.reason)
    elif expected is not None:
        assert not report.ok and expected in report.reason, (label, report.reason)


@pytest.mark.parametrize("rs_name", ["small", "m100"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ur_file_and_instance_checks_agree(rs_name, seed):
    for direction in (FORWARD, INVERSE):
        inst = sample_ur(drift_rs(rs_name), direction, seed=seed)
        for label, case, expected in ur_tampers(inst):
            report = verify_ur_promise(case)
            assert file_report(case, seed) == report, (direction, label)
            assert_expected(report, expected, (direction, label))


@pytest.mark.parametrize("rs_name", ["small", "m100"])
@pytest.mark.parametrize("seed, e1_mode", [(0, "random"), (1, "random"), (2, "random"),
                                           (3, "complete"), (4, "empty")])
def test_st_file_and_instance_checks_agree(rs_name, seed, e1_mode):
    inst = sample_st(drift_rs(rs_name), seed=seed, e1_mode=e1_mode)
    labels = []
    for label, case, expected in st_tampers(inst):
        report = verify_st_instance(case)
        assert file_report(case, seed) == report, label
        assert_expected(report, expected, label)
        labels.append(label)
    assert ("middle edge in E2" in labels) == inst.reachable


def test_edge_stream_endpoints_default_t_to_the_last_vertex():
    stream = EdgeStream(n=5, directed=True, segments=(("E", ((0, 1),)),))
    assert stream.endpoints() == (0, 4)
    assert stream.endpoints(2) == (2, 4)
    assert stream.endpoints(3, 1) == (3, 1)
    assert stream.endpoints(t=0) == (0, 0)
    assert EdgeStream(n=1, directed=False, segments=()).endpoints() == (0, 0)
    for s, t in ((-1, None), (5, None), (10**8, 2), (0, -1), (0, -5), (0, 5), (0, 10**8)):
        shown = 4 if t is None else t
        with pytest.raises(ValueError, match=rf"^s={s} and t={shown} must be vertices of the 5-vertex stream$"):
            stream.endpoints(s, t)
