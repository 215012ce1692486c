import dataclasses
from collections import Counter
from itertools import permutations

import pytest

from streamlb import rng as rngmod
from streamlb.experiments import small_rs
from streamlb.instances import (
    FORWARD,
    INVERSE,
    SIInstance,
    apply_permutation,
    enumerate_si,
    sample_si,
    sample_st,
    sample_ur,
    to_stream,
    verify_st_instance,
    verify_ur_promise,
)
from streamlb.reductions import reduce_to_sssp
from streamlb.rsgraph import RSDigraph
from streamlb.streamio import render_stream


def identity_matching_rs(r: int) -> RSDigraph:
    """Degenerate single-matching graph: r parallel edges (i, i)."""
    return RSDigraph(n_side=r, r=r, t=1,
                     matchings=(tuple((i, i) for i in range(1, r + 1)),))


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
    support = {si for si, _ in enumerate_si(4)}
    assert set(images) == support
    assert set(images.values()) == {6}


def test_enumerate_si_exact_conditional_uniformity():
    by_a = {}
    for inst, p in enumerate_si(8):
        by_a.setdefault(inst.a, Counter())[inst.e_star] += p
    for a, posterior in by_a.items():
        masses = set(posterior.values())
        assert len(masses) == 1 and set(posterior) == set(a)


# --- unique reach ---------------------------------------------------------------

def test_sample_ur_degenerate_single_matching():
    rs = identity_matching_rs(4)
    inst = sample_ur(rs, FORWARD, seed=5)
    assert inst.i_star == 1
    assert len(inst.si_pairs[0].a) == 1 and len(inst.si_pairs[0].b) == 1
    assert verify_ur_promise(inst).ok


def test_ur_conditional_support_exhaustive_r4():
    # with r=4 the live pair's second set is a singleton, so the witness's
    # conditional support is that singleton in every draw of the distribution
    for inst, _ in enumerate_si(4):
        assert len(inst.b) == 1 and inst.e_star in inst.b


def test_ur_conditional_support_uniform_monte_carlo():
    rs = identity_matching_rs(8)
    by_t = {}
    for i in range(4000):
        inst = sample_ur(rs, FORWARD, seed=i)
        live = inst.si_pairs[inst.i_star - 1]
        by_t.setdefault(frozenset(live.b), Counter())[inst.e_star] += 1
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


def test_ur_promise_detects_second_path():
    rs = identity_matching_rs(8)
    inst = sample_ur(rs, FORWARD, seed=3)
    live = inst.si_pairs[0]
    other = next(j for j in sorted(live.a) if j != inst.e_star)
    extra = ((0, other), (rs.n_side + other, 2 * rs.n_side + other))
    tampered = dataclasses.replace(inst, edges_b=inst.edges_b + extra)
    report = verify_ur_promise(tampered)
    assert not report.ok
    assert "promise" in report.reason


def test_ur_layer_discipline():
    inst = sample_ur(small_rs(), FORWARD, seed=21)
    order = inst.layers.order
    for u, v in inst.all_edges():
        assert order.index(inst.layers.layer_of(v)) == order.index(inst.layers.layer_of(u)) + 1


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
        assert order.index(inst.layers.layer_of(v)) == order.index(inst.layers.layer_of(u)) + 1


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
    assert s1.segment_tags() == ("E1", "E2", "E3")
    assert [len(seg) for _, seg in s1.segments] == [len(inst.e1), len(inst.e2), len(inst.e3)]
    assert render_stream(s1) != render_stream(to_stream(inst, shuffle_seed=78)) or len(inst.e1) <= 1


def test_to_stream_empty_first_segment():
    inst = sample_st(small_rs(), seed=6, e1_mode="empty")
    stream = to_stream(inst)
    assert stream.segments[0] == ("E1", ())


def test_ur_stream_segments():
    inst = sample_ur(small_rs(), FORWARD, seed=4)
    stream = to_stream(inst)
    assert stream.segment_tags() == ("EA", "EB")
    assert reduce_to_sssp(stream)[0].directed is False
