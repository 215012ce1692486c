import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamlb import rng as rngmod
from streamlb import rsgraph
from streamlb.behrend import BehrendSet, construct_ap_free, random_ap_free, trim_to_multiple
from streamlb.common import Report, fail_report, ok_report
from streamlb.rsgraph import (
    RSDigraph,
    build_rs_digraph,
    verify_induced,
)


@pytest.fixture
def g3():
    return build_rs_digraph(BehrendSet(3, (1, 2), "explicit"))


def reference_verify_induced(g: RSDigraph) -> Report:
    """The dict-and-triple-loop verifier, kept as the reference."""
    if len(g.matchings) != g.t:
        return fail_report("matching count differs from t", expected=g.t, got=len(g.matchings))
    edge_owner = {}
    for i, matching in enumerate(g.matchings, start=1):
        if len(matching) != g.r:
            return fail_report("matching has wrong size", matching=i, size=len(matching))
        lefts = set()
        rights = set()
        for u, v in matching:
            if not (1 <= u <= g.n_side and 1 <= v <= g.n_side):
                return fail_report("vertex outside [1, N]", matching=i, edge=(u, v))
            if u in lefts or v in rights:
                return fail_report("repeated endpoint inside a matching", matching=i, edge=(u, v))
            lefts.add(u)
            rights.add(v)
            if (u, v) in edge_owner:
                return fail_report(
                    "edge shared between matchings", edge=(u, v), matchings=(edge_owner[(u, v)], i)
                )
            edge_owner[(u, v)] = i
    for i, matching in enumerate(g.matchings, start=1):
        for j, (u, _) in enumerate(matching):
            for jp, (_, vp) in enumerate(matching):
                if j != jp and (u, vp) in edge_owner:
                    return fail_report(
                        "induced-ness violated", matching=i, cross_edge=(u, vp)
                    )
    return ok_report(matchings_checked=g.t, edges=len(edge_owner))


def test_m3_example(g3):
    assert (g3.n_side, g3.t, g3.r) == (9, 3, 2)
    assert g3.matching(1) == ((2, 3), (3, 5))
    assert g3.matching(2) == ((3, 4), (4, 6))
    assert g3.matching(3) == ((4, 5), (5, 7))
    assert verify_induced(g3).ok


def test_single_edge_graph():
    g = build_rs_digraph(BehrendSet(1, (1,), "explicit"))
    assert (g.n_side, g.t, g.r) == (3, 1, 1)
    assert g.matching(1) == ((2, 3),)
    assert verify_induced(g).ok


def test_m6_all_matchings_induced():
    g = build_rs_digraph(BehrendSet(6, (1, 2, 4, 5), "explicit"))
    assert g.t == 6 and g.r == 4
    assert verify_induced(g).ok


def test_matching_index_outside_t_raises(g3):
    for i in (0, 4):
        with pytest.raises(IndexError):
            g3.matching(i)


@pytest.mark.parametrize("matchings", [
    (((1, 4), (2, 5)), ((3, 6),), ((7, 8), (8, 9), (9, 7))),  # ragged
    ((), ((1, 2),), ()),  # empty matchings around one edge
    ((), (), ()),  # r = 0
])
def test_matchings_are_the_given_pairs(matchings):
    g = RSDigraph.of(9, 2, len(matchings), matchings)
    assert g.sizes == tuple(map(len, matchings)) and len(g.edges) == sum(g.sizes)
    assert g.matchings == matchings
    assert [g.matching(i) for i in range(1, g.t + 1)] == list(matchings)
    assert all(m.us.base is not None for m in g.matchings)  # views into the one edge block
    with pytest.raises(ValueError, match="^matching sizes add up to"):
        RSDigraph(9, 2, g.t, g.edges, g.sizes[:-1] + (g.sizes[-1] + 1,))


def test_injected_cross_edge_fails(g3):
    # (2,5) joins matching 1's left side to its right side without being its edge
    tampered = RSDigraph.of(
        g3.n_side, g3.r, g3.t,
        (g3.matchings[0], ((3, 4), (2, 5)), g3.matchings[2]),
    )
    report = verify_induced(tampered)
    assert not report.ok
    assert "induced" in report.reason
    assert report == reference_verify_induced(tampered)


def test_shared_edge_fails(g3):
    tampered = RSDigraph.of(g3.n_side, g3.r, g3.t,
                         (g3.matchings[0], g3.matchings[0], g3.matchings[2]))
    report = verify_induced(tampered)
    assert not report.ok
    assert "shared" in report.reason
    assert report == reference_verify_induced(tampered)


def test_wrong_size_fails(g3):
    tampered = RSDigraph.of(g3.n_side, g3.r, g3.t,
                         (tuple(g3.matchings[0])[:1], g3.matchings[1], g3.matchings[2]))
    assert not verify_induced(tampered).ok
    assert verify_induced(tampered) == reference_verify_induced(tampered)


def test_partition_identity(g3):
    # each global edge belongs to exactly one matching, recovered as 2u - v
    for i, matching in enumerate(g3.matchings, start=1):
        for edge in matching:
            assert 2 * edge[0] - edge[1] == i


def midpoint_graph(base: BehrendSet) -> RSDigraph:
    """The midpoint construction on any set, progressions included:
    matching x holds (x + alpha, x + 2 * alpha) for alpha in the set."""
    m = base.m
    return RSDigraph.of(3 * m, base.size, m, [[(x + alpha, x + 2 * alpha) for alpha in base.elements]
                                              for x in range(1, m + 1)])


def test_build_refuses_an_edge_count_above_the_cap_before_verifying(monkeypatch):
    def refuse(a):
        raise AssertionError("the cap must be checked before the set is verified or expanded")

    monkeypatch.setattr(rsgraph, "verify_no_3ap", refuse)
    monkeypatch.setattr(rsgraph, "RS_EDGE_CAP", 5)
    with pytest.raises(ValueError, match="m=3 and \\|S\\|=2 has 6 edges, above the cap of 5"):
        build_rs_digraph(BehrendSet(3, (1, 2), "explicit"))


def test_build_admits_an_edge_count_at_the_cap(monkeypatch, g3):
    monkeypatch.setattr(rsgraph, "RS_EDGE_CAP", 6)
    g = build_rs_digraph(BehrendSet(3, (1, 2), "explicit"))
    assert (g.n_side, g.t, g.r) == (g3.n_side, g3.t, g3.r)
    assert [g.matching(i) for i in range(1, 4)] == [g3.matching(i) for i in range(1, 4)]


def test_edge_cap_admits_m_10_4_untrimmed_and_trimmed_to_a_multiple_of_4():
    # `experiment rs-verify --param m=10000` and `gen rs --m 10000 --trim 4`
    base = construct_ap_free(10_000, "behrend-sphere")
    for a in (base, trim_to_multiple(base, 4)):
        assert a.m * a.size <= rsgraph.RS_EDGE_CAP


def test_rejects_progression_seed():
    bad = BehrendSet(3, (1, 2, 3), "explicit")
    with pytest.raises(ValueError):
        build_rs_digraph(bad)
    # contrapositive: the construction on a progression breaks induced-ness
    g = midpoint_graph(bad)
    assert not verify_induced(g).ok
    assert verify_induced(g) == reference_verify_induced(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31))
def test_random_ap_free_seeds_give_induced_graphs(m, seed):
    a = random_ap_free(m, rngmod.substream(seed, "rs"))
    g = build_rs_digraph(a)
    assert g == midpoint_graph(a)  # so the tests' midpoint graphs of progressions are the construction's
    assert g.t == m and g.r == a.size and g.n_side == 3 * m
    assert verify_induced(g).ok
    for i, matching in enumerate(g.matchings, start=1):
        assert all(2 * u - v == i for u, v in matching)  # the partition identity x = 2u - v


# --- the array-native induced-ness check against the loop it replaced ----------

def relabel(g: RSDigraph, n_side: int, seed: int) -> RSDigraph:
    """The same graph with left and right ids sent injectively into [1, n_side]."""
    gen = random.Random(seed)

    def fresh_ids(old):
        new = set()
        while len(new) < len(old):
            new.add(gen.randint(1, n_side))
        new = sorted(new)
        gen.shuffle(new)
        return dict(zip(sorted(old), new))

    left_id = fresh_ids({u for matching in g.matchings for u, _ in matching})
    right_id = fresh_ids({v for matching in g.matchings for _, v in matching})
    matchings = tuple(tuple((left_id[u], right_id[v]) for u, v in matching) for matching in g.matchings)
    return RSDigraph.of(n_side, g.r, g.t, matchings)


@st.composite
def rs_graphs(draw):
    """AP-free and progression-containing midpoint graphs, some relabelled into
    ids far beyond int32 (up to the end of int64), with 0-3 edges rewritten."""
    m = draw(st.integers(1, 60))
    if draw(st.booleans()):
        base = random_ap_free(m, rngmod.substream(draw(st.integers(0, 2**31)), "rs"))
    else:
        elements = draw(st.sets(st.integers(1, m), min_size=1, max_size=min(m, 12)))
        base = BehrendSet(m, tuple(sorted(elements)), "explicit")
    g = midpoint_graph(base)
    if draw(st.booleans()):
        g = relabel(g, draw(st.sampled_from([10**12, 10**15 + 7, 2**62 + 3, 2**63 - 1])),
                    draw(st.integers(0, 2**31)))
    matchings = [list(matching) for matching in g.matchings]
    lefts = [u for matching in matchings for u, _ in matching]
    rights = [v for matching in matchings for _, v in matching]
    gen = random.Random(draw(st.integers(0, 2**31)))
    for _ in range(draw(st.integers(0, 3)) if g.r else 0):
        # an existing id (cross edges, shared edges, repeats) or any id, maybe outside [1, N]
        u = gen.choice(lefts) if gen.random() < 0.8 else gen.randint(0, g.n_side + 1)
        v = gen.choice(rights) if gen.random() < 0.8 else gen.randint(0, g.n_side + 1)
        matchings[gen.randrange(g.t)][gen.randrange(g.r)] = (u, v)
    return RSDigraph.of(g.n_side, g.r, g.t, tuple(tuple(matching) for matching in matchings))


@settings(max_examples=300, deadline=None)
@given(rs_graphs())
def test_verify_induced_equals_the_loop_reference(g):
    expected = reference_verify_induced(g)
    assert verify_induced(g) == expected
    with mock.patch.object(rsgraph, "_SLICE_BITS", 64):  # many slices, some of one left
        assert verify_induced(g) == expected


def test_verify_induced_empty_and_single_edge_matchings():
    empty = build_rs_digraph(BehrendSet(5, (), "explicit"))
    assert (empty.t, empty.r) == (5, 0)
    singles = build_rs_digraph(BehrendSet(4, (3,), "explicit"))
    one = RSDigraph.of(9, 3, 1, (((1, 4), (2, 5), (3, 6)),))
    shared = RSDigraph.of(singles.n_side, 1, singles.t, (singles.matchings[0],) * singles.t)
    wide = RSDigraph.of(2**64, one.r, one.t, one.matchings)  # N beyond int64, ids within
    for g in (empty, singles, one, shared, relabel(one, 2**63 - 1, 3), wide):
        assert verify_induced(g) == reference_verify_induced(g)
    assert verify_induced(empty).ok and verify_induced(singles).ok and verify_induced(one).ok
    with pytest.raises(ValueError, match="^vertex ids are int64"):  # ids past int64 make no graph
        relabel(one, 2**70, 3)


@pytest.mark.parametrize("n_side", [None, 10**12, 2**70])
def test_verify_induced_reports_a_cross_edge_in_the_last_chunk(n_side):
    # disjoint matchings (no cross edge anywhere), then matching t's pair
    # (u_1, v_2) is written into matching 1, so only the last matching fails
    r = 20
    t = 3 * rsgraph._CHUNK_PAIRS // (r * r) + 2
    matchings = [[(k * r + j + 1, k * r + j + 1) for j in range(r)] for k in range(t)]
    matchings[0][0] = (matchings[-1][0][0], matchings[-1][1][1])
    g = RSDigraph.of(t * r, r, t, tuple(map(tuple, matchings)))
    if n_side and n_side >> 63:  # ids past int64 are refused where the graph is built
        with pytest.raises(ValueError, match="^vertex ids are int64"):
            relabel(g, n_side, 11)
        g = relabel(g, 2**63 - 1, 11)
    elif n_side:
        g = relabel(g, n_side, 11)
    report = verify_induced(g)
    assert report == reference_verify_induced(g)
    assert report.detail == {"matching": t, "cross_edge": next(iter(g.matchings[0]))}
    assert (t - 1) * r >= 2 * (rsgraph._CHUNK_PAIRS // r)  # past the first two chunks


@pytest.mark.parametrize("slice_bits", [1, 2**8])
def test_verify_induced_reports_a_cross_edge_in_the_last_slice(monkeypatch, slice_bits):
    # disjoint matchings with ids past 2^62; matching 1's first edge becomes
    # (u_tr, v_t1), so the only cross pair is row (t, r) of the largest left
    r, t, offset = 5, 12, 2**62
    matchings = [[(offset + k * r + j, offset + k * r + j) for j in range(1, r + 1)] for k in range(t)]
    matchings[0][0] = (matchings[-1][-1][0], matchings[-1][0][1])
    g = RSDigraph.of(offset + t * r, r, t, tuple(map(tuple, matchings)))
    monkeypatch.setattr(rsgraph, "_SLICE_BITS", slice_bits)
    report = verify_induced(g)
    assert report == reference_verify_induced(g)
    assert report.detail == {"matching": t, "cross_edge": matchings[0][0]}
    n_lefts = n_rights = t * r - 1
    assert n_lefts > max(1, slice_bits // n_rights)  # more than one slice


STRUCTURAL_CASES = {  # the first violating edge wins, then the reason priority
    "outside before a later wrong size": [[(2, 3), (3, 10)], [(3, 4)], [(4, 5), (5, 7)]],
    "wrong size before a later shared edge": [[(2, 3)], [(2, 3), (4, 6)], [(4, 5), (5, 7)]],
    "outside over repeated": [[(2, 3), (2, 0)], [(3, 4), (4, 6)], [(4, 5), (5, 7)]],
    "repeated over shared": [[(2, 3), (3, 5)], [(3, 4), (3, 5)], [(4, 5), (5, 7)]],
    "repeated right endpoint": [[(2, 3), (3, 5)], [(3, 4), (4, 4)], [(4, 5), (5, 7)]],
    "shared after a cross edge": [[(2, 3), (3, 5)], [(3, 4), (2, 5)], [(3, 5), (5, 7)]],
}


@pytest.mark.parametrize("case", sorted(STRUCTURAL_CASES))
def test_verify_induced_structural_order_equals_the_reference(case):
    g = RSDigraph.of(9, 2, 3, tuple(map(tuple, STRUCTURAL_CASES[case])))
    report = verify_induced(g)
    assert not report.ok
    assert report == reference_verify_induced(g)
    big = relabel(g, 2**63 - 1, 5)
    assert verify_induced(big) == reference_verify_induced(big)
