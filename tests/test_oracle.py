"""Assembled oracle: tree search, the three modes, hit-miss families, query
stats laws, and the serialized container."""

import math
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (barbell_graph, complete_graph, cycle_graph,
                     family_property_reference, path_graph,
                     subsets_upto, two_blob_graph)
from vertexcuts.decomposition import NodeKind, TreeParams
from vertexcuts.detectors import DetectorAnswer
from vertexcuts.errors import (DisconnectedInput, InvalidParams, NotFConnected,
                               TooManyFailures, VerificationFailed, WrongQuerySize)
from vertexcuts.generators import (gen_block_chain, gen_connected_gnp, gen_f_connected,
                                   gen_lb_family)
from vertexcuts.graph import Graph, is_cut_bruteforce
from vertexcuts.io import oracle_from_bytes, oracle_payload, oracle_to_bytes
from vertexcuts.oracle import (HitMissRound, OracleMode, TerminalCutDetector,
                               _family_property_holds, build_detector,
                               build_hit_miss_family, build_oracle,
                               query_detector_fconnected)
from vertexcuts.validate import check_query_stats

P4 = path_graph(4)
K4 = complete_graph(4)
C6 = cycle_graph(6)
BARBELL = barbell_graph(5)
DEEP = TreeParams(eps_override=Fraction(1, 2))


def test_detector_single_leaf():
    det = build_detector(K4, range(4), 2)
    assert det.root.is_leaf and det.root.kind is NodeKind.LEAF_FEWT
    ans, stats = det.query([0, 1])
    assert ans is DetectorAnswer.FAIL
    assert stats.nodes_visited == 1 and not stats.branch_by_residual


def test_detector_empty_query():
    det = build_detector(BARBELL, range(9), 1, DEEP)
    ans, stats = det.query([])
    assert ans is DetectorAnswer.FAIL
    assert sum(stats.branch_by_residual.values()) == 0


def test_detector_p4_cut():
    det = build_detector(P4, range(4), 1)
    assert det.query([1])[0] is DetectorAnswer.CUT
    assert det.query([0])[0] is DetectorAnswer.FAIL


def test_detector_barbell_structure_and_contract():
    det = build_detector(BARBELL, range(9), 1, DEEP)
    assert not det.root.is_leaf
    assert det.root.us_left is not None and det.root.us_right is not None
    assert det.s_star == frozenset({4})
    # detector contract at the root: sound always; complete when F separates
    # T but not S*
    from vertexcuts.graph import separates_terminals
    for fs in subsets_upto(9, 1):
        ans, _ = det.query(fs)
        if ans is DetectorAnswer.CUT:
            assert is_cut_bruteforce(BARBELL, fs)
        if (separates_terminals(BARBELL, fs, range(9))
                and not separates_terminals(BARBELL, fs, det.s_star)):
            assert ans is DetectorAnswer.CUT, fs


def test_oracle_examples():
    o = build_oracle(K4, 2)
    assert all(o.query(fs) is False for fs in subsets_upto(4, 2))
    o = build_oracle(P4, 1)
    assert o.query([1]) and o.query([2])
    assert not o.query([0]) and not o.query([3])
    o = build_oracle(BARBELL, 1)
    assert o.query([4]) is True


def test_oracle_requires_connected_and_valid_f():
    with pytest.raises(DisconnectedInput):
        build_oracle(Graph(4, [(0, 1), (2, 3)]), 1)
    with pytest.raises(TooManyFailures):
        build_oracle(P4, 0)
    o = build_oracle(P4, 1)
    with pytest.raises(TooManyFailures):
        o.query([0, 1])


def test_oracle_exhaustive_small_random():
    g = gen_connected_gnp(20, 0.3, 17)
    o = build_oracle(g, 3)
    for fs in subsets_upto(20, 3):
        assert o.query(fs) == is_cut_bruteforce(g, fs), fs


def test_deep_tree_branch_law_and_agreement():
    g = two_blob_graph(9, 3, 0.5, 5)   # n = 21 with a planted sparse cut
    o = build_oracle(g, 3, params=TreeParams(eps_override=Fraction(1, 3)))
    assert any(r.depth > 1 for r in o.round_info)
    branch_seen = 0
    for fs in subsets_upto(g.n, 3):
        got, stats_list = o.query_with_stats(fs)
        assert got == is_cut_bruteforce(g, fs), fs
        for st in stats_list:
            assert st.branch_law_ok(), fs
            assert st.visit_bound_ok(), fs
            branch_seen += sum(st.branch_by_residual.values())
    assert branch_seen > 0   # the law was exercised, not vacuous


def test_terminal_reduction_across_rounds():
    cases = [(BARBELL, 2, DEEP),
             (two_blob_graph(8, 2, 0.5, 9), 2, TreeParams(eps_override=Fraction(1, 4)))]
    for g, f, params in cases:
        o = build_oracle(g, f, params=params)
        for info in o.round_info:
            assert 2 * info.s_star_count <= info.terminal_count
        assert len(o.rounds) <= math.ceil(math.log2(g.n)) + 1


def test_fconnected_mode_examples():
    o = build_oracle(K4, 3, OracleMode.FCONNECTED)
    for fs in subsets_upto(4, 3):
        assert o.query(fs) is False
    o6 = build_oracle(C6, 2, OracleMode.FCONNECTED)
    assert o6.query([0, 3]) is True
    assert o6.query([0, 1]) is False     # adjacent pair leaves a path
    assert o6.query([0]) is False        # |F| < f cannot cut an f-connected graph


def test_fconnected_single_path_and_stats():
    g = gen_f_connected(16, 2, 8, extra_p=0.0)  # plain circulant, exactly 2-connected
    o = build_oracle(g, 2, OracleMode.FCONNECTED,
                     params=TreeParams(eps_override=Fraction(1, 4)))
    import itertools
    for fs in itertools.combinations(range(16), 2):
        got, stats_list = o.query_with_stats(fs)
        assert got == is_cut_bruteforce(g, fs), fs
        for st in stats_list:
            assert not st.branch_by_residual
            assert st.nodes_visited <= st.tree_depth + st.step_visits


def test_fconnected_rejects_and_attests():
    with pytest.raises(NotFConnected):
        build_oracle(P4, 2, OracleMode.FCONNECTED)
    big = gen_f_connected(80, 3, 2)
    with pytest.raises(NotFConnected):
        build_oracle(big, 3, OracleMode.FCONNECTED)   # above the exact-check cap
    o = build_oracle(big, 3, OracleMode.FCONNECTED, attest_f_connected=True)
    assert o.manifest["f_connected_verification"] == "attested-unverified"
    rng = random.Random(0)
    for _ in range(100):
        fs = frozenset(rng.sample(range(80), 3))
        assert o.query(fs) == is_cut_bruteforce(big, fs)


def test_fconnected_detector_query_size():
    det = build_detector(C6, range(6), 2, fconnected=True)
    with pytest.raises(WrongQuerySize):
        query_detector_fconnected(det, [0])


def test_hit_miss_family_examples():
    fam = build_hit_miss_family([0, 1, 2], 1, 8, seed=1)
    assert fam.verified == "exhaustive"
    # direct check of the defining property over F' ⊆ T
    for fprime in subsets_upto(3, 1):
        fset = set(fprime)
        for u in range(3):
            for v in range(3):
                if u in fset or v in fset:
                    continue
                assert any(not (s & fset) and u in s and v in s
                           for s in fam.subsets), (fprime, u, v)
    single = build_hit_miss_family([5], 2, 8, seed=0)
    assert single.subsets == (frozenset({5}),)
    fam10 = build_hit_miss_family(range(10), 2, 16, seed=3)
    assert fam10.verified == "exhaustive"
    with pytest.raises(VerificationFailed):
        build_hit_miss_family([0, 1], 0, 8)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_packed_family_check_matches_reference(data):
    f = data.draw(st.integers(1, 3), label="f")
    t_list = sorted(data.draw(st.sets(st.integers(0, 40), min_size=1, max_size=12),
                              label="T"))
    if data.draw(st.booleans(), label="verified family, one subset dropped"):
        fam = build_hit_miss_family(t_list, f, 8, seed=data.draw(st.integers(0, 99)),
                                    constant=0.1)
        subsets = list(fam.subsets)
        del subsets[data.draw(st.integers(0, len(subsets) - 1))]
    else:
        subsets = data.draw(st.lists(st.sets(st.sampled_from(t_list)).map(frozenset),
                                     min_size=1, max_size=70), label="subsets")
    assert (_family_property_holds(subsets, t_list, f)
            == family_property_reference(subsets, t_list, f))


def test_hitmiss_chain_sized_family_is_checked_exhaustively():
    fam = build_hit_miss_family(range(106), 2, 106, seed=0)
    assert fam.verified == "exhaustive" and fam.k > 2000
    # drop every subset that covers the pair {2, 3} for F = {0, 1}
    kept = [s for s in fam.subsets if not ({2, 3} <= s and not s & {0, 1})]
    assert len(kept) < fam.k
    assert not _family_property_holds(kept, list(range(106)), 2)


def test_family_check_samples_past_the_cap(monkeypatch):
    import vertexcuts.oracle as vo
    monkeypatch.setattr(vo, "FAMILY_CHECK_CAP", 10)
    assert build_hit_miss_family(range(10), 2, 16, seed=3).verified == "sampled"


def test_hitmiss_oracle_exhaustive():
    # F = V on the one-edge graph leaves no live vertex
    for g, f in [(P4, 1), (K4, 2), (gen_connected_gnp(16, 0.4, 33), 2),
                 (Graph(2, [(0, 1)]), 2)]:
        o = build_oracle(g, f, OracleMode.HITMISS)
        for fs in subsets_upto(g.n, f):
            assert o.query(fs) == is_cut_bruteforce(g, fs), fs


def test_hitmiss_never_queries_hit_subsets(monkeypatch):
    # eps = 1/2 puts |T| = 14 above the threshold 6, so the round has a family
    g = gen_connected_gnp(14, 0.35, 71)
    o = build_oracle(g, 2, OracleMode.HITMISS,
                     params=TreeParams(eps_override=Fraction(1, 2)))
    rnd = o.rounds[0]
    assert isinstance(rnd, HitMissRound)
    asked = []
    real_query = TerminalCutDetector.query
    monkeypatch.setattr(TerminalCutDetector, "query",
                        lambda det, fs: asked.append(det) or real_query(det, fs))
    for fs in subsets_upto(14, 2):
        asked.clear()
        fset = frozenset(fs)
        got = o.query(fset)
        assert got == is_cut_bruteforce(g, fs), fs
        missed = [d for sub, d in zip(rnd.family.subsets, rnd.detectors)
                  if not sub & fset]
        first = [d for d in asked if any(d is m for m in rnd.detectors)]
        # round 0 asks the subsets that miss F in order, up to the first "cut"
        assert all(a is m for a, m in zip(first, missed))
        assert len(first) == len(missed) or got


def test_hitmiss_deep_tree_with_singletons():
    # eps override forces real splits inside hit-miss detectors: singleton
    # representatives and empty-U US detectors.
    g = two_blob_graph(12, 2, 0.5, 13)
    o = build_oracle(g, 1, OracleMode.HITMISS,
                     params=TreeParams(eps_override=Fraction(1, 3)))
    deep = False
    for rnd in o.rounds:
        if not isinstance(rnd, HitMissRound):  # a trivial round: one leaf
            assert rnd.root.is_leaf
            continue
        assert rnd.family.verified == "exhaustive"
        assert len(rnd.detectors) == rnd.family.k
        for det in rnd.detectors:
            if not det.root.is_leaf:
                deep = True
                assert len(det.root.u_right) <= 1
                assert det.root.us_left.u_set == frozenset()
    assert deep
    for fs in subsets_upto(g.n, 1):
        assert o.query(fs) == is_cut_bruteforce(g, fs), fs


def assert_one_leaf_over_the_work_graph(o):
    assert len(o.rounds) == len(o.round_info) == 1
    det, info = o.rounds[0], o.round_info[0]
    assert isinstance(det, TerminalCutDetector) and det.root.is_leaf
    assert det.root.kind is NodeKind.LEAF_FEWT and det.s_star == frozenset()
    assert det.root.leaf.graph == o.work
    assert det.terminals == det.root.terminals == frozenset(range(o.work.n))
    assert (info.depth, info.s_star_count, info.family_k) == (1, 0, 0)
    assert (info.sum_vertices, info.sum_edges) == (o.work.n, o.work.m)
    # stored as a detector record, with no family in the manifest
    assert [r["type"] for r in oracle_payload(o)["rounds"]] == ["detector"]
    assert "family_k" not in o.manifest["rounds"][0]


def spy_on_family(monkeypatch) -> tuple[list, list]:
    """Record the families build_oracle draws and the exhaustive checks."""
    import vertexcuts.oracle as vo
    drawn, checked = [], []
    draw, check = vo.build_hit_miss_family, vo._family_property_holds
    monkeypatch.setattr(vo, "build_hit_miss_family",
                        lambda *a, **k: drawn.append(draw(*a, **k)) or drawn[-1])
    monkeypatch.setattr(vo, "_family_property_holds",
                        lambda *a: checked.append(a) or check(*a))
    return drawn, checked


@pytest.mark.parametrize("g,f", [
    (gen_block_chain(3, 10, 5.0, 2, 3, 4)[0], 2),
    (gen_connected_gnp(16, 0.4, 33), 2),
])
def test_default_hitmiss_round_is_one_leaf_and_draws_no_family(monkeypatch, g, f):
    import vertexcuts.oracle as vo

    def no_family(*_args, **_kwargs):
        raise AssertionError("a trivial round drew a family")
    monkeypatch.setattr(vo, "build_hit_miss_family", no_family)
    o = build_oracle(g, f, OracleMode.HITMISS)
    assert_one_leaf_over_the_work_graph(o)
    loaded = oracle_from_bytes(oracle_to_bytes(o))
    assert_one_leaf_over_the_work_graph(loaded)
    for fs in subsets_upto(g.n, f):
        assert o.query(fs) == loaded.query(fs) == is_cut_bruteforce(g, fs), fs


def test_hitmiss_round_above_the_threshold_draws_checks_and_uses_the_family(
        monkeypatch):
    drawn, checked = spy_on_family(monkeypatch)
    g = gen_connected_gnp(14, 0.35, 71)
    o = build_oracle(g, 2, OracleMode.HITMISS,
                     params=TreeParams(eps_override=Fraction(1, 2)))
    rnd = o.rounds[0]
    assert isinstance(rnd, HitMissRound) and rnd.family is drawn[0] and checked
    assert rnd.family.verified == "exhaustive"
    assert max(len(s) for s in rnd.family.subsets) > 6  # above (f+1)/eps
    assert len(rnd.detectors) == rnd.family.k == o.round_info[0].family_k
    loaded = oracle_from_bytes(oracle_to_bytes(o))
    assert isinstance(loaded.rounds[0], HitMissRound)
    for fs in subsets_upto(14, 2):
        assert o.query(fs) == loaded.query(fs) == is_cut_bruteforce(g, fs), fs


def test_hitmiss_round_with_only_short_subsets_is_one_leaf(monkeypatch):
    # eps = 1/5: |T| = 16 is above the threshold 15, no subset is
    drawn, checked = spy_on_family(monkeypatch)
    g = gen_connected_gnp(16, 0.4, 33)
    o = build_oracle(g, 2, OracleMode.HITMISS,
                     params=TreeParams(eps_override=Fraction(1, 5)))
    assert len(drawn) == 1 and checked
    assert max(len(s) for s in drawn[0].subsets) <= 15
    assert_one_leaf_over_the_work_graph(o)
    for fs in subsets_upto(16, 2):
        assert o.query(fs) == is_cut_bruteforce(g, fs), fs


def test_tiny_graphs():
    g1 = Graph(1, [])
    o = build_oracle(g1, 1)
    assert o.query([]) is False and o.query([0]) is False
    g2 = Graph(2, [(0, 1)])
    o2 = build_oracle(g2, 1)
    assert not any(o2.query(fs) for fs in subsets_upto(2, 1))
    p3 = path_graph(3)
    o3 = build_oracle(p3, 2)
    assert o3.query([1]) is True
    assert o3.query([0, 2]) is False   # only the middle vertex remains


def test_serialization_round_trip():
    for g, f, mode, params in [
        (gen_connected_gnp(14, 0.3, 1), 2, OracleMode.GENERAL, None),
        (BARBELL, 2, OracleMode.GENERAL, DEEP),
        (C6, 2, OracleMode.FCONNECTED, None),
        (P4, 1, OracleMode.HITMISS, None),
    ]:
        o = build_oracle(g, f, mode, params)
        data = oracle_to_bytes(o)
        o2 = oracle_from_bytes(data)
        assert oracle_to_bytes(o2) == data   # byte-stable
        for fs in subsets_upto(g.n, f):
            assert o.query(fs) == o2.query(fs), fs


def test_serialization_rejects_corruption():
    o = build_oracle(P4, 1)
    data = bytearray(oracle_to_bytes(o))
    data[len(data) // 2] ^= 0xFF
    with pytest.raises(InvalidParams):
        oracle_from_bytes(bytes(data))
    with pytest.raises(InvalidParams):
        oracle_from_bytes(b"NOPE" + bytes(60))


def test_debug_node_contracts():
    """Per-node soundness and completeness, instrumented on debug builds that
    retain the node graphs."""
    from vertexcuts.oracle import verify_node_contracts
    cases = [
        (BARBELL, 1, DEEP),
        (two_blob_graph(8, 2, 0.5, 9), 2, TreeParams(eps_override=Fraction(1, 4))),
        (gen_connected_gnp(12, 0.35, 66), 2, TreeParams(eps_override=Fraction(1, 3))),
    ]
    for g, f, params in cases:
        det = build_detector(g, range(g.n), f, params, debug=True)
        for fs in subsets_upto(g.n, f):
            assert verify_node_contracts(det, fs) == [], fs
    release = build_detector(BARBELL, range(9), 1, DEEP)
    with pytest.raises(InvalidParams):
        verify_node_contracts(release, [4])


def test_completeness_at_scale():
    # every planted cut of the lower-bound family is found at n = 128
    g, fam = gen_lb_family(128, 4, 77)
    o = build_oracle(g, 4)
    for sub in fam:
        assert o.query(sub) is True
    rng = random.Random(1)
    for _ in range(200):
        fs = frozenset(rng.sample(range(64), 4))
        assert o.query(fs) == (fs in set(fam))


def test_query_stats_checker():
    g = two_blob_graph(9, 3, 0.5, 5)
    o = build_oracle(g, 3, params=TreeParams(eps_override=Fraction(1, 3)))
    _, stats_list = o.query_with_stats(frozenset({0, 9, 20}))
    assert all(check_query_stats(st) for st in stats_list)
