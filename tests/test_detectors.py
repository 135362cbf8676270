"""Base cut detectors: FewT, TE, US, and the structural trichotomy."""

from math import comb

import pytest

from helpers import (barbell_graph, complete_graph, cycle_graph, path_graph,
                     star_graph, subsets_upto)
from vertexcuts.detectors import (DetectorAnswer, Trichotomy, build_fewt,
                                  build_te, build_us, query_us, us_trichotomy)
from vertexcuts.errors import (BudgetExceeded, DisconnectedInput,
                               QueryOutsideSU, TooManyFailures)
from vertexcuts.generators import gen_connected_gnp, gen_f_connected
from vertexcuts.graph import (component_labels, components, is_cut_bruteforce,
                              separates_terminals)

CUT, FAIL = DetectorAnswer.CUT, DetectorAnswer.FAIL
P4 = path_graph(4)
C6 = cycle_graph(6)
K4 = complete_graph(4)


def test_fewt_examples():
    assert build_fewt(P4, [0, 3], 1).query([1]) is CUT
    assert build_fewt(K4, range(4), 2).query([0, 1]) is FAIL
    assert build_fewt(C6, [1, 4], 2).query([0, 3]) is CUT
    assert build_fewt(C6, [1, 4], 2).query([]) is FAIL


def test_fewt_few_live_terminals():
    d = build_fewt(P4, [1, 2], 2)
    assert d.query([1, 2]) is FAIL   # no live terminal pair remains
    d1 = build_fewt(P4, [1], 1)
    assert d1.query([0]) is FAIL


def test_fewt_errors():
    with pytest.raises(DisconnectedInput):
        from vertexcuts.graph import Graph
        build_fewt(Graph(4, [(0, 1), (2, 3)]), [0, 3], 1)
    d = build_fewt(P4, [0, 3], 1)
    with pytest.raises(TooManyFailures):
        d.query([0, 1])


def test_te_examples():
    star = star_graph(4)
    te = build_te(star, [1, 2, 3, 4], 1)
    assert te.tau_max_degree == 4
    assert set(te.tau_adj) == {0, 1, 2, 3, 4}
    assert te.query([0]) is CUT

    te_p = build_te(P4, [0, 3], 1)
    assert te_p.tau_max_degree == 2
    assert te_p.query([2]) is CUT

    # BFS tree of C6 from terminal 0, pruned to {0,2,4}: the 4-edge path
    # 2-1-0-5-4 with maximum degree 2.
    te_c = build_te(C6, [0, 2, 4], 2)
    n_edges = sum(len(a) for a in te_c.tau_adj.values()) // 2
    assert n_edges == 4
    assert te_c.tau_max_degree == 2
    assert te_c.query([1]) is FAIL   # C6 - {1} stays connected


def test_te_off_tree_failure_set():
    te = build_te(C6, [0, 2], 2)   # tree is the arc 0-1-2
    assert te.query([4]) is FAIL   # F misses the tree entirely
    assert te.query([1]) is FAIL   # tree hit, but C6 - {1} stays connected


def test_fewt_te_soundness_and_completeness():
    grid = [
        (P4, (0, 3), 2), (C6, (0, 2, 4), 3), (K4, tuple(range(4)), 3),
        (barbell_graph(4), (0, 3, 6), 3), (star_graph(6), (1, 2, 5), 2),
        (gen_connected_gnp(12, 0.3, 5), (0, 4, 7, 11), 3),
        (gen_connected_gnp(14, 0.25, 6), tuple(range(14)), 3),
    ]
    for g, terms, f in grid:
        fewt = build_fewt(g, terms, f)
        te = build_te(g, terms, f)
        for fs in subsets_upto(g.n, f):
            truth_cut = is_cut_bruteforce(g, fs)
            sep = separates_terminals(g, fs, terms)
            for det in (fewt, te):
                ans = det.query(fs)
                if ans is CUT:
                    assert truth_cut, (fs, det)
                if sep:
                    assert ans is CUT, (fs, det)


def test_trichotomy_examples():
    assert us_trichotomy(P4, [2], [1]) is Trichotomy.COMPONENT_SWALLOWED
    assert us_trichotomy(P4, [1], [1]) is Trichotomy.SUPERSET_DISCONNECTED
    assert us_trichotomy(K4, [0], [1]) is Trichotomy.NOT_A_CUT
    assert us_trichotomy(C6, [1, 4], [0, 3]) is Trichotomy.SEPARATES_S


def test_trichotomy_is_exact_cut_characterization():
    for seed in range(5):
        g = gen_connected_gnp(10, 0.3, seed + 40)
        for s_sub in subsets_upto(10, 2):
            for fs in subsets_upto(10, 2):
                verdict = us_trichotomy(g, s_sub, fs)
                assert ((verdict is not Trichotomy.NOT_A_CUT)
                        == is_cut_bruteforce(g, fs)), (seed, s_sub, fs)


def test_build_us_p4_table():
    us = build_us(P4, [], [1], 1)
    assert set(us.tables) == {frozenset()}
    arr, bit = us.tables[frozenset()]
    assert arr == [(1,)]          # N({0}) = N({2,3}) = {1}, deduplicated
    assert bit is False           # P4 - {1} is disconnected


def test_build_us_k4_tables():
    us = build_us(K4, [3], [0], 2)
    assert set(us.tables) == {frozenset(), frozenset({3})}
    for w, (arr, bit) in us.tables.items():
        assert bit is True
        assert arr == sorted(arr)
        for t in arr:
            assert len(t) <= 2 and set(t) <= {0} | set(w)


def test_build_us_trivial_table():
    us = build_us(C6, [], [], 2)
    arr, bit = us.tables[frozenset()]
    assert bit is True and arr == [()]   # one component, empty neighborhood


def test_us_budget_and_query_domain():
    with pytest.raises(BudgetExceeded):
        build_us(C6, [0, 1, 2, 3, 4], [], 1)   # |U| = 5 > 2f+2 = 4
    us = build_us(P4, [0], [1], 1)
    with pytest.raises(QueryOutsideSU):
        us.query([3])
    with pytest.raises(TooManyFailures):
        us.query([0, 1])


def test_query_us_examples():
    assert build_us(P4, [], [1], 1).query([1]) is CUT
    assert build_us(P4, [0], [], 1).query([0]) is FAIL
    assert us_trichotomy(P4, [], [0]) is Trichotomy.NOT_A_CUT
    assert build_us(C6, [], [0, 3], 2).query([0, 3]) is CUT


def _us_expected(g, s_set, fs, f):
    """Direct statement of the two non-S options of the structural lemma."""
    ss, fsf = frozenset(s_set), frozenset(fs)
    removed = ss | fsf
    if fsf >= ss:
        return max(component_labels(g, removed), default=-1) + 1 >= 2
    for comp in components(g, removed):
        nbhd = set()
        for v in comp:
            nbhd.update(g.adj[v])
        if len(nbhd - set(comp)) <= f and nbhd - set(comp) <= fsf:
            return True
    return False


def test_query_us_matches_lemma_options():
    # (1, 4, 6, 7, 8, 9) puts |U| at the 2f + 2 cap, where rows with
    # |W| > f would exist; a query never reads them, so none is kept.
    for seed in range(4):
        g = gen_connected_gnp(10, 0.35, seed + 60)
        for s_sub in [(), (0,), (0, 5), (2, 3)]:
            for u_sub in [(), (1,), (1, 7), (1, 4, 6, 7, 8, 9)]:
                if set(s_sub) & set(u_sub):
                    continue
                us = build_us(g, u_sub, s_sub, 2)
                assert len(us.tables) == sum(comb(len(u_sub), i)
                                             for i in range(min(2, len(u_sub)) + 1))
                domain = sorted(set(s_sub) | set(u_sub))
                for fs in subsets_upto(len(domain), 2):
                    f_ids = [domain[i] for i in fs]
                    got = us.query(f_ids) is CUT
                    assert got == _us_expected(g, s_sub, f_ids, 2), (seed, s_sub, u_sub, f_ids)
                    # completeness: cut that does not separate S must be caught
                    if (is_cut_bruteforce(g, f_ids)
                            and not separates_terminals(g, f_ids, s_sub)):
                        assert got, (seed, s_sub, u_sub, f_ids)
                    if got:
                        assert is_cut_bruteforce(g, f_ids)


def test_us_sorted_and_encoded():
    g = gen_connected_gnp(12, 0.3, 9)
    us = build_us(g, [0, 1], [2, 3], 3)
    for w, (arr, _) in us.tables.items():
        assert arr == sorted(arr)
        for t in arr:
            assert list(t) == sorted(t)
            assert len(t) <= 3
            assert set(t) <= {2, 3} | set(w)
        # binary-search membership equals linear scan
        from vertexcuts.detectors import _sorted_contains
        probes = [(), (2,), (2, 3), (0, 2), tuple(sorted({2, 3} | set(w)))[:3]]
        for p in probes:
            assert _sorted_contains(arr, p) == (p in arr)


def test_us_fconnected_fast_path_agrees():
    for g, f, u_sub in [(cycle_graph(6), 2, (4, 5)), (complete_graph(5), 3, (3, 4)),
                        (gen_f_connected(10, 3, 1), 3, (8, 9))]:
        s_sub = (0, 1, 2)[:f]
        slow = build_us(g, u_sub, s_sub, f, f_connected=False)
        fast = build_us(g, u_sub, s_sub, f, f_connected=True)
        domain = sorted(set(s_sub) | set(u_sub))
        for fs in subsets_upto(len(domain), f):
            f_ids = [domain[i] for i in fs]
            assert slow.query(f_ids) == fast.query(f_ids), f_ids
