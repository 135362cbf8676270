"""Left/right splitting, the sparse-cut finder, the LR tree, and TED."""

import pytest
from fractions import Fraction

from helpers import (barbell_graph, complete_graph, cycle_graph, path_graph,
                     star_graph, subsets_upto)
from vertexcuts.decomposition import (CutCase, NodeKind, TreeParams,
                                      VertexCutPartition, build_left_right,
                                      build_lr_tree, export_ted,
                                      find_balanced_or_expander,
                                      validate_lr_tree, validate_ted)
from vertexcuts.errors import InvalidCut
from vertexcuts.generators import gen_connected_gnp, gen_f_connected
from vertexcuts.graph import is_terminal_expander
from vertexcuts.validate import left_right_lemma_report, trichotomy_report

P4 = path_graph(4)
C6 = cycle_graph(6)
K4 = complete_graph(4)
BARBELL = barbell_graph(5)   # two K5 blocks sharing vertex 4


def test_build_left_right_p4_example():
    cut = VertexCutPartition(frozenset({0}), frozenset({1}), frozenset({2, 3}))
    pair = build_left_right(P4, range(4), cut, 1)
    assert sorted(pair.u_right) == [2, 3]
    assert pair.g_left.n == 4
    assert pair.g_left.edges == ((0, 1), (1, 2), (1, 3), (2, 3))


def test_build_left_right_c6_example():
    cut = VertexCutPartition(frozenset({1, 2}), frozenset({0, 3}), frozenset({4, 5}))
    pair = build_left_right(C6, range(6), cut, 2)
    assert sorted(pair.u_right) == [4, 5]
    got = set(pair.g_left.edges)
    assert got == set(C6.edges) | {(0, 4), (3, 5)}


def test_build_left_right_supergraph_when_r_small():
    # |R| <= f+1 keeps everything: G_L contains g as a subgraph
    cut = VertexCutPartition(frozenset({0, 1}), frozenset({2}), frozenset({3}))
    pair = build_left_right(P4, range(4), cut, 1)
    assert set(P4.edges) <= set(pair.g_left.edges)


def test_build_left_right_representative_order():
    # terminals of T ∩ R come first, ascending; then non-terminals ascending
    g = path_graph(8)
    cut = VertexCutPartition(frozenset({0, 1}), frozenset({2}),
                             frozenset({3, 4, 5, 6, 7}))
    pair = build_left_right(g, [0, 5, 7], cut, 1)
    assert sorted(pair.u_right) == [5, 7]   # the two terminals, not 3,4


def test_build_left_right_rejects_crossing_edge():
    with pytest.raises(InvalidCut):
        build_left_right(P4, range(4),
                         VertexCutPartition(frozenset({0, 1}), frozenset({3}),
                                            frozenset({2})), 1)
    with pytest.raises(InvalidCut):
        build_left_right(P4, range(4),
                         VertexCutPartition(frozenset({0, 1, 2, 3}), frozenset(),
                                            frozenset()), 1)


def test_degenerate_cut_left_is_clique():
    cut = VertexCutPartition(frozenset(), frozenset(), frozenset(range(4)))
    pair = build_left_right(K4, range(4), cut, 1)
    assert pair.g_left.n == 2       # U_R = first f+1 = 2 vertices
    assert pair.g_left.m == 1
    assert pair.g_right.edges == K4.edges


def test_finder_k4_expander():
    res = find_balanced_or_expander(K4, range(4), Fraction(1, 4), 2)
    assert res.case_tag is CutCase.EXPANDER
    assert res.cut.degenerate
    assert res.expansion_witness is not None
    assert is_terminal_expander(K4, range(4), res.expansion_witness)


def test_finder_barbell_balanced():
    res = find_balanced_or_expander(BARBELL, range(9), Fraction(1, 2), 1)
    assert res.case_tag is CutCase.BALANCED
    assert res.cut.sep == frozenset({4})
    assert {len(res.cut.left), len(res.cut.right)} == {4}


def test_finder_star_balanced():
    star9 = star_graph(8)
    res = find_balanced_or_expander(star9, range(1, 9), Fraction(1, 2), 1)
    assert res.case_tag is CutCase.BALANCED
    assert res.cut.sep == frozenset({0})
    assert abs(len(res.cut.left) - len(res.cut.right)) <= 1


def test_finder_contract_on_random_graphs():
    for seed in range(6):
        g = gen_connected_gnp(12, 0.3, seed + 80)
        ts = frozenset(range(12))
        eps = Fraction(1, 3)
        res = find_balanced_or_expander(g, ts, eps, 2)
        cut = res.cut
        t_ls = len(ts & (cut.left | cut.sep))
        t_rs = len(ts & (cut.right | cut.sep))
        assert len(cut.sep) <= eps * t_ls
        if res.case_tag is CutCase.BALANCED:
            assert 3 * t_ls >= 12 and 3 * t_rs >= 12
            assert ts & cut.left and ts & cut.right
        else:
            assert 2 * len(ts & cut.right) >= 12
            sub = g.induced(sorted(cut.right)) if not cut.degenerate else g
            local_t = [sub.root_to_local[r] for r in ts & cut.right]
            assert is_terminal_expander(sub, local_t, res.expansion_witness)


def test_lr_tree_immediate_leaf():
    tree = build_lr_tree(K4, range(4), 2)   # threshold far above |T|
    assert len(tree.nodes) == 1
    assert tree.root.kind is NodeKind.LEAF_FEWT
    assert tree.s_star == frozenset()
    assert tree.depth == 1


def test_lr_tree_barbell_trace():
    tree = build_lr_tree(BARBELL, range(9), 1, TreeParams(eps_override=Fraction(1, 2)))
    assert tree.root.kind is NodeKind.INTERNAL_BALANCED
    assert tree.root.cut.sep == frozenset({4})
    assert tree.s_star == frozenset({4})
    assert 2 * len(tree.s_star) <= 9
    rep = validate_lr_tree(tree, BARBELL, range(9))
    assert rep.ok, rep.failures()


def test_lr_tree_k8():
    tree = build_lr_tree(complete_graph(8), range(8), 2)
    assert tree.s_star == frozenset()
    assert tree.root.kind in (NodeKind.LEAF_FEWT, NodeKind.INTERNAL_EXPANDER)


def test_lr_tree_terminal_subsets():
    g = gen_connected_gnp(14, 0.3, 91)
    tree = build_lr_tree(g, [0, 3, 5, 9, 13], 2, TreeParams(eps_override=Fraction(1, 2)))
    for node in tree.nodes:
        assert node.terminals <= node.vertex_set
        if not node.is_leaf:
            assert node.left.terminals <= node.terminals
            # stepchild terminals are representatives, up to 3(f+1) of them
            if node.step is not None:
                assert len(node.step.terminals) <= 3 * 3
    assert validate_lr_tree(tree, g, [0, 3, 5, 9, 13]).ok


def test_validate_lr_tree_negative_control():
    tree = build_lr_tree(BARBELL, range(9), 1, TreeParams(eps_override=Fraction(1, 2)))
    tree.s_star = frozenset()   # corrupt the bookkeeping
    rep = validate_lr_tree(tree, BARBELL, range(9))
    assert not rep.ok
    assert any(name == "s-star-bookkeeping" for name, _ in rep.failures())


def test_export_ted_k4():
    ted = export_ted(K4, 2)
    assert len(ted.entries) == 1
    assert ted.entries[0].graph.n == 4
    assert ted.rounds == 1
    assert validate_ted(ted, K4, 2).ok


def test_export_ted_p4():
    ted = export_ted(P4, 1)
    rep = validate_ted(ted, P4, 1)
    assert rep.ok, rep.failures()


def test_export_ted_barbell_rounds():
    ted = export_ted(BARBELL, 1, TreeParams(eps_override=Fraction(1, 2)))
    assert ted.rounds == 2           # round 2 runs on T = {4}
    assert len(ted.entries) >= 3
    rep = validate_ted(ted, BARBELL, 1)
    assert rep.ok, rep.failures()


def test_validate_ted_negative_control():
    ted = export_ted(BARBELL, 1, TreeParams(eps_override=Fraction(1, 2)))
    ted.entries = [e for e in ted.entries if e.round_index == 0][:1]
    rep = validate_ted(ted, BARBELL, 1)
    assert any(name == "completeness" for name, _ in rep.failures())


def test_left_right_lemma_suite_small_graphs():
    from helpers import wheel_graph
    cases = [
        (path_graph(6), 3), (cycle_graph(8), 2), (wheel_graph(8), 3),
        (barbell_graph(4), 3), (star_graph(6), 2),
        (gen_connected_gnp(10, 0.35, 12), 3),
        (gen_f_connected(10, 2, 3, extra_p=0.0), 2), (gen_f_connected(12, 3, 4), 3),
    ]
    for g, f in cases:
        rep = left_right_lemma_report(g, f)
        assert rep.ok, (g, f, rep.failures())


def test_strengthening_inclusive_or_boundary():
    # For F = S both conjuncts of the minimum-cut completeness lemma hold,
    # which is why the suite asserts "exactly one" only when F ⊄ S.
    from vertexcuts.graph import separates_terminals
    cut = VertexCutPartition(frozenset({1, 2}), frozenset({0, 3}), frozenset({4, 5}))
    pair = build_left_right(C6, range(6), cut, 2)
    fs = frozenset({0, 3})
    assert separates_terminals(C6, fs, range(6))
    assert not separates_terminals(C6, fs, cut.sep)
    for side in (pair.g_left, pair.g_right):
        f_local = [side.root_to_local[r] for r in fs]
        t_local = [side.root_to_local[r] for r in range(6) if r in side.root_to_local]
        assert separates_terminals(side, f_local, t_local)


def test_trichotomy_suite():
    for g in (path_graph(6), cycle_graph(8), gen_connected_gnp(10, 0.3, 44)):
        rep = trichotomy_report(g, 3)
        assert rep.ok, rep.failures()
