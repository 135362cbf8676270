"""Graph core: representation invariants, brute-force cut verdicts, sparse
certificates, and terminal-expander verification."""

import pytest
from fractions import Fraction
from itertools import combinations

from helpers import (complete_graph, cycle_graph, expander_exhaustive,
                     path_graph, star_graph, subsets_upto)
from vertexcuts.errors import (DisconnectedInput, InvalidParams, OutOfRange,
                               SizeCapExceeded)
from vertexcuts.generators import gen_connected_gnp, gen_random
from vertexcuts.graph import (Graph, component_labels, is_cut_bruteforce,
                              is_f_connected, is_terminal_expander,
                              min_vertex_cut_size, separates_terminals, sparsify)

P4 = path_graph(4)
C6 = cycle_graph(6)
K4 = complete_graph(4)
K5 = complete_graph(5)


def test_graph_invariants():
    g = Graph(4, [(1, 0), (0, 1), (2, 1), (3, 2)])  # dedupes reversed duplicates
    assert g.m == 3
    assert g.adj[1] == (0, 2)
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
    for u, v in g.edges:
        assert u in g.adj[v] and v in g.adj[u]


def test_graph_rejects_bad_edges():
    with pytest.raises(InvalidParams):
        Graph(3, [(0, 0)])
    with pytest.raises(OutOfRange):
        Graph(3, [(0, 5)])


def test_is_cut_examples():
    assert is_cut_bruteforce(P4, [1]) is True
    assert is_cut_bruteforce(K4, [0, 1]) is False
    assert is_cut_bruteforce(C6, [0, 3]) is True


def test_is_cut_degenerate_cases():
    assert is_cut_bruteforce(P4, []) is False          # G - empty set is connected
    assert is_cut_bruteforce(P4, range(4)) is False    # no vertices remain
    with pytest.raises(DisconnectedInput):
        is_cut_bruteforce(Graph(4, [(0, 1), (2, 3)]), [0])
    with pytest.raises(OutOfRange):
        is_cut_bruteforce(P4, [9])


def test_separates_examples():
    assert separates_terminals(P4, [1], [0, 3]) is True
    assert separates_terminals(P4, [1], [2, 3]) is False
    assert separates_terminals(C6, [0, 3], [1, 2]) is False


def test_cut_equals_separates_all_vertices():
    for seed in range(6):
        g = gen_connected_gnp(10, 0.3, seed)
        for fs in subsets_upto(10, 2):
            assert is_cut_bruteforce(g, fs) == separates_terminals(g, fs, range(10))


def test_sparsify_tree_unchanged():
    tree = Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    assert sparsify(tree, 3).edges == tree.edges


def test_is_connected_is_computed_once(monkeypatch):
    import vertexcuts.graph as graph_module
    real_count = graph_module.component_count
    calls = []

    def counting(g, removed=()):
        calls.append(g)
        return real_count(g, removed)

    monkeypatch.setattr(graph_module, "component_count", counting)
    for g, connected in ((path_graph(5), True), (Graph(4, [(0, 1), (2, 3)]), False)):
        calls.clear()
        assert g.is_connected() is connected
        assert g.is_connected() is connected
        assert len(calls) == 1


def test_sparsify_k5():
    h = sparsify(K5, 1)
    assert h.m <= 2 * 5
    for fs in subsets_upto(5, 1):
        assert is_cut_bruteforce(h, fs) == is_cut_bruteforce(K5, fs)


def test_sparsify_random_exhaustive():
    g = gen_random(24, 0.5, 42)
    assert g.is_connected()
    h = sparsify(g, 3)
    assert h.m <= 4 * 24
    for fs in subsets_upto(24, 3):
        assert is_cut_bruteforce(h, fs) == is_cut_bruteforce(g, fs)


def test_sparsify_bridge_vertices_regression():
    # Iterated maximal spanning forests can hang a bridge vertex entirely off
    # one side, making its partner a false separator; the scan order must not.
    from helpers import two_blob_graph
    g = two_blob_graph(12, 2, 0.5, 13)
    h = sparsify(g, 1)
    for v in range(g.n):
        assert is_cut_bruteforce(h, [v]) == is_cut_bruteforce(g, [v]), v
    h3 = sparsify(g, 3)
    import random
    rng = random.Random(5)
    for _ in range(400):
        fs = rng.sample(range(g.n), rng.randint(0, 3))
        assert is_cut_bruteforce(h3, fs) == is_cut_bruteforce(g, fs), fs


def test_sparsify_idempotent_verdicts():
    for seed, n, f in [(0, 12, 2), (1, 16, 3), (2, 20, 3)]:
        g = gen_connected_gnp(n, 0.4, seed)
        h1 = sparsify(g, f)
        h2 = sparsify(h1, f)
        assert h2.m <= (f + 1) * n
        for fs in subsets_upto(n, f):
            assert is_cut_bruteforce(h2, fs) == is_cut_bruteforce(g, fs)


def test_expander_examples():
    assert is_terminal_expander(K4, range(4), Fraction(1, 2)) is True
    # P4 with terminals {0,3}: a violating cut would need a terminal side of
    # more than 2|S| >= 2 terminals, but |T| = 2; settled by enumeration.
    assert is_terminal_expander(P4, [0, 3], Fraction(1, 2)) is True
    assert expander_exhaustive(P4, [0, 3], Fraction(1, 2)) is True
    assert is_terminal_expander(star_graph(4), [1, 2, 3, 4], 1) is False


def test_expander_matches_exhaustive():
    # The star and the tree have separators with many components.
    tree = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7)])
    graphs = [gen_connected_gnp(8, 0.35, seed) for seed in range(8)]
    for i, g in enumerate(graphs + [star_graph(7), tree]):
        for phi in (Fraction(1, 4), Fraction(1, 2), Fraction(1, 1)):
            for t_set in ([0, 1, 2], list(range(8)), [2, 5]):
                assert (is_terminal_expander(g, t_set, phi)
                        == expander_exhaustive(g, t_set, phi)), (i, phi, t_set)


def test_expander_size_cap():
    big = path_graph(80)
    with pytest.raises(SizeCapExceeded):
        is_terminal_expander(big, range(80), Fraction(1, 2), size_cap=64)


def test_f_connected_against_enumeration():
    for seed in range(6):
        g = gen_connected_gnp(9, 0.4, seed)
        for f in (1, 2, 3):
            has_small_cut = any(is_cut_bruteforce(g, fs)
                                for size in range(f)
                                for fs in combinations(range(9), size))
            assert is_f_connected(g, f) == (not has_small_cut), (seed, f)


def test_min_vertex_cut_sizes():
    assert min_vertex_cut_size(C6) == 2
    assert min_vertex_cut_size(K4) is None   # complete: no cuts at all
    assert min_vertex_cut_size(P4) == 1
    assert is_f_connected(K4, 7) is True     # no cuts of any size


def test_component_labels_shape():
    labels = component_labels(C6, [0, 3])
    assert labels[0] == labels[3] == -1
    assert labels[1] == labels[2] != labels[4]
    assert labels[4] == labels[5]


def test_induced_root_ids_compose():
    sub = C6.induced([1, 2, 3])
    assert sub.root_ids == (1, 2, 3)
    subsub = sub.induced([1, 2])
    assert subsub.root_ids == (2, 3)
    assert subsub.edges == ((0, 1),)
