"""Property tests: the split-graph flow kernel and the checks built on it
against networkx, and the component-grouping DP against brute force."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graphs
from vertexcuts.graph import (Graph, _reconstruct, _subset_sum_states,
                              component_labels, is_f_connected,
                              min_st_separator, min_vertex_cut_size)

SETTINGS = settings(max_examples=200, deadline=None, database=None)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@SETTINGS
@given(graphs(), st.data())
def test_kernel_matches_networkx_min_node_cut(g, data):
    pairs = [(s, t) for s in range(g.n) for t in range(g.n)
             if s != t and not g.has_edge(s, t)]
    if not pairs:  # complete: no separator exists
        return
    s, t = data.draw(st.sampled_from(pairs))
    cap = data.draw(st.integers(0, g.n))
    size = len(nx.minimum_node_cut(to_nx(g), s, t))
    sep = min_st_separator(g, s, t, cap)
    if size > cap:
        assert sep is None
        return
    assert sep is not None and len(sep) == size
    assert sep == sorted(set(sep)) and s not in sep and t not in sep
    labels = component_labels(g, sep)
    assert labels[s] != labels[t]


@SETTINGS
@given(graphs(), st.integers(0, 6))
def test_connectivity_checks_match_networkx(g, f):
    kappa = nx.node_connectivity(to_nx(g))
    complete = g.m == g.n * (g.n - 1) // 2
    assert is_f_connected(g, f) == (complete or f <= 0 or kappa >= f)
    if g.is_connected():
        assert min_vertex_cut_size(g) == (None if complete else kappa)


def two_sided_sums_brute(counts):
    c = len(counts)
    return {sum(counts[i] for i in range(c) if pick >> i & 1)
            for pick in range(1, 2 ** c - 1)}


@SETTINGS
@given(st.lists(st.integers(0, 6), max_size=10))
def test_grouping_dp_matches_brute_force(counts):
    layers = _subset_sum_states(counts)
    assert len(layers) == len(counts) + 1
    two_sided = [state for state in layers[-1] if state[1] and state[2]]
    assert {x for x, _, _ in two_sided} == two_sided_sums_brute(counts)
    for state in two_sided:
        taken = _reconstruct(layers, state)
        assert len(set(taken)) == len(taken)
        assert 0 < len(taken) < len(counts)
        assert sum(counts[i] for i in taken) == state[0]


def hypercube(d: int) -> Graph:
    return Graph(2 ** d, [(v, v ^ 1 << i) for v in range(2 ** d) for i in range(d)
                          if v < v ^ 1 << i])


def test_min_vertex_cut_size_runs_one_pass(monkeypatch):
    import vertexcuts.graph as vg
    calls = []

    def counted(*args):
        calls.append(args)
        return min_st_separator(*args)

    monkeypatch.setattr(vg, "min_st_separator", counted)
    assert vg.min_vertex_cut_size(hypercube(5)) == 5
    assert len(calls) < 200
