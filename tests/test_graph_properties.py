"""Property tests: the split-graph flow kernel and the checks built on it
against networkx, and the component-grouping DP against brute force."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cycle_graph, graphs, path_graph
from vertexcuts.errors import InvalidParams, OutOfRange
from vertexcuts.graph import (Graph, _reconstruct, _split_graph,
                              _subset_sum_states, component_labels,
                              is_f_connected, min_st_separator,
                              min_vertex_cut_size)

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
@given(graphs(), st.data())
def test_kernel_calls_on_one_graph_share_no_residual_state(g, data):
    """A run of calls on one Graph reuses its cached split graph; every
    answer still matches networkx, and the cached capacities stay intact."""
    pairs = [(s, t) for s in range(g.n) for t in range(g.n)
             if s != t and not g.has_edge(s, t)]
    if not pairs:
        return
    h = to_nx(g)
    calls = data.draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(0, g.n)),
                               min_size=2, max_size=8))
    split = None
    for (s, t), cap in calls:
        size = len(nx.minimum_node_cut(h, s, t))
        sep = min_st_separator(g, s, t, cap)
        assert (None if size > cap else size) == (None if sep is None else len(sep))
        if split is None:
            split = _split_graph(g)
            initial = split[1].copy()
        assert _split_graph(g) is split
        assert np.array_equal(split[1], initial)


def hypercube(d: int) -> Graph:
    return Graph(2 ** d, [(v, v ^ 1 << i) for v in range(2 ** d) for i in range(d)
                          if v < v ^ 1 << i])


def test_kernel_boundary_cases():
    q5 = hypercube(5)  # antipodal 0 and 31 are separated by 5 vertices, no fewer
    assert min_st_separator(q5, 0, 31, 5) == list(q5.adj[0])
    assert min_st_separator(q5, 0, 31, 4) is None
    fan = Graph(7, [(end, mid) for end in (0, 1) for mid in range(2, 7)])
    assert min_st_separator(fan, 0, 1, 5) == [2, 3, 4, 5, 6]  # five paths, one BFS
    assert min_st_separator(fan, 0, 1, 4) is None
    c8 = cycle_graph(8)
    assert min_st_separator(c8, 0, 4, 2) == [1, 7]
    assert min_st_separator(c8, 0, 4, 1) is None
    assert min_st_separator(c8, 0, 4, 0) is None
    apart = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert min_st_separator(apart, 0, 4, 3) == []
    assert min_st_separator(apart, 0, 4, 0) == []
    assert min_st_separator(apart, 0, 2, 0) is None
    assert min_st_separator(apart, 0, 2, 1) == [1]


@pytest.mark.parametrize("s, t, cap, error", [
    (2, 2, 3, InvalidParams),   # s == t
    (1, 2, 10, InvalidParams),  # adjacent
    (2, 1, 10, InvalidParams),  # adjacent, either order
    (1, -1, 3, OutOfRange),
    (-1, 3, 3, OutOfRange),
    (1, 7, 3, OutOfRange),
    (1, 3, -1, InvalidParams),  # negative cap
])
def test_kernel_rejects_bad_input(s, t, cap, error):
    with pytest.raises(error):
        min_st_separator(path_graph(5), s, t, cap)


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


def test_min_vertex_cut_size_runs_one_pass(monkeypatch):
    import vertexcuts.graph as vg
    calls = []

    def counted(*args):
        calls.append(args)
        return min_st_separator(*args)

    monkeypatch.setattr(vg, "min_st_separator", counted)
    assert vg.min_vertex_cut_size(hypercube(5)) == 5
    assert len(calls) < 200
