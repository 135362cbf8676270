"""Property tests: the spanning-forest connectivity oracle against the
brute-force BFS labeling ``graph.component_labels``."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import star_graph
from vertexcuts.connectivity import build_conn_oracle
from vertexcuts.errors import QueriedFailedVertex
from vertexcuts.graph import Graph, component_labels

SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def graphs(draw, max_n=12):
    """Any simple graph: possibly empty, disconnected, with isolated vertices."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    density = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]))
    edges = [e for e in pairs if draw(st.floats(0, 1)) < density] if pairs else []
    return Graph(n, edges)


@st.composite
def spiders(draw):
    """A hub of high tree degree with legs of random length and random chords
    between vertices of different legs."""
    legs = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    edges, ends, nxt = [], [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            ends.append(nxt)
            prev, nxt = nxt, nxt + 1
    chords = draw(st.lists(st.tuples(st.sampled_from(ends), st.sampled_from(ends)),
                           max_size=6))
    edges += [(u, v) for u, v in chords if u != v]
    return Graph(nxt, edges)


def failure_sets(n, f):
    return st.frozensets(st.integers(0, n - 1), max_size=f) if n else st.just(frozenset())


def assert_matches_reference(o, g, fs):
    ref = component_labels(g, fs)
    got = o.labels
    assert len(got) == g.n
    assert [v for v in range(g.n) if got[v] == -1] == sorted(fs)
    live = [v for v in range(g.n) if v not in fs]
    # same partition: label pairs are in bijection on the live vertices
    pairs = {(int(got[v]), ref[v]) for v in live}
    assert len(pairs) == len({p[0] for p in pairs}) == len({p[1] for p in pairs})
    for s in live:
        for t in live:
            assert o.connected(s, t) is (ref[s] == ref[t])


@SETTINGS
@given(st.data())
def test_update_sequences_match_reference(data):
    """Repeated, alternating and replacing updates on arbitrary graphs."""
    g = data.draw(graphs())
    f = data.draw(st.integers(0, 4))
    o = build_conn_oracle(g, f)
    seen = []
    for _ in range(data.draw(st.integers(1, 6))):
        if seen and data.draw(st.booleans()):
            fs = data.draw(st.sampled_from(seen))  # go back to an earlier set
        else:
            fs = data.draw(failure_sets(g.n, f))
        seen.append(fs)
        o.update(fs)
        assert o.failed == fs
        assert_matches_reference(o, g, fs)


@SETTINGS
@given(spiders(), st.data())
def test_high_tree_degree_failures(g, data):
    f = data.draw(st.integers(1, 4))
    rest = data.draw(st.frozensets(st.integers(1, g.n - 1), max_size=f - 1))
    fs = rest | {0}  # the hub, of tree degree up to eight
    o = build_conn_oracle(g, f)
    o.update(fs)
    assert_matches_reference(o, g, fs)


@SETTINGS
@given(graphs(), st.data())
def test_failing_dfs_roots(g, data):
    """The DFS forest is rooted at the smallest vertex of each component."""
    if g.n == 0:
        return
    ref = component_labels(g)
    roots = sorted({min(v for v in range(g.n) if ref[v] == c) for c in set(ref)})
    f = data.draw(st.integers(1, 4))
    fs = frozenset(data.draw(st.lists(st.sampled_from(roots), min_size=1, max_size=f)))
    fs |= data.draw(st.frozensets(st.integers(0, g.n - 1), max_size=f - len(fs)))
    o = build_conn_oracle(g, f)
    o.update(fs)
    assert_matches_reference(o, g, fs)


@SETTINGS
@given(graphs(), st.data())
def test_empty_and_full_failure_sets(g, data):
    f = data.draw(st.integers(0, min(4, g.n)))
    full = frozenset(data.draw(st.permutations(range(g.n)))[:f])
    o = build_conn_oracle(g, f)
    for fs in (frozenset(), full, frozenset()):
        o.update(fs)
        assert_matches_reference(o, g, fs)


@SETTINGS
@given(graphs())
def test_queries_before_any_update(g):
    o = build_conn_oracle(g, 2)
    ref = component_labels(g)
    for s in range(g.n):
        for t in range(g.n):
            assert o.connected(s, t) is (ref[s] == ref[t])
    assert_matches_reference(build_conn_oracle(g, 2), g, frozenset())


@pytest.mark.parametrize("g", [Graph(0, []), Graph(1, []), Graph(2, []),
                               Graph(2, [(0, 1)])], ids=repr)
def test_tiny_graphs(g):
    o = build_conn_oracle(g, g.n)
    assert_matches_reference(o, g, frozenset())
    for k in range(g.n + 1):
        for fs in combinations(range(g.n), k):
            o.update(fs)
            assert_matches_reference(o, g, frozenset(fs))


def test_labels_are_read_only_and_star_center_splits():
    g = star_graph(6)
    o = build_conn_oracle(g, 1)
    o.update([0])
    labels = o.labels
    assert isinstance(labels, np.ndarray) and not labels.flags.writeable
    assert labels[0] == -1 and len(set(labels[1:].tolist())) == 6
    with pytest.raises(QueriedFailedVertex):
        o.connected(0, 1)


@SETTINGS
@given(st.integers(0, 80), st.lists(st.tuples(st.integers(1, 70), st.integers(1, 70)),
                                    max_size=40))
def test_many_pieces(isolated, chords):
    """More pieces than the count table takes: a star of 70 leaves with
    random chords, plus isolated vertices that each form a tree."""
    edges = [(0, i) for i in range(1, 71)] + [(u, v) for u, v in chords if u != v]
    g = Graph(71 + isolated, edges)
    o = build_conn_oracle(g, 2)
    for fs in (frozenset({0}), frozenset({0, 70 + isolated}), frozenset({5, 9})):
        o.update(fs)
        assert_matches_reference(o, g, fs)
