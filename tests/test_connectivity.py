"""Failure connectivity oracle vs. plain BFS."""

import random

import pytest

from helpers import complete_graph, cycle_graph, path_graph
from vertexcuts.connectivity import build_conn_oracle
from vertexcuts.errors import QueriedFailedVertex, TooManyFailures
from vertexcuts.generators import gen_connected_gnp
from vertexcuts.graph import component_labels


def test_build_examples():
    o = build_conn_oracle(complete_graph(4), 2)
    assert o.connected(0, 3, ()) is True
    o = build_conn_oracle(path_graph(4), 1)
    assert o.connected(0, 3, ()) is True
    o0 = build_conn_oracle(path_graph(4), 0)
    assert o0.connected(0, 3, ()) is True
    with pytest.raises(TooManyFailures):
        o0.update([1])


def test_update_examples():
    o = build_conn_oracle(path_graph(4), 1)
    assert o.update([1]).tolist() == [0, -1, 1, 1]
    assert o.connected(0, 2, [1]) is False
    assert o.connected(2, 3, [1]) is True
    o6 = build_conn_oracle(cycle_graph(6), 2)
    assert o6.connected(1, 5, [0, 3]) is False
    assert o6.connected(1, 2, [0, 3]) is True


def test_query_errors_and_self():
    o = build_conn_oracle(path_graph(4), 2)
    with pytest.raises(QueriedFailedVertex):
        o.connected(1, 3, [1, 2])
    assert o.connected(3, 3, [1, 2]) is True
    with pytest.raises(TooManyFailures):
        o.update([0, 1, 2])
    with pytest.raises(TooManyFailures):
        o.connected(0, 3, [0, 1, 2])
    with pytest.raises(TypeError):
        o.connected(0, 3)  # F has no default


def test_update_replaces_failures():
    o = build_conn_oracle(path_graph(5), 1)
    assert o.connected(0, 4, [2]) is False
    labels = o.update([0])  # replaces, does not compose
    assert labels[1] == labels[4]
    assert o.failed == frozenset({0})


def test_equivalence_relation():
    g = gen_connected_gnp(16, 0.25, 3)
    o = build_conn_oracle(g, 3)
    fs = [0, 5, 9]
    labels = o.update(fs)
    live = [v for v in range(16) if v not in fs]
    for x in live:
        assert o.connected(x, x, fs)
        for y in live:
            assert o.connected(x, y, fs) == o.connected(y, x, fs)
    # transitivity via labels: same component is an equivalence class
    classes = {}
    for v in live:
        classes.setdefault(labels[v], []).append(v)
    for group in classes.values():
        for x in group:
            for y in group:
                assert o.connected(x, y, fs)


def test_randomized_against_bfs():
    rng = random.Random(7)
    total = 0
    for seed in range(5):
        g = gen_connected_gnp(32, 0.15, seed + 20)
        o = build_conn_oracle(g, 4)
        for _ in range(100):
            fs = frozenset(rng.sample(range(32), rng.randint(0, 4)))
            labels = component_labels(g, fs)
            live = [v for v in range(32) if v not in fs]
            for _ in range(25):
                s, t = rng.choice(live), rng.choice(live)
                assert o.connected(s, t, fs) == (labels[s] == labels[t])
                total += 1
    assert total >= 10_000
