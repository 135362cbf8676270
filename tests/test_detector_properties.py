"""Property tests: the US detector's tables, built from one sweep of
G - (S ∪ U), against a per-W recomputation with plain BFS."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (complete_graph, cycle_graph, graphs, path_graph,
                     star_graph, us_tables_reference)
from vertexcuts.detectors import build_us
from vertexcuts.graph import components

SETTINGS = settings(max_examples=300, deadline=None, database=None)


@st.composite
def us_inputs(draw):
    """A small graph (possibly disconnected), f, U with |U| <= 2f + 2 and
    an S that may overlap U."""
    g = draw(graphs(min_n=1, max_n=10))
    n = g.n
    f = draw(st.integers(1, 3))
    vertices = st.sampled_from(range(n))
    u = draw(st.sets(vertices, max_size=min(n, 2 * f + 2)))
    s = draw(st.sets(vertices, max_size=n))
    return g, u, s, f, draw(st.booleans())


@SETTINGS
@given(us_inputs())
def test_us_tables_match_reference(case):
    g, u, s, f, f_connected = case
    assert build_us(g, u, s, f, f_connected).tables == us_tables_reference(g, u, s, f)


NAMED = {
    # name: (graph, U, S, f, condition on the case)
    "s_meets_u": (cycle_graph(6), {0, 1}, {1, 3}, 2, lambda g, u, s: u & s),
    "empty_u": (path_graph(5), set(), {2}, 1, lambda g, u, s: not u),
    "s_and_u_cover_v": (path_graph(4), {0, 1}, {2, 3}, 1,
                        lambda g, u, s: u | s == set(range(g.n))),
    # G0 = {0}, {2}, {4}, {6}; putting U back joins them
    "g0_several_components": (path_graph(7), {1, 3, 5}, set(), 2,
                              lambda g, u, s: len(components(g, u | s)) == 4),
    "u_only_next_to_s_and_u": (path_graph(5), {2}, {1, 3}, 1,
                               lambda g, u, s: set(g.adj[2]) <= u | s),
    "u_at_cap_f1": (cycle_graph(8), {0, 2, 4, 6}, set(), 1,
                    lambda g, u, s: len(u) == 4),
    "u_at_cap_f3": (complete_graph(10), set(range(8)), {8}, 3,
                    lambda g, u, s: len(u) == 8),
}


@pytest.mark.parametrize("f_connected", [False, True])
@pytest.mark.parametrize("name", list(NAMED))
def test_us_tables_named_cases(name, f_connected):
    g, u, s, f, holds = NAMED[name]
    assert holds(g, u, s)
    det = build_us(g, u, s, f, f_connected)
    assert det.f_connected is f_connected
    assert det.tables == us_tables_reference(g, u, s, f)
