"""Connectivity computed apart from vertexcuts, to judge every answer.

G - F is built as a sparse adjacency matrix with the edges at F masked out,
and scipy.sparse.csgraph counts its components. Each vertex of F is left as
an isolated vertex, so G - F is disconnected iff the count exceeds |F| + 1.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


class EdgeArrays:
    """The edge list of a graph as two integer arrays."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        self.n = n
        self.u = pairs[:, 0]
        self.v = pairs[:, 1]


def is_cut(g: EdgeArrays, f_set: Iterable[int]) -> bool:
    """True iff G - F has at least two components (vertices outside F)."""
    dead = np.zeros(g.n, dtype=bool)
    fs = list(set(f_set))
    dead[fs] = True
    live = g.n - len(fs)
    if live <= 1:
        return False
    keep = ~(dead[g.u] | dead[g.v])
    ones = np.ones(int(keep.sum()), dtype=np.int8)
    adj = coo_matrix((ones, (g.u[keep], g.v[keep])), shape=(g.n, g.n))
    count, _ = connected_components(adj, directed=False)
    return count - len(fs) >= 2
