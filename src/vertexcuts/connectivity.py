"""f-vertex-failure (st) connectivity from a DFS spanning forest.

``FailureConnectivityOracle`` answers "are s and t connected in G - F?" for
|F| <= f, following the spanning-tree decomposition behind Duan–Pettie
(SODA 2010) and Kosinas (ESA 2023). Once per oracle, lazily at the first
``update``/``connected``/``labels`` call, it prepares a DFS spanning forest
of G: the pre-order and the position and subtree size of every vertex, and
the pre-order positions of both ends of every non-tree edge as numpy arrays.
Oracles that are built but never queried prepare nothing.

Removing F splits the forest into pieces: what is left of each tree, and the
subtree of every child c not in F of every x in F, less the failed subtrees
nested in it. Each piece is a pre-order interval minus nested intervals, so
there are at most (#trees) + sum over x in F of deg_T(x) of them. ``update``
paints those intervals, outermost first, into an array of piece ids by
position. A tree edge between two pieces always has an end in F, so only
non-tree edges with two live ends join pieces: one gather of the piece ids at
both ends of every non-tree edge, the distinct piece pairs among them
(counted with ``np.bincount`` while there are at most 64 pieces, sorted with
``np.unique`` past that), and a small union-find over the pairs of live
pieces give the components of G - F.

Cost of an update: O(deg_T(F) log deg_T(F) + pieces^2) Python work, plus
numpy passes over the non-tree edges and the positions (O(m + n f) element
operations, since intervals nest at most f deep). Any spanning forest would
be exact; a DFS forest keeps tree degrees, and so the piece count, low.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import QueriedFailedVertex, TooManyFailures
from .graph import Graph

# Piece pairs are found by counting while the count table (width^2 entries)
# stays small; past this many pieces, by sorting. On perfbench gnp-general
# (n = 2000, f = 3, a handful of pieces) sorting alone doubled query p50.
_COUNT_WIDTH_MAX = 64


class _Forest:
    """A DFS spanning forest of a graph, in pre-order positions (immutable)."""

    __slots__ = ("pos", "size", "order", "trees", "tree_of_pos",
                 "vertex_pos", "nt_a", "nt_b")

    def __init__(self, g: Graph):
        n, adj = g.n, g.adj
        pos = [-1] * n
        parent = [-1] * n
        order: list[int] = []
        tree_sizes: list[int] = []
        for root in range(n):
            if pos[root] >= 0:
                continue
            first = len(order)
            pos[root] = first
            order.append(root)
            stack = [(root, iter(adj[root]))]
            while stack:
                v, rest = stack[-1]
                for w in rest:
                    if pos[w] < 0:
                        pos[w] = len(order)
                        order.append(w)
                        parent[w] = v
                        stack.append((w, iter(adj[w])))
                        break
                else:
                    stack.pop()
            tree_sizes.append(len(order) - first)
        size = [1] * n
        for v in reversed(order):
            if parent[v] >= 0:
                size[parent[v]] += size[v]
        self.pos, self.size, self.order = pos, size, order
        self.trees = len(tree_sizes)
        self.vertex_pos = np.array(pos, dtype=np.intp)
        self.tree_of_pos = np.repeat(np.arange(self.trees, dtype=np.intp), tree_sizes)
        ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
        par = np.array(parent, dtype=np.intp)
        a, b = ends[:, 0], ends[:, 1]
        off_tree = (par[a] != b) & (par[b] != a)
        self.nt_a = self.vertex_pos[a[off_tree]]
        self.nt_b = self.vertex_pos[b[off_tree]]

    def components(self, fs: frozenset[int]) -> np.ndarray:
        """Component label of every vertex in G - fs, -1 on fs."""
        pos, size, order = self.pos, self.size, self.order
        k = self.trees
        heads = []  # (start, end, piece id) of every subtree that F cuts off
        for x in fs:
            # The children of x, in pre-order, each right after the last's subtree.
            p, end = pos[x] + 1, pos[x] + size[x]
            while p < end:
                c = order[p]
                if c not in fs:
                    heads.append((p, p + size[c], k))
                    k += 1
                p += size[c]
        # Ids below self.trees are what is left of each tree, and k marks F.
        # The intervals are laminar; painted in order of start, each position
        # ends with the id of the innermost interval that holds it.
        heads.sort()
        piece = self.tree_of_pos.copy()
        for start, end, pid in heads:
            piece[start:end] = pid
        piece[[pos[x] for x in fs]] = k
        # Distinct (piece, piece) pairs over the non-tree edges.
        width = k + 1
        keys = piece[self.nt_a] * width + piece[self.nt_b]
        if width <= _COUNT_WIDTH_MAX:
            pairs = np.flatnonzero(np.bincount(keys, minlength=width * width))
        else:
            pairs = np.unique(keys)
        up: dict[int, int] = {}  # union-find links over piece ids

        def find(p: int) -> int:
            while p in up:
                p = up[p]
            return p

        for key in pairs.tolist():
            a, b = divmod(key, width)
            if a != b and a != k and b != k:
                ra, rb = find(a), find(b)
                if ra != rb:
                    up[ra] = rb
        remap = np.arange(width, dtype=np.intp)
        remap[k] = -1
        for p in up:
            remap[p] = find(p)
        return _frozen(remap[piece[self.vertex_pos]])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class FailureConnectivityOracle:
    """Answers s-t connectivity in G - F after update(F), for |F| <= f."""

    __slots__ = ("graph", "f", "failed", "_labels", "_forest")

    def __init__(self, graph: Graph, f: int):
        self.graph = graph
        self.f = f
        self.failed: frozenset[int] = frozenset()
        self._labels: np.ndarray | None = None
        self._forest: _Forest | None = None

    def _components(self) -> np.ndarray:
        if self._forest is None:
            self._forest = _Forest(self.graph)
        return self._forest.components(self.failed)

    def update(self, f_set: Iterable[int]) -> None:
        """Replace the failure set; queries then refer to G - f_set."""
        fs = frozenset(f_set)
        if len(fs) > self.f:
            raise TooManyFailures(f"|F|={len(fs)} exceeds f={self.f}")
        self.graph.check_vertices(fs)
        if fs == self.failed and self._labels is not None:
            return  # same failure set: labeling already current
        self.failed = fs
        self._labels = self._components()

    def connected(self, s: int, t: int) -> bool:
        self.graph.check_vertices((s, t))
        if s in self.failed or t in self.failed:
            raise QueriedFailedVertex(f"query ({s},{t}) touches the failure set")
        labels = self.labels
        return bool(labels[s] == labels[t])

    @property
    def labels(self) -> np.ndarray:
        """Component labels of G - F (-1 on failed vertices), read-only."""
        if self._labels is None:
            self._labels = self._components()
        return self._labels

    def clone(self) -> "FailureConnectivityOracle":
        # The forest and the labels are immutable, so the copy shares them.
        other = object.__new__(FailureConnectivityOracle)
        other.graph = self.graph
        other.f = self.f
        other.failed = self.failed
        other._labels = self._labels
        other._forest = self._forest
        return other


def build_conn_oracle(g: Graph, f: int) -> FailureConnectivityOracle:
    """Oracle in the "no failures" state. f >= 0; f = 0 only answers static
    connectivity. Preparation waits for the first query."""
    if f < 0:
        raise TooManyFailures(f"f must be nonnegative, got {f}")
    return FailureConnectivityOracle(g, f)
