"""Graph representation, ground-truth cut machinery and the exact checks
the decomposition stands on.

``component_labels``, ``is_cut_bruteforce`` and ``separates_terminals`` are
the naive reference that the oracle/label structures are tested against, so
they stay deliberately simple (plain BFS). The exact checks share two
kernels with the sparse-cut finder in ``decomposition``: the split-graph
max-flow ``min_st_separator`` (behind ``is_f_connected`` and
``min_vertex_cut_size``, cross-checked against networkx in the tests) and
the component-grouping DP ``_subset_sum_states`` (behind
``is_terminal_expander``).

The max-flow runs over numpy arrays. A Graph builds its split graph once,
on the first flow, and caches it (``_split_graph``): a flat ``head`` array
whose arc i has reverse arc i ^ 1, the initial capacities, and the arcs in
CSR order by tail. Each augmenting BFS is level-synchronous: one vectorized
gather expands a whole frontier, and every node-disjoint path the BFS tree
gives into the sink is augmented. The separator is read from the residual
graph of a maximum flow, whose source side does not depend on the paths
chosen, so it is the same separator a plain queue BFS finds.

Vertex ids are dense 0..n-1. A subgraph carries ``root_ids`` mapping its
local ids back to the ids of the graph it was cut from, so that
"F restricted to this subgraph" is a plain set intersection in root space.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedInput, InvalidParams, OutOfRange, SizeCapExceeded


class Graph:
    """Immutable undirected simple graph.

    Invariants: no self loops, no parallel edges, adjacency symmetric and
    sorted, ``m == sum(degrees)/2``.
    """

    __slots__ = ("n", "edges", "adj", "root_ids", "_edge_set", "_root_to_local",
                 "_connected", "_split")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 root_ids: Sequence[int] | None = None):
        if n < 0:
            raise InvalidParams(f"vertex count must be nonnegative, got {n}")
        self.n = n
        canon = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRange(f"edge ({u},{v}) outside [0,{n})")
            if u == v:
                raise InvalidParams(f"self-loop at {u}")
            canon.add((u, v) if u < v else (v, u))
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        self._edge_set = frozenset(self.edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        if root_ids is None:
            self.root_ids = tuple(range(n))
        else:
            self.root_ids = tuple(root_ids)
            if len(self.root_ids) != n:
                raise InvalidParams("root_ids length must equal n")
        self._root_to_local = None
        self._connected = None
        self._split = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_set

    @property
    def root_to_local(self) -> dict[int, int]:
        if self._root_to_local is None:
            self._root_to_local = {r: i for i, r in enumerate(self.root_ids)}
        return self._root_to_local

    def root_vertex_set(self) -> frozenset[int]:
        return frozenset(self.root_ids)

    def check_vertices(self, vs: Iterable[int]) -> None:
        for v in vs:
            if not (0 <= v < self.n):
                raise OutOfRange(f"vertex {v} outside [0,{self.n})")

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on ``vertices`` (local ids), relabeled densely.

        The new graph's root_ids compose through this graph's root_ids.
        """
        vs = sorted(set(vertices))
        self.check_vertices(vs)
        pos = {v: i for i, v in enumerate(vs)}
        edges = [(pos[u], pos[v]) for u, v in self.edges if u in pos and v in pos]
        return Graph(len(vs), edges, root_ids=[self.root_ids[v] for v in vs])

    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = self.n <= 1 or component_count(self) == 1
        return self._connected

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.edges == other.edges and self.root_ids == other.root_ids)

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.root_ids))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def component_labels(g: Graph, removed: Iterable[int] = ()) -> list[int]:
    """BFS component labeling of g - removed.

    Returns a list of length n: label -1 for removed vertices, otherwise a
    component index (0-based, in order of discovery from the smallest id).
    """
    dead = set(removed)
    g.check_vertices(dead)
    labels = [-1] * g.n
    comp = 0
    for s in range(g.n):
        if labels[s] != -1 or s in dead:
            continue
        labels[s] = comp
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if labels[w] == -1 and w not in dead:
                    labels[w] = comp
                    queue.append(w)
        comp += 1
    return labels


def component_count(g: Graph, removed: Iterable[int] = ()) -> int:
    labels = component_labels(g, removed)
    return max(labels, default=-1) + 1


def components(g: Graph, removed: Iterable[int] = ()) -> list[list[int]]:
    """Connected components of g - removed as sorted vertex lists."""
    labels = component_labels(g, removed)
    out: dict[int, list[int]] = {}
    for v, lab in enumerate(labels):
        if lab >= 0:
            out.setdefault(lab, []).append(v)
    return [out[k] for k in sorted(out)]


def is_cut_bruteforce(g: Graph, f_set: Iterable[int]) -> bool:
    """Ground truth for "is F a vertex cut": g - F has >= 2 components.

    Removing every vertex (or leaving <= 1) is "not a cut". Requires a
    connected input graph; a disconnected graph makes every F trivially a
    "cut" and is rejected instead of picking a semantics for it.
    """
    fs = set(f_set)
    g.check_vertices(fs)
    if not g.is_connected():
        raise DisconnectedInput("is_cut_bruteforce requires a connected graph")
    return component_count(g, fs) >= 2


def separates_terminals(g: Graph, f_set: Iterable[int], t_set: Iterable[int]) -> bool:
    """True iff two terminals of t_set - f_set lie in different components of g - f_set."""
    fs = set(f_set)
    ts = set(t_set)
    g.check_vertices(fs)
    g.check_vertices(ts)
    labels = component_labels(g, fs)
    seen = None
    for t in ts:
        if t in fs:
            continue
        if seen is None:
            seen = labels[t]
        elif labels[t] != seen:
            return True
    return False


def sparsify(g: Graph, f: int) -> Graph:
    """Nagamochi-Ibaraki scan-forest certificate, keeping the first f+1
    forests. The result H has <= (f+1)*n edges and, for every F with |F| <= f
    and s,t outside F, s-t connectivity in H-F equals that in g-F.

    The scan repeatedly picks the unscanned vertex v with the largest rank,
    assigns each edge to a still-unscanned neighbor u to forest r(u)+1, and
    bumps u's rank. Plain iterated maximal spanning forests do NOT have the
    vertex-failure property (they can starve a vertex of its cross edges);
    the scan order is what makes the certificate work.
    """
    if f < 1:
        raise InvalidParams(f"sparsify requires f >= 1, got {f}")
    n = g.n
    rank = [0] * n
    scanned = [False] * n
    kept: list[tuple[int, int]] = []
    for _ in range(n):
        v = -1
        for u in range(n):
            if not scanned[u] and (v == -1 or rank[u] > rank[v]):
                v = u
        if v == -1:
            break
        for u in g.adj[v]:
            if not scanned[u]:
                if rank[u] + 1 <= f + 1:
                    kept.append((v, u) if v < u else (u, v))
                rank[u] += 1
        scanned[v] = True
    return Graph(n, kept, root_ids=g.root_ids)


def _subset_sum_states(counts: list[int]):
    """DP over component terminal counts. State = (sum, used_any, excluded_any).
    Returns one backpointer layer per component so groupings can be rebuilt."""
    layers: list[dict[tuple[int, bool, bool], object]] = [{(0, False, False): None}]
    for c in counts:
        prev = layers[-1]
        new: dict[tuple[int, bool, bool], object] = {}
        for st in sorted(prev):
            s, u, e = st
            take = (s + c, True, e)
            skip = (s, u, True)
            if take not in new:
                new[take] = (st, True)
            if skip not in new:
                new[skip] = (st, False)
        layers.append(new)
    return layers


def _reconstruct(layers, target) -> list[int]:
    taken = []
    st = target
    for i in range(len(layers) - 1, 0, -1):
        prev, took = layers[i][st]
        if took:
            taken.append(i - 1)
        st = prev
    return taken


def _terminal_counts(g: Graph, sep: Iterable[int], ts: frozenset[int] | set[int]
                     ) -> tuple[list[int], list[int], int]:
    """Component labels of g - sep, the terminal count of each component,
    and |ts ∩ sep|."""
    labels = component_labels(g, sep)
    counts = [0] * (max(labels, default=-1) + 1)
    for t in ts:
        if labels[t] >= 0:
            counts[labels[t]] += 1
    return labels, counts, sum(1 for v in sep if v in ts)


def _separators_within(n: int, s_max: int, budget: int) -> bool:
    """True iff there are at most budget separators of 1..s_max vertices out
    of n. Stops summing binomials as soon as the total passes the budget."""
    total = 0
    for k in range(1, s_max + 1):
        total += comb(n, k)
        if total > budget:
            return False
    return True


def is_terminal_expander(g: Graph, t_set: Iterable[int], phi,
                         size_cap: int = 64, work_budget: int = 2_000_000) -> bool:
    """Decide if g is a (T, phi)-expander: every vertex cut (L,S,R) has
    |S| >= phi * min(|T ∩ (L∪S)|, |T ∩ (R∪S)|).

    Any violating separator has |S| < phi*|T|, so only subsets below that
    size are enumerated; for each disconnecting S, the last layer of the
    grouping DP over component terminal counts gives every two-sided split.
    """
    phi = Fraction(phi)
    if not (0 < phi <= 1):
        raise InvalidParams(f"phi must be in (0,1], got {phi}")
    ts = sorted(set(t_set))
    g.check_vertices(ts)
    if g.n > size_cap:
        raise SizeCapExceeded(f"n={g.n} exceeds size cap {size_cap}")
    t_count = len(ts)
    bound = phi * t_count  # violating S has |S| < bound
    s_max = int(bound) - 1 if bound.denominator == 1 else int(bound)
    s_max = min(s_max, g.n - 2)  # a cut leaves at least 2 vertices
    if not _separators_within(g.n, s_max, work_budget):
        raise SizeCapExceeded(f"enumerating separators of up to {s_max} of {g.n} "
                              f"vertices exceeds budget {work_budget}")
    tset = set(ts)
    for size in range(0, s_max + 1):
        for sep in combinations(range(g.n), size):
            _, counts, t_in_s = _terminal_counts(g, sep, tset)
            if len(counts) < 2:
                continue
            live = t_count - t_in_s
            best = max(min(x, live - x)
                       for (x, used, excl) in _subset_sum_states(counts)[-1]
                       if used and excl)
            if size < phi * (t_in_s + best):
                return False
    return True


def _split_graph(g: Graph):
    """The split graph of g as flat arrays, built once per Graph.

    Vertex v becomes the arc v_in = 2v -> v_out = 2v+1 of capacity 1, each
    edge uv the arcs u_out -> v_in and v_out -> u_in of capacity n. Arc i
    runs from head[i ^ 1] to head[i], so its reverse is arc i ^ 1 (capacity
    0). order lists the arcs by tail, and the arcs leaving node x are
    order[start[x]:start[x + 1]]. Returns (head, cap, order, start).
    """
    if g._split is None:
        n, m = g.n, g.m
        uv = np.fromiter(chain.from_iterable(g.edges), dtype=np.int32, count=2 * m)
        u, v = uv[0::2], uv[1::2]
        head = np.empty(2 * n + 4 * m, dtype=np.int32)
        head[0:2 * n:2] = 2 * np.arange(n, dtype=np.int32) + 1
        head[1:2 * n:2] = 2 * np.arange(n, dtype=np.int32)
        head[2 * n::4] = 2 * v
        head[2 * n + 1::4] = 2 * u + 1
        head[2 * n + 2::4] = 2 * u
        head[2 * n + 3::4] = 2 * v + 1
        cap = np.zeros(len(head), dtype=np.int32)
        cap[0:2 * n:2] = 1
        cap[2 * n::2] = n
        tail = head.reshape(-1, 2)[:, ::-1].ravel()
        order = np.argsort(tail, kind="stable").astype(np.int32)
        start = np.zeros(2 * n + 1, dtype=np.int32)
        np.cumsum(np.bincount(tail, minlength=2 * n), out=start[1:])
        g._split = (head, cap, order, start)
    return g._split


def min_st_separator(g: Graph, s: int, t: int, cap: int) -> list[int] | None:
    """Minimum s-t vertex separator (s, t distinct and non-adjacent) as a
    sorted list, or None when it has more than cap vertices.

    Even-Tarjan unit-capacity max-flow on the split graph of ``_split_graph``,
    whose arrays are built once per Graph; a call copies only the residual
    capacities. Each BFS from s_out runs level by level until it reaches
    t_in: one gather takes every arc leaving the frontier (through the CSR
    order by tail), keeps those with residual capacity into unvisited nodes,
    and records one reaching arc per new node. The recorded arcs form a tree,
    so the paths it gives into t_in from different reached predecessors are
    node-disjoint until they meet; each path that meets none taken before in
    this round is still residual and is augmented. At most cap + 1 paths are
    sought. The separator is read from the last BFS, which reached no t_in:
    the vertices whose v_in it reaches and whose v_out it does not. That
    source side is the same for every maximum flow, so the separator does
    not depend on which augmenting paths were taken.
    """
    g.check_vertices((s, t))
    if s == t or g.has_edge(s, t):
        raise InvalidParams(f"min_st_separator needs distinct non-adjacent s, t; got {s}, {t}")
    if cap < 0:
        raise InvalidParams(f"cap must be nonnegative, got {cap}")
    head, initial, order, start = _split_graph(g)
    end = start[1:]
    res = initial.copy()  # residual capacities
    source, sink = 2 * s + 1, 2 * t
    into_sink = order[start[sink]:end[sink]] ^ 1
    flow = 0
    while True:
        via = np.full(2 * g.n, -1, dtype=np.int32)  # arc that reached each node
        via[source] = -2
        front = np.array([source], dtype=np.int32)
        while front.size and via[sink] == -1:
            lo = start[front]
            lens = end[front] - lo
            offs = lens.cumsum()
            idx = np.repeat(lo - offs + lens, lens)  # each arc's slot in order
            idx += np.arange(offs[-1], dtype=np.int32)
            arcs = order[idx]
            arcs = arcs[res[arcs] > 0]
            b = head[arcs]
            new = via[b] == -1
            arcs, b = arcs[new], b[new]
            via[b] = arcs  # one write per node survives
            front = b[via[b] == arcs]
        if via[sink] == -1:
            seen = via != -1
            return np.flatnonzero(seen[0::2] & ~seen[1::2]).tolist()
        used: set[int] = set()
        for i in into_sink[(res[into_sink] > 0) & (via[head[into_sink ^ 1]] != -1)].tolist():
            path, nodes = [i], []
            b = int(head[i ^ 1])
            while b != source and b not in used:
                nodes.append(b)
                path.append(int(via[b]))
                b = int(head[path[-1] ^ 1])
            if b != source:
                continue  # shares a node with a path taken in this round
            if flow == cap:
                return None
            used.update(nodes)
            arcs = np.array(path)
            res[arcs] -= 1
            res[arcs ^ 1] += 1
            flow += 1


# Largest graph whose f-connectivity the library checks exactly where a
# precondition or a generator needs it: build_oracle's f-connected mode,
# gen_f_connected and full_validation.
FCONN_CHECK_CAP = 64


def is_f_connected(g: Graph, f: int) -> bool:
    """True iff g has no vertex cut of size < f.

    Complete graphs have no vertex cuts at all, hence are f-connected for
    every f. Otherwise this reduces to vertex connectivity >= f: no
    separator of at most f-1 vertices between f+1 pivot vertices and their
    non-neighbors (min_st_separator).
    """
    if f <= 0:
        return True
    if not g.is_connected():
        return False
    if g.m == g.n * (g.n - 1) // 2:
        return True
    if g.n <= f:
        # Non-complete graph on <= f vertices always has a cut of size <= n-2 < f.
        return False
    pivots = range(min(f + 1, g.n))
    for s in pivots:
        nbhd = set(g.adj[s])
        for t in range(g.n):
            if t == s or t in nbhd:
                continue
            if min_st_separator(g, s, t, f - 1) is not None:
                return False
    return True


def min_vertex_cut_size(g: Graph) -> int | None:
    """Size of a minimum vertex cut, or None if the graph has no cut (complete).

    One pass: best starts at the minimum degree (the neighbors of a vertex
    of least degree are a cut) and each flow asks only for a separator of
    at most best - 1 vertices. Pivots 0, 1, ... run while the pivot index is
    at most best, so best + 1 of them do: one lies outside a minimum cut
    and reaches across it to a non-neighbor. Requires a connected input.
    """
    if not g.is_connected():
        raise DisconnectedInput("min_vertex_cut_size requires a connected graph")
    if g.m == g.n * (g.n - 1) // 2:
        return None
    best = min(len(a) for a in g.adj)
    s = 0
    while s <= best:
        nbhd = set(g.adj[s])
        for t in range(g.n):
            if t == s or t in nbhd:
                continue
            sep = min_st_separator(g, s, t, best - 1)
            if sep is not None:
                best = len(sep)
        s += 1
    return best
