"""Graph representation and ground-truth cut machinery.

Everything here is pure and brute-force oriented: these routines are the
independent reference that the oracle/label structures are tested against,
so they stay deliberately simple (plain BFS / DSU / enumeration).

Vertex ids are dense 0..n-1. A subgraph carries ``root_ids`` mapping its
local ids back to the ids of the graph it was cut from, so that
"F restricted to this subgraph" is a plain set intersection in root space.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import DisconnectedInput, InvalidParams, OutOfRange, SizeCapExceeded


class Graph:
    """Immutable undirected simple graph.

    Invariants: no self loops, no parallel edges, adjacency symmetric and
    sorted, ``m == sum(degrees)/2``.
    """

    __slots__ = ("n", "edges", "adj", "root_ids", "_edge_set", "_root_to_local",
                 "_connected")

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


class DisjointSet:
    """Union-find with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]
        return True


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


def _achievable_min_side(counts: Sequence[int], total: int) -> int:
    """Max over groupings of components into two nonempty groups of
    min(terminals in group, terminals outside). Bitmask subset-sum DP where
    dp[used][excluded] tracks sums with >= 1 component taken / left out.
    """
    dp = [[0, 0], [0, 0]]
    dp[0][0] = 1
    for c in counts:
        ndp = [[0, 0], [0, 0]]
        for u in (0, 1):
            for e in (0, 1):
                mask = dp[u][e]
                if not mask:
                    continue
                ndp[1][e] |= mask << c
                ndp[u][1] |= mask
        dp = ndp
    mask = dp[1][1]
    best = -1
    s = 0
    while mask:
        if mask & 1:
            best = max(best, min(s, total - s))
        mask >>= 1
        s += 1
    return best


def is_terminal_expander(g: Graph, t_set: Iterable[int], phi,
                         size_cap: int = 64, work_budget: int = 2_000_000) -> bool:
    """Decide if g is a (T, phi)-expander: every vertex cut (L,S,R) has
    |S| >= phi * min(|T ∩ (L∪S)|, |T ∩ (R∪S)|).

    Any violating separator has |S| < phi*|T|, so only subsets below that
    size are enumerated; for each disconnecting S, a subset-sum DP over
    component terminal counts searches for a violating two-sided grouping.
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
    if s_max < 0:
        s_max = -1
    work = sum(comb(g.n, k) for k in range(1, s_max + 1))
    if work > work_budget:
        raise SizeCapExceeded(f"enumeration of {work} separators exceeds budget")
    tset = set(ts)
    for size in range(0, s_max + 1):
        for sep in combinations(range(g.n), size):
            labels = component_labels(g, sep)
            ncomp = max(labels, default=-1) + 1
            if ncomp < 2:
                continue
            counts = [0] * ncomp
            for t in ts:
                if labels[t] >= 0:
                    counts[labels[t]] += 1
            t_in_s = sum(1 for v in sep if v in tset)
            best = _achievable_min_side(counts, t_count - t_in_s)
            if best < 0:
                continue
            if size < phi * (t_in_s + best):
                return False
    return True


def _st_vertex_flow_at_least(g: Graph, s: int, t: int, k: int) -> bool:
    """True iff >= k internally vertex-disjoint s-t paths exist (s,t non-adjacent).

    Unit-capacity vertex-split max-flow with BFS augmentation, stopping at k.
    Nodes 2v = v_in, 2v+1 = v_out; internal arc capacity 1 except at s,t.
    """
    nn = 2 * g.n
    cap: dict[tuple[int, int], int] = {}
    big = g.n + k + 1
    for v in range(g.n):
        cap[(2 * v, 2 * v + 1)] = big if v in (s, t) else 1
    for u, v in g.edges:
        cap[(2 * u + 1, 2 * v)] = big
        cap[(2 * v + 1, 2 * u)] = big
    out: list[list[int]] = [[] for _ in range(nn)]
    for (a, b) in list(cap):
        out[a].append(b)
        if (b, a) not in cap:
            cap[(b, a)] = 0
            out[b].append(a)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < k:
        prev = [-1] * nn
        prev[source] = source
        queue = deque([source])
        while queue and prev[sink] == -1:
            a = queue.popleft()
            for b in out[a]:
                if prev[b] == -1 and cap[(a, b)] > 0:
                    prev[b] = a
                    queue.append(b)
        if prev[sink] == -1:
            return False
        b = sink
        while b != source:
            a = prev[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1
    return True


def is_f_connected(g: Graph, f: int) -> bool:
    """True iff g has no vertex cut of size < f.

    Complete graphs have no vertex cuts at all, hence are f-connected for
    every f. Otherwise this reduces to vertex connectivity >= f, checked by
    max-flow between f+1 pivot vertices and their non-neighbors.
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
            if not _st_vertex_flow_at_least(g, s, t, f):
                return False
    return True


def min_vertex_cut_size(g: Graph) -> int | None:
    """Size of a minimum vertex cut, or None if the graph has no cut (complete).

    Requires a connected input.
    """
    if not g.is_connected():
        raise DisconnectedInput("min_vertex_cut_size requires a connected graph")
    if g.m == g.n * (g.n - 1) // 2:
        return None
    k = 1
    while is_f_connected(g, k):
        k += 1
    return k - 1
