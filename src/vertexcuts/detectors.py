"""Specialized terminal cut detectors: the base cases of the decomposition.

A terminal cut detector answers "cut" or "fail" on a query F with the
contract: "cut" answers are always genuine cuts of the detector's graph
(soundness); when F separates the detector's T but not its S, the answer is
"cut" (completeness).

The U/S detector (|U| <= 2f+2) stores one table row per W ⊆ U with |W| <= f:
a query F reads only the row W = F - S, and |W| <= |F| <= f. It works in
root ids and keeps no graph. ``build_us`` sweeps its graph once: it labels
the components of G-(S∪U) and their boundaries in S∪U, then derives each
row by merging the components that U-(S∪W) joins, so a row costs the
degrees of S∪U rather than a pass over the graph. ``us_trichotomy`` and the
tests' per-W recomputation stay on the plain BFS of
``graph.component_labels``.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import combinations
from typing import Iterable

import numpy as np

from .connectivity import FailureConnectivityOracle, build_conn_oracle
from .errors import (BudgetExceeded, DisconnectedInput, InvalidParams,
                     OutOfRange, QueryOutsideSU, TooManyFailures)
from .graph import Graph, component_labels, components


class DetectorAnswer(enum.Enum):
    CUT = "cut"
    FAIL = "fail"


class Trichotomy(enum.Enum):
    """Which option of the U/S structural lemma holds for (G, S, F)."""

    SEPARATES_S = "separates_s"
    SUPERSET_DISCONNECTED = "superset_disconnected"
    COMPONENT_SWALLOWED = "component_swallowed"
    NOT_A_CUT = "not_a_cut"


def _check_query(f_set: Iterable[int], f: int, g: Graph) -> frozenset[int]:
    fs = frozenset(f_set)
    if len(fs) > f:
        raise TooManyFailures(f"|F|={len(fs)} exceeds f={f}")
    g.check_vertices(fs)
    return fs


class FewTDetector:
    """Cut detector for few terminals: one connectivity sweep over T - F."""

    __slots__ = ("graph", "terminals", "f", "conn", "_terminal_index")

    def __init__(self, graph: Graph, terminals: frozenset[int], f: int,
                 conn: FailureConnectivityOracle):
        self.graph = graph
        self.terminals = terminals
        self.f = f
        self.conn = conn
        self._terminal_index = np.array(sorted(terminals), dtype=np.intp)

    def query(self, f_set: Iterable[int]) -> DetectorAnswer:
        return query_fewt(self, f_set)


def build_fewt(g: Graph, t_set: Iterable[int], f: int,
               conn: FailureConnectivityOracle | None = None) -> FewTDetector:
    ts = frozenset(t_set)
    g.check_vertices(ts)
    if not g.is_connected():
        raise DisconnectedInput("FewT detector requires a connected graph")
    return FewTDetector(g, ts, f, conn or build_conn_oracle(g, f))


def _separated(labels: np.ndarray, vertices) -> bool:
    """Whether the live ones among ``vertices`` span two components."""
    lab = labels[vertices]
    lab = lab[lab >= 0]
    return lab.size >= 2 and lab.min() != lab.max()


def query_fewt(d: FewTDetector, f_set: Iterable[int]) -> DetectorAnswer:
    fs = _check_query(f_set, d.f, d.graph)
    if len(d.terminals) - len(fs & d.terminals) <= 1:
        return DetectorAnswer.FAIL  # no live terminal pair to separate
    if _separated(d.conn.update(fs), d._terminal_index):
        return DetectorAnswer.CUT
    return DetectorAnswer.FAIL


class TEDetector:
    """Cut detector for terminal expanders: Steiner tree + connectivity oracle.

    Correctness needs only that tau is a tree of the graph spanning T; the
    tree's maximum degree governs speed and is recorded, not guaranteed.
    """

    __slots__ = ("graph", "terminals", "f", "tau_adj", "tau_max_degree", "conn")

    def __init__(self, graph, terminals, f, tau_adj, conn):
        self.graph = graph
        self.terminals = terminals
        self.f = f
        self.tau_adj = tau_adj
        self.tau_max_degree = max((len(a) for a in tau_adj.values()), default=0)
        self.conn = conn

    def query(self, f_set: Iterable[int]) -> DetectorAnswer:
        return query_te(self, f_set)


def _steiner_tree(g: Graph, terminals: list[int]) -> dict[int, tuple[int, ...]]:
    """BFS tree from the smallest terminal, pruned to the minimal subtree
    spanning the terminals. Returned as an adjacency dict over kept vertices.
    """
    root = terminals[0]
    parent = [-1] * g.n
    parent[root] = root
    order = [root]
    from collections import deque
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if parent[w] == -1:
                parent[w] = u
                queue.append(w)
    keep = set()
    for t in terminals:
        v = t
        while v not in keep:
            keep.add(v)
            if v == root:
                break
            v = parent[v]
    adj: dict[int, list[int]] = {v: [] for v in keep}
    for v in keep:
        if v != root:
            adj[v].append(parent[v])
            adj[parent[v]].append(v)
    return {v: tuple(sorted(a)) for v, a in adj.items()}


def build_te(g: Graph, t_set: Iterable[int], f: int,
             conn: FailureConnectivityOracle | None = None) -> TEDetector:
    ts = frozenset(t_set)
    g.check_vertices(ts)
    if not ts:
        raise InvalidParams("TE detector requires a nonempty terminal set")
    if not g.is_connected():
        raise DisconnectedInput("TE detector requires a connected graph")
    tau = _steiner_tree(g, sorted(ts))
    return TEDetector(g, ts, f, tau, conn or build_conn_oracle(g, f))


def query_te(d: TEDetector, f_set: Iterable[int]) -> DetectorAnswer:
    fs = _check_query(f_set, d.f, d.graph)
    nbrs: set[int] = set()
    for x in fs:
        nbrs.update(d.tau_adj.get(x, ()))
    nbrs -= fs
    if not nbrs:
        # F misses the Steiner tree entirely (or only borders itself), so the
        # tree survives in G - F and T cannot be separated.
        return DetectorAnswer.FAIL
    if _separated(d.conn.update(fs), list(nbrs)):
        return DetectorAnswer.CUT
    return DetectorAnswer.FAIL


def us_trichotomy(g: Graph, s_set: Iterable[int], f_set: Iterable[int]) -> Trichotomy:
    """Reference component analysis of the three ways F ⊆ V can be a cut
    relative to S: it separates S; it contains S and G-(S∪F) is disconnected;
    or G-(S∪F) has a component whose whole neighborhood lies in F.
    F is a cut in g iff the result is not NOT_A_CUT.
    """
    ss = frozenset(s_set)
    fs = frozenset(f_set)
    g.check_vertices(ss)
    g.check_vertices(fs)
    labels = component_labels(g, fs)
    live_s_labels = {labels[v] for v in ss - fs}
    if len(live_s_labels) >= 2:
        return Trichotomy.SEPARATES_S
    if fs >= ss:
        ncomp = max(labels, default=-1) + 1
        if ncomp >= 2:
            return Trichotomy.SUPERSET_DISCONNECTED
        return Trichotomy.NOT_A_CUT
    for comp in components(g, ss | fs):
        cset = set(comp)
        nbhd = set()
        for v in comp:
            nbhd.update(g.adj[v])
        if nbhd - cset <= fs:
            return Trichotomy.COMPONENT_SWALLOWED
    return Trichotomy.NOT_A_CUT


class USDetector:
    """Cut detector restricted to queries inside S ∪ U.

    For every W ⊆ U with |W| <= f it stores the sorted array of encoded
    neighbor-sets N(C) with |N(C)| <= f over components C of G-(S∪W), plus
    a connectivity bit for G-(S∪W). Encoding: tuple of vertex ids ascending
    (duplicates across components deduplicated; membership semantics
    unaffected). S, U, the row keys W and the neighbor-sets are root ids, so
    a query takes F in root ids, and the detector keeps no graph.
    """

    __slots__ = ("u_set", "s_set", "f", "f_connected", "tables")

    def __init__(self, u_set, s_set, f, f_connected, tables):
        self.u_set = u_set
        self.s_set = s_set
        self.f = f
        self.f_connected = f_connected
        self.tables = tables  # frozenset W -> (sorted list of id-tuples, connected bit)

    def query(self, f_set: Iterable[int]) -> DetectorAnswer:
        return query_us(self, f_set)


def build_us(g: Graph, u_set: Iterable[int], s_set: Iterable[int], f: int,
             f_connected: bool = False) -> USDetector:
    """US detector over g for U and S given in root ids, |U| <= 2f+2, with
    the rows of the W ⊆ U with |W| <= f.

    One DFS labels the components c of G0 = G-(S∪U) and collects each
    boundary B(c) ⊆ S∪U. The row of W puts L = U-(S∪W) back: the
    components of G-(S∪W) that change are the groups that L joins, through
    its edges to G0 and to itself, and a group's N(C) is the union of its
    B(c) and its L vertices' neighbors in S∪U, less L. Every component
    that L does not touch keeps N(C) = B(c). So a call costs O(n + m) once
    and then O(deg(S∪U) + #distinct B(c)) per row, not a pass over the
    graph per row. Rows are mapped to root ids as they are made.
    """
    us = frozenset(u_set)
    ss = frozenset(s_set)
    local = g.root_to_local
    outside = sorted((us | ss) - local.keys())
    if outside:
        raise OutOfRange(f"vertex {outside[0]} is not a root id of the graph")
    cap = 2 * f + 2
    if len(us) > cap:
        raise BudgetExceeded(f"|U|={len(us)} exceeds the US detector's cap of 2f+2 = {cap}")
    rid = g.root_ids
    removed = frozenset(local[r] for r in ss | us)
    bound = _boundaries(g, removed)
    keys = [tuple(sorted(rid[x] for x in b)) if len(b) <= f else None for b in bound]
    base = set(keys) - {None}
    # The components each returning vertex touches, and its neighbors in S∪U.
    touches: dict[int, list[int]] = {local[u]: [] for u in us - ss}
    for c, b in enumerate(bound):
        for u in b:
            if u in touches:
                touches[u].append(c)
    near = {u: removed.intersection(g.adj[u]) for u in touches}
    u_sorted = sorted(us)
    tables: dict[frozenset[int], tuple[list[tuple[int, ...]], bool]] = {}
    for r in range(min(f, len(u_sorted)) + 1):
        for w in combinations(u_sorted, r):
            ws = frozenset(w)
            live = {local[u] for u in us - ss - ws}
            # Each component L touches, with the L vertices touching it.
            joined: dict[int, list[int]] = {}
            for u in live:
                for c in touches[u]:
                    joined.setdefault(c, []).append(u)
            # A touched B(c) holds a vertex of L, so every component with
            # that boundary is touched too: its key leaves the row.
            seen = base - {keys[c] for c in joined}
            ncomp = len(bound) - len(joined)
            placed: set[int] = set()
            for start in live:
                if start in placed:
                    continue
                ncomp += 1
                placed.add(start)
                stack = [start]
                nbhd: set[int] = set()
                while stack:
                    u = stack.pop()
                    nbhd |= near[u]
                    reached = [x for x in near[u] if x in live]
                    for c in touches[u]:
                        if c in joined:
                            nbhd |= bound[c]
                            reached += joined.pop(c)
                    for x in reached:
                        if x not in placed:
                            placed.add(x)
                            stack.append(x)
                nbhd -= live
                if len(nbhd) <= f:
                    seen.add(tuple(sorted(rid[x] for x in nbhd)))
            tables[ws] = (sorted(seen), ncomp <= 1)
    return USDetector(us, ss, f, f_connected, tables)


def _boundaries(g: Graph, removed: frozenset[int]) -> list[set[int]]:
    """B(c) for the components c of g - removed, in order of discovery."""
    visited = [False] * g.n
    bound: list[set[int]] = []
    for s in range(g.n):
        if visited[s] or s in removed:
            continue
        here: set[int] = set()
        bound.append(here)
        visited[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w in removed:
                    here.add(w)
                elif not visited[w]:
                    visited[w] = True
                    stack.append(w)
    return bound


def _sorted_contains(arr: list[tuple[int, ...]], key: tuple[int, ...]) -> bool:
    i = bisect_left(arr, key)
    return i < len(arr) and arr[i] == key


def query_us(d: USDetector, f_set: Iterable[int]) -> DetectorAnswer:
    fs = frozenset(f_set)
    if len(fs) > d.f:
        raise TooManyFailures(f"|F|={len(fs)} exceeds f={d.f}")
    if not fs <= (d.s_set | d.u_set):
        raise QueryOutsideSU("US detector queried outside S ∪ U")
    w = fs - d.s_set
    arr, conn_bit = d.tables[w]
    if fs >= d.s_set:
        return DetectorAnswer.FAIL if conn_bit else DetectorAnswer.CUT
    if d.f_connected:
        # In an f-connected graph no stored N(C) is smaller than f, so only
        # F itself can match.
        if _sorted_contains(arr, tuple(sorted(fs))):
            return DetectorAnswer.CUT
        return DetectorAnswer.FAIL
    f_sorted = sorted(fs)
    for r in range(len(f_sorted) + 1):
        for sub in combinations(f_sorted, r):
            if _sorted_contains(arr, sub):
                return DetectorAnswer.CUT
    return DetectorAnswer.FAIL
