"""The assembled f-vertex cut oracle.

A terminal cut detector is an LR tree whose leaves carry FewT/TE detectors
and whose internal nodes carry US detectors; a tree-search query visits only
O(2^|F|) branch points. The oracle iterates terminal reduction (T starts at
V and shrinks to the union of separators) and stores one detector per round.
Three modes: general, f-connected (single-path queries, |F| = f only), and
hit-miss.

The paper's hit-miss mode draws a random family of terminal subsets and builds
one empty-U detector per subset. With k = ceil((f*log2 n)^3) subsets and eps =
1/(c*k*log2|T|), a subset of at most (f+1)/eps terminals is one few-terminals
leaf over the work graph, so a family is worth drawing only when
|T| > (f+1)*c*log2|T|*k. At T = V and c = 4 that first happens at n of about
1.39*10^6 for f = 1, 3.9*10^7 for f = 2 and 2.6*10^8 for f = 3. Below that,
every subset's detector is the same leaf over the work graph, and it answers
"cut" iff T - F meets two components of work - F. So this oracle builds a
hit-miss round as that one leaf over T = V at every size, with S* empty: one
round, no family.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .connectivity import FailureConnectivityOracle, build_conn_oracle
from .detectors import (DetectorAnswer, FewTDetector, TEDetector, USDetector,
                        build_fewt, build_te, build_us)
from .decomposition import LRNode, NodeKind, TreeParams, build_lr_tree
from .errors import (ContractUnsatisfiable, DisconnectedInput, InvalidParams,
                     NotFConnected, TooManyFailures, WrongQuerySize)
from .graph import FCONN_CHECK_CAP, Graph, is_f_connected, sparsify as sparsify_graph


# A tree search visits at most VISIT_SLACK * depth * 2^|F| nodes.
VISIT_SLACK = 8


class OracleMode(enum.Enum):
    GENERAL = "general"
    FCONNECTED = "fconnected"
    HITMISS = "hitmiss"


@dataclass
class QueryStats:
    """Per-detector-query accounting for the tree search."""

    query_size: int = 0
    tree_depth: int = 0
    nodes_visited: int = 0
    max_depth: int = 0                      # levels, root = 1
    branch_by_residual: Counter = field(default_factory=Counter)
    trim_nodes: int = 0
    step_visits: int = 0
    detector_queries: int = 0

    def branch_law_ok(self) -> bool:
        """Branch nodes with residual size x number at most 2^(|F|-x)."""
        return all(cnt <= 2 ** (self.query_size - x)
                   for x, cnt in self.branch_by_residual.items())

    def visit_bound_ok(self) -> bool:
        bound = VISIT_SLACK * max(1, self.tree_depth) * 2 ** self.query_size
        return self.nodes_visited <= bound


@dataclass
class DetectorNode:
    """A tree node after augmentation: per-node graphs are dropped, and what
    remains is the membership sets the search reads (in root ids) and the
    attached detectors. A leaf detector works in the ids of its own graph,
    reached from root ids through ``det.graph.root_to_local``; a US detector
    works in root ids and keeps no graph.

    ``vset`` is the node graph's vertex set. It is not stored in a container:
    a loaded leaf takes it from its leaf graph, and a loaded internal node as
    ``left_side | sep | right_side``, the partition its cut made. The node's
    terminals are not kept; a debug build keeps the LR node itself in ``lr``,
    with its graph and terminals, for ``verify_node_contracts``."""

    kind: NodeKind
    vset: frozenset[int]
    sep: frozenset[int] = frozenset()
    left_side: frozenset[int] = frozenset()
    right_side: frozenset[int] = frozenset()
    u_left: frozenset[int] = frozenset()
    u_right: frozenset[int] = frozenset()
    leaf: Optional[FewTDetector | TEDetector] = None
    us_left: Optional[USDetector] = None
    us_right: Optional[USDetector] = None
    us_self: Optional[USDetector] = None
    left: Optional["DetectorNode"] = None
    right: Optional["DetectorNode"] = None
    step: Optional["DetectorNode"] = None
    lr: Optional[LRNode] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None


class TerminalCutDetector:
    """An (f, T, S*)-cut detector: sound always, complete whenever F
    separates T but not S*.

    S* (the union of the internal nodes' separators), the depth in levels
    and the sum of the node graphs' vertex counts are read off the tree.
    The sum of their edge counts is given: the tree keeps no internal node
    graph."""

    def __init__(self, root: DetectorNode, f: int, terminals: frozenset[int],
                 fconnected: bool, sum_edges: int):
        self.root = root
        self.f = f
        self.terminals = terminals
        self.fconnected = fconnected
        self.sum_edges = sum_edges
        nodes = self.nodes()
        self.s_star = frozenset().union(*(node.sep for node in nodes))
        self.sum_vertices = sum(len(node.vset) for node in nodes)
        self.depth = _levels(root)

    def manifest_entry(self) -> dict:
        """This round's summary, as the manifest's ``rounds`` lists it."""
        return {
            "terminals": len(self.terminals),
            "s_star": len(self.s_star),
            "tree_depth": self.depth,
            "sum_vertices": self.sum_vertices,
            "sum_edges": self.sum_edges,
        }

    def query(self, f_set: Iterable[int]) -> tuple[DetectorAnswer, QueryStats]:
        if self.fconnected:
            return query_detector_fconnected(self, f_set)
        return query_detector(self, f_set)

    def nodes(self) -> list[DetectorNode]:
        out: list[DetectorNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            for child in (node.step, node.right, node.left):
                if child is not None:
                    stack.append(child)
        return out


def _levels(node: DetectorNode) -> int:
    return 1 + max((_levels(c) for c in (node.left, node.right, node.step)
                    if c is not None), default=0)


def _conn_for(graph: Graph, f: int,
              pool: dict[Graph, FailureConnectivityOracle]) -> FailureConnectivityOracle:
    # Leaves over equal node graphs, across all the detectors of one oracle,
    # share one oracle (io does the same on load). Queries only read it, and
    # its memo of the last F saves a recomputation when leaves over one graph
    # in different rounds see the same F.
    conn = pool.get(graph)
    if conn is None:
        conn = pool[graph] = build_conn_oracle(graph, f)
    return conn


def _augment(node: LRNode, f: int, threshold: Fraction, fconnected: bool,
             debug: bool, pool: dict[Graph, FailureConnectivityOracle]) -> DetectorNode:
    g = node.graph
    det = DetectorNode(kind=node.kind, vset=node.vertex_set,
                       lr=node if debug else None)
    if node.is_leaf:
        local_t = [g.root_to_local[r] for r in node.terminals]
        if node.kind is NodeKind.LEAF_EXPANDER and len(local_t) > threshold:
            det.leaf = build_te(g, local_t, f, conn=_conn_for(g, f, pool))
        else:
            det.leaf = build_fewt(g, local_t, f, conn=_conn_for(g, f, pool))
        return det
    det.sep = node.cut.sep
    det.left_side = node.cut.left
    det.right_side = node.cut.right
    det.u_left = node.u_left
    det.u_right = node.u_right
    if fconnected:
        det.us_self = build_us(g, [], node.cut.sep, f, f_connected=True)
    else:
        u_root = node.u_left | node.u_right
        det.us_left = build_us(node.left.graph, u_root, node.cut.sep, f)
        det.us_right = build_us(node.right.graph, u_root, node.cut.sep, f)
    det.left = _augment(node.left, f, threshold, fconnected, debug, pool)
    det.right = _augment(node.right, f, threshold, fconnected, debug, pool)
    if node.step is not None:
        det.step = _augment(node.step, f, threshold, fconnected, debug, pool)
    return det


def build_detector(g: Graph, t_set: Iterable[int], f: int,
                   params: TreeParams | None = None,
                   fconnected: bool = False, debug: bool = False,
                   pool: dict[Graph, FailureConnectivityOracle] | None = None
                   ) -> TerminalCutDetector:
    """Build the LR tree for (g, t_set) and augment it into a cut detector.

    Leaves get FewT detectors (TE on large-terminal expander leaves); in the
    general mode every internal node gets US detectors for its left and right
    graphs with U = U_L ∪ U_R; in f-connected mode a single empty-U US
    detector on the node's own graph. Leaves share connectivity oracles
    through ``pool``, which a caller may pass to share them across detectors.
    """
    tree = build_lr_tree(g, t_set, f, params)
    if pool is None:
        pool = {}
    root = _augment(tree.root, f, tree.leaf_threshold, fconnected, debug, pool)
    return TerminalCutDetector(root, f, frozenset(tree.root.terminals), fconnected,
                               tree.sum_edges)


def _ask(det: FewTDetector | TEDetector, f_root: frozenset[int]) -> DetectorAnswer:
    """Query a leaf's detector with F given in root ids."""
    root_map = det.graph.root_to_local
    return det.query([root_map[r] for r in f_root])


def _visit_general(node: DetectorNode, f_q: frozenset[int], depth: int,
                   stats: QueryStats) -> DetectorAnswer:
    """One recursive call of the tree search: Leaf / Trim Right / Trim Left /
    Branch. Children are explored left first; the OR over children
    short-circuits on the first "cut"."""
    stats.nodes_visited += 1
    stats.max_depth = max(stats.max_depth, depth)
    if node.is_leaf:
        stats.detector_queries += 1
        if node.kind is NodeKind.LEAF_STEPCHILD:
            stats.step_visits += 1
        return _ask(node.leaf, f_q)
    f_l = f_q & node.left.vset
    f_r = f_q & node.right.vset
    if f_q & node.right_side <= node.u_right:
        stats.trim_nodes += 1
        stats.detector_queries += 1
        if node.us_right.query(f_r) is DetectorAnswer.CUT:
            return DetectorAnswer.CUT
        return _visit_general(node.left, f_l, depth + 1, stats)
    if f_q & node.left_side <= node.u_left:
        stats.trim_nodes += 1
        stats.detector_queries += 1
        if node.us_left.query(f_l) is DetectorAnswer.CUT:
            return DetectorAnswer.CUT
        if _visit_general(node.right, f_r, depth + 1, stats) is DetectorAnswer.CUT:
            return DetectorAnswer.CUT
        if node.step is not None:
            if _visit_general(node.step, f_r, depth + 1, stats) is DetectorAnswer.CUT:
                return DetectorAnswer.CUT
        return DetectorAnswer.FAIL
    stats.branch_by_residual[len(f_q)] += 1
    for child, f_c in ((node.left, f_l), (node.right, f_r), (node.step, f_r)):
        if child is not None:
            if _visit_general(child, f_c, depth + 1, stats) is DetectorAnswer.CUT:
                return DetectorAnswer.CUT
    return DetectorAnswer.FAIL


def query_detector(d: TerminalCutDetector, f_set: Iterable[int]) -> tuple[DetectorAnswer, QueryStats]:
    fs = frozenset(f_set)
    if len(fs) > d.f:
        raise TooManyFailures(f"|F|={len(fs)} exceeds f={d.f}")
    stats = QueryStats(query_size=len(fs), tree_depth=d.depth)
    answer = _visit_general(d.root, fs & d.root.vset, 1, stats)
    return answer, stats


def _visit_fconnected(node: DetectorNode, f_q: frozenset[int], depth: int,
                      stats: QueryStats) -> DetectorAnswer:
    """Single-path variant: Leaf / Trim (F inside S) / Fail (F straddles both
    sides) / Recurse into the one side containing F."""
    stats.nodes_visited += 1
    stats.max_depth = max(stats.max_depth, depth)
    if node.is_leaf:
        stats.detector_queries += 1
        if node.kind is NodeKind.LEAF_STEPCHILD:
            stats.step_visits += 1
        return _ask(node.leaf, f_q)
    if f_q <= node.sep:
        stats.trim_nodes += 1
        stats.detector_queries += 1
        return node.us_self.query(f_q)
    in_left = bool(f_q & node.left_side)
    in_right = bool(f_q & node.right_side)
    if in_left and in_right:
        return DetectorAnswer.FAIL
    if in_left:
        return _visit_fconnected(node.left, f_q & node.left.vset, depth + 1, stats)
    if _visit_fconnected(node.right, f_q & node.right.vset, depth + 1, stats) is DetectorAnswer.CUT:
        return DetectorAnswer.CUT
    if node.step is not None:
        if _visit_fconnected(node.step, f_q & node.step.vset, depth + 1, stats) is DetectorAnswer.CUT:
            return DetectorAnswer.CUT
    return DetectorAnswer.FAIL


def query_detector_fconnected(d: TerminalCutDetector, f_set: Iterable[int]) -> tuple[DetectorAnswer, QueryStats]:
    fs = frozenset(f_set)
    if len(fs) > d.f:
        raise TooManyFailures(f"|F|={len(fs)} exceeds f={d.f}")
    if len(fs) != d.f:
        raise WrongQuerySize(f"f-connected detector requires |F| = f = {d.f}")
    stats = QueryStats(query_size=len(fs), tree_depth=d.depth)
    answer = _visit_fconnected(d.root, fs & d.root.vset, 1, stats)
    return answer, stats


def verify_node_contracts(d: TerminalCutDetector, f_set: Iterable[int]) -> list[str]:
    """Instrumented per-node contract check for debug builds (general mode).

    For every tree node q, re-run the search from q with F_q = F ∩ V(G_q)
    and check against the LR node that a debug build retains, with its graph
    G_q and terminals T_q: a "cut" answer means F_q cuts G_q; if F_q
    separates T_q but not S* ∩ V(G_q), the answer must be "cut".
    """
    from .graph import is_cut_bruteforce, separates_terminals
    fs = frozenset(f_set)
    violations: list[str] = []
    for node in d.nodes():
        if node.lr is None:
            raise InvalidParams("node contracts need a debug build (debug=True)")
        g = node.lr.graph
        f_q = fs & node.vset
        stats = QueryStats(query_size=len(f_q), tree_depth=d.depth)
        ans = _visit_general(node, f_q, 1, stats)
        f_local = [g.root_to_local[r] for r in f_q]
        t_local = [g.root_to_local[r] for r in node.lr.terminals]
        s_local = [g.root_to_local[r] for r in d.s_star & node.vset]
        if ans is DetectorAnswer.CUT and not is_cut_bruteforce(g, f_local):
            violations.append(f"unsound at {node.kind.value}: F={sorted(f_q)}")
        if (separates_terminals(g, f_local, t_local)
                and not separates_terminals(g, f_local, s_local)
                and ans is not DetectorAnswer.CUT):
            violations.append(f"incomplete at {node.kind.value}: F={sorted(f_q)}")
    return violations


class VertexCutOracle:
    """Stores the per-round cut detectors; a query F is a cut iff some round's
    detector answers "cut"."""

    def __init__(self, graph: Graph, work: Graph, f: int, mode: OracleMode,
                 rounds: list[TerminalCutDetector], manifest: dict):
        self.graph = graph
        self.work = work
        self.f = f
        self.mode = mode
        self.rounds = rounds
        self.manifest = manifest

    def query(self, f_set: Iterable[int]) -> bool:
        return self.query_with_stats(f_set)[0]

    def query_with_stats(self, f_set: Iterable[int]) -> tuple[bool, list[QueryStats]]:
        fs = frozenset(f_set)
        self.graph.check_vertices(fs)
        if len(fs) > self.f:
            raise TooManyFailures(f"|F|={len(fs)} exceeds f={self.f}")
        all_stats: list[QueryStats] = []
        if self.mode is OracleMode.FCONNECTED and len(fs) < self.f:
            return False, all_stats  # smaller sets cannot cut an f-connected graph
        for det in self.rounds:
            ans, stats = det.query(fs)
            all_stats.append(stats)
            if ans is DetectorAnswer.CUT:
                return True, all_stats
        return False, all_stats


def build_oracle(g: Graph, f: int, mode: OracleMode = OracleMode.GENERAL,
                 params: TreeParams | None = None, *,
                 attest_f_connected: bool = False) -> VertexCutOracle:
    """Preprocess g into an f-vertex cut oracle.

    The working graph is the sparse certificate of g; every round builds a
    detector for the current terminal set and replaces it with the union of
    separators, which must at least halve. The f-connected mode checks its
    precondition exactly up to FCONN_CHECK_CAP vertices; above that the
    caller must attest it.
    """
    if f < 1:
        raise TooManyFailures(f"oracle requires f >= 1, got {f}")
    g.check_vertices([])
    if not g.is_connected():
        raise DisconnectedInput("oracle requires a connected graph")
    params = params or TreeParams()
    work = sparsify_graph(g, f)
    fconn_flag = ""
    if mode is OracleMode.FCONNECTED:
        if g.n <= FCONN_CHECK_CAP:
            if not is_f_connected(g, f):
                raise NotFConnected(f"graph is not {f}-connected")
            fconn_flag = "verified"
        elif attest_f_connected:
            fconn_flag = "attested-unverified"
        else:
            raise NotFConnected(
                f"n={g.n} exceeds the exact-check cap of {FCONN_CHECK_CAP} vertices; "
                "pass attest_f_connected=True")

    rounds: list[TerminalCutDetector] = []
    pool: dict[Graph, FailureConnectivityOracle] = {}
    terms = frozenset(range(work.n))
    while terms:
        if mode is OracleMode.HITMISS:
            det = _build_hitmiss_round(work, terms, f, pool)
        else:
            det = build_detector(work, terms, f, params,
                                 fconnected=(mode is OracleMode.FCONNECTED), pool=pool)
        if 2 * len(det.s_star) > len(terms):
            raise ContractUnsatisfiable(f"round {len(rounds)}: |S*|={len(det.s_star)} "
                                        f"exceeds half of |T|={len(terms)}")
        rounds.append(det)
        terms = det.s_star

    manifest = {
        "schema_version": 1,
        "n": g.n,
        "m": g.m,
        "f": f,
        "mode": mode.value,
        "sparsified": True,
        "work_edges": work.m,
        "f_connected_verification": fconn_flag,
        "rounds": [det.manifest_entry() for det in rounds],
    }
    return VertexCutOracle(g, work, f, mode, rounds, manifest)


def _build_hitmiss_round(work: Graph, terms: frozenset[int], f: int,
                         pool: dict[Graph, FailureConnectivityOracle]
                         ) -> TerminalCutDetector:
    """A hit-miss round over the terminals ``terms``: one few-terminals leaf
    over the work graph with S* empty, which answers "cut" iff T - F meets
    two components of work - F (see the module docstring)."""
    leaf = DetectorNode(NodeKind.LEAF_FEWT, work.root_vertex_set(),
                        leaf=build_fewt(work, terms, f, conn=_conn_for(work, f, pool)))
    return TerminalCutDetector(leaf, f, terms, False, work.m)
