"""The assembled f-vertex cut oracle.

A terminal cut detector is an LR tree whose leaves carry FewT/TE detectors
and whose internal nodes carry US detectors; a tree-search query visits only
O(2^|F|) branch points. The oracle iterates terminal reduction (T starts at
V and shrinks to the union of separators) and stores one detector per round.
Three modes: general, f-connected (single-path queries, |F| = f only), and
hit-miss (a verified family of terminal subsets lets every US detector use an
empty U-set).
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .connectivity import FailureConnectivityOracle, build_conn_oracle
from .detectors import (DetectorAnswer, FewTDetector, TEDetector, USDetector,
                        build_fewt, build_te, build_us)
from .decomposition import (LRNode, LRTree, NodeKind, TreeParams, build_lr_tree)
from .errors import (ContractUnsatisfiable, DisconnectedInput, InvalidParams,
                     NotFConnected, TooManyFailures, VerificationFailed,
                     WrongQuerySize)
from .graph import Graph, is_f_connected, sparsify as sparsify_graph


class OracleMode(enum.Enum):
    GENERAL = "general"
    FCONNECTED = "fconnected"
    HITMISS = "hitmiss"


@dataclass
class QueryStats:
    """Per-detector-query accounting for the tree search.

    A stats object normally covers one detector query; the vectorized
    hit-miss path covers a whole batch of single-leaf detectors at once and
    sets batched_detectors accordingly, so the visit bound stays per
    detector."""

    query_size: int = 0
    tree_depth: int = 0
    nodes_visited: int = 0
    max_depth: int = 0                      # levels, root = 1
    branch_by_residual: Counter = field(default_factory=Counter)
    trim_nodes: int = 0
    step_visits: int = 0
    detector_queries: int = 0
    batched_detectors: int = 1

    def branch_law_ok(self) -> bool:
        """Branch nodes with residual size x number at most 2^(|F|-x)."""
        return all(cnt <= 2 ** (self.query_size - x)
                   for x, cnt in self.branch_by_residual.items())

    def visit_bound_ok(self, slack: int = 8) -> bool:
        bound = slack * max(1, self.tree_depth) * 2 ** self.query_size
        return self.nodes_visited <= bound * max(1, self.batched_detectors)


@dataclass
class _Leaf:
    det: FewTDetector | TEDetector
    root_map: dict[int, int]

    def query(self, f_root: frozenset[int]) -> DetectorAnswer:
        return self.det.query([self.root_map[r] for r in f_root])


@dataclass
class _USide:
    det: USDetector
    root_map: dict[int, int]

    def query(self, f_root: frozenset[int]) -> DetectorAnswer:
        return self.det.query([self.root_map[r] for r in f_root])


@dataclass
class DetectorNode:
    """A tree node after augmentation; per-node graphs are dropped and only
    membership sets (in root ids) remain, plus the attached detectors."""

    kind: NodeKind
    vset: frozenset[int]
    terminals: frozenset[int]
    sep: frozenset[int] = frozenset()
    left_side: frozenset[int] = frozenset()
    right_side: frozenset[int] = frozenset()
    u_left: frozenset[int] = frozenset()
    u_right: frozenset[int] = frozenset()
    u_s: frozenset[int] = frozenset()
    leaf: Optional[_Leaf] = None
    us_left: Optional[_USide] = None
    us_right: Optional[_USide] = None
    us_self: Optional[_USide] = None
    left: Optional["DetectorNode"] = None
    right: Optional["DetectorNode"] = None
    step: Optional["DetectorNode"] = None
    phi: Optional[Fraction] = None
    debug_graph: Optional[Graph] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None


class TerminalCutDetector:
    """An (f, T, S*)-cut detector: sound always, complete whenever F
    separates T but not S*."""

    def __init__(self, root: DetectorNode, s_star: frozenset[int], f: int,
                 terminals: frozenset[int], depth: int, fconnected: bool,
                 eps: Fraction, sum_vertices: int, sum_edges: int):
        self.root = root
        self.s_star = s_star
        self.f = f
        self.terminals = terminals
        self.depth = depth            # tree depth in levels (>= 1)
        self.fconnected = fconnected
        self.eps = eps
        self.sum_vertices = sum_vertices
        self.sum_edges = sum_edges

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


def _conn_for(graph: Graph, f: int,
              pool: dict[Graph, FailureConnectivityOracle]) -> FailureConnectivityOracle:
    # Leaves over equal node graphs, across all the detectors of one oracle,
    # share one oracle (io does the same on load); update() replaces the
    # failure set wholesale, so serial queries stay correct.
    conn = pool.get(graph)
    if conn is None:
        conn = pool[graph] = build_conn_oracle(graph, f)
    return conn


def _augment(node: LRNode, f: int, threshold: Fraction, fconnected: bool,
             debug: bool, pool: dict[Graph, FailureConnectivityOracle],
             empty_u: bool = False) -> DetectorNode:
    g = node.graph
    root_map = g.root_to_local
    det = DetectorNode(kind=node.kind, vset=node.vertex_set, terminals=node.terminals,
                       phi=node.phi, debug_graph=g if debug else None)
    if node.is_leaf:
        local_t = [root_map[r] for r in node.terminals]
        if node.kind is NodeKind.LEAF_EXPANDER and len(local_t) > threshold:
            leaf_det = build_te(g, local_t, f, conn=_conn_for(g, f, pool))
        else:
            leaf_det = build_fewt(g, local_t, f, conn=_conn_for(g, f, pool))
        det.leaf = _Leaf(leaf_det, root_map)
        return det
    det.sep = node.cut.sep
    det.left_side = node.cut.left
    det.right_side = node.cut.right
    det.u_left = node.u_left
    det.u_right = node.u_right
    det.u_s = node.u_s
    gl, gr = node.left.graph, node.right.graph
    if fconnected:
        local_s = [root_map[r] for r in node.cut.sep]
        det.us_self = _USide(build_us(g, [], local_s, f, f_connected=True), root_map)
    else:
        # Hit-miss detectors only see queries disjoint from their terminal
        # subset; the representatives are terminals, so U can be empty.
        u_root = frozenset() if empty_u else node.u_left | node.u_right
        sl = [gl.root_to_local[r] for r in node.cut.sep]
        ul = [gl.root_to_local[r] for r in u_root]
        det.us_left = _USide(build_us(gl, ul, sl, f), gl.root_to_local)
        sr = [gr.root_to_local[r] for r in node.cut.sep]
        ur = [gr.root_to_local[r] for r in u_root]
        det.us_right = _USide(build_us(gr, ur, sr, f), gr.root_to_local)
    det.left = _augment(node.left, f, threshold, fconnected, debug, pool, empty_u)
    det.right = _augment(node.right, f, threshold, fconnected, debug, pool, empty_u)
    if node.step is not None:
        det.step = _augment(node.step, f, threshold, fconnected, debug, pool, empty_u)
    return det


def build_detector(g: Graph, t_set: Iterable[int], f: int,
                   params: TreeParams | None = None,
                   fconnected: bool = False, debug: bool = False,
                   tree: LRTree | None = None,
                   empty_u: bool = False,
                   pool: dict[Graph, FailureConnectivityOracle] | None = None
                   ) -> TerminalCutDetector:
    """Build the LR tree for (g, t_set) and augment it into a cut detector.

    Leaves get FewT detectors (TE on large-terminal expander leaves); in the
    general mode every internal node gets US detectors for its left and right
    graphs with U = U_L ∪ U_R; in f-connected mode a single empty-U US
    detector on the node's own graph. Leaves share connectivity oracles
    through ``pool``, which a caller may pass to share them across detectors.
    """
    if tree is None:
        tree = build_lr_tree(g, t_set, f, params)
    if pool is None:
        pool = {}
    root = _augment(tree.root, f, tree.leaf_threshold, fconnected, debug, pool,
                    empty_u)
    return TerminalCutDetector(root, tree.s_star, f, frozenset(tree.root.terminals),
                               tree.depth, fconnected, tree.eps,
                               tree.sum_vertices, tree.sum_edges)


def build_detector_fconnected(g: Graph, t_set: Iterable[int], f: int,
                              params: TreeParams | None = None,
                              debug: bool = False) -> TerminalCutDetector:
    return build_detector(g, t_set, f, params, fconnected=True, debug=debug)


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
        return node.leaf.query(f_q)
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
        return node.leaf.query(f_q)
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
    and check against the retained node graph: a "cut" answer means F_q cuts
    G_q; if F_q separates T_q but not S* ∩ V(G_q), the answer must be "cut".
    """
    from .graph import is_cut_bruteforce, separates_terminals
    fs = frozenset(f_set)
    violations: list[str] = []
    for node in d.nodes():
        g = node.debug_graph
        if g is None:
            raise InvalidParams("node contracts need a debug build (debug=True)")
        f_q = fs & node.vset
        stats = QueryStats(query_size=len(f_q), tree_depth=d.depth)
        ans = _visit_general(node, f_q, 1, stats)
        f_local = [g.root_to_local[r] for r in f_q]
        t_local = [g.root_to_local[r] for r in node.terminals]
        s_local = [g.root_to_local[r] for r in d.s_star & node.vset]
        if ans is DetectorAnswer.CUT and not is_cut_bruteforce(g, f_local):
            violations.append(f"unsound at {node.kind.value}: F={sorted(f_q)}")
        if (separates_terminals(g, f_local, t_local)
                and not separates_terminals(g, f_local, s_local)
                and ans is not DetectorAnswer.CUT):
            violations.append(f"incomplete at {node.kind.value}: F={sorted(f_q)}")
    return violations


@dataclass
class HitMissFamily:
    """Subsets T_1..T_k of T such that every F with |F| <= f and u,v in T-F
    has some T_i missing F and containing both u and v."""

    subsets: tuple[frozenset[int], ...]
    t_set: frozenset[int]
    f: int
    verified: str  # "exhaustive" or "sampled"

    @property
    def k(self) -> int:
        return len(self.subsets)


def _family_property_holds(subsets: list[frozenset[int]], t_list: list[int], f: int,
                           exhaustive: bool, sample_checks: int, seed: int) -> bool:
    from itertools import combinations
    t = len(t_list)
    k = len(subsets)
    idx = {v: i for i, v in enumerate(t_list)}
    member = np.zeros((k, t), dtype=bool)
    for i, sub in enumerate(subsets):
        for v in sub:
            member[i, idx[v]] = True
    if exhaustive:
        for size in range(0, f + 1):
            for fs in combinations(range(t), size):
                miss = ~member[:, fs].any(axis=1) if fs else np.ones(k, dtype=bool)
                live = np.ones(t, dtype=bool)
                live[list(fs)] = False
                nlive = int(live.sum())
                if nlive == 0:
                    continue
                sub = member[miss][:, live]
                cov = sub.T.astype(np.int32) @ sub.astype(np.int32)
                if not (cov > 0).all():
                    return False
        return True
    import random as _random
    rng = _random.Random(seed)
    for _ in range(sample_checks):
        size = rng.randint(0, f)
        fs = rng.sample(range(t), size) if size else []
        live = [i for i in range(t) if i not in set(fs)]
        if not live:
            continue
        u = rng.choice(live)
        v = rng.choice(live)
        miss = ~member[:, fs].any(axis=1) if fs else np.ones(len(subsets), dtype=bool)
        if not (member[miss][:, u] & member[miss][:, v]).any():
            return False
    return True


def build_hit_miss_family(t_set: Iterable[int], f: int, n: int, seed: int = 0,
                          constant: float = 1.0, exhaustive_limit: int = 24,
                          sample_checks: int = 10_000,
                          max_rounds: int = 8) -> HitMissFamily:
    """Randomized family of k = constant*(f*log2 n)^3 subsets (each terminal
    joins each subset with probability 1/(f+1)), verified and resampled until
    the hit-miss property holds."""
    if f < 1:
        raise VerificationFailed("hit-miss family requires f >= 1")
    import random as _random
    ts = sorted(set(t_set))
    t = len(ts)
    k = max(1, math.ceil(constant * (f * math.log2(max(2, n))) ** 3))
    if t <= 1:
        # {T} hits the only terminal whenever F misses it; vacuously verified.
        return HitMissFamily((frozenset(ts),), frozenset(ts), f, "exhaustive")
    exhaustive = t <= exhaustive_limit
    for attempt in range(max_rounds):
        rng = _random.Random((seed << 4) ^ attempt ^ (t << 16))
        p = 1.0 / (f + 1)
        subsets = [frozenset(v for v in ts if rng.random() < p) for _ in range(k)]
        if _family_property_holds(subsets, ts, f, exhaustive, sample_checks,
                                  seed ^ 0x5EED ^ attempt):
            return HitMissFamily(tuple(subsets), frozenset(ts), f,
                                 "exhaustive" if exhaustive else "sampled")
        k = math.ceil(1.3 * k) + 8
    raise VerificationFailed(f"no verified hit-miss family after {max_rounds} rounds")


class _FewTBatch:
    """Vectorized evaluation of a round whose detectors are all single FewT
    leaves over the same graph (the common hit-miss shape at desk scale)."""

    def __init__(self, graph: Graph, f: int, subsets: tuple[frozenset[int], ...]):
        self.graph = graph
        self.conn = build_conn_oracle(graph, f)
        self.subsets = subsets
        # member[v, i]: vertex v is a terminal of subset i; rep[i]: one of them
        self.member = np.zeros((graph.n, len(subsets)), dtype=bool)
        self.rep = np.zeros(len(subsets), dtype=np.intp)
        for i, sub in enumerate(subsets):
            self.member[list(sub), i] = True
            self.rep[i] = min(sub, default=0)

    def query(self, fs: frozenset[int]) -> tuple[DetectorAnswer, QueryStats]:
        miss = ~self.member[sorted(fs)].any(axis=0)
        stats = QueryStats(query_size=len(fs), tree_depth=1,
                           nodes_visited=int(miss.sum()), max_depth=1,
                           detector_queries=int(miss.sum()),
                           batched_detectors=max(1, int(miss.sum())))
        if not miss.any():
            return DetectorAnswer.FAIL, stats
        self.conn.update(fs)
        # A subset that misses F is cut iff one of its terminals lies outside
        # the component of its rep. One n x k comparison, whatever the number
        # of components; int32 labels halve its cost.
        lab = self.conn.labels.astype(np.int32)
        strays = (lab[:, None] != lab[self.rep]) & self.member
        cut_rows = strays.any(axis=0) & miss
        return (DetectorAnswer.CUT if cut_rows.any() else DetectorAnswer.FAIL), stats


@dataclass
class RoundInfo:
    terminal_count: int
    s_star_count: int
    depth: int
    sum_vertices: int
    sum_edges: int
    family_k: int = 0
    family_verified: str = ""

    def manifest_entry(self) -> dict:
        return {
            "terminals": self.terminal_count,
            "s_star": self.s_star_count,
            "tree_depth": self.depth,
            "sum_vertices": self.sum_vertices,
            "sum_edges": self.sum_edges,
            **({"family_k": self.family_k, "family_verified": self.family_verified}
               if self.family_k else {}),
        }

    @classmethod
    def from_manifest_entry(cls, entry: dict) -> "RoundInfo":
        return cls(entry["terminals"], entry["s_star"], entry["tree_depth"],
                   entry["sum_vertices"], entry["sum_edges"],
                   entry.get("family_k", 0), entry.get("family_verified", ""))


class VertexCutOracle:
    """Stores the per-round cut detectors; a query F is a cut iff some round's
    detector answers "cut" (hit-miss: only detectors whose subset misses F)."""

    def __init__(self, graph: Graph, work: Graph, f: int, mode: OracleMode,
                 rounds, round_info: list[RoundInfo], manifest: dict):
        self.graph = graph
        self.work = work
        self.f = f
        self.mode = mode
        self.rounds = rounds
        self.round_info = round_info
        self.manifest = manifest

    def query(self, f_set: Iterable[int]) -> bool:
        return self.query_with_stats(f_set)[0]

    def clone(self) -> "VertexCutOracle":
        """Independent copy for concurrent query batches (queries mutate the
        embedded connectivity oracles, so threads need their own instance)."""
        from .io import oracle_from_bytes, oracle_to_bytes
        return oracle_from_bytes(oracle_to_bytes(self))

    def query_with_stats(self, f_set: Iterable[int]) -> tuple[bool, list[QueryStats]]:
        fs = frozenset(f_set)
        self.graph.check_vertices(fs)
        if len(fs) > self.f:
            raise TooManyFailures(f"|F|={len(fs)} exceeds f={self.f}")
        all_stats: list[QueryStats] = []
        if self.mode is OracleMode.FCONNECTED:
            if len(fs) < self.f:
                return False, all_stats  # smaller sets cannot cut an f-connected graph
            for det in self.rounds:
                ans, stats = det.query(fs)
                all_stats.append(stats)
                if ans is DetectorAnswer.CUT:
                    return True, all_stats
            return False, all_stats
        if self.mode is OracleMode.GENERAL:
            for det in self.rounds:
                ans, stats = det.query(fs)
                all_stats.append(stats)
                if ans is DetectorAnswer.CUT:
                    return True, all_stats
            return False, all_stats
        for rnd in self.rounds:  # hit-miss rounds
            if rnd.batch is not None:
                ans, stats = rnd.batch.query(fs)
                all_stats.append(stats)
                if ans is DetectorAnswer.CUT:
                    return True, all_stats
                continue
            for sub, det in zip(rnd.family.subsets, rnd.detectors):
                if sub & fs:
                    continue  # never query a detector whose subset meets F
                ans, stats = det.query(fs)
                all_stats.append(stats)
                if ans is DetectorAnswer.CUT:
                    return True, all_stats
        return False, all_stats


@dataclass
class HitMissRound:
    family: HitMissFamily
    detectors: list[TerminalCutDetector]
    s_star: frozenset[int]
    batch: Optional[_FewTBatch] = None


def _round_guard(i: int, n: int) -> None:
    if i > math.ceil(math.log2(max(2, n))) + 1:
        raise ContractUnsatisfiable("terminal reduction exceeded its round budget")


def build_oracle(g: Graph, f: int, mode: OracleMode = OracleMode.GENERAL,
                 params: TreeParams | None = None, *, use_sparsify: bool = True,
                 attest_f_connected: bool = False, debug: bool = False,
                 family_constant: float = 1.0, family_seed: int = 0,
                 family_exhaustive_limit: int = 24,
                 fconn_check_cap: int = 64) -> VertexCutOracle:
    """Preprocess g into an f-vertex cut oracle.

    The working graph is the sparse certificate of g unless disabled; every
    round builds a detector for the current terminal set and replaces it with
    the union of separators, which must at least halve.
    """
    if f < 1:
        raise TooManyFailures(f"oracle requires f >= 1, got {f}")
    g.check_vertices([])
    if not g.is_connected():
        raise DisconnectedInput("oracle requires a connected graph")
    params = params or TreeParams()
    work = sparsify_graph(g, f) if use_sparsify else g
    fconn_flag = ""
    if mode is OracleMode.FCONNECTED:
        if g.n <= fconn_check_cap:
            if not is_f_connected(g, f):
                raise NotFConnected(f"graph is not {f}-connected")
            fconn_flag = "verified"
        elif attest_f_connected:
            fconn_flag = "attested-unverified"
        else:
            raise NotFConnected(
                f"n={g.n} exceeds the exact-check cap; pass attest_f_connected=True")

    rounds = []
    info: list[RoundInfo] = []
    pool: dict[Graph, FailureConnectivityOracle] = {}
    terms = frozenset(range(work.n))
    i = 0
    while terms:
        _round_guard(i, work.n)
        if mode is OracleMode.HITMISS:
            rnd = _build_hitmiss_round(work, terms, f, params, family_constant,
                                       family_seed + i, debug,
                                       family_exhaustive_limit, pool)
            s_star = rnd.s_star
            info.append(RoundInfo(len(terms), len(s_star),
                                  max((d.depth for d in rnd.detectors), default=1),
                                  sum(d.sum_vertices for d in rnd.detectors),
                                  sum(d.sum_edges for d in rnd.detectors),
                                  family_k=rnd.family.k,
                                  family_verified=rnd.family.verified))
            rounds.append(rnd)
        else:
            det = build_detector(work, terms, f, params,
                                 fconnected=(mode is OracleMode.FCONNECTED),
                                 debug=debug, pool=pool)
            s_star = det.s_star
            info.append(RoundInfo(len(terms), len(s_star), det.depth,
                                  det.sum_vertices, det.sum_edges))
            rounds.append(det)
        if 2 * len(s_star) > len(terms):
            raise ContractUnsatisfiable(
                f"round {i}: |S*|={len(s_star)} exceeds half of |T|={len(terms)}")
        terms = s_star
        i += 1

    manifest = {
        "schema_version": 1,
        "n": g.n,
        "m": g.m,
        "f": f,
        "mode": mode.value,
        "sparsified": bool(use_sparsify),
        "work_edges": work.m,
        "f_connected_verification": fconn_flag,
        "rounds": [r.manifest_entry() for r in info],
    }
    return VertexCutOracle(g, work, f, mode, rounds, info, manifest)


def _build_hitmiss_round(work: Graph, terms: frozenset[int], f: int,
                         params: TreeParams, family_constant: float,
                         seed: int, debug: bool, exhaustive_limit: int,
                         pool: dict[Graph, FailureConnectivityOracle]) -> HitMissRound:
    family = build_hit_miss_family(terms, f, work.n, seed=seed,
                                   constant=family_constant,
                                   exhaustive_limit=exhaustive_limit)
    k = family.k
    if params.eps_override is not None:
        eps = Fraction(params.eps_override)
    else:
        denom = params.c * k * max(1.0, math.log2(max(2, len(terms))))
        eps = Fraction(1) / Fraction(denom)
    hm_params = TreeParams(c=params.c, eps_override=eps, singleton_mode=True,
                           enum_budget=params.enum_budget,
                           improve_budget=params.improve_budget,
                           pair_samples=params.pair_samples, seed=params.seed,
                           max_depth=params.max_depth)
    detectors = []
    s_star: set[int] = set()
    trivial = True
    for sub in family.subsets:
        det = build_detector(work, sub, f, hm_params, debug=debug, empty_u=True,
                             pool=pool)
        detectors.append(det)
        s_star.update(det.s_star)
        if not (det.root.is_leaf and det.root.kind is NodeKind.LEAF_FEWT
                and len(det.root.vset) == work.n):
            trivial = False
    batch = _FewTBatch(work, f, family.subsets) if trivial else None
    return HitMissRound(family, detectors, frozenset(s_star), batch)


def build_oracle_hitmiss(g: Graph, f: int, params: TreeParams | None = None,
                         **kwargs) -> VertexCutOracle:
    return build_oracle(g, f, OracleMode.HITMISS, params, **kwargs)


def query_oracle(o: VertexCutOracle, f_set: Iterable[int]) -> bool:
    return o.query(f_set)
