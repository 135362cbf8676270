"""Left/right graph splitting, the sparse-cut finder, the LR decomposition
tree, and the cut-respecting terminal-expander decomposition export.

The splitting takes a sparse terminal cut (L,S,R) of an instance (G,T) and
produces two smaller instances: the left graph keeps L ∪ S plus a small
clique of representatives for R (wired as a biclique to S), and symmetrically
for the right graph. Cuts of the originals translate to terminal cuts of the
pieces as long as they do not separate S; the union of all separators used
across the recursion is at most half the terminal count, which drives the
terminal-reduction iteration of the assembled oracle.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .errors import (ContractUnsatisfiable, DisconnectedInput, InvalidCut,
                     InvalidParams, SizeCapExceeded)
from .graph import (Graph, _reconstruct, _separators_within, _subset_sum_states,
                    _terminal_counts, is_cut_bruteforce, is_terminal_expander,
                    min_st_separator, separates_terminals)
from .reporting import ValidationReport


@dataclass(frozen=True)
class VertexCutPartition:
    """A partition (L,S,R) of the vertex set with no L-R edges."""

    left: frozenset[int]
    sep: frozenset[int]
    right: frozenset[int]

    def validate(self, g: Graph) -> None:
        total = len(self.left) + len(self.sep) + len(self.right)
        union = self.left | self.sep | self.right
        g.check_vertices(union)
        if total != g.n or len(union) != g.n:
            raise InvalidCut("L,S,R must partition the vertex set")
        if not self.degenerate and (not self.left or not self.right):
            raise InvalidCut("L and R must both be nonempty (or L=S=empty)")
        for u, v in g.edges:
            if (u in self.left and v in self.right) or (v in self.left and u in self.right):
                raise InvalidCut(f"edge ({u},{v}) crosses L-R")

    @property
    def degenerate(self) -> bool:
        return not self.left and not self.sep


@dataclass(frozen=True)
class LeftRightPair:
    """The two instances split off a cut; u_left/u_right are the
    representative sets, in the parent graph's local ids."""

    g_left: Graph
    g_right: Graph
    u_left: frozenset[int]
    u_right: frozenset[int]


def _representatives(side: list[int], t_set: frozenset[int], f: int) -> frozenset[int]:
    ordered = sorted(v for v in side if v in t_set) + sorted(v for v in side if v not in t_set)
    return frozenset(ordered[:f + 1])


def _one_side(g: Graph, keep_side: frozenset[int], sep: frozenset[int],
              reps: frozenset[int]) -> Graph:
    verts = sorted(keep_side | sep | reps)
    pos = {v: i for i, v in enumerate(verts)}
    edges = {(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos}
    for u, v in combinations(sorted(reps), 2):
        edges.add((pos[u], pos[v]))
    for u in reps:
        for s in sep:
            a, b = pos[u], pos[s]
            edges.add((a, b) if a < b else (b, a))
    return Graph(len(verts), edges, root_ids=[g.root_ids[v] for v in verts])


def build_left_right(g: Graph, t_set: Iterable[int], cut: VertexCutPartition,
                     f: int) -> LeftRightPair:
    """Split (g, t_set) along a T-cut per the representative-clique rule.

    All ids are local to g. The returned graphs carry root-id maps composed
    through g's.
    """
    ts = frozenset(t_set)
    g.check_vertices(ts)
    cut.validate(g)
    u_right = _representatives(sorted(cut.right), ts, f)
    u_left = _representatives(sorted(cut.left), ts, f)
    g_left = _one_side(g, cut.left, cut.sep, u_right)
    g_right = _one_side(g, cut.right, cut.sep, u_left)
    return LeftRightPair(g_left, g_right, u_left, u_right)


class CutCase(enum.Enum):
    BALANCED = "balanced"
    EXPANDER = "expander"


@dataclass(frozen=True)
class SparseCutResult:
    cut: VertexCutPartition
    case_tag: CutCase
    expansion_witness: Optional[Fraction] = None
    certificate: str = ""  # "enumeration" or "connectivity-bound" for expanders


def _try_balanced(g: Graph, sep: tuple[int, ...], ts: frozenset[int],
                  eps: Fraction, t_all: int, f: int) -> VertexCutPartition | None:
    """Group the components of g - sep into a balanced sparse T-cut, if any
    grouping satisfies the contract. Deterministic choice: the grouping whose
    smaller terminal side is largest.

    Both sides must have > f+1 vertices. In the intended parameter regime
    (eps <= 1/6) every qualifying balanced cut satisfies this anyway; the
    explicit filter guarantees that splitting always shrinks both children,
    so the recursion terminates under any eps override.
    """
    labels, counts, t_in_s = _terminal_counts(g, sep, ts)
    if len(counts) < 2:
        return None
    live = t_all - t_in_s
    layers = _subset_sum_states(counts)
    s_size = len(sep)
    best = None
    for (x, used, excl) in layers[-1]:
        if not (used and excl):
            continue
        y = live - x
        if x < 1 or y < 1:
            continue
        if 3 * (t_in_s + x) < t_all or 3 * (t_in_s + y) < t_all:
            continue
        if s_size > eps * (t_in_s + max(x, y)):
            continue
        key = (min(x, y), -abs(x - y))
        if best is None or key > best[0]:
            best = (key, (x, used, excl))
    if best is None:
        return None
    target = best[1]
    a_comps = set(_reconstruct(layers, target))
    side_a = frozenset(v for v in range(g.n) if labels[v] >= 0 and labels[v] in a_comps)
    side_b = frozenset(v for v in range(g.n) if labels[v] >= 0 and labels[v] not in a_comps)
    if min(len(side_a), len(side_b)) <= f + 1:
        return None
    ta = len(side_a & ts)
    tb = len(side_b & ts)
    # Orient so the sparsity bound |S| <= eps*|T ∩ (L∪S)| holds on the left.
    if ta >= tb:
        left, right = side_a, side_b
    else:
        left, right = side_b, side_a
    cut = VertexCutPartition(left, frozenset(sep), right)
    if s_size > eps * (t_in_s + len(left & ts)):
        return None
    return cut


def _certify_expansion(g: Graph, ts: frozenset[int], improve_budget: int) -> tuple[Fraction, str]:
    """Largest phi we can afford to certify for (g, ts).

    Falls back to the always-true connectivity bound phi = 1/|T| (every
    separator of a connected graph has size >= 1)."""
    t = max(1, len(ts))
    for phi in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        if phi <= Fraction(1, t):
            break
        try:
            if is_terminal_expander(g, ts, phi, size_cap=g.n, work_budget=improve_budget):
                return phi, "enumeration"
            # Not an expander at this phi; try a weaker one.
        except SizeCapExceeded:
            continue
    return Fraction(1, t), "connectivity-bound"


def find_balanced_or_expander(g: Graph, t_set: Iterable[int], eps, f: int,
                              enum_budget: int = 150_000,
                              improve_budget: int = 30_000,
                              pair_samples: int = 8,
                              seed: int = 0) -> SparseCutResult:
    """Reference sparse-cut finder honoring the balanced-or-expander contract.

    Small graphs: exhaustive separator enumeration up to size eps*|T| with a
    component-grouping DP. Larger graphs: sampled terminal-pair minimum
    vertex cuts. When no qualifying balanced cut is found, the whole graph is
    returned as the expander case (L=S=empty) with a certified expansion.
    """
    eps = Fraction(eps)
    ts = frozenset(t_set)
    g.check_vertices(ts)
    if not g.is_connected():
        raise ContractUnsatisfiable("finder requires a connected graph")
    if not ts:
        raise InvalidParams("terminal set must be nonempty")
    t_all = len(ts)
    bound = eps * t_all
    s_max = min(int(bound), g.n - 2)
    if s_max >= 1:
        if _separators_within(g.n, s_max, enum_budget):
            for size in range(1, s_max + 1):
                for sep in combinations(range(g.n), size):
                    cut = _try_balanced(g, sep, ts, eps, t_all, f)
                    if cut is not None:
                        return SparseCutResult(cut, CutCase.BALANCED)
        else:
            rng = random.Random(seed ^ (g.n << 8) ^ t_all)
            tlist = sorted(ts)
            pairs = []
            if len(tlist) >= 2:
                for _ in range(pair_samples):
                    s, t = rng.sample(tlist, 2)
                    pairs.append((s, t))
            seen: set[tuple[int, ...]] = set()
            for s, t in pairs:
                if g.has_edge(s, t):
                    continue
                sep = min_st_separator(g, s, t, s_max)
                if sep is None or not sep or tuple(sep) in seen:
                    continue
                seen.add(tuple(sep))
                cut = _try_balanced(g, tuple(sep), ts, eps, t_all, f)
                if cut is not None:
                    return SparseCutResult(cut, CutCase.BALANCED)
    phi, how = _certify_expansion(g, ts, improve_budget)
    cut = VertexCutPartition(frozenset(), frozenset(), frozenset(range(g.n)))
    return SparseCutResult(cut, CutCase.EXPANDER, phi, how)


class NodeKind(enum.Enum):
    INTERNAL_BALANCED = "internal_balanced"
    INTERNAL_EXPANDER = "internal_expander"
    LEAF_FEWT = "leaf_fewt"
    LEAF_EXPANDER = "leaf_expander"
    LEAF_STEPCHILD = "leaf_stepchild"


@dataclass
class TreeParams:
    """Knobs for the LR-tree construction.

    eps defaults to 1/(c*log2|T|); eps_override replaces it (testing knob to
    force deep recursion on small graphs). The leaf threshold is (f+1)/eps.
    """

    c: float = 4.0
    eps_override: Optional[Fraction] = None
    enum_budget: int = 150_000
    improve_budget: int = 30_000
    pair_samples: int = 8
    seed: int = 0
    max_depth: Optional[int] = None

    def eps_for(self, t_count: int) -> Fraction:
        if self.eps_override is not None:
            return Fraction(self.eps_override)
        denom = self.c * max(1.0, math.log2(max(2, t_count)))
        return Fraction(1) / Fraction(denom)


@dataclass
class LRNode:
    kind: NodeKind
    graph: Graph
    terminals: frozenset[int]          # root-space ids
    depth: int
    cut: Optional[VertexCutPartition] = None   # root-space, internal only
    u_left: frozenset[int] = frozenset()
    u_right: frozenset[int] = frozenset()
    u_s: frozenset[int] = frozenset()
    left: Optional["LRNode"] = None
    right: Optional["LRNode"] = None
    step: Optional["LRNode"] = None
    phi: Optional[Fraction] = None
    phi_certificate: str = ""

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.graph.root_ids)

    @property
    def is_leaf(self) -> bool:
        return self.kind in (NodeKind.LEAF_FEWT, NodeKind.LEAF_EXPANDER,
                             NodeKind.LEAF_STEPCHILD)

    def children(self) -> list["LRNode"]:
        return [c for c in (self.left, self.right, self.step) if c is not None]


@dataclass
class LRTree:
    root: LRNode
    nodes: list[LRNode]
    s_star: frozenset[int]
    f: int
    eps: Fraction
    leaf_threshold: Fraction
    params: TreeParams
    depth: int            # counted in levels; a single-node tree has depth 1
    sum_vertices: int
    sum_edges: int


def _root_set(g: Graph, locals_: Iterable[int]) -> frozenset[int]:
    return frozenset(g.root_ids[v] for v in locals_)


def build_lr_tree(g: Graph, t_set: Iterable[int], f: int,
                  params: TreeParams | None = None) -> LRTree:
    """Recursive left/right decomposition of (g, t_set).

    Nodes with at most (f+1)/eps terminals become leaves. Otherwise the
    sparse-cut finder splits the node: balanced cuts recurse on both sides;
    expander cuts recurse on the left only, with the right child and a
    stepchild (representatives-only terminal set) as permanent leaves.
    """
    params = params or TreeParams()
    ts_root = frozenset(t_set)
    g.check_vertices(ts_root)
    if not g.is_connected():
        raise DisconnectedInput("LR tree requires a connected graph")
    eps = params.eps_for(len(ts_root))
    threshold = Fraction(f + 1) / eps
    max_depth = params.max_depth
    if max_depth is None:
        max_depth = max(32, g.n + 4)
    nodes: list[LRNode] = []
    s_star: set[int] = set()

    def grow(graph: Graph, terms_root: frozenset[int], depth: int,
             forced_leaf: NodeKind | None = None,
             phi: Fraction | None = None, cert: str = "") -> LRNode:
        if depth >= max_depth:
            raise ContractUnsatisfiable(
                f"LR recursion exceeded depth cap {max_depth}; eps={eps} gives no shrink guarantee")
        if forced_leaf is not None:
            node = LRNode(forced_leaf, graph, terms_root, depth, phi=phi, phi_certificate=cert)
            nodes.append(node)
            return node
        if len(terms_root) <= threshold:
            node = LRNode(NodeKind.LEAF_FEWT, graph, terms_root, depth)
            nodes.append(node)
            return node
        local_terms = frozenset(graph.root_to_local[r] for r in terms_root)
        res = find_balanced_or_expander(
            graph, local_terms, eps, f,
            enum_budget=params.enum_budget, improve_budget=params.improve_budget,
            pair_samples=params.pair_samples, seed=params.seed)
        pair = build_left_right(graph, local_terms, res.cut, f)
        cut_root = VertexCutPartition(_root_set(graph, res.cut.left),
                                      _root_set(graph, res.cut.sep),
                                      _root_set(graph, res.cut.right))
        ul_root = _root_set(graph, pair.u_left)
        ur_root = _root_set(graph, pair.u_right)
        t_in_s = sorted(terms_root & cut_root.sep)
        us_root = frozenset(t_in_s[:f + 1])
        s_star.update(cut_root.sep)
        kind = (NodeKind.INTERNAL_BALANCED if res.case_tag is CutCase.BALANCED
                else NodeKind.INTERNAL_EXPANDER)
        node = LRNode(kind, graph, terms_root, depth, cut=cut_root,
                      u_left=ul_root, u_right=ur_root, u_s=us_root)
        nodes.append(node)
        vl = frozenset(pair.g_left.root_ids)
        vr = frozenset(pair.g_right.root_ids)
        if res.case_tag is CutCase.BALANCED:
            node.left = grow(pair.g_left, terms_root & vl, depth + 1)
            node.right = grow(pair.g_right, terms_root & vr, depth + 1)
        else:
            node.left = grow(pair.g_left, terms_root & vl, depth + 1)
            node.right = grow(pair.g_right, terms_root & cut_root.right, depth + 1,
                              forced_leaf=NodeKind.LEAF_EXPANDER,
                              phi=res.expansion_witness, cert=res.certificate)
            node.step = grow(pair.g_right, ul_root | ur_root | us_root, depth + 1,
                             forced_leaf=NodeKind.LEAF_STEPCHILD)
        return node

    root = grow(g, ts_root, 0)
    depth_levels = max(n.depth for n in nodes) + 1
    return LRTree(root=root, nodes=nodes, s_star=frozenset(s_star), f=f, eps=eps,
                  leaf_threshold=threshold, params=params, depth=depth_levels,
                  sum_vertices=sum(n.graph.n for n in nodes),
                  sum_edges=sum(n.graph.m for n in nodes))


def validate_lr_tree(tree: LRTree, g: Graph, t_set: Iterable[int],
                     size_multiplier: int = 6,
                     expander_recheck_cap: int = 24) -> ValidationReport:
    """Check the structural tree properties: leaf shapes, depth, terminal
    reduction, size accounting, per-split shrink and counting inequalities."""
    ts = frozenset(t_set)
    rep = ValidationReport()
    f = tree.f
    eps = tree.eps
    thr = tree.leaf_threshold

    bad = []
    for node in tree.nodes:
        if node.kind is NodeKind.LEAF_FEWT and len(node.terminals) > thr:
            bad.append(f"fewt leaf with {len(node.terminals)} terminals > {thr}")
        if node.kind is NodeKind.LEAF_STEPCHILD and len(node.terminals) > 3 * (f + 1):
            bad.append("stepchild leaf with too many terminals")
        if node.kind is NodeKind.LEAF_EXPANDER:
            if node.phi is None:
                bad.append("expander leaf without recorded phi")
            elif node.graph.n <= expander_recheck_cap:
                local_t = frozenset(node.graph.root_to_local[r] for r in node.terminals
                                    if r in node.graph.root_to_local)
                try:
                    if local_t and not is_terminal_expander(node.graph, local_t, node.phi,
                                                            size_cap=expander_recheck_cap):
                        bad.append(f"expander leaf fails recheck at phi={node.phi}")
                except SizeCapExceeded:
                    pass
        if not node.is_leaf and len(node.terminals) <= thr:
            bad.append("internal node at or below the leaf threshold")
    rep.add("leaves-expander-or-small", not bad, "; ".join(bad[:4]))

    depth_bound = max(1.0, tree.params.c * math.log2(max(2, len(ts))))
    rep.add("log-depth", tree.depth <= math.ceil(depth_bound) + 1,
            f"depth {tree.depth} vs bound {math.ceil(depth_bound) + 1}")

    recomputed = set()
    for node in tree.nodes:
        if not node.is_leaf:
            recomputed.update(node.cut.sep)
    rep.add("s-star-bookkeeping", frozenset(recomputed) == tree.s_star,
            f"|recomputed|={len(recomputed)} |stored|={len(tree.s_star)}")
    rep.add("terminal-reduction", 2 * len(tree.s_star) <= len(ts),
            f"|S*|={len(tree.s_star)} |T|={len(ts)}")

    rep.add("sum-vertices", tree.sum_vertices <= size_multiplier * g.n * tree.depth,
            f"{tree.sum_vertices} vs {size_multiplier * g.n * tree.depth}")
    alpha0 = max(f + 1, math.ceil(g.m / max(1, g.n - 1)))
    edge_bound_ok = all(
        node.graph.m <= (alpha0 + node.depth * (f + 1)) * max(1, node.graph.n)
        for node in tree.nodes)
    rep.add("per-node-arboricity-proxy", edge_bound_ok)
    rep.add("sum-edges",
            tree.sum_edges <= size_multiplier * (alpha0 + (f + 1) * tree.depth) * g.n * tree.depth,
            f"{tree.sum_edges}")

    shrink_bad = []
    count_bad = []
    for node in tree.nodes:
        if node.is_leaf:
            continue
        tl = len(node.left.terminals)
        tq = len(node.terminals)
        if 10 * tl > 9 * tq:
            shrink_bad.append(f"left child {tl} > 0.9*{tq}")
        if node.right is not None and not node.right.is_leaf:
            tr = len(node.right.terminals)
            if 10 * tr > 9 * tq:
                shrink_bad.append(f"right child {tr} > 0.9*{tq}")
        vl, vr, vq = node.left.graph.n, node.right.graph.n, node.graph.n
        if vl + vr > (1 + 3 * eps) * vq:
            count_bad.append(f"vertices {vl}+{vr} > (1+3eps)*{vq}")
        tl2 = len(node.terminals & node.left.vertex_set)
        tr2 = len(node.terminals & node.right.vertex_set)
        if tl2 + tr2 > (1 + 3 * eps) * tq:
            count_bad.append(f"terminals {tl2}+{tr2} > (1+3eps)*{tq}")
    rep.add("terminal-shrink-0.9", not shrink_bad, "; ".join(shrink_bad[:4]))
    rep.add("counting-inequalities", not count_bad, "; ".join(count_bad[:4]))
    return rep


@dataclass(frozen=True)
class TedEntry:
    graph: Graph
    terminals: frozenset[int]  # root-space ids
    kind: NodeKind
    phi: Optional[Fraction]
    certificate: str
    round_index: int


@dataclass
class TedCollection:
    entries: list[TedEntry]
    phi: Optional[Fraction]
    f: int
    leaf_threshold: Fraction
    rounds: int


def export_ted(g: Graph, f: int, params: TreeParams | None = None) -> TedCollection:
    """Iterated LR-tree construction: terminals start at V and shrink to the
    union of separators each round; the leaves of all rounds' trees form the
    cut-respecting terminal-expander decomposition."""
    params = params or TreeParams()
    if not g.is_connected():
        raise DisconnectedInput("TED export requires a connected graph")
    entries: list[TedEntry] = []
    terms = frozenset(range(g.n))
    round_index = 0
    threshold = None
    max_rounds = math.ceil(math.log2(max(2, g.n))) + 1
    while terms:
        if round_index >= max_rounds:
            raise ContractUnsatisfiable("terminal reduction failed to halve")
        tree = build_lr_tree(g, terms, f, params)
        if threshold is None:
            threshold = tree.leaf_threshold
        for node in tree.nodes:
            if node.is_leaf:
                entries.append(TedEntry(node.graph, node.terminals, node.kind,
                                        node.phi, node.phi_certificate, round_index))
        terms = tree.s_star
        round_index += 1
    phis = [e.phi for e in entries if e.phi is not None]
    return TedCollection(entries, min(phis) if phis else None, f,
                         threshold if threshold is not None else Fraction(0),
                         round_index)


def validate_ted(ted: TedCollection, g: Graph, f: int,
                 enum_budget: int = 400_000,
                 size_multiplier: int = 8) -> ValidationReport:
    """Check the four decomposition properties by enumeration: per-entry leaf
    shape, soundness of small cuts, completeness over all cuts of g with
    |F| <= f, and total-size lightness."""
    rep = ValidationReport()

    kind_bad = []
    for e in ted.entries:
        local_t = frozenset(e.graph.root_to_local[r] for r in e.terminals)
        if e.kind is NodeKind.LEAF_EXPANDER:
            if e.phi is None:
                kind_bad.append("expander entry without phi")
            else:
                try:
                    if local_t and not is_terminal_expander(e.graph, local_t, e.phi,
                                                            size_cap=max(24, g.n)):
                        kind_bad.append("expander entry fails recheck")
                except SizeCapExceeded:
                    pass
        elif len(e.terminals) > max(ted.leaf_threshold, 3 * (f + 1)):
            kind_bad.append(f"few-terminal entry with {len(e.terminals)} terminals")
    rep.add("expander-or-few-terminals", not kind_bad, "; ".join(kind_bad[:4]))

    work = sum(sum(comb(e.graph.n, k) for k in range(f + 1)) for e in ted.entries)
    work += sum(comb(g.n, k) for k in range(f + 1))
    if work > enum_budget:
        raise SizeCapExceeded(f"TED validation needs {work} cut checks")

    sound_bad = []
    for e in ted.entries:
        for size in range(1, f + 1):
            for fs in combinations(range(e.graph.n), size):
                if is_cut_bruteforce(e.graph, fs):
                    f_root = [e.graph.root_ids[v] for v in fs]
                    if not is_cut_bruteforce(g, f_root):
                        sound_bad.append(f"{sorted(f_root)} cuts an entry but not g")
    rep.add("soundness", not sound_bad, "; ".join(sound_bad[:4]))

    complete_bad = []
    for size in range(1, f + 1):
        for fs in combinations(range(g.n), size):
            if not is_cut_bruteforce(g, fs):
                continue
            froot = set(fs)
            covered = False
            for e in ted.entries:
                f_local = [e.graph.root_to_local[r] for r in froot
                           if r in e.graph.root_to_local]
                t_local = [e.graph.root_to_local[r] for r in e.terminals]
                if separates_terminals(e.graph, f_local, t_local):
                    covered = True
                    break
            if not covered:
                complete_bad.append(f"cut {sorted(froot)} uncovered")
    rep.add("completeness", not complete_bad, "; ".join(complete_bad[:4]))

    polylog = (math.ceil(math.log2(max(2, g.n))) + 1)
    sum_v = sum(e.graph.n for e in ted.entries)
    sum_e = sum(e.graph.m for e in ted.entries)
    rep.add("lightness-vertices", sum_v <= size_multiplier * g.n * polylog ** 2,
            f"{sum_v} vs {size_multiplier * g.n * polylog ** 2}")
    rep.add("lightness-edges", sum_e <= size_multiplier * (f + 1) * g.n * polylog ** 3,
            f"{sum_e}")
    return rep
