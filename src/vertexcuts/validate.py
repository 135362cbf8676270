"""Equivalence and lemma property suites.

These are the executable correctness arguments: oracle answers against the
brute-force ground truth, and the structural lemmas behind the left/right
decomposition checked exhaustively over enumerated cuts on small graphs.
Used by the CLI `validate` subcommand and by the test suite.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .decomposition import VertexCutPartition, build_left_right
from .detectors import Trichotomy, us_trichotomy
from .errors import NotFConnected, SizeCapExceeded
from .graph import (FCONN_CHECK_CAP, Graph, component_labels, is_cut_bruteforce,
                    is_f_connected, separates_terminals)
from .labels import build_labels, check_fconnected_warmup, query_labels_scheme
from .oracle import OracleMode, QueryStats, VertexCutOracle, build_oracle
from .reporting import ValidationReport

# The query sample of an equivalence check: every F with |F| <= f when there
# are at most EXHAUSTIVE_CAP of them, else this many seeded random ones.
EXHAUSTIVE_CAP = 20_000
ORACLE_RANDOM_QUERIES = 2_000
LABEL_RANDOM_QUERIES = 1_000
# The lemma suite enumerates cuts with separators of at most LEMMA_MAX_SEP
# vertices, stops after LEMMA_CUT_BUDGET T-cuts and raises past
# LEMMA_QUERY_BUDGET (cut, F) checks; the enumeration itself raises past
# CUT_ENUM_BUDGET cuts.
LEMMA_MAX_SEP = 3
LEMMA_CUT_BUDGET = 4_000
LEMMA_QUERY_BUDGET = 400_000
CUT_ENUM_BUDGET = 500_000
# The trichotomy check tries every S of at most this many vertices.
TRICHOTOMY_MAX_SEP = 2


def enumerate_vertex_cuts(g: Graph) -> Iterator[VertexCutPartition]:
    """All vertex cuts (L,S,R) of g with |S| <= LEMMA_MAX_SEP, both
    orientations, grouped from each disconnecting separator's components."""
    cap = min(LEMMA_MAX_SEP, g.n - 2)
    produced = 0
    for size in range(0, cap + 1):
        for sep in combinations(range(g.n), size):
            labels = component_labels(g, sep)
            ncomp = max(labels, default=-1) + 1
            if ncomp < 2:
                continue
            comps: list[list[int]] = [[] for _ in range(ncomp)]
            for v, lab in enumerate(labels):
                if lab >= 0:
                    comps[lab].append(v)
            for pick in range(1, 2 ** ncomp - 1):
                left = frozenset(v for c in range(ncomp) if pick & (1 << c)
                                 for v in comps[c])
                right = frozenset(v for c in range(ncomp) if not pick & (1 << c)
                                  for v in comps[c])
                produced += 1
                if produced > CUT_ENUM_BUDGET:
                    raise SizeCapExceeded(
                        f"cut enumeration exceeded its cap of {CUT_ENUM_BUDGET} cuts")
                yield VertexCutPartition(left, frozenset(sep), right)


def _subsets_upto(universe: Iterable[int], k: int) -> Iterator[tuple[int, ...]]:
    uni = sorted(universe)
    for size in range(0, k + 1):
        yield from combinations(uni, size)


def _queries(n: int, f: int, n_random: int, seed: int) -> tuple[list[frozenset[int]], str]:
    """Every F with |F| <= f when there are at most EXHAUSTIVE_CAP of them,
    else n_random seeded random ones; with "exhaustive" or "random"."""
    if sum(comb(n, k) for k in range(f + 1)) <= EXHAUSTIVE_CAP:
        return [frozenset(fs) for fs in _subsets_upto(range(n), f)], "exhaustive"
    rng = random.Random(seed)
    return [frozenset(rng.sample(range(n), rng.randint(0, f)))
            for _ in range(n_random)], "random"


def check_query_stats(stats: QueryStats) -> bool:
    return stats.branch_law_ok() and stats.visit_bound_ok()


def oracle_equivalence_report(g: Graph, f: int, modes: list[OracleMode],
                              seed: int = 0) -> ValidationReport:
    """Build an oracle of g in each mode and check it (check_oracle)."""
    rep = ValidationReport()
    truth_cache: dict[frozenset[int], bool] = {}  # shared by the modes
    for mode in modes:
        try:
            oracle = build_oracle(g, f, mode)
        except NotFConnected:
            rep.add(f"{mode.value}-skipped", True, "graph is not f-connected")
            continue
        sub = check_oracle(oracle, seed, truth_cache)
        rep.checks.extend(sub.checks)
    return rep


def check_oracle(oracle: VertexCutOracle, seed: int = 0,
                 truth_cache: dict[frozenset[int], bool] | None = None
                 ) -> ValidationReport:
    """VertexCutOracle.query == is_cut_bruteforce on oracle.graph over
    exhaustive (small n) or seeded random queries, plus the per-query stats
    laws. The f-connected mode is checked at |F| = f with smaller queries
    answered "not a cut". truth_cache holds brute-force verdicts on
    oracle.graph, kept across calls by a caller that checks several oracles
    of one graph."""
    rep = ValidationReport()
    g, f, mode = oracle.graph, oracle.f, oracle.mode
    if truth_cache is None:
        truth_cache = {}

    def truth(fs: frozenset[int]) -> bool:
        if fs not in truth_cache:
            truth_cache[fs] = is_cut_bruteforce(g, fs)
        return truth_cache[fs]

    queries, how = _queries(g.n, f, ORACLE_RANDOM_QUERIES, seed)
    mism = 0
    stat_bad = 0
    path_bad = 0
    for fs in queries:
        got, stats_list = oracle.query_with_stats(fs)
        if got != truth(fs):
            mism += 1
        for st in stats_list:
            if not check_query_stats(st):
                stat_bad += 1
            if mode is OracleMode.FCONNECTED:
                if st.branch_by_residual:
                    path_bad += 1
                if st.nodes_visited > st.tree_depth + st.step_visits:
                    path_bad += 1
    rep.add(f"{mode.value}-equivalence", mism == 0,
            f"{len(queries)} queries ({how}), "
            f"{mism} mismatches")
    rep.add(f"{mode.value}-query-stats", stat_bad == 0,
            f"{stat_bad} stats violations")
    if mode is OracleMode.FCONNECTED:
        rep.add("fconnected-single-path", path_bad == 0,
                f"{path_bad} multi-path queries")
    for i, info in enumerate(oracle.round_info):
        if 2 * info.s_star_count > info.terminal_count:
            rep.add(f"{mode.value}-terminal-halving", False,
                    f"round {i}: {info.s_star_count} > {info.terminal_count}/2")
            break
    else:
        rep.add(f"{mode.value}-terminal-halving", True,
                f"{len(oracle.round_info)} rounds")
    return rep


def left_right_lemma_report(g: Graph, f: int) -> ValidationReport:
    """Exhaustive checks of the left/right graph lemmas over enumerated cuts
    with T = V: completeness, soundness, the stepchild property, the
    f-connected strengthening, connectivity inheritance, and the arboricity
    increment."""
    ts = frozenset(range(g.n))
    rep = ValidationReport()
    fconn = is_f_connected(g, f)
    queries = [frozenset(fs) for fs in _subsets_upto(range(g.n), f)]

    cuts = []
    for cut in enumerate_vertex_cuts(g):
        if ts & cut.left and ts & cut.right:  # T-cut: terminals on both sides
            cuts.append(cut)
        if len(cuts) >= LEMMA_CUT_BUDGET:
            break

    complete_bad = []
    sound_bad = []
    step_bad = []
    strength_bad = []
    inherit_bad = []
    arbor_bad = []
    work = len(cuts) * len(queries)
    if work > LEMMA_QUERY_BUDGET:
        raise SizeCapExceeded(
            f"lemma suite needs {work} checks, over the cap of {LEMMA_QUERY_BUDGET}")

    for cut in cuts:
        pair = build_left_right(g, ts, cut, f)
        gl, gr = pair.g_left, pair.g_right
        vl, vr = set(gl.root_ids), set(gr.root_ids)
        tl = [gl.root_to_local[r] for r in ts & frozenset(vl)]
        tr = [gr.root_to_local[r] for r in ts & frozenset(vr)]
        t_in_s = sorted(ts & cut.sep)
        u_s = frozenset(t_in_s[:f + 1])
        targets_step = [gr.root_to_local[r]
                        for r in (pair.u_left | pair.u_right | u_s)]
        s_local_r = [gr.root_to_local[r] for r in cut.sep]
        tr_right_only = [gr.root_to_local[r] for r in ts & cut.right]

        if fconn:
            for side in (gl, gr):
                if not is_f_connected(side, f):
                    inherit_bad.append(f"cut {sorted(cut.sep)}: side not {f}-connected")
        base = g.induced(sorted(cut.left | cut.sep | frozenset(pair.u_right)))
        if gl.m > base.m + (f + 1) * gl.n:
            arbor_bad.append(f"cut {sorted(cut.sep)}: left edges exceed arboricity increment")

        for fs in queries:
            sep_t = separates_terminals(g, fs, ts)
            sep_s = separates_terminals(g, fs, cut.sep)
            f_l = [gl.root_to_local[r] for r in fs & frozenset(vl)]
            f_r = [gr.root_to_local[r] for r in fs & frozenset(vr)]
            if sep_t and not sep_s:
                in_l = separates_terminals(gl, f_l, tl)
                in_r = separates_terminals(gr, f_r, tr)
                if not (in_l or in_r):
                    complete_bad.append(f"cut {sorted(cut.sep)} F={sorted(fs)}")
                if fconn and len(fs) == f:
                    cond_l = fs <= (cut.left | cut.sep) and in_l
                    cond_r = fs <= (cut.right | cut.sep) and in_r
                    if not (cond_l or cond_r):
                        strength_bad.append(f"cut {sorted(cut.sep)} F={sorted(fs)}: neither side")
                    if not fs <= cut.sep and cond_l and cond_r:
                        strength_bad.append(f"cut {sorted(cut.sep)} F={sorted(fs)}: both sides")
            # Soundness: pairs separated in G_L are separated in G. A violation
            # is a G-component class containing two distinct G_L labels.
            if fs <= frozenset(vl):
                lab_l = component_labels(gl, f_l)
                lab_g = component_labels(g, fs)
                dead = set(f_l)
                by_g: dict[int, set[int]] = {}
                for x in range(gl.n):
                    if x not in dead:
                        by_g.setdefault(lab_g[gl.root_ids[x]], set()).add(lab_l[x])
                if any(len(s) > 1 for s in by_g.values()):
                    sound_bad.append(f"cut {sorted(cut.sep)} F={sorted(fs)}")
            # Stepchild: loss of right-side terminals is covered by U_L∪U_R∪U_S.
            if fs <= frozenset(vr):
                if (separates_terminals(gr, f_r, tr)
                        and not separates_terminals(gr, f_r, s_local_r)
                        and not separates_terminals(gr, f_r, tr_right_only)):
                    if not separates_terminals(gr, f_r, targets_step):
                        step_bad.append(f"cut {sorted(cut.sep)} F={sorted(fs)}")

    rep.add("left-right-completeness", not complete_bad, "; ".join(complete_bad[:3]))
    rep.add("left-right-soundness", not sound_bad, "; ".join(sound_bad[:3]))
    rep.add("stepchild-lemma", not step_bad, "; ".join(step_bad[:3]))
    if fconn:
        rep.add("f-connected-strengthening", not strength_bad, "; ".join(strength_bad[:3]))
        rep.add("f-connected-inheritance", not inherit_bad, "; ".join(inherit_bad[:3]))
    rep.add("arboricity-increment", not arbor_bad, "; ".join(arbor_bad[:3]))
    # An empty suite is fine only when no separator fits under LEMMA_MAX_SEP.
    rep.add("cuts-enumerated", bool(cuts) or is_f_connected(g, LEMMA_MAX_SEP + 1),
            f"{len(cuts)} T-cuts")
    return rep


def trichotomy_report(g: Graph, f: int) -> ValidationReport:
    """F is a cut iff the trichotomy finds an option, for every F and every S
    of at most TRICHOTOMY_MAX_SEP vertices."""
    rep = ValidationReport()
    bad = []
    for s_sub in _subsets_upto(range(g.n), TRICHOTOMY_MAX_SEP):
        for fs in _subsets_upto(range(g.n), f):
            verdict = us_trichotomy(g, s_sub, fs)
            if (verdict is not Trichotomy.NOT_A_CUT) != is_cut_bruteforce(g, fs):
                bad.append(f"S={s_sub} F={fs} -> {verdict.value}")
    rep.add("us-trichotomy-exact", not bad, "; ".join(bad[:4]))
    return rep


def labels_equivalence_report(g: Graph, f: int, seed: int = 0) -> ValidationReport:
    rep = ValidationReport()
    scheme = build_labels(g, f)
    queries, how = _queries(g.n, f, LABEL_RANDOM_QUERIES, seed)
    mism = sum(1 for fs in queries
               if query_labels_scheme(scheme, fs) != is_cut_bruteforce(g, fs))
    rep.add("labels-equivalence", mism == 0, f"{len(queries)} {how} queries, {mism} mismatches")
    return rep


def full_validation(g: Graph, f: int, modes: list[OracleMode] | None = None,
                    seed: int = 0) -> ValidationReport:
    """Everything the `validate` subcommand runs on one graph."""
    rep = ValidationReport()
    if modes is None:
        modes = [OracleMode.GENERAL, OracleMode.HITMISS]
        if g.n <= FCONN_CHECK_CAP and is_f_connected(g, f):
            modes.append(OracleMode.FCONNECTED)
    sub = oracle_equivalence_report(g, f, modes, seed=seed)
    rep.checks.extend(sub.checks)
    sub = labels_equivalence_report(g, f, seed=seed)
    rep.checks.extend(sub.checks)
    if g.n <= 12:
        rep.checks.extend(left_right_lemma_report(g, min(f, 3)).checks)
        rep.checks.extend(trichotomy_report(g, min(f, 3)).checks)
        if is_f_connected(g, f):
            rep.checks.extend(check_fconnected_warmup(g, f).checks)
    return rep
