"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (visible with
pytest -rA / -s). Criteria 3, 4 and 5 consume the builds and per-query stats
recorded while running criteria 1 and 2, as specified.
"""

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations

import pytest

from helpers import (barbell_graph, complete_graph, cycle_graph, path_graph,
                     star_graph, subsets_upto, two_blob_graph)
from vertexcuts.decomposition import TreeParams, export_ted, validate_ted
from vertexcuts.generators import (gen_connected_gnp, gen_f_connected,
                                   gen_lb_family, gen_ov_graph, gen_oumv_graph)
from vertexcuts.graph import (is_cut_bruteforce, is_f_connected,
                              min_vertex_cut_size)
from vertexcuts.io import oracle_to_bytes
from vertexcuts.labels import (build_labels, check_fconnected_warmup,
                               label_length_report, query_labels_scheme)
from vertexcuts.oracle import OracleMode, build_oracle
from vertexcuts.validate import left_right_lemma_report, trichotomy_report


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


@dataclass
class RunRecord:
    name: str
    mode: str
    f: int
    n: int
    queries: int = 0
    mismatches: int = 0
    branch_violations: int = 0
    visit_violations: int = 0
    fconn_multi_path: int = 0
    halving_ok: bool = True
    rounds_ok: bool = True
    fconnected_instance: bool = False


def _drive(record: RunRecord, oracle, g, queries) -> None:
    for fs in queries:
        got, stats_list = oracle.query_with_stats(fs)
        record.queries += 1
        if got != is_cut_bruteforce(g, fs):
            record.mismatches += 1
        for st in stats_list:
            if not st.branch_law_ok():
                record.branch_violations += 1
            if not st.visit_bound_ok():
                record.visit_violations += 1
            if record.mode == "fconnected":
                if st.branch_by_residual:
                    record.fconn_multi_path += 1
                if st.nodes_visited > st.tree_depth + st.step_visits:
                    record.fconn_multi_path += 1
    for det in oracle.rounds:
        if 2 * len(det.s_star) > len(det.terminals):
            record.halving_ok = False
    record.rounds_ok = len(oracle.rounds) <= math.ceil(math.log2(max(2, g.n))) + 1


def _criterion1_suite():
    graphs = [
        ("P4", path_graph(4)),
        ("C6", cycle_graph(6)),
        ("K4", complete_graph(4)),
        ("star-S8", star_graph(8)),
        ("two-K5", barbell_graph(5)),
    ]
    for i in range(30):
        n = 8 + (i * 7) % 13          # n in [8, 20]
        p = 0.25 + 0.03 * (i % 5)
        graphs.append((f"gnp-{n}-{i}", gen_connected_gnp(n, p, 1000 + i)))
    for i in range(10):
        n = 8 + (i * 3) % 9           # n in [8, 16]
        f = 2 + i % 2
        graphs.append((f"fconn-{n}-{i}", gen_f_connected(n, f, 2000 + i)))
    return graphs


@pytest.fixture(scope="module")
def c1(request):
    t0 = time.perf_counter()
    records: list[RunRecord] = []
    for name, g in _criterion1_suite():
        queries = [frozenset(fs) for fs in subsets_upto(g.n, 3)]
        for mode in (OracleMode.GENERAL, OracleMode.HITMISS):
            oracle = build_oracle(g, 3, mode)
            rec = RunRecord(name, mode.value, 3, g.n)
            _drive(rec, oracle, g, queries)
            records.append(rec)
        kappa = min_vertex_cut_size(g)
        f_fc = 3 if kappa is None else min(3, kappa)
        if f_fc >= 1:
            oracle = build_oracle(g, f_fc, OracleMode.FCONNECTED)
            rec = RunRecord(name, "fconnected", f_fc, g.n, fconnected_instance=True)
            _drive(rec, oracle, g, [frozenset(fs) for fs in subsets_upto(g.n, f_fc)])
            records.append(rec)
    return records, time.perf_counter() - t0


def _criterion2_suite():
    cases = [
        ("gnp-64", gen_connected_gnp(64, 0.10, 21), 4, False),
        ("gnp-100", gen_connected_gnp(100, 0.06, 22), 5, False),
        ("gnp-128", gen_connected_gnp(128, 0.05, 23), 6, False),
        ("gnp-150", gen_connected_gnp(150, 0.04, 24), 4, False),
        ("gnp-200", gen_connected_gnp(200, 0.035, 25), 5, False),
        ("blob-160", two_blob_graph(77, 6, 0.08, 26), 4, False),
        ("fconn-64", gen_f_connected(64, 4, 27), 4, True),
        ("fconn-96", gen_f_connected(96, 5, 28), 5, True),
        ("lb-128", gen_lb_family(128, 4, 29)[0], 4, True),
        ("lb-200", gen_lb_family(200, 6, 30)[0], 6, True),
    ]
    return cases


@pytest.fixture(scope="module")
def c2():
    t0 = time.perf_counter()
    records: list[RunRecord] = []
    for name, g, f, fconn in _criterion2_suite():
        rng = random.Random(hash(name) & 0xFFFF)
        queries = [frozenset(rng.sample(range(g.n), rng.randint(0, f)))
                   for _ in range(10_000)]
        oracle = build_oracle(g, f, OracleMode.GENERAL)
        rec = RunRecord(name, "general", f, g.n)
        _drive(rec, oracle, g, queries)
        records.append(rec)
        if fconn:
            oracle = build_oracle(g, f, OracleMode.FCONNECTED,
                                  attest_f_connected=True)
            rec = RunRecord(name, "fconnected", f, g.n, fconnected_instance=True)
            fqueries = [frozenset(rng.sample(range(g.n), f)) for _ in range(2_000)]
            _drive(rec, oracle, g, fqueries)
            records.append(rec)
    return records, time.perf_counter() - t0


def test_criterion_1_exhaustive_equivalence(c1):
    records, elapsed = c1
    mism = sum(r.mismatches for r in records)
    runs = len(records)
    total = sum(r.queries for r in records)
    ok = mism == 0 and elapsed < 300
    _line(1, ok, f"{runs} oracle runs, {total} exhaustive queries, "
                 f"{mism} mismatches, {elapsed:.1f}s (< 300s)")
    assert mism == 0
    assert elapsed < 300


def test_criterion_2_randomized_equivalence(c2):
    records, elapsed = c2
    general = [r for r in records if r.mode == "general"]
    mism = sum(r.mismatches for r in general)
    total = sum(r.queries for r in general)
    ok = mism == 0 and len(general) == 10 and elapsed < 600
    _line(2, ok, f"10 graphs (n in [64,200], f in 4..6), {total} random queries, "
                 f"{mism} mismatches, {elapsed:.1f}s (< 600s)")
    assert mism == 0 and len(general) == 10
    assert elapsed < 600


def test_criterion_3_terminal_reduction(c1, c2):
    records = c1[0] + c2[0]
    bad = [r for r in records if not (r.halving_ok and r.rounds_ok)]
    _line(3, not bad, f"{len(records)} builds: |S*| <= |T|/2 every round, "
                      f"rounds <= ceil(log2 n)+1; {len(bad)} violations")
    assert not bad


def test_criterion_4_branch_count_law(c1, c2):
    records = c1[0] + c2[0]
    branch_bad = sum(r.branch_violations for r in records)
    visit_bad = sum(r.visit_violations for r in records)
    total = sum(r.queries for r in records)
    ok = branch_bad == 0 and visit_bad == 0
    _line(4, ok, f"{total} queries: branch nodes at residual x <= 2^(|F|-x) and "
                 f"visits <= 8*depth*2^|F|; {branch_bad}+{visit_bad} violations")
    assert ok


def test_criterion_5_fconnected_single_path(c1, c2):
    records = [r for r in c1[0] + c2[0] if r.fconnected_instance]
    bad = sum(r.fconn_multi_path for r in records)
    total = sum(r.queries for r in records)
    ok = bad == 0 and records
    _line(5, ok, f"{len(records)} f-connected runs, {total} queries, "
                 f"single root-leaf path (+stepchildren), {bad} violations")
    assert records and bad == 0


def test_criterion_6_lemma_suites():
    from helpers import wheel_graph
    cases = [
        (path_graph(6), 3), (cycle_graph(8), 2), (wheel_graph(8), 3),
        (barbell_graph(4), 3), (star_graph(6), 2),
        (gen_connected_gnp(10, 0.35, 12), 3), (gen_connected_gnp(12, 0.3, 13), 2),
        (gen_f_connected(10, 2, 3, extra_p=0.0), 2), (gen_f_connected(12, 3, 4), 3),
    ]
    failures = []
    checks = 0
    for g, f in cases:
        rep = left_right_lemma_report(g, f)
        checks += len(rep.checks)
        failures.extend(rep.failures())
        rep2 = trichotomy_report(g, min(f, 3))
        checks += len(rep2.checks)
        failures.extend(rep2.failures())
        if is_f_connected(g, f) and g.n <= 16:
            rep3 = check_fconnected_warmup(g, f)
            checks += len(rep3.checks)
            failures.extend(rep3.failures())
    _line(6, not failures, f"left/right completeness+soundness, stepchild, "
                           f"trichotomy, strengthening, inheritance, warm-up: "
                           f"{checks} suite checks, {len(failures)} counterexamples")
    assert not failures, failures


def test_criterion_7_labels():
    suite = [
        (path_graph(4), 1), (cycle_graph(6), 2), (complete_graph(4), 1),
        (star_graph(8), 1), (barbell_graph(5), 2),
        (gen_connected_gnp(12, 0.3, 31), 2), (gen_connected_gnp(16, 0.3, 32), 3),
        (gen_connected_gnp(20, 0.25, 33), 3), (gen_connected_gnp(18, 0.3, 34), 2),
    ]
    mismatches = 0
    total = 0
    for g, f in suite:
        scheme = build_labels(g, f)
        for fs in subsets_upto(g.n, f):
            total += 1
            if query_labels_scheme(scheme, fs) != is_cut_bruteforce(g, fs):
                mismatches += 1

    # access tracking: only F's labels are consulted
    from test_labels import test_access_tracking
    test_access_tracking()

    # length scaling at f=2: max bits / sqrt(n) grows no faster than (log n)^4
    ratios = []
    for n, seed in ((64, 41), (256, 42), (1024, 43)):
        g = gen_connected_gnp(n, min(0.2, 8.0 / n), seed)
        scheme = build_labels(g, 2)
        rep = label_length_report(scheme)
        ratios.append((n, rep["max_bits"] / (n ** 0.5)))
    growth_ok = all(
        r2 / r1 <= (math.log2(n2) / math.log2(n1)) ** 4
        for (n1, r1), (n2, r2) in zip(ratios, ratios[1:]))
    ok = mismatches == 0 and growth_ok
    _line(7, ok, f"{total} exhaustive label queries, {mismatches} mismatches; "
                 f"access-tracking ok; max-bits/sqrt(n) ratios "
                 + ", ".join(f"n={n}: {r:.0f}" for n, r in ratios))
    assert mismatches == 0
    assert growth_ok, ratios


def test_criterion_8_ted_validity():
    suite = [
        (path_graph(4), 1), (cycle_graph(6), 2), (barbell_graph(5), 1),
        (star_graph(8), 2), (gen_connected_gnp(12, 0.35, 51), 2),
        (gen_connected_gnp(16, 0.3, 52), 3), (gen_f_connected(12, 3, 53), 3),
        (barbell_graph(5), 2),
    ]
    failures = []
    for g, f in suite:
        params = TreeParams(eps_override=None)
        ted = export_ted(g, f, params)
        rep = validate_ted(ted, g, f)
        failures.extend((str(f), name, detail) for name, detail in rep.failures())
    # also exercise genuinely multi-pair decompositions via the eps override
    from fractions import Fraction
    ted = export_ted(barbell_graph(5), 1, TreeParams(eps_override=Fraction(1, 2)))
    assert len(ted.entries) >= 3 and ted.rounds == 2
    rep = validate_ted(ted, barbell_graph(5), 1)
    failures.extend(rep.failures())
    _line(8, not failures, f"{len(suite) + 1} decompositions validated "
                           f"(expander-or-few, soundness, completeness, lightness); "
                           f"{len(failures)} failures")
    assert not failures, failures


def test_criterion_9_lb_family():
    # 20 seeded pairs of distinct collections: the distinguishing query gets
    # opposite oracle verdicts
    pair_ok = 0
    for seed in range(20):
        g0, f0 = gen_lb_family(16, 2, seed)
        g1, f1 = gen_lb_family(16, 2, seed + 500)
        if set(f0) == set(f1):
            continue
        diff = sorted(set(f0) ^ set(f1))[0]
        o0 = build_oracle(g0, 2)
        o1 = build_oracle(g1, 2)
        v0, v1 = o0.query(diff), o1.query(diff)
        if v0 != v1 and v0 == (diff in f0) and v1 == (diff in f1):
            pair_ok += 1
    # exhaustive membership behavior at n=16, f=2
    g, fam = gen_lb_family(16, 2, 901)
    o = build_oracle(g, 2)
    chosen = set(fam)
    member_ok = all(o.query(fs) == (frozenset(fs) in chosen)
                    == is_cut_bruteforce(g, fs)
                    for fs in combinations(range(8), 2))
    ok = pair_ok == 20 and member_ok
    _line(9, ok, f"{pair_ok}/20 distinguishing pairs; chosen subsets cut and "
                 f"all {28 - 8} fresh W-subsets non-cuts: {member_ok}")
    assert ok


def test_criterion_10_reduction_equivalences():
    rng = random.Random(77)
    vectors = []
    while len(vectors) < 8:
        v = tuple(rng.randint(0, 1) for _ in range(4))
        if any(v):
            vectors.append(v)
    g, qmap = gen_ov_graph(vectors)
    ov_ok = 0
    for bits in range(16):
        b = tuple((bits >> i) & 1 for i in range(4))
        want = any(all(a[i] * b[i] == 0 for i in range(4)) for a in vectors)
        if is_cut_bruteforce(g, qmap(b)) == want:
            ov_ok += 1

    while True:
        m = [[rng.randint(0, 1) for _ in range(6)] for _ in range(6)]
        gm, qm = gen_oumv_graph(m)
        if gm.is_connected():
            break
    oumv_ok = 0
    done = 0
    while done < 50:
        u = tuple(rng.randint(0, 1) for _ in range(6))
        v = tuple(rng.randint(0, 1) for _ in range(6))
        if not any(u) or not any(v):
            continue
        done += 1
        prod = any(u[i] and m[i][j] and v[j] for i in range(6) for j in range(6))
        if is_cut_bruteforce(gm, qm(u, v)) == (not prod):
            oumv_ok += 1
    ok = ov_ok == 16 and oumv_ok == 50
    _line(10, ok, f"OV verdicts {ov_ok}/16 exhaustive at |A|=8, f=4; "
                  f"OuMv verdicts {oumv_ok}/50 at 6x6")
    assert ok


def test_criterion_11_space_accounting():
    sizes = {}
    for n in (64, 128, 256):
        g, _ = gen_lb_family(n, 3, 70 + n)
        oracle = build_oracle(g, 3)
        sizes[n] = len(oracle_to_bytes(oracle)) * 8
    ratios = {n: bits / (3 * n * math.log2(n / 3)) for n, bits in sizes.items()}
    c1_measured = min(ratios.values())
    c2_measured = max(ratios.values())
    increasing = sizes[64] < sizes[128] < sizes[256]
    spread_ok = c2_measured / c1_measured <= 8
    ok = increasing and spread_ok
    _line(11, ok, "bits/(f n log(n/f)) = "
          + ", ".join(f"n={n}: {r:.1f}" for n, r in sorted(ratios.items()))
          + f"; c1={c1_measured:.1f}, c2={c2_measured:.1f}, spread <= 8: {spread_ok}")
    assert ok
