"""Queries only read the structures: two threads that interleave queries on
one oracle per mode, and on one label scheme, get the brute-force answers."""

import random
import sys
import threading
from itertools import combinations

from vertexcuts.graph import Graph, is_cut_bruteforce, is_f_connected
from vertexcuts.labels import build_labels, query_labels_scheme
from vertexcuts.oracle import OracleMode, build_oracle

F = 2


def cycle_chain(blocks: int, size: int, seed: int) -> tuple[Graph, list[frozenset[int]]]:
    """Cycles of ``size`` vertices in a chain; between consecutive cycles a
    planted 2-vertex separator joined to two vertices of each. 2-connected."""
    rng = random.Random(seed)
    edges, cycles, nxt = [], [], 0
    for _ in range(blocks):
        vs = list(range(nxt, nxt + size))
        nxt += size
        edges += [(vs[i], vs[(i + 1) % size]) for i in range(size)]
        cycles.append(vs)
    seps = []
    for left, right in zip(cycles, cycles[1:]):
        sep = [nxt, nxt + 1]
        nxt += 2
        for s in sep:
            edges += [(s, u) for u in rng.sample(left, 2) + rng.sample(right, 2)]
        seps.append(frozenset(sep))
    return Graph(nxt, edges), seps


def cut_rich_queries(g: Graph, seed: int) -> list[frozenset[int]]:
    """Every cut with |F| <= F, and as many non-cuts, most of them one
    vertex away from a cut."""
    rng = random.Random(seed)
    all_sets = [frozenset(c) for k in range(F + 1) for c in combinations(range(g.n), k)]
    cuts = [fs for fs in all_sets if is_cut_bruteforce(g, fs)]
    near = {(cut - {x}) | {y} for cut in cuts for x in cut for y in range(g.n)}
    misses = [fs for fs in near if len(fs) == F and not is_cut_bruteforce(g, fs)]
    misses = sorted(misses, key=sorted)
    queries = cuts + rng.sample(misses, min(len(misses), len(cuts)))
    rng.shuffle(queries)
    return queries


def test_interleaved_queries_match_brute_force():
    g, seps = cycle_chain(4, 5, seed=3)
    assert is_f_connected(g, F)
    queries = cut_rich_queries(g, seed=5)
    truth = {fs: is_cut_bruteforce(g, fs) for fs in queries}
    assert set(seps) <= {fs for fs, cut in truth.items() if cut}
    assert sum(truth.values()) >= 0.3 * len(queries)

    oracles = {mode: build_oracle(g, F, mode) for mode in OracleMode}
    scheme = build_labels(g, F)
    askers = [(mode.value, oracle.query) for mode, oracle in oracles.items()]
    askers.append(("labels", lambda fs: query_labels_scheme(scheme, fs)))

    wrong: list[tuple] = []
    start = threading.Barrier(2)

    def run(order: list[frozenset[int]]) -> None:
        start.wait(timeout=60)
        for _ in range(12):
            for fs in order:
                for name, ask in askers:
                    try:
                        if ask(fs) != truth[fs]:
                            wrong.append((name, sorted(fs), "wrong answer"))
                    except Exception as exc:  # kept, not lost in the thread
                        wrong.append((name, sorted(fs), repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(order,))
                   for order in (queries, queries[::-1])]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong, (len(wrong), wrong[:5])
