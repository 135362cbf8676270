"""Seeded inputs for the benchmark workloads.

Every workload is a pure function of ``--seed``. The graph and the query
sample draw from two separate random streams, seeded by strings that name the
workload and the stream, so no query set can coincide with a set the graph
generator drew (``gen_lb_family(n, f, s)`` and ``random.Random(s).sample``
would draw the same subsets from the same integer seed).

Each query carries the sampler category that produced it and, where the
construction decides it, the planted verdict (True: a cut).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from vertexcuts import Graph, OracleMode
from vertexcuts.generators import gen_lb_family

from check import EdgeArrays, is_cut

# Query-sample length: the timed loop cycles over this list.
QUERY_COUNT = 240


@dataclass
class Workload:
    name: str
    graph: Graph
    f: int
    mode: OracleMode
    build_kwargs: dict
    queries: list[frozenset[int]]
    kinds: list[str]
    planted: dict[frozenset[int], bool] = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def _rng(name: str, stream: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{stream}:{seed}")


def _gnp_edges(vertices: list[int], mean_degree: float,
               rng: random.Random) -> set[tuple[int, int]]:
    """G(n, p) on ``vertices`` with p = mean_degree / (n - 1), drawn by
    geometric skipping over the pairs, so the cost is O(n + m)."""
    n = len(vertices)
    p = min(1.0, mean_degree / max(1, n - 1))
    edges: set[tuple[int, int]] = set()
    if p <= 0.0 or n < 2:
        return edges
    log_q = math.log(1.0 - p) if p < 1.0 else None
    v, w = 1, -1
    while v < n:
        if log_q is None:
            w += 1
        else:
            w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            a, b = vertices[v], vertices[w]
            edges.add((a, b) if a < b else (b, a))
    return edges


def _connected(n: int, edges) -> bool:
    arrays = EdgeArrays(n, edges)
    return not is_cut(arrays, ())


def connected_gnp(n: int, mean_degree: float, rng: random.Random) -> Graph:
    """Connected G(n, p): redraw until connected."""
    for _ in range(64):
        edges = _gnp_edges(list(range(n)), mean_degree, rng)
        if _connected(n, edges):
            return Graph(n, edges)
    raise RuntimeError(f"no connected G({n}, p) in 64 draws")


def block_chain(blocks: int, block_size: int, mean_degree: float,
                sep_size: int, attach: int,
                rng: random.Random) -> tuple[Graph, list[frozenset[int]]]:
    """Random connected blocks B_0..B_{k-1} in a chain. Between B_i and
    B_{i+1} sits a planted separator S_i of ``sep_size`` vertices, each
    joined to ``attach`` random vertices of both blocks. Every edge between
    blocks goes through a separator, so each S_i is a vertex cut.
    """
    edges: set[tuple[int, int]] = set()
    block_vs: list[list[int]] = []
    nxt = 0
    for _ in range(blocks):
        vs = list(range(nxt, nxt + block_size))
        nxt += block_size
        while True:
            inner = _gnp_edges(vs, mean_degree, rng)
            local = {(a - vs[0], b - vs[0]) for a, b in inner}
            if _connected(block_size, local):
                break
        edges |= inner
        block_vs.append(vs)
    seps: list[frozenset[int]] = []
    for i in range(blocks - 1):
        sep = list(range(nxt, nxt + sep_size))
        nxt += sep_size
        for s in sep:
            for side in (block_vs[i], block_vs[i + 1]):
                for u in rng.sample(side, attach):
                    edges.add((u, s) if u < s else (s, u))
        seps.append(frozenset(sep))
    return Graph(nxt, edges), seps


def _random_set(n: int, lo: int, hi: int, rng: random.Random) -> frozenset[int]:
    return frozenset(rng.sample(range(n), rng.randint(lo, hi)))


def _sample_gnp(g: Graph, f: int, rng: random.Random):
    low = [v for v in range(g.n) if g.degree(v) <= f]
    queries, kinds, planted = [], [], {}
    for i in range(QUERY_COUNT):
        if i % 2 == 0 and low:
            fs = frozenset(g.adj[rng.choice(low)])
            queries.append(fs)
            kinds.append("low-degree-nbhd")
            planted[fs] = True
        else:
            queries.append(_random_set(g.n, 1, f, rng))
            kinds.append("random")
    return queries, kinds, planted, {"low_degree_vertices": len(low)}


def _sample_chain(g: Graph, f: int, seps: list[frozenset[int]],
                  rng: random.Random):
    queries, kinds, planted = [], [], {}
    for i in range(QUERY_COUNT):
        if i % 3 == 0:
            fs = rng.choice(seps)
            if len(fs) < f and rng.random() < 0.5:
                fs = fs | {rng.randrange(g.n)}
            queries.append(fs)
            kinds.append("separator")
            planted[fs] = True
        elif i % 3 == 1:
            sep = rng.choice(seps)
            fs = frozenset({rng.choice(sorted(sep)), rng.randrange(g.n)})
            queries.append(fs)
            kinds.append("near-miss")
        else:
            queries.append(_random_set(g.n, 1, f, rng))
            kinds.append("random")
    return queries, kinds, planted, {"separators": len(seps)}


def _sample_lbfamily(n: int, f: int, family: tuple[frozenset[int], ...],
                     rng: random.Random):
    half = n // 2
    chosen = set(family)
    queries, kinds, planted = [], [], {}
    for i in range(QUERY_COUNT):
        if i % 2 == 0:
            fs = rng.choice(family)
            kinds.append("planted-F_i")
            planted[fs] = True
        else:
            while True:
                fs = frozenset(rng.sample(range(half), f))
                if fs not in chosen:
                    break
            kinds.append("fresh-W-subset")
            planted[fs] = False
        queries.append(fs)
    return queries, kinds, planted, {"family_size": len(family)}


def make_workload(name: str, seed: int) -> Workload:
    g_rng = _rng(name, "graph", seed)
    q_rng = _rng(name, "queries", seed)
    if name == "gnp-general":
        f = 3
        g = connected_gnp(2000, 8.0, g_rng)
        queries, kinds, planted, info = _sample_gnp(g, f, q_rng)
        return Workload(name, g, f, OracleMode.GENERAL, {}, queries, kinds,
                        planted, info=info)
    if name == "chain-general":
        f = 3
        g, seps = block_chain(20, 80, 8.0, 2, 3, g_rng)
        queries, kinds, planted, info = _sample_chain(g, f, seps, q_rng)
        return Workload(name, g, f, OracleMode.GENERAL, {}, queries, kinds,
                        planted, info=info)
    if name == "hitmiss-chain":
        f = 2
        g, seps = block_chain(6, 16, 6.0, 2, 3, g_rng)
        queries, kinds, planted, info = _sample_chain(g, f, seps, q_rng)
        return Workload(name, g, f, OracleMode.HITMISS, {}, queries, kinds,
                        planted, info=info)
    if name == "lbfamily-fconn":
        f = 2
        n = 1024
        g, family = gen_lb_family(n, f, g_rng.randrange(2 ** 31))
        queries, kinds, planted, info = _sample_lbfamily(n, f, family, q_rng)
        return Workload(name, g, f, OracleMode.FCONNECTED,
                        {"attest_f_connected": True}, queries, kinds, planted,
                        info=info)
    raise KeyError(name)


WORKLOADS = ("gnp-general", "chain-general", "hitmiss-chain", "lbfamily-fconn")
