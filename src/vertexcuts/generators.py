"""Seeded graph generators: random models, certified f-connected graphs,
chains of blocks with planted separators, the space-lower-bound families,
and the OV / OuMv reduction graphs.

Every generator is a deterministic function of its parameters and seed.
"""

from __future__ import annotations

import math
import random
from math import comb
from typing import Callable, Sequence

from .errors import CertificationFailed, InvalidParams
from .graph import Graph, is_f_connected


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p)."""
    if n < 0 or not (0.0 <= p <= 1.0):
        raise InvalidParams(f"bad G(n,p) parameters n={n} p={p}")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def gen_random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with exactly m edges."""
    if n < 0 or m < 0 or m > comb(n, 2):
        raise InvalidParams(f"bad G(n,m) parameters n={n} m={m}")
    rng = random.Random(seed)
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, rng.sample(all_edges, m))


def gen_connected_gnp(n: int, p: float, seed: int, tries: int = 64) -> Graph:
    """G(n, p) resampled (seed incremented) until connected."""
    for i in range(tries):
        g = gen_random(n, p, seed + 7919 * i)
        if g.is_connected():
            return g
    raise CertificationFailed(f"no connected G({n},{p}) after {tries} tries")


def gen_f_connected(n: int, f: int, seed: int, extra_p: float = 0.1,
                    verify_cap: int = 64) -> Graph:
    """f-connected graph: circulant base (each i joined to i±1..i±ceil(f/2),
    vertex connectivity 2*ceil(f/2) >= f by the Harary construction) plus
    seeded extra edges, which only increase connectivity. Verified exactly up
    to verify_cap vertices."""
    if f < 1:
        raise InvalidParams(f"f must be >= 1, got {f}")
    k = (f + 1) // 2
    if n < 2 * k + 2:
        raise InvalidParams(f"need n >= {2 * k + 2} for a {f}-connected circulant")
    rng = random.Random(seed)
    edges = {(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_p:
                edges.add((i, j))
    g = Graph(n, edges)
    if n <= verify_cap and not is_f_connected(g, f):
        raise CertificationFailed(f"generated graph is not {f}-connected")
    return g


def gen_block_chain(blocks: int, block_size: int, mean_degree: float,
                    sep_size: int, attach: int, seed: int
                    ) -> tuple[Graph, tuple[frozenset[int], ...]]:
    """Connected G(n, p) blocks B_0..B_{k-1} (p = mean_degree/(block_size-1),
    each block redrawn until connected) in a chain. Between B_i and B_{i+1}
    sits a planted separator S_i of sep_size vertices, each joined to attach
    random vertices of both blocks. Every edge between blocks goes through a
    separator, so each S_i is a vertex cut; returns the graph and the S_i.

    Layout: block i = ids i*block_size .. (i+1)*block_size-1, then the
    separators in order.
    """
    if blocks < 1 or block_size < 1 or sep_size < 1 or not 1 <= attach <= block_size:
        raise InvalidParams(f"bad block chain parameters blocks={blocks} "
                            f"block_size={block_size} sep_size={sep_size} attach={attach}")
    rng = random.Random(seed)
    p = min(1.0, mean_degree / max(1, block_size - 1))
    edges: list[tuple[int, int]] = []
    for b in range(blocks):
        lo = b * block_size
        while True:
            inner = [(i, j) for i in range(block_size) for j in range(i + 1, block_size)
                     if rng.random() < p]
            if Graph(block_size, inner).is_connected():
                break
        edges += [(lo + i, lo + j) for i, j in inner]
    seps = []
    nxt = blocks * block_size
    for b in range(blocks - 1):
        sep = range(nxt, nxt + sep_size)
        nxt += sep_size
        for s in sep:
            for side in (b, b + 1):
                lo = side * block_size
                edges += [(u, s) for u in rng.sample(range(lo, lo + block_size), attach)]
        seps.append(frozenset(sep))
    return Graph(nxt, edges), tuple(seps)


def gen_lb_family(n: int, f: int, seed: int) -> tuple[Graph, tuple[frozenset[int], ...]]:
    """Space-lower-bound family: W = n/2 clique vertices, U = n/2 pendant
    vertices; u_i is joined to a distinct f-subset F_i of W. Querying F_i
    isolates u_i; any fresh f-subset of W is not a cut. The graph is
    f-connected by construction.

    Layout: W = ids 0..n/2-1, u_i = n/2 + i attached to F_i.
    """
    if n % 2 != 0:
        raise InvalidParams("n must be even")
    half = n // 2
    if not (2 <= f <= n // 4):
        raise InvalidParams(f"need 2 <= f <= n/4 (f={f}, n={n})")
    if comb(half, f) < half:
        raise InvalidParams(f"cannot choose {half} distinct {f}-subsets of {half} vertices")
    rng = random.Random(seed)
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < half:
        sub = tuple(sorted(rng.sample(range(half), f)))
        chosen.add(sub)
    subsets = tuple(frozenset(s) for s in sorted(chosen))
    edges = [(i, j) for i in range(half) for j in range(i + 1, half)]
    for i, sub in enumerate(subsets):
        edges.extend((w, half + i) for w in sorted(sub))
    return Graph(n, edges), subsets


def gen_lb_path(n: int, seed: int) -> Graph:
    """Path 0..n-1 with a random chord (2k-2, 2k) for each 1 <= k < n/2.
    Querying the odd vertex 2k-1 answers "not a cut" iff chord k is present,
    so the chord bits round-trip through any correct oracle."""
    if n < 3:
        raise InvalidParams(f"need n >= 3, got {n}")
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    for k in range(1, (n + 1) // 2):
        if 2 * k <= n - 1 and rng.random() < 0.5:
            edges.append((2 * k - 2, 2 * k))
    return Graph(n, edges)


def lb_path_chord_queries(n: int) -> list[tuple[int, tuple[int, int]]]:
    """(query vertex, chord edge) pairs for the lb-path recovery test."""
    return [(2 * k - 1, (2 * k - 2, 2 * k)) for k in range(1, (n + 1) // 2)
            if 2 * k <= n - 1]


def gen_ov_graph(vectors: Sequence[Sequence[int]]) -> tuple[Graph, Callable[[Sequence[int]], frozenset[int]]]:
    """Orthogonal-vectors reduction graph for vector set A over f coordinates:
    vertices x_a (one per vector), y_1..y_f, z; edges x_a-y_i iff a_i = 1 and
    y_i-z for all i. The query map sends b to F_b = {y_i : b_i = 0}; some
    a in A is orthogonal to b iff F_b is a cut."""
    if not vectors:
        raise InvalidParams("need at least one vector")
    f = len(vectors[0])
    if f < 1 or any(len(a) != f for a in vectors):
        raise InvalidParams("all vectors must share a positive length")
    if any(x not in (0, 1) for a in vectors for x in a):
        raise InvalidParams("vectors must be 0/1")
    na = len(vectors)
    y_base = na
    z = na + f
    edges = [(y_base + i, z) for i in range(f)]
    for ai, a in enumerate(vectors):
        edges.extend((ai, y_base + i) for i in range(f) if a[i] == 1)
    g = Graph(na + f + 1, edges)

    def query_map(b: Sequence[int]) -> frozenset[int]:
        if len(b) != f:
            raise InvalidParams(f"query vector must have length {f}")
        return frozenset(y_base + i for i in range(f) if b[i] == 0)

    return g, query_map


def gen_oumv_graph(matrix: Sequence[Sequence[int]]) -> tuple[Graph, Callable[[Sequence[int], Sequence[int]], frozenset[int]]]:
    """OuMv reduction graph for a boolean n x n matrix M: cliques A and B with
    a cross edge (a_i, b_j) iff M[i][j] = 1. The query map sends (u, v) to
    F = {a_i : u_i = 0} ∪ {b_j : v_j = 0}; for nonzero u and v,
    u^T M v = 1 iff F is not a cut (a zero vector empties one side, leaving a
    single connected clique regardless of M)."""
    n = len(matrix)
    if n < 1 or any(len(row) != n for row in matrix):
        raise InvalidParams("matrix must be square and nonempty")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges += [(n + i, n + j) for i in range(n) for j in range(i + 1, n)]
    for i in range(n):
        for j in range(n):
            if matrix[i][j]:
                edges.append((i, n + j))
    g = Graph(2 * n, edges)

    def query_map(u: Sequence[int], v: Sequence[int]) -> frozenset[int]:
        if len(u) != n or len(v) != n:
            raise InvalidParams(f"query vectors must have length {n}")
        return (frozenset(i for i in range(n) if not u[i])
                | frozenset(n + j for j in range(n) if not v[j]))

    return g, query_map
