"""Shared graph constructions, references and container edits for the test
suite."""

from __future__ import annotations

import hashlib
import random
import struct
from itertools import combinations

from hypothesis import strategies as st

from vertexcuts.graph import Graph, component_labels, components


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Center 0 plus the given number of leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def barbell_graph(k: int = 5) -> Graph:
    """Two K_k blocks sharing the single vertex k-1."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, j) for i in range(k - 1, 2 * k - 1) for j in range(i + 1, 2 * k - 1)]
    return Graph(2 * k - 1, edges)


def wheel_graph(rim: int) -> Graph:
    """Cycle 0..rim-1 plus hub rim joined to every rim vertex (3-connected)."""
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph(rim + 1, edges)


def double_star(leaves_each: int) -> Graph:
    """Two adjacent centers (0, 1), each with its own leaves."""
    n = 2 + 2 * leaves_each
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(leaves_each)]
    edges += [(1, 2 + leaves_each + i) for i in range(leaves_each)]
    return Graph(n, edges)


def two_blob_graph(blob_n: int, bridge: int, p: float, seed: int) -> Graph:
    """Two random blobs joined only through a small bridge set: a planted
    sparse balanced cut, so the LR tree genuinely splits."""
    import random
    rng = random.Random(seed)
    n = 2 * blob_n + bridge
    a = list(range(blob_n))
    b = list(range(blob_n, 2 * blob_n))
    mid = list(range(2 * blob_n, n))
    edges = set()
    for block in (a, b):
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                if rng.random() < p:
                    edges.add((block[i], block[j]))
        # spanning cycle keeps each blob connected
        for i in range(len(block)):
            u, v = block[i], block[(i + 1) % len(block)]
            edges.add((min(u, v), max(u, v)))
    for s in mid:
        for block in (a, b):
            for v in rng.sample(block, max(2, blob_n // 8)):
                edges.add((min(s, v), max(s, v)))
    return Graph(n, sorted(edges))


@st.composite
def graphs(draw, min_n=3, max_n=11):
    """Paths, cycles (n >= 3), stars, complete graphs and random G(n, p),
    the last possibly disconnected."""
    kind = draw(st.sampled_from(["path", "cycle", "star", "complete", "gnp"]))
    n = draw(st.integers(min_n, max_n))
    if kind == "path" or (kind == "cycle" and n < 3):
        return path_graph(n)
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "star":
        return star_graph(n - 1)
    if kind == "complete":
        return complete_graph(n)
    p = draw(st.sampled_from([0.2, 0.35, 0.5, 0.8]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def subsets_upto(n: int, k: int):
    for size in range(k + 1):
        yield from combinations(range(n), size)


def expander_exhaustive(g: Graph, t_set, phi) -> bool:
    """Reference (T, phi)-expander check by full 3-coloring enumeration."""
    from fractions import Fraction
    phi = Fraction(phi)
    ts = set(t_set)
    n = g.n
    for mask in range(3 ** n):
        sides = [[], [], []]  # L, S, R
        m = mask
        for v in range(n):
            sides[m % 3].append(v)
            m //= 3
        left, sep, right = sides
        if not left or not right:
            continue
        sep_set = set(sep)
        if any((u in left and v in right) or (v in left and u in right)
               for u, v in g.edges):
            continue
        t_ls = sum(1 for t in ts if t in set(left) | sep_set)
        t_rs = sum(1 for t in ts if t in set(right) | sep_set)
        if len(sep) < phi * min(t_ls, t_rs):
            return False
    return True


def cut_via_components(g: Graph, f_set) -> bool:
    """Cut verdict via component counting; tolerates disconnected inputs."""
    labels = component_labels(g, f_set)
    return max(labels, default=-1) + 1 >= 2


def us_tables_reference(g: Graph, u_set, s_set, f: int) -> dict:
    """Reference US tables: for every W ⊆ U, two plain BFS passes over
    G - (S ∪ W) give its components and their count; each component's N(C)
    with |N(C)| <= f is kept as a sorted tuple, and the row is (sorted
    distinct tuples, at most one component)."""
    ss = frozenset(s_set)
    u_sorted = sorted(set(u_set))
    tables = {}
    for r in range(len(u_sorted) + 1):
        for w in combinations(u_sorted, r):
            removed = ss | frozenset(w)
            ncomp = max(component_labels(g, removed), default=-1) + 1
            seen = set()
            for comp in components(g, removed):
                nbhd = set()
                for v in comp:
                    nbhd.update(g.adj[v])
                nbhd -= set(comp)
                if len(nbhd) <= f:
                    seen.add(tuple(sorted(nbhd)))
            tables[frozenset(w)] = (sorted(seen), ncomp <= 1)
    return tables


def container(manifest: bytes, payload: bytes, mlen: int | None = None,
              version: int | None = None) -> bytes:
    """An oracle container laid out as io.oracle_to_bytes lays it out, with a
    valid checksum over whatever the parts hold."""
    from vertexcuts.io import FORMAT_VERSION, MAGIC
    body = (MAGIC + struct.pack("<H", FORMAT_VERSION if version is None else version)
            + struct.pack("<Q", len(manifest) if mlen is None else mlen) + manifest
            + struct.pack("<Q", len(payload)) + payload)
    return body + hashlib.sha256(body).digest()


def container_parts(data: bytes) -> tuple[bytes, bytes]:
    """The manifest and payload bytes of a well-formed container."""
    mlen = struct.unpack("<Q", data[6:14])[0]
    plen = struct.unpack("<Q", data[14 + mlen:22 + mlen])[0]
    return data[14:14 + mlen], data[22 + mlen:22 + mlen + plen]


def rechecksummed(data: bytes) -> bytes:
    """data with its last 32 bytes replaced by the SHA-256 of the rest."""
    return data[:-32] + hashlib.sha256(data[:-32]).digest()
