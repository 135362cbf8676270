"""Vertex cut labeling scheme.

Each vertex gets a short label; a query F is answered from the labels of F
alone. Low-degree vertices store their whole neighborhood (with st-labels);
high-degree vertices store f representative neighbors plus explicit records
for every small subset K of high-degree vertices containing them, describing
the largest component of G - K. The st-connectivity building block is
pluggable; the bundled providers are registry-backed (they consult a shared
connectivity oracle) and exist to drive the scheme end-to-end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .connectivity import FailureConnectivityOracle, build_conn_oracle
from .errors import (DisconnectedInput, FTooLarge, MissingExplicitLabel,
                     NotFConnected, SizeCapExceeded, TooManyFailures)
from .graph import Graph, component_labels, is_cut_bruteforce, is_f_connected, sparsify
from .reporting import ValidationReport


class BitWriter:
    """Accumulates a bitstring; used for the canonical label layout so
    measured lengths are reproducible byte-exactly."""

    def __init__(self):
        self.bits: list[int] = []

    def write(self, value: int, width: int) -> None:
        for i in reversed(range(width)):
            self.bits.append((value >> i) & 1)

    def write_blob(self, blob: bytes) -> None:
        self.write(len(blob), 16)
        for byte in blob:
            self.write(byte, 8)

    @property
    def bit_length(self) -> int:
        return len(self.bits)

    def to_bytes(self) -> bytes:
        out = bytearray()
        for i in range(0, len(self.bits), 8):
            byte = 0
            for b in self.bits[i:i + 8]:
                byte = (byte << 1) | b
            byte <<= (8 - min(8, len(self.bits) - i))
            out.append(byte & 0xFF)
        return bytes(out)


class StLabelProvider:
    """Interface for the st-connectivity building block.

    assign(v) produces an opaque blob l(v); decide() answers connectivity of
    s,t in G-F from the blobs of {s,t} ∪ F only.
    """

    name = "abstract"

    def assign(self, v: int) -> bytes:
        raise NotImplementedError

    def decide(self, blobs: dict[int, bytes], s: int, t: int,
               f_set: frozenset[int]) -> bool:
        raise NotImplementedError

    def reported_bits(self, n: int, f: int) -> int:
        raise NotImplementedError


class RegistryProvider(StLabelProvider):
    """Blob = the vertex id; decide() consults a shared connectivity oracle,
    which it only reads.

    Not a true labeling scheme (the oracle is global state); it exists so the
    label construction and query algorithms can be tested end to end. A
    genuine poly(f, log n)-bit implementation can replace it unchanged.
    """

    name = "registry"

    def __init__(self, conn: FailureConnectivityOracle):
        self.conn = conn
        self._width = max(1, (max(1, conn.graph.n - 1)).bit_length())

    def assign(self, v: int) -> bytes:
        return v.to_bytes((self._width + 7) // 8, "big")

    def decide(self, blobs, s, t, f_set):
        ids = {v: int.from_bytes(blobs[v], "big") for v in blobs}
        return self.conn.connected(ids[s], ids[t], [ids[v] for v in f_set])

    def reported_bits(self, n: int, f: int) -> int:
        return max(1, (max(1, n - 1)).bit_length())


class SizeModelProvider(RegistryProvider):
    """Same decision procedure, but reports the poly(f, log n) bit cost of a
    genuine st-label for length accounting."""

    name = "size-model"

    def reported_bits(self, n: int, f: int) -> int:
        log_n = max(1, math.ceil(math.log2(max(2, n))))
        return f * f + f * log_n + log_n


@dataclass(frozen=True)
class ExplicitLabel:
    """Record for a high-degree subset K: |A_K| (largest component of G-K)
    and, when |A_K| >= n-f, the union B_K of all other components."""

    k_set: frozenset[int]
    size_a: int
    b_set: Optional[frozenset[int]]


@dataclass
class VertexLabel:
    vid: int
    ell: bytes
    is_high: bool
    neighbor_records: tuple[tuple[int, bytes], ...]
    explicit: dict[frozenset[int], ExplicitLabel]
    bit_length: int = 0
    payload: bytes = b""


@dataclass
class LabelingScheme:
    n: int
    f: int
    threshold: float
    high: frozenset[int]
    labels: dict[int, VertexLabel]
    provider: StLabelProvider
    sparsified: Graph

    @property
    def manifest(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "f": self.f,
            "degree_threshold": self.threshold,
            "high_count": len(self.high),
            "high_count_bound": max(1.0, self.n ** (1.0 / self.f)),
            "provider": self.provider.name,
        }


def _encode_label(label: VertexLabel, n: int, measured_blob_bits: int | None = None) -> tuple[int, bytes]:
    """Canonical bit layout: fixed-width ids, length-prefixed blobs.

    measured_blob_bits substitutes the provider's reported per-blob cost for
    the physical blob size (used by the size-model accounting)."""
    w = max(1, (max(1, n - 1)).bit_length())
    bw = BitWriter()
    bw.write(label.vid, w)
    bw.write_blob(label.ell)
    bw.write(1 if label.is_high else 0, 1)
    bw.write(len(label.neighbor_records), 32)
    for u, blob in label.neighbor_records:
        bw.write(u, w)
        bw.write_blob(blob)
    bw.write(len(label.explicit), 32)
    for k in sorted(label.explicit, key=sorted):
        rec = label.explicit[k]
        bw.write(len(rec.k_set), w + 1)
        for v in sorted(rec.k_set):
            bw.write(v, w)
        bw.write(rec.size_a, w + 1)
        bw.write(1 if rec.b_set is not None else 0, 1)
        if rec.b_set is not None:
            bw.write(len(rec.b_set), w + 1)
            for v in sorted(rec.b_set):
                bw.write(v, w)
    bits = bw.bit_length
    if measured_blob_bits is not None:
        # Swap each physical blob (16-bit prefix + bytes) for the model cost.
        n_blobs = 1 + len(label.neighbor_records)
        physical = sum(16 + 8 * len(b) for _, b in label.neighbor_records)
        physical += 16 + 8 * len(label.ell)
        bits = bits - physical + n_blobs * measured_blob_bits
    return bits, bw.to_bytes()


def degree_threshold(n: int, f: int) -> float:
    return 2.0 * (f + 1) * (n ** (1.0 - 1.0 / f))


def build_labels(g: Graph, f: int, provider: StLabelProvider | None = None) -> LabelingScheme:
    """Build the labeling: sparsify, split by the degree threshold, compute
    explicit labels for every K ⊆ H with |K| <= f, then assemble per-vertex
    labels."""
    if f >= g.n / 2:
        raise FTooLarge(f"labeling requires f < n/2 (f={f}, n={g.n})")
    if f < 1:
        raise FTooLarge("labeling requires f >= 1")
    if not g.is_connected():
        raise DisconnectedInput("labeling requires a connected graph")
    h = sparsify(g, f)
    if provider is None:
        provider = RegistryProvider(build_conn_oracle(h, f))
    n = g.n
    thr = degree_threshold(n, f)
    high = frozenset(v for v in range(n) if h.degree(v) > thr)

    explicit_all: dict[frozenset[int], ExplicitLabel] = {}
    for size in range(1, f + 1):
        for k in combinations(sorted(high), size):
            ks = frozenset(k)
            labels = component_labels(h, ks)
            ncomp = max(labels, default=-1) + 1
            comps: dict[int, list[int]] = {c: [] for c in range(ncomp)}
            for v, lab in enumerate(labels):
                if lab >= 0:
                    comps[lab].append(v)
            if ncomp == 0:
                a_size, b = 0, frozenset()
            else:
                # Largest component; ties broken by smallest minimum vertex id.
                best = max(comps.values(), key=lambda c: (len(c), -min(c)))
                a_size = len(best)
                b = frozenset(v for v, lab in enumerate(labels)
                              if lab >= 0 and v not in set(best))
            b_set = b if a_size >= n - f else None
            explicit_all[ks] = ExplicitLabel(ks, a_size, b_set)

    blobs = {v: provider.assign(v) for v in range(n)}
    model_bits = (provider.reported_bits(n, f)
                  if isinstance(provider, SizeModelProvider) else None)
    out: dict[int, VertexLabel] = {}
    for v in range(n):
        if v in high:
            nf = h.neighbors(v)[:f]  # f lowest-id neighbors
            records = tuple((u, blobs[u]) for u in nf)
            table = {k: rec for k, rec in explicit_all.items() if v in k}
        else:
            records = tuple((u, blobs[u]) for u in h.neighbors(v))
            table = {}
        label = VertexLabel(v, blobs[v], v in high, records, table)
        label.bit_length, label.payload = _encode_label(label, n, model_bits)
        out[v] = label
    return LabelingScheme(n, f, thr, high, out, provider, h)


def query_labels(labels_for_f: dict[int, VertexLabel], n: int, f: int,
                 provider: StLabelProvider) -> bool:
    """Answer "is F a cut" from the labels of F alone.

    Gather the stored neighbors T, test their mutual connectivity in G-F via
    the st-labels; if every check connects and F contains high-degree
    vertices K, consult the explicit record L(K).
    """
    fs = frozenset(labels_for_f)
    if len(fs) > f:
        raise TooManyFailures(f"|F|={len(fs)} exceeds f={f}")
    t_blobs: dict[int, bytes] = {}
    for v, label in labels_for_f.items():
        for u, blob in label.neighbor_records:
            if u not in fs:
                t_blobs[u] = blob
    if t_blobs:
        s = min(t_blobs)
        f_blobs = {v: labels_for_f[v].ell for v in fs}
        for t in sorted(t_blobs):
            if t == s:
                continue
            blobs = {s: t_blobs[s], t: t_blobs[t], **f_blobs}
            if not provider.decide(blobs, s, t, fs):
                return True
    k = frozenset(v for v in fs if labels_for_f[v].is_high)
    if k:
        holder = labels_for_f[min(k)]
        rec = holder.explicit.get(k)
        if rec is None:
            raise MissingExplicitLabel(f"L({sorted(k)}) absent from label {min(k)}")
        if rec.size_a < n - len(fs):
            return True
        if rec.b_set is None:
            raise MissingExplicitLabel(f"B_K missing for K={sorted(k)}")
        if not rec.b_set <= fs:
            return True
    return False


def query_labels_scheme(scheme: LabelingScheme, f_set: Iterable[int]) -> bool:
    fs = frozenset(f_set)
    return query_labels({v: scheme.labels[v] for v in fs}, scheme.n, scheme.f,
                        scheme.provider)


def label_length_report(scheme: LabelingScheme, max_exponent: int = 4,
                        total_exponent: int = 4) -> dict:
    """Measured per-vertex bit lengths with the normalized ratios used by the
    scaling checks."""
    n, f = scheme.n, scheme.f
    lengths = {v: lab.bit_length for v, lab in scheme.labels.items()}
    max_bits = max(lengths.values())
    total_bits = sum(lengths.values())
    log_n = max(2.0, math.log2(n))
    return {
        "schema_version": 1,
        "n": n,
        "f": f,
        "provider": scheme.provider.name,
        "max_bits": max_bits,
        "total_bits": total_bits,
        "explicit_labels": sum(len(lab.explicit) for lab in scheme.labels.values()),
        "max_ratio": max_bits / (n ** (1.0 - 1.0 / f) * log_n ** max_exponent),
        "total_ratio": total_bits / (n * log_n ** total_exponent),
        "high_count": len(scheme.high),
    }


def check_fconnected_warmup(g: Graph, f: int, size_cap: int = 16) -> ValidationReport:
    """On an f-connected graph, every minimum cut F (|F| = f) gives each of
    its vertices two neighbors in distinct components of g - F. Verified by
    enumeration."""
    if not is_f_connected(g, f):
        raise NotFConnected(f"warm-up check requires an {f}-connected graph")
    if g.n > size_cap:
        raise SizeCapExceeded(f"n={g.n} exceeds cap {size_cap}")
    rep = ValidationReport()
    cuts = 0
    bad: list[str] = []
    for fs in combinations(range(g.n), f):
        if not is_cut_bruteforce(g, fs):
            continue
        cuts += 1
        labels = component_labels(g, fs)
        for x in fs:
            seen = {labels[u] for u in g.neighbors(x) if u not in set(fs)}
            if len(seen) < 2:
                bad.append(f"F={fs}, x={x}")
    rep.add("two-neighbors-separated", not bad,
            f"{cuts} cuts checked" if not bad else "; ".join(bad[:4]))
    return rep
