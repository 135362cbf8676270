"""File formats: edge-list text, the versioned oracle container, label dumps,
TED export directories, and JSON reports.

Container layout (byte-exact):
  bytes 0..3   magic b"VCUT"
  bytes 4..5   format version, u16 little-endian (currently 6)
  bytes 6..13  manifest byte length, u64 little-endian
  ...          manifest: canonical JSON (UTF-8, sorted keys, separators ",",":")
  8 bytes      payload byte length, u64 little-endian
  ...          payload: canonical JSON (same canonical form)
  last 32      SHA-256 over all preceding bytes

Canonical JSON makes serialization deterministic, so structure sizes are
reproducible byte-exactly. The payload stores each fact once. It holds the
input graph, a table of graphs (the work graph, then each distinct leaf
graph; leaves refer to it by index) and one detector record per round.
A U/S detector record keeps, in root ids, only the rows a query can read.
What the tree determines is derived on load, not stored: node vertex sets,
the rounds' terminal sets, S*, depths and vertex sums. The manifest's round
summaries must equal those recomputed from the loaded detectors. A round of
any other type, and a container of any other version, is rejected
(docs/FORMATS.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from fractions import Fraction
from math import comb
from typing import Optional

from .decomposition import NodeKind, TedCollection
from .detectors import FewTDetector, TEDetector, USDetector, build_fewt, build_te
from .errors import InvalidParams
from .graph import Graph
from .labels import LabelingScheme
from .oracle import DetectorNode, OracleMode, TerminalCutDetector, VertexCutOracle

MAGIC = b"VCUT"
FORMAT_VERSION = 6


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------- edge lists

def _ints(tokens: list[str]) -> list[int]:
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise InvalidParams(f"not an integer: {t!r}") from None
    return out


def parse_edgelist(text: str) -> Graph:
    """First line "n m", then m lines "u v"; '#' starts a comment line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidParams("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise InvalidParams(f"bad header line: {lines[0]!r}")
    n, m = _ints(head)
    if len(lines) - 1 != m:
        raise InvalidParams(f"header says {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidParams(f"bad edge line: {ln!r}")
        edges.append(tuple(_ints(parts)))
    return Graph(n, edges)


def format_edgelist(g: Graph, comment: str = "") -> str:
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append(f"{g.n} {g.m}")
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def parse_query_text(text: str) -> list[frozenset[int]]:
    """One query per line; ids separated by commas or whitespace."""
    queries = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        queries.append(frozenset(_ints(ln.replace(",", " ").split())))
    return queries


def parse_query_arg(arg: str) -> frozenset[int]:
    arg = arg.strip()
    if not arg:
        return frozenset()
    return frozenset(_ints(arg.replace(",", " ").split()))


# ------------------------------------------------------------ oracle payload

def _graph_payload(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges],
            "root_ids": list(g.root_ids)}


def _graph_from(payload: dict) -> Graph:
    return Graph(payload["n"], [tuple(e) for e in payload["edges"]],
                 root_ids=payload["root_ids"])


def _us_payload(det: USDetector) -> dict:
    tables = [[sorted(w), [list(t) for t in arr], bit]
              for w, (arr, bit) in sorted(det.tables.items(),
                                          key=lambda row: sorted(row[0]))]
    return {"u": sorted(det.u_set), "s": sorted(det.s_set),
            "f_connected": det.f_connected, "tables": tables}


def _us_from(payload: dict, f: int) -> USDetector:
    # The tables are loaded as computed, so they must hold exactly the rows
    # a query can read, one per W ⊆ U with |W| <= f (a missing row would
    # fail the query), and name no id outside S ∪ U.
    u = frozenset(payload["u"])
    s = frozenset(payload["s"])
    tables = {}
    ids: set[int] = set()
    for w, arr, bit in payload["tables"]:
        rows = list(map(tuple, arr))
        ids.update(w, *rows)
        tables[frozenset(w)] = (rows, bool(bit))
    expected = sum(comb(len(u), i) for i in range(min(f, len(u)) + 1))
    if (len(tables) != len(payload["tables"]) or len(tables) != expected
            or not all(len(w) <= f and w <= u for w in tables)):
        raise InvalidParams("malformed oracle container: the rows of a US record are "
                            f"not one per W ⊆ U with |W| <= f={f}")
    if not ids <= s | u:
        raise InvalidParams("malformed oracle container: a US record names ids "
                            f"outside S ∪ U: {sorted(ids - s - u)}")
    return USDetector(u, s, f, payload["f_connected"], tables)


_NODE_SETS = ("sep", "left_side", "right_side", "u_left", "u_right")


def _node_payload(node: DetectorNode, graphs: dict[Graph, int]) -> dict:
    """A node record; ``graphs`` numbers the graph table, in order of first
    use, and gains each leaf graph it does not yet hold."""
    out = {name: sorted(getattr(node, name)) for name in _NODE_SETS}
    out.update(kind=node.kind.value, leaf=None, us_left=None, us_right=None,
               us_self=None, left=None, right=None, step=None)
    if node.leaf is not None:
        det = node.leaf
        out["leaf"] = {"type": "te" if hasattr(det, "tau_adj") else "fewt",
                       "graph": graphs.setdefault(det.graph, len(graphs)),
                       "terminals_local": sorted(det.terminals)}
    for name in ("us_left", "us_right", "us_self"):
        det = getattr(node, name)
        if det is not None:
            out[name] = _us_payload(det)
    for name in ("left", "right", "step"):
        child = getattr(node, name)
        if child is not None:
            out[name] = _node_payload(child, graphs)
    return out


def _node_from(payload: dict, f: int, graphs: list[Graph],
               conns: list) -> DetectorNode:
    sets = {name: frozenset(payload[name]) for name in _NODE_SETS}
    leaf = None
    if payload["leaf"] is not None:
        leaf = _leaf_from(payload["leaf"], f, graphs, conns)
        vset = leaf.graph.root_vertex_set()
    else:
        vset = sets["left_side"] | sets["sep"] | sets["right_side"]
    node = DetectorNode(NodeKind(payload["kind"]), vset, leaf=leaf, **sets)
    for name in ("us_left", "us_right", "us_self"):
        if payload[name] is not None:
            setattr(node, name, _us_from(payload[name], f))
    for name in ("left", "right", "step"):
        if payload[name] is not None:
            setattr(node, name, _node_from(payload[name], f, graphs, conns))
    return node


def _leaf_from(payload: dict, f: int, graphs: list[Graph],
               conns: list) -> FewTDetector | TEDetector:
    # Leaves over one table entry share its Graph and one connectivity
    # oracle, as they do when built (oracle._conn_for), and so its memo of
    # the last query. ``conns`` holds each entry's oracle once it is built.
    i = payload["graph"]
    if type(i) is not int or not 0 <= i < len(graphs):
        raise InvalidParams(f"malformed oracle container: leaf graph index {i!r} "
                            f"is not in [0, {len(graphs)})")
    build = build_te if payload["type"] == "te" else build_fewt
    det = build(graphs[i], payload["terminals_local"], f, conn=conns[i])
    conns[i] = det.conn
    return det


def oracle_payload(o: VertexCutOracle) -> dict:
    graphs = {o.work: 0}
    rounds = [{"type": "detector", "sum_edges": det.sum_edges,
               "root": _node_payload(det.root, graphs)} for det in o.rounds]
    return {
        "mode": o.mode.value,
        "f": o.f,
        "graph": _graph_payload(o.graph),
        "graphs": [_graph_payload(g) for g in graphs],
        "rounds": rounds,
    }


def oracle_from_payload(payload: dict, manifest: dict) -> VertexCutOracle:
    f = payload["f"]
    mode = OracleMode(payload["mode"])
    graph = _graph_from(payload["graph"])
    graphs = [_graph_from(gp) for gp in payload["graphs"]]
    work = graphs[0]
    conns: list = [None] * len(graphs)
    # Round 0's terminals are the work graph's vertices; each later round's
    # are the S* of the round before.
    terms = frozenset(range(work.n))
    rounds = []
    for rp in payload["rounds"]:
        if rp["type"] != "detector":
            raise InvalidParams(f"unknown round type {rp['type']!r}")
        root = _node_from(rp["root"], f, graphs, conns)
        rounds.append(TerminalCutDetector(root, f, terms, mode is OracleMode.FCONNECTED,
                                          rp["sum_edges"]))
        terms = rounds[-1].s_star
    for key, value in (("n", graph.n), ("m", graph.m), ("f", f),
                       ("mode", mode.value), ("work_edges", work.m),
                       ("rounds", [det.manifest_entry() for det in rounds])):
        if manifest[key] != value:
            raise InvalidParams(f"manifest {key}={manifest[key]!r} disagrees "
                                f"with the payload's {value!r}")
    return VertexCutOracle(graph, work, f, mode, rounds, manifest)


def oracle_to_bytes(o: VertexCutOracle) -> bytes:
    manifest = canonical_json_bytes(o.manifest)
    payload = canonical_json_bytes(oracle_payload(o))
    body = (MAGIC + struct.pack("<H", FORMAT_VERSION)
            + struct.pack("<Q", len(manifest)) + manifest
            + struct.pack("<Q", len(payload)) + payload)
    return body + hashlib.sha256(body).digest()


def oracle_from_bytes(data: bytes) -> VertexCutOracle:
    if len(data) < 4 + 2 + 8 + 8 + 32 or data[:4] != MAGIC:
        raise InvalidParams("not a vertexcuts oracle container")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise InvalidParams("oracle container checksum mismatch")
    version = struct.unpack("<H", data[4:6])[0]
    if version != FORMAT_VERSION:
        raise InvalidParams(f"unsupported container version {version}")
    off = 6
    try:
        mlen = struct.unpack("<Q", data[off:off + 8])[0]
        off += 8
        manifest = json.loads(data[off:off + mlen])
        off += mlen
        plen = struct.unpack("<Q", data[off:off + 8])[0]
        off += 8
        payload = json.loads(data[off:off + plen])
        return oracle_from_payload(payload, manifest)
    except (struct.error, ValueError, LookupError, TypeError, AttributeError,
            ArithmeticError) as exc:
        # A checksummed container written by something other than
        # oracle_to_bytes: bad lengths, text that is not JSON, missing keys,
        # values of the wrong type.
        raise InvalidParams(
            f"malformed oracle container: {type(exc).__name__}: {exc}") from None


def save_oracle(o: VertexCutOracle, path: str) -> int:
    data = oracle_to_bytes(o)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def load_oracle(path: str) -> VertexCutOracle:
    with open(path, "rb") as fh:
        return oracle_from_bytes(fh.read())


# -------------------------------------------------------------- label dumps

def label_dump(scheme: LabelingScheme) -> dict:
    """One record per vertex: id, class, bit length, hex payload; plus the
    scheme manifest."""
    return {
        "manifest": scheme.manifest,
        "records": [
            {"id": v,
             "class": "high" if lab.is_high else "low",
             "bits": lab.bit_length,
             "hex": lab.payload.hex()}
            for v, lab in sorted(scheme.labels.items())
        ],
    }


def write_label_dump(scheme: LabelingScheme, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(label_dump(scheme), fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- TED export

def _frac(x: Optional[Fraction]) -> Optional[str]:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def write_ted_dir(ted: TedCollection, path: str) -> None:
    """A directory with one edge-list file per pair plus manifest.json listing
    per-pair terminal sets, root-id maps, node kind and certified phi."""
    os.makedirs(path, exist_ok=True)
    entries = []
    for i, e in enumerate(ted.entries):
        fname = f"pair_{i:04d}.edges"
        with open(os.path.join(path, fname), "w") as fh:
            fh.write(format_edgelist(e.graph, comment=f"TED pair {i}"))
        entries.append({
            "file": fname,
            "terminals": sorted(e.terminals),
            "root_ids": list(e.graph.root_ids),
            "kind": e.kind.value,
            "phi": _frac(e.phi),
            "certificate": e.certificate,
            "round": e.round_index,
        })
    manifest = {
        "schema_version": 1,
        "f": ted.f,
        "phi": _frac(ted.phi),
        "leaf_threshold": _frac(ted.leaf_threshold),
        "rounds": ted.rounds,
        "pairs": entries,
    }
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
