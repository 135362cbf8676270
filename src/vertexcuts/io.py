"""File formats: edge-list text, the versioned oracle container, label dumps,
TED export directories, and JSON reports.

Container layout (byte-exact):
  bytes 0..3   magic b"VCUT"
  bytes 4..5   format version, u16 little-endian (currently 1)
  bytes 6..13  manifest byte length, u64 little-endian
  ...          manifest: canonical JSON (UTF-8, sorted keys, separators ",",":")
  8 bytes      payload byte length, u64 little-endian
  ...          payload: canonical JSON (same canonical form)
  last 32      SHA-256 over all preceding bytes

Canonical JSON makes serialization deterministic, so structure sizes are
reproducible byte-exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from fractions import Fraction
from typing import Optional

from .decomposition import NodeKind, TedCollection
from .detectors import USDetector, build_fewt, build_te
from .errors import InvalidParams
from .graph import Graph
from .labels import LabelingScheme
from .oracle import (DetectorNode, HitMissFamily, HitMissRound, OracleMode,
                     RoundInfo, TerminalCutDetector, VertexCutOracle, _FewTBatch,
                     _Leaf, _USide)

MAGIC = b"VCUT"
FORMAT_VERSION = 1


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------- edge lists

def parse_edgelist(text: str) -> Graph:
    """First line "n m", then m lines "u v"; '#' starts a comment line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidParams("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise InvalidParams(f"bad header line: {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise InvalidParams(f"header says {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidParams(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
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
        parts = ln.replace(",", " ").split()
        queries.append(frozenset(int(p) for p in parts))
    return queries


def parse_query_arg(arg: str) -> frozenset[int]:
    arg = arg.strip()
    if not arg:
        return frozenset()
    return frozenset(int(p) for p in arg.replace(",", " ").split())


# ------------------------------------------------------------ oracle payload

def _frac(x: Optional[Fraction]) -> Optional[str]:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def _unfrac(s: Optional[str]) -> Optional[Fraction]:
    if s is None:
        return None
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _graph_payload(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges],
            "root_ids": list(g.root_ids)}


def _graph_from(payload: dict) -> Graph:
    return Graph(payload["n"], [tuple(e) for e in payload["edges"]],
                 root_ids=payload["root_ids"])


def _us_payload(side: _USide) -> dict:
    det = side.det
    tables = []
    for w in sorted(det.tables, key=sorted):
        arr, bit = det.tables[w]
        tables.append([sorted(w), [list(t) for t in arr], bool(bit)])
    return {"n": det.graph.n, "root_ids": list(det.graph.root_ids),
            "u": sorted(det.u_set), "s": sorted(det.s_set),
            "f_connected": det.f_connected, "tables": tables}


def _us_from(payload: dict, f: int) -> _USide:
    # The US query never touches adjacency, so the graph is restored as a
    # vertex map only; the tables are loaded as computed.
    g = Graph(payload["n"], [], root_ids=payload["root_ids"])
    tables = {frozenset(w): ([tuple(t) for t in arr], bool(bit))
              for w, arr, bit in payload["tables"]}
    det = USDetector(g, frozenset(payload["u"]), frozenset(payload["s"]), f,
                     payload["f_connected"], tables)
    return _USide(det, g.root_to_local)


def _node_payload(node: DetectorNode) -> dict:
    out = {
        "kind": node.kind.value,
        "vset": sorted(node.vset),
        "terminals": sorted(node.terminals),
        "sep": sorted(node.sep),
        "left_side": sorted(node.left_side),
        "right_side": sorted(node.right_side),
        "u_left": sorted(node.u_left),
        "u_right": sorted(node.u_right),
        "u_s": sorted(node.u_s),
        "phi": _frac(node.phi),
        "leaf": None,
        "us_left": None, "us_right": None, "us_self": None,
        "left": None, "right": None, "step": None,
    }
    if node.leaf is not None:
        det = node.leaf.det
        leaf = {"type": "te" if hasattr(det, "tau_adj") else "fewt",
                "graph": _graph_payload(det.graph),
                "terminals_local": sorted(det.terminals)}
        out["leaf"] = leaf
    for name in ("us_left", "us_right", "us_self"):
        side = getattr(node, name)
        if side is not None:
            out[name] = _us_payload(side)
    for name in ("left", "right", "step"):
        child = getattr(node, name)
        if child is not None:
            out[name] = _node_payload(child)
    return out


def _node_from(payload: dict, f: int, leaf_graphs: dict) -> DetectorNode:
    node = DetectorNode(
        kind=NodeKind(payload["kind"]),
        vset=frozenset(payload["vset"]),
        terminals=frozenset(payload["terminals"]),
        sep=frozenset(payload["sep"]),
        left_side=frozenset(payload["left_side"]),
        right_side=frozenset(payload["right_side"]),
        u_left=frozenset(payload["u_left"]),
        u_right=frozenset(payload["u_right"]),
        u_s=frozenset(payload["u_s"]),
        phi=_unfrac(payload["phi"]),
    )
    if payload["leaf"] is not None:
        node.leaf = _leaf_from(payload["leaf"], f, leaf_graphs)
    for name in ("us_left", "us_right", "us_self"):
        if payload[name] is not None:
            setattr(node, name, _us_from(payload[name], f))
    for name in ("left", "right", "step"):
        if payload[name] is not None:
            setattr(node, name, _node_from(payload[name], f, leaf_graphs))
    return node


def _leaf_from(payload: dict, f: int, leaf_graphs: dict) -> _Leaf:
    # Leaves over equal graphs share one Graph and one connectivity oracle,
    # as they do when built (oracle._conn_for). Candidates are found by
    # vertex set, then matched on the edge list.
    gp = payload["graph"]
    shared = leaf_graphs.setdefault((gp["n"], tuple(gp["root_ids"])), [])
    for edges, g, conn in shared:
        if edges == gp["edges"]:
            break
    else:
        g, conn = _graph_from(gp), None
    build = build_te if payload["type"] == "te" else build_fewt
    det = build(g, payload["terminals_local"], f, conn=conn)
    if conn is None:
        shared.append((gp["edges"], g, det.conn))
    return _Leaf(det, g.root_to_local)


def _detector_payload(det: TerminalCutDetector) -> dict:
    return {
        "type": "detector",
        "s_star": sorted(det.s_star),
        "terminals": sorted(det.terminals),
        "depth": det.depth,
        "fconnected": det.fconnected,
        "eps": _frac(det.eps),
        "sum_vertices": det.sum_vertices,
        "sum_edges": det.sum_edges,
        "root": _node_payload(det.root),
    }


def _detector_from(payload: dict, f: int, leaf_graphs: dict) -> TerminalCutDetector:
    root = _node_from(payload["root"], f, leaf_graphs)
    return TerminalCutDetector(root, frozenset(payload["s_star"]), f,
                               frozenset(payload["terminals"]), payload["depth"],
                               payload["fconnected"], _unfrac(payload["eps"]),
                               payload["sum_vertices"], payload["sum_edges"])


def oracle_payload(o: VertexCutOracle) -> dict:
    rounds = []
    for rnd in o.rounds:
        if isinstance(rnd, HitMissRound):
            rounds.append({
                "type": "hitmiss",
                "family": {"subsets": [sorted(s) for s in rnd.family.subsets],
                           "t_set": sorted(rnd.family.t_set),
                           "f": rnd.family.f,
                           "verified": rnd.family.verified},
                "s_star": sorted(rnd.s_star),
                "detectors": [_detector_payload(d) for d in rnd.detectors],
            })
        else:
            rounds.append(_detector_payload(rnd))
    return {
        "mode": o.mode.value,
        "f": o.f,
        "graph": _graph_payload(o.graph),
        "work": _graph_payload(o.work),
        "rounds": rounds,
    }


def oracle_from_payload(payload: dict, manifest: dict) -> VertexCutOracle:
    f = payload["f"]
    mode = OracleMode(payload["mode"])
    graph = _graph_from(payload["graph"])
    work = _graph_from(payload["work"])
    leaf_graphs: dict = {}  # shared by every leaf of this load
    rounds = []
    for rp in payload["rounds"]:
        if rp["type"] == "hitmiss":
            fam = HitMissFamily(tuple(frozenset(s) for s in rp["family"]["subsets"]),
                                frozenset(rp["family"]["t_set"]),
                                rp["family"]["f"], rp["family"]["verified"])
            dets = [_detector_from(dp, f, leaf_graphs) for dp in rp["detectors"]]
            trivial = all(d.root.is_leaf and d.root.kind is NodeKind.LEAF_FEWT
                          and len(d.root.vset) == work.n for d in dets)
            batch = _FewTBatch(work, f, fam.subsets) if trivial else None
            rounds.append(HitMissRound(fam, dets, frozenset(rp["s_star"]), batch))
        else:
            rounds.append(_detector_from(rp, f, leaf_graphs))
    return VertexCutOracle(graph, work, f, mode, rounds,
                           _round_info_from(manifest, len(rounds)), manifest)


def _round_info_from(manifest: dict, rounds: int) -> list[RoundInfo]:
    """The per-round summary kept in the manifest, checked against the
    payload's round count."""
    entries = manifest.get("rounds")
    if not isinstance(entries, list) or len(entries) != rounds:
        listed = len(entries) if isinstance(entries, list) else "no"
        raise InvalidParams(f"manifest lists {listed} rounds, payload has {rounds}")
    try:
        return [RoundInfo.from_manifest_entry(e) for e in entries]
    except (KeyError, TypeError) as exc:
        raise InvalidParams(f"malformed manifest round entry: {exc!r}") from None


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
    mlen = struct.unpack("<Q", data[off:off + 8])[0]
    off += 8
    manifest = json.loads(data[off:off + mlen])
    off += mlen
    plen = struct.unpack("<Q", data[off:off + 8])[0]
    off += 8
    payload = json.loads(data[off:off + plen])
    return oracle_from_payload(payload, manifest)


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
