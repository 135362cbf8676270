"""Which program functions the traced pass wraps, and the per-layer metrics
computed from the spans they record.

Each function is wrapped where the program looks it up: ``build_us`` as
bound in ``vertexcuts.oracle``, ``sparsify`` as bound in ``vertexcuts.labels``
and so on, so calls made through other bindings of the same function are not
double counted. Times are self times (a span's duration less its children's),
summed per layer and divided by the number of benchmark operations of that
kind: per build, per load, per save, per query.
"""

from __future__ import annotations

import json
import statistics
import struct
from collections import defaultdict

# The traced layers must account for at least COVERAGE_MIN of the time of
# every kind of traced operation, or leave at most GAP_US_MAX per operation
# unaccounted (the runner's own span and call into the program cost a few
# microseconds, which is more than 5% of a query on a tiny graph).
COVERAGE_MIN = 0.95
GAP_US_MAX = 20.0

_OPS = ("build", "save", "load", "label_build", "query", "label_query")


def _stats_totals(_pre, result, *_args, **_kwargs):
    stats = result[1]
    return (sum(s.nodes_visited for s in stats),
            sum(s.trim_nodes for s in stats),
            sum(s.detector_queries for s in stats))


def _update_before(conn, f_set, *_args):
    # Whether update() will replace the failure set and rebuild the labeling.
    return frozenset(f_set) != conn.failed


def _update_after(changed, _result, conn, *_args):
    return (changed, conn.graph.m if changed else 0)


def install(tracer) -> None:
    import vertexcuts.connectivity as vc
    import vertexcuts.decomposition as vd
    import vertexcuts.detectors as vdet
    import vertexcuts.io as vio
    import vertexcuts.labels as vl
    import vertexcuts.oracle as vo

    wrap = tracer.wrap
    wrap(vo, "build_oracle", "oracle.build")
    wrap(vo, "sparsify_graph", "graph.sparsify")
    wrap(vo, "build_detector", "oracle.augment")
    wrap(vo, "build_lr_tree", "decomposition.tree")
    wrap(vo, "build_hit_miss_family", "oracle.family")
    wrap(vd, "find_balanced_or_expander", "decomposition.find_cut")
    wrap(vd, "build_left_right", "decomposition.split")
    wrap(vd, "is_terminal_expander", "graph.expander_check")
    wrap(vo, "build_us", "detectors.build_us",
         after=lambda _pre, det, *_a, **_k: len(det.tables))
    for module in (vo, vio):
        wrap(module, "build_fewt", "detectors.build_leaf")
        wrap(module, "build_te", "detectors.build_leaf")
    for module in (vo, vdet, vl):
        wrap(module, "build_conn_oracle", "connectivity.build")
    wrap(vo.VertexCutOracle, "query_with_stats", "oracle.query",
         after=_stats_totals)
    wrap(vdet, "query_us", "detectors.query_us")
    wrap(vdet, "query_fewt", "detectors.query_leaf")
    wrap(vdet, "query_te", "detectors.query_leaf")
    wrap(vc.FailureConnectivityOracle, "update", "connectivity.update",
         before=_update_before, after=_update_after)
    wrap(vio, "oracle_to_bytes", "io.save")
    wrap(vio, "oracle_from_bytes", "io.load")
    wrap(vl, "build_labels", "labels.build")
    wrap(vl, "sparsify", "labels.sparsify")
    wrap(vl, "component_labels", "labels.explicit")
    wrap(vl, "query_labels_scheme", "labels.query")
    wrap(vl.RegistryProvider, "decide", "labels.decide")


def container_bytes(blob: bytes) -> dict[str, int]:
    """Canonical-JSON bytes of each kind of payload component, found by
    decoding the container (layout in docs/FORMATS.md)."""
    off = 6
    mlen = struct.unpack("<Q", blob[off:off + 8])[0]
    off += 8 + mlen
    plen = struct.unpack("<Q", blob[off:off + 8])[0]
    payload = json.loads(blob[off + 8:off + 8 + plen])
    sizes = {"graphs": 0, "us_tables": 0, "families": 0, "node_sets": 0}
    node_set_keys = {"vset", "terminals", "sep", "left_side", "right_side",
                     "u_left", "u_right", "u_s", "s_star", "terminals_local"}

    def size(x) -> int:
        return len(json.dumps(x, sort_keys=True, separators=(",", ":")).encode())

    def walk(x) -> None:
        if isinstance(x, list):
            for v in x:
                walk(v)
            return
        if not isinstance(x, dict):
            return
        for k, v in x.items():
            if v is None:
                continue
            if k in ("graph", "work"):
                sizes["graphs"] += size(v)
            elif k in ("us_left", "us_right", "us_self"):
                sizes["us_tables"] += size(v)
            elif k == "family":
                sizes["families"] += size(v)
            elif k in node_set_keys:
                sizes["node_sets"] += size(v)
            else:
                walk(v)

    walk(payload)
    return sizes


def per_layer(tracer, oracle, scheme, blob: bytes, bfs_us: list[float],
              traced_query_us: list[float], traced_build_s: list[float]):
    """Return (metrics, coverage): the per-layer metrics in the runner's
    output form, and per operation kind the share of its time that the
    traced layers account for, with the time per operation they leave
    unaccounted, in microseconds."""
    agg = {op: tracer.by_operation(op) for op in _OPS}
    coverage = {op: (sum(a["self_s"].values()) / a["total_s"],
                     (a["total_s"] - sum(a["self_s"].values())) / a["ops"] * 1e6)
                for op, a in agg.items() if a["ops"]}

    def per_op(op, name, scale=1.0, field="self_s"):
        a = agg[op]
        return a[field].get(name, 0) / a["ops"] * scale if a["ops"] else 0.0

    infos: dict[tuple[str, str], list] = defaultdict(list)
    root = tracer.root_of()
    leaf_total = leaf_skip = 0
    children = tracer.children()
    for s in tracer.spans:
        if s[1] < 0:
            continue
        op = tracer.spans[root[s[0]]][2]
        if s[5] is not None:
            infos[(op, s[2])].append(s[5])
        if op == "query" and s[2] == "detectors.query_leaf":
            leaf_total += 1
            if not any(tracer.spans[c][2] == "connectivity.update"
                       for c in children.get(s[0], ())):
                leaf_skip += 1

    n_build = max(1, agg["build"]["ops"])
    n_query = max(1, agg["query"]["ops"])
    updates = infos[("query", "connectivity.update")]
    walks = infos[("query", "oracle.query")]
    manifest = oracle.manifest
    rounds = manifest["rounds"]
    nbytes = container_bytes(blob)
    lq = agg["label_query"]

    values = {
        "graph.sparsify_s": (per_op("build", "graph.sparsify"), "s"),
        "graph.work_edges": (manifest["work_edges"], "count"),
        "graph.expander_check_s": (per_op("build", "graph.expander_check"), "s"),
        "decomposition.find_cut_s": (per_op("build", "decomposition.find_cut"), "s"),
        "decomposition.find_cut_calls": (per_op("build", "decomposition.find_cut", field="calls"), "count"),
        "decomposition.split_s": (per_op("build", "decomposition.split"), "s"),
        "decomposition.rounds": (len(rounds), "count"),
        "decomposition.tree_depth_max": (max(r["tree_depth"] for r in rounds), "count"),
        "decomposition.s_star_total": (sum(r["s_star"] for r in rounds), "count"),
        "decomposition.tree_vertices": (sum(r["sum_vertices"] for r in rounds), "count"),
        "decomposition.tree_edges": (sum(r["sum_edges"] for r in rounds), "count"),
        "detectors.build_us_s": (per_op("build", "detectors.build_us"), "s"),
        "detectors.build_us_calls": (per_op("build", "detectors.build_us", field="calls"), "count"),
        "detectors.us_table_rows": (sum(infos[("build", "detectors.build_us")]) / n_build, "count"),
        "detectors.build_leaf_s": (per_op("build", "detectors.build_leaf"), "s"),
        "detectors.query_us_us": (per_op("query", "detectors.query_us", 1e6), "us"),
        "detectors.query_us_calls": (per_op("query", "detectors.query_us", field="calls"), "count"),
        "detectors.query_leaf_us": (per_op("query", "detectors.query_leaf", 1e6), "us"),
        "detectors.query_leaf_calls": (per_op("query", "detectors.query_leaf", field="calls"), "count"),
        "detectors.leaf_skip_ratio": (leaf_skip / leaf_total if leaf_total else 0.0, "ratio"),
        "connectivity.update_us": (per_op("query", "connectivity.update", 1e6), "us"),
        "connectivity.updates_per_query": (len(updates) / n_query, "count"),
        "connectivity.rebuilds_per_query": (sum(u[0] for u in updates) / n_query, "count"),
        "connectivity.edges_scanned_per_query": (sum(u[1] for u in updates) / n_query, "count"),
        "connectivity.build_s": (per_op("build", "connectivity.build"), "s"),
        "oracle.walk_us": (per_op("query", "oracle.query", 1e6), "us"),
        "oracle.nodes_visited_per_query": (sum(x[0] for x in walks) / n_query, "count"),
        "oracle.trims_per_query": (sum(x[1] for x in walks) / n_query, "count"),
        "oracle.detector_queries_per_query": (sum(x[2] for x in walks) / n_query, "count"),
        "oracle.augment_s": (per_op("build", "oracle.augment"), "s"),
        "oracle.family_s": (per_op("build", "oracle.family"), "s"),
        "oracle.family_k": (sum(r.get("family_k", 0) for r in rounds), "count"),
        "io.save_s": (per_op("save", "io.save"), "s"),
        "io.bytes_graphs": (nbytes["graphs"], "bytes"),
        "io.bytes_us_tables": (nbytes["us_tables"], "bytes"),
        "io.bytes_families": (nbytes["families"], "bytes"),
        "io.bytes_node_sets": (nbytes["node_sets"], "bytes"),
        "io.load_rebuild_s": (per_op("load", "detectors.build_leaf")
                              + per_op("load", "connectivity.build"), "s"),
        "labels.sparsify_s": (per_op("label_build", "labels.sparsify"), "s"),
        "labels.explicit_s": (per_op("label_build", "labels.explicit"), "s"),
        "labels.assemble_s": (per_op("label_build", "labels.build"), "s"),
        "labels.high_count": (len(scheme.high), "count"),
        "labels.explicit_records": (sum(len(lab.explicit) for lab in scheme.labels.values()), "count"),
        # decide() makes the label query's connectivity update, so both count.
        "labels.decide_us": ((lq["self_s"].get("labels.decide", 0.0)
                              + lq["self_s"].get("connectivity.update", 0.0))
                             / max(1, lq["ops"]) * 1e6, "us"),
        "labels.decide_calls_per_query": (per_op("label_query", "labels.decide", field="calls"), "count"),
        "baseline.bfs_query_p50_us": (statistics.median(bfs_us), "us"),
        "trace.setup_s": (statistics.median(traced_build_s), "s"),
        "trace.query_p50_us": (statistics.median(traced_query_us), "us"),
        "trace.coverage_min": (min(share for share, _ in coverage.values()), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, coverage
