"""The oracle container on load: round summaries, derived vertex sets and
shared connectivity oracles survive a save/load round trip, a save of a
loaded oracle reproduces its bytes, and malformed containers, fuzzed by
truncation, length fields and re-checksummed byte edits, either load or
are rejected with a library error."""

import copy
import struct
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (barbell_graph, container, container_parts, cycle_graph,
                     path_graph, rechecksummed, subsets_upto, two_blob_graph)
from vertexcuts.decomposition import TreeParams
from vertexcuts.errors import InvalidParams, VertexCutsError
from vertexcuts.generators import gen_connected_gnp
import vertexcuts.io as vio
from vertexcuts.io import (canonical_json_bytes, load_oracle, oracle_from_bytes,
                           oracle_payload, oracle_to_bytes, save_oracle)
from vertexcuts.oracle import OracleMode, build_oracle

DEEP = TreeParams(eps_override=Fraction(1, 2))
CASES = [
    (gen_connected_gnp(14, 0.3, 1), 2, OracleMode.GENERAL, None),
    (barbell_graph(5), 2, OracleMode.GENERAL, DEEP),
    (two_blob_graph(8, 2, 0.5, 9), 2, OracleMode.GENERAL,
     TreeParams(eps_override=Fraction(1, 4))),
    (path_graph(4), 1, OracleMode.HITMISS, None),
    (barbell_graph(4), 1, OracleMode.HITMISS, None),
    (two_blob_graph(8, 2, 0.5, 9), 1, OracleMode.HITMISS,
     TreeParams(eps_override=Fraction(1, 3))),
]


def leaves(o):
    for det in o.rounds:
        for node in det.nodes():
            if node.leaf is not None:
                yield node.leaf


def first_leaf(node_payload):
    while node_payload["leaf"] is None:
        node_payload = node_payload["left"]
    return node_payload["leaf"]


@pytest.mark.parametrize("g,f,mode,params", CASES)
def test_round_info_survives_save_and_load(tmp_path, g, f, mode, params):
    # Each round's summary (T, S*, depth, size sums) and each node's vertex
    # set are derived on load; they must come out as built.
    o = build_oracle(g, f, mode, params)
    path = str(tmp_path / "oracle.vcut")
    save_oracle(o, path)
    loaded = load_oracle(path)
    assert len(loaded.rounds) == len(o.rounds) >= 1
    assert ([det.manifest_entry() for det in loaded.rounds]
            == [det.manifest_entry() for det in o.rounds] == o.manifest["rounds"])
    for built, back in zip(o.rounds, loaded.rounds):
        assert (back.terminals, back.s_star) == (built.terminals, built.s_star)
        assert [n.vset for n in back.nodes()] == [n.vset for n in built.nodes()]


@pytest.mark.parametrize("g,f,mode,params", CASES)
def test_save_of_a_loaded_oracle_reproduces_its_bytes(g, f, mode, params):
    data = oracle_to_bytes(build_oracle(g, f, mode, params))
    assert oracle_to_bytes(oracle_from_bytes(data)) == data


def test_work_graph_is_stored_once():
    # The hit-miss leaf is over the work graph, which is table entry 0.
    payload = oracle_payload(build_oracle(path_graph(5), 1, OracleMode.HITMISS))
    assert len(payload["graphs"]) == 1 and "work" not in payload
    assert first_leaf(payload["rounds"][0]["root"])["graph"] == 0


def test_round_count_mismatch_is_rejected():
    o = build_oracle(barbell_graph(5), 2, params=DEEP)
    extra = dict(o.manifest["rounds"][0])
    o.manifest = dict(o.manifest, rounds=o.manifest["rounds"] + [extra])
    with pytest.raises(InvalidParams, match="rounds"):
        oracle_from_bytes(oracle_to_bytes(o))
    o.manifest = dict(o.manifest, rounds=[{"terminals": 1}] * len(o.rounds))
    with pytest.raises(InvalidParams, match="manifest"):
        oracle_from_bytes(oracle_to_bytes(o))


@pytest.mark.parametrize("g,f,mode,params", CASES)
def test_reload_shares_connectivity_oracles_as_built(g, f, mode, params):
    o = build_oracle(g, f, mode, params)
    loaded = oracle_from_bytes(oracle_to_bytes(o))
    built_leaves, loaded_leaves = list(leaves(o)), list(leaves(loaded))
    assert len(built_leaves) == len(loaded_leaves)
    assert (len({id(d.conn) for d in built_leaves})
            == len({id(d.conn) for d in loaded_leaves}))
    for fs in subsets_upto(g.n, f):
        assert o.query(fs) == loaded.query(fs), fs


def test_leaves_over_one_graph_share_one_oracle():
    # eps is overridden so that the trees split; 31 leaves, within and
    # across rounds, lie over 12 distinct graphs
    o = build_oracle(two_blob_graph(12, 2, 0.5, 13), 1,
                     params=TreeParams(eps_override=Fraction(1, 3)))
    for oracle in (o, oracle_from_bytes(oracle_to_bytes(o))):
        by_graph = {}
        for det in leaves(oracle):
            by_graph.setdefault(det.graph, []).append(det)
        assert all(len({id(d.conn) for d in dets}) == 1 for dets in by_graph.values())
        assert max(len(dets) for dets in by_graph.values()) > 1


def test_leaf_interning_matches_whole_graphs():
    # Leaves share the Graph and the connectivity oracle of their table
    # entry; two entries over the same vertices with other edges do not.
    from vertexcuts.detectors import DetectorAnswer
    from vertexcuts.graph import Graph
    from vertexcuts.io import _leaf_from
    graphs = [Graph(3, [(0, 1), (1, 2)], root_ids=[5, 6, 7]),
              Graph(3, [(0, 1), (0, 2), (1, 2)], root_ids=[5, 6, 7])]
    conns = [None, None]
    a, b, c = (_leaf_from({"type": "fewt", "graph": i, "terminals_local": [0, 2]},
                          1, graphs, conns) for i in (0, 1, 0))
    assert a.graph is c.graph is graphs[0] and a.conn is c.conn
    assert b.graph is graphs[1] and b.conn is not a.conn
    assert a.query([1]) is DetectorAnswer.CUT
    assert b.query([1]) is DetectorAnswer.FAIL


def test_malformed_checksummed_containers_raise_invalid_params():
    o = build_oracle(barbell_graph(5), 2, params=DEEP)
    manifest = canonical_json_bytes(o.manifest)
    payload = oracle_payload(o)
    assert oracle_from_bytes(container(manifest, canonical_json_bytes(payload)))
    no_f = {k: v for k, v in payload.items() if k != "f"}
    no_root = dict(payload, rounds=[{k: v for k, v in payload["rounds"][0].items()
                                     if k != "root"}] + payload["rounds"][1:])
    no_graph = copy.deepcopy(payload)
    first_leaf(no_graph["rounds"][0]["root"])["graph"] = len(payload["graphs"])
    bad = [
        container(manifest, canonical_json_bytes(no_graph)),
        container(manifest, canonical_json_bytes(no_f)),
        container(manifest, canonical_json_bytes(no_root)),
        container(manifest, b"not json"),
        container(manifest, canonical_json_bytes(payload), mlen=1 << 20),
    ]
    for data in bad:
        with pytest.raises(InvalidParams, match="malformed"):
            oracle_from_bytes(data)


@pytest.mark.parametrize("index", ["len", -1, True, 0.0, "0"])
def test_leaf_graph_index_outside_the_table_is_rejected(index):
    # A negative index must not wrap around to the end of the table.
    o = build_oracle(barbell_graph(5), 2, params=DEEP)
    payload = oracle_payload(o)
    assert len(payload["graphs"]) > 1
    leaf = first_leaf(payload["rounds"][0]["root"])
    leaf["graph"] = len(payload["graphs"]) if index == "len" else index
    with pytest.raises(InvalidParams, match="leaf graph index"):
        oracle_from_bytes(container(canonical_json_bytes(o.manifest),
                                    canonical_json_bytes(payload)))


def test_manifest_round_summary_that_disagrees_with_the_payload_is_rejected():
    o = build_oracle(barbell_graph(5), 2, params=DEEP)
    _, payload = container_parts(oracle_to_bytes(o))
    rounds = [dict(r) for r in o.manifest["rounds"]]
    rounds[0]["tree_depth"] += 1
    manifest = canonical_json_bytes(dict(o.manifest, rounds=rounds))
    with pytest.raises(InvalidParams, match="manifest rounds="):
        oracle_from_bytes(container(manifest, payload))


MANIFEST_EDITS = {"n": 1, "m": 1, "f": 1, "work_edges": 1, "mode": "hitmiss"}


@pytest.mark.parametrize("key", list(MANIFEST_EDITS))
def test_manifest_that_disagrees_with_the_payload_is_rejected(key):
    o = build_oracle(barbell_graph(5), 2)
    _, payload = container_parts(oracle_to_bytes(o))
    edit = MANIFEST_EDITS[key]
    value = edit if isinstance(edit, str) else o.manifest[key] + edit
    manifest = canonical_json_bytes(dict(o.manifest, **{key: value}))
    with pytest.raises(InvalidParams, match=f"manifest {key}="):
        oracle_from_bytes(container(manifest, payload))


@pytest.mark.parametrize("old,new", [(b'{"f":2,', b'{"f":3,'),
                                     (b'"mode":"general"', b'"mode":"hitmiss"')])
def test_payload_that_disagrees_with_the_manifest_is_rejected(old, new):
    data = oracle_to_bytes(build_oracle(barbell_graph(5), 2))
    assert data.count(old) == 2  # once in the manifest, then in the payload
    i = data.rindex(old)
    with pytest.raises(InvalidParams, match="disagrees"):
        oracle_from_bytes(rechecksummed(data[:i] + new + data[i + len(old):]))


FUZZ = {key: oracle_to_bytes(build_oracle(g, f, mode, params))
        for key, (g, f, mode, params) in {
            OracleMode.GENERAL: (gen_connected_gnp(9, 0.4, 3), 2, OracleMode.GENERAL, None),
            OracleMode.FCONNECTED: (cycle_graph(6), 2, OracleMode.FCONNECTED, None),
            OracleMode.HITMISS: (path_graph(5), 1, OracleMode.HITMISS, None),
        }.items()}
FUZZ_SETTINGS = settings(max_examples=150, deadline=None, database=None)


def loads_or_raises_library_error(data: bytes) -> None:
    try:
        oracle_from_bytes(data)
    except VertexCutsError:
        pass


@pytest.mark.parametrize("mode", list(FUZZ))
@FUZZ_SETTINGS
@given(st.data())
def test_fuzz_truncated_container(mode, data):
    blob = FUZZ[mode]
    loads_or_raises_library_error(blob[:data.draw(st.integers(0, len(blob) - 1))])


@pytest.mark.parametrize("mode", list(FUZZ))
@FUZZ_SETTINGS
@given(st.booleans(), st.integers(0, 2 ** 64 - 1))
def test_fuzz_length_fields(mode, payload_field, length):
    manifest, payload = container_parts(FUZZ[mode])
    if payload_field:
        data = bytearray(container(manifest, payload))
        data[14 + len(manifest):22 + len(manifest)] = struct.pack("<Q", length)
        loads_or_raises_library_error(rechecksummed(bytes(data)))
    else:
        loads_or_raises_library_error(container(manifest, payload, mlen=length))


@pytest.mark.parametrize("mode", list(FUZZ))
@FUZZ_SETTINGS
@given(st.data())
def test_fuzz_rechecksummed_byte_edits(mode, data):
    blob = bytearray(FUZZ[mode])
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(blob) - 33))
        blob[pos] = data.draw(st.integers(0, 255))
    loads_or_raises_library_error(rechecksummed(bytes(blob)))


def assert_version_is_rejected(version):
    manifest, payload = container_parts(FUZZ[OracleMode.HITMISS])
    with pytest.raises(InvalidParams,
                       match=f"unsupported container version {version}"):
        oracle_from_bytes(container(manifest, payload, version=version))


def test_version_1_container_is_rejected():
    assert_version_is_rejected(1)


def test_version_2_container_is_rejected():
    # version 2 stored a trivial hit-miss round as its family alone
    assert_version_is_rejected(2)


def test_version_3_container_is_rejected():
    # version 3 stored a trivial hit-miss round as a detector record but still
    # read the hit-miss round record, which version 4 drops
    assert_version_is_rejected(3)


def test_version_4_container_is_rejected():
    # version 4 stored the work graph again in each leaf over it, node
    # vertex and terminal sets, and eps, phi and u_s, which version 5 drops
    assert_version_is_rejected(4)


def test_unknown_round_type_is_rejected():
    o = build_oracle(path_graph(5), 1, OracleMode.HITMISS)
    payload = oracle_payload(o)
    bad = dict(payload, rounds=[dict(payload["rounds"][0], type="hitmiss")])
    with pytest.raises(InvalidParams, match="unknown round type 'hitmiss'"):
        oracle_from_bytes(container(canonical_json_bytes(o.manifest),
                                    canonical_json_bytes(bad)))


def test_format_docs_name_the_current_version():
    formats = Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md"
    docs = " ".join(formats.read_text().split())
    current = f"(currently {vio.FORMAT_VERSION})"
    assert current in docs and current in vio.__doc__
    assert f"Only version {vio.FORMAT_VERSION} is read" in docs
