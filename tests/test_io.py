"""The oracle container on load: round summaries and shared connectivity
oracles survive a save/load round trip, and malformed containers, fuzzed
by truncation, length fields and re-checksummed byte edits, either load or
are rejected with a library error."""

import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (barbell_graph, container, container_parts, cycle_graph,
                     path_graph, rechecksummed, subsets_upto, two_blob_graph)
from vertexcuts.decomposition import TreeParams
from vertexcuts.errors import InvalidParams, VertexCutsError
from vertexcuts.generators import gen_connected_gnp
from vertexcuts.io import (canonical_json_bytes, load_oracle, oracle_from_bytes,
                           oracle_payload, oracle_to_bytes, save_oracle)
from vertexcuts.oracle import HitMissRound, OracleMode, build_oracle

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
    for rnd in o.rounds:
        for det in (rnd.detectors if isinstance(rnd, HitMissRound) else [rnd]):
            for node in det.nodes():
                if node.leaf is not None:
                    yield node.leaf


@pytest.mark.parametrize("g,f,mode,params", CASES)
def test_round_info_survives_save_and_load(tmp_path, g, f, mode, params):
    o = build_oracle(g, f, mode, params)
    path = str(tmp_path / "oracle.vcut")
    save_oracle(o, path)
    loaded = load_oracle(path)
    assert loaded.round_info == o.round_info
    assert len(loaded.round_info) == len(o.rounds) >= 1


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
    # a hit-miss subset with few terminals is a single leaf over the whole
    # work graph; eps is overridden so that other subsets split
    o = build_oracle(two_blob_graph(8, 2, 0.5, 9), 1, OracleMode.HITMISS,
                     TreeParams(eps_override=Fraction(1, 3)))
    assert isinstance(o.rounds[0], HitMissRound)
    for oracle in (o, oracle_from_bytes(oracle_to_bytes(o))):
        dets = [d for d in leaves(oracle) if d.graph.n == oracle.work.n]
        assert len(dets) > 1 and len({id(d.conn) for d in dets}) == 1


def test_leaf_interning_matches_whole_graphs():
    from vertexcuts.detectors import DetectorAnswer
    from vertexcuts.io import _leaf_from
    path = {"n": 3, "edges": [[0, 1], [1, 2]], "root_ids": [5, 6, 7]}
    triangle = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "root_ids": [5, 6, 7]}
    shared = {}
    a, b, c = (_leaf_from({"type": "fewt", "graph": gp, "terminals_local": [0, 2]},
                          1, shared) for gp in (path, triangle, dict(path)))
    assert a.graph is c.graph and a.conn is c.conn
    assert b.conn is not a.conn  # same vertices, other edges
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
    zero_eps = dict(payload, rounds=[dict(payload["rounds"][0], eps="1/0")]
                    + payload["rounds"][1:])
    bad = [
        container(manifest, canonical_json_bytes(zero_eps)),
        container(manifest, canonical_json_bytes(no_f)),
        container(manifest, canonical_json_bytes(no_root)),
        container(manifest, b"not json"),
        container(manifest, canonical_json_bytes(payload), mlen=1 << 20),
    ]
    for data in bad:
        with pytest.raises(InvalidParams, match="malformed"):
            oracle_from_bytes(data)


# eps = 1/2 puts |T| = 6 above the threshold 4, so the round keeps its family
HITMISS_FAMILY = (path_graph(6), 1, OracleMode.HITMISS,
                  TreeParams(eps_override=Fraction(1, 2)))


def test_family_outside_the_work_graph_is_rejected():
    o = build_oracle(*HITMISS_FAMILY)
    manifest = canonical_json_bytes(o.manifest)
    payload = oracle_payload(o)
    family = payload["rounds"][0]["family"]
    for edit in ({"subsets": [[-1, 0]] + family["subsets"][1:]},
                 {"t_set": family["t_set"] + [6], "subsets": [[6]] + family["subsets"]}):
        bad = dict(payload, rounds=[dict(payload["rounds"][0], family=dict(family, **edit))])
        with pytest.raises(VertexCutsError):
            oracle_from_bytes(container(manifest, canonical_json_bytes(bad)))


def test_hitmiss_round_without_a_detector_per_subset_is_rejected():
    o = build_oracle(*HITMISS_FAMILY)
    manifest = canonical_json_bytes(o.manifest)
    payload = oracle_payload(o)
    rnd = payload["rounds"][0]
    for dets in ([], rnd["detectors"][1:]):
        bad = dict(payload, rounds=[dict(rnd, detectors=dets)])
        with pytest.raises(InvalidParams, match="detectors for"):
            oracle_from_bytes(container(manifest, canonical_json_bytes(bad)))


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


# OracleMode.HITMISS is a trivial hit-miss round, "hitmiss-family" one with
# a family and a detector per subset.
FUZZ = {key: oracle_to_bytes(build_oracle(g, f, mode, params))
        for key, (g, f, mode, params) in {
            OracleMode.GENERAL: (gen_connected_gnp(9, 0.4, 3), 2, OracleMode.GENERAL, None),
            OracleMode.FCONNECTED: (cycle_graph(6), 2, OracleMode.FCONNECTED, None),
            OracleMode.HITMISS: (path_graph(5), 1, OracleMode.HITMISS, None),
            "hitmiss-family": HITMISS_FAMILY,
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


def test_version_1_container_is_rejected():
    manifest, payload = container_parts(FUZZ[OracleMode.HITMISS])
    with pytest.raises(InvalidParams, match="unsupported container version 1"):
        oracle_from_bytes(container(manifest, payload, version=1))


def test_version_2_container_is_rejected():
    # version 2 stored a trivial hit-miss round as its family alone
    for blob in (FUZZ[OracleMode.HITMISS], FUZZ["hitmiss-family"]):
        manifest, payload = container_parts(blob)
        with pytest.raises(InvalidParams, match="unsupported container version 2"):
            oracle_from_bytes(container(manifest, payload, version=2))
