"""The oracle container on load: round summaries and shared connectivity
oracles survive a save/load round trip, and malformed containers are
rejected with a library error."""

import hashlib
import struct
from fractions import Fraction

import pytest

from helpers import barbell_graph, path_graph, subsets_upto, two_blob_graph
from vertexcuts.decomposition import TreeParams
from vertexcuts.errors import InvalidParams
from vertexcuts.generators import gen_connected_gnp
from vertexcuts.io import (FORMAT_VERSION, MAGIC, canonical_json_bytes, load_oracle,
                           oracle_from_bytes, oracle_payload, oracle_to_bytes,
                           save_oracle)
from vertexcuts.oracle import HitMissRound, OracleMode, build_oracle

DEEP = TreeParams(eps_override=Fraction(1, 2))
CASES = [
    (gen_connected_gnp(14, 0.3, 1), 2, OracleMode.GENERAL, None),
    (barbell_graph(5), 2, OracleMode.GENERAL, DEEP),
    (two_blob_graph(8, 2, 0.5, 9), 2, OracleMode.GENERAL,
     TreeParams(eps_override=Fraction(1, 4))),
    (path_graph(4), 1, OracleMode.HITMISS, None),
    (barbell_graph(4), 1, OracleMode.HITMISS, None),
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
    # every hit-miss detector is a single leaf over the whole work graph
    o = build_oracle(path_graph(4), 1, OracleMode.HITMISS)
    for oracle in (o, oracle_from_bytes(oracle_to_bytes(o))):
        dets = list(leaves(oracle))
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


def rechecksummed(manifest: bytes, payload: bytes, mlen: int | None = None) -> bytes:
    """A container laid out as oracle_to_bytes lays it out, with a valid
    checksum over whatever the parts hold."""
    body = (MAGIC + struct.pack("<H", FORMAT_VERSION)
            + struct.pack("<Q", len(manifest) if mlen is None else mlen) + manifest
            + struct.pack("<Q", len(payload)) + payload)
    return body + hashlib.sha256(body).digest()


def test_malformed_checksummed_containers_raise_invalid_params():
    o = build_oracle(barbell_graph(5), 2, params=DEEP)
    manifest = canonical_json_bytes(o.manifest)
    payload = oracle_payload(o)
    assert oracle_from_bytes(rechecksummed(manifest, canonical_json_bytes(payload)))
    no_f = {k: v for k, v in payload.items() if k != "f"}
    no_root = dict(payload, rounds=[{k: v for k, v in payload["rounds"][0].items()
                                     if k != "root"}] + payload["rounds"][1:])
    bad = [
        rechecksummed(manifest, canonical_json_bytes(no_f)),
        rechecksummed(manifest, canonical_json_bytes(no_root)),
        rechecksummed(manifest, b"not json"),
        rechecksummed(manifest, canonical_json_bytes(payload), mlen=1 << 20),
    ]
    for data in bad:
        with pytest.raises(InvalidParams, match="malformed"):
            oracle_from_bytes(data)
