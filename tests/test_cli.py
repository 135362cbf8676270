"""CLI subcommands end to end, plus the file formats they speak."""

import json
import os

import pytest

from helpers import container, container_parts
from vertexcuts.cli import main
from vertexcuts.errors import InvalidParams
from vertexcuts.graph import Graph
from vertexcuts.io import (canonical_json_bytes, format_edgelist, parse_edgelist,
                           parse_query_arg, parse_query_text)


def test_edgelist_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    text = format_edgelist(g, comment="cycle")
    g2 = parse_edgelist(text)
    assert g2.n == g.n and g2.edges == g.edges


def test_edgelist_errors():
    with pytest.raises(InvalidParams):
        parse_edgelist("")
    with pytest.raises(InvalidParams):
        parse_edgelist("3 2\n0 1\n")     # header promises 2 edges
    with pytest.raises(InvalidParams):
        parse_edgelist("3\n0 1\n")


def test_query_parsing():
    assert parse_query_arg("1,2, 3") == frozenset({1, 2, 3})
    assert parse_query_arg("") == frozenset()
    qs = parse_query_text("# comment\n1,2\n\n3 4 5\n")
    assert qs == [frozenset({1, 2}), frozenset({3, 4, 5})]


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.edges"
    main(["gen", "--kind", "random", "--n", "14", "--p", "0.35",
          "--seed", "5", "--out", str(path)])
    return path


def test_gen_writes_graph_and_manifest(graph_file):
    g = parse_edgelist(graph_file.read_text())
    assert g.n == 14
    with open(str(graph_file) + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["kind"] == "random" and manifest["seed"] == 5


def test_build_query_roundtrip(graph_file, tmp_path, capsys):
    oracle_path = tmp_path / "g.vco"
    assert main(["build", "--input", str(graph_file), "--f", "2",
                 "--out", str(oracle_path)]) == 0
    capsys.readouterr()
    qfile = tmp_path / "queries.txt"
    qfile.write_text("1,2\n0\n\n")
    assert main(["query", "--oracle", str(oracle_path),
                 "--queries-file", str(qfile)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert all("\t" in line for line in out)


def test_query_without_queries_errors(graph_file, tmp_path):
    oracle_path = tmp_path / "g.vco"
    main(["build", "--input", str(graph_file), "--f", "1", "--out", str(oracle_path)])
    assert main(["query", "--oracle", str(oracle_path)]) == 2


def test_labels_subcommand(graph_file, tmp_path, capsys):
    assert main(["labels", "--input", str(graph_file), "--f", "2",
                 "--query", "1,2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out in ("cut", "not-a-cut")
    dump_path = tmp_path / "labels.json"
    assert main(["labels", "--input", str(graph_file), "--f", "2",
                 "--out", str(dump_path)]) == 0
    dump = json.loads(dump_path.read_text())
    assert dump["manifest"]["n"] == 14
    assert len(dump["records"]) == 14
    assert all(set(r) == {"id", "class", "bits", "hex"} for r in dump["records"])


def test_decompose_subcommand(graph_file, tmp_path, capsys):
    out_dir = tmp_path / "ted"
    assert main(["decompose", "--input", str(graph_file), "--f", "2",
                 "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["pairs"]
    for entry in manifest["pairs"]:
        assert (out_dir / entry["file"]).exists()
        pair_graph = parse_edgelist((out_dir / entry["file"]).read_text())
        assert pair_graph.n == len(entry["root_ids"])


def test_validate_subcommand(graph_file, capsys):
    assert main(["validate", "--input", str(graph_file), "--f", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_validate_corrupted_oracle(graph_file, tmp_path, capsys):
    oracle_path = tmp_path / "g.vco"
    main(["build", "--input", str(graph_file), "--f", "1", "--out", str(oracle_path)])
    data = bytearray(oracle_path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    bad_path = tmp_path / "bad.vco"
    bad_path.write_bytes(bytes(data))
    assert main(["validate", "--oracle", str(bad_path)]) == 1
    assert main(["validate", "--oracle", str(oracle_path)]) == 0


def test_validate_queries_the_loaded_oracle(graph_file, tmp_path, capsys):
    # The same container with another graph of the same n and m in place of
    # the input graph (a dense head on a path, whose tail vertices are cuts):
    # the loaded oracle still answers for the input graph, so it disagrees
    # with brute force on the stored one.
    oracle_path = tmp_path / "g.vco"
    main(["build", "--input", str(graph_file), "--f", "2", "--out", str(oracle_path)])
    manifest, payload = container_parts(oracle_path.read_bytes())
    swapped = json.loads(payload)
    chords = sorted(([i, j] for i in range(14) for j in range(i + 2, 14)),
                    key=lambda e: (e[1], e[0]))
    m = json.loads(manifest)["m"]
    swapped["graph"] = {"n": 14,
                        "edges": [[i, i + 1] for i in range(13)] + chords[:m - 13],
                        "root_ids": list(range(14))}
    bad_path = tmp_path / "swapped.vco"
    bad_path.write_bytes(container(manifest, canonical_json_bytes(swapped)))
    assert main(["validate", "--oracle", str(bad_path)]) == 1
    assert "mismatches" in capsys.readouterr().out


def test_validate_checks_a_large_fconnected_oracle(tmp_path, capsys):
    graph_path, oracle_path = tmp_path / "f.edges", tmp_path / "f.vco"
    main(["gen", "--kind", "fconnected", "--n", "80", "--f", "3", "--seed", "2",
          "--out", str(graph_path)])
    assert main(["build", "--input", str(graph_path), "--f", "3", "--mode",
                 "fconnected", "--attest-f-connected", "--out", str(oracle_path)]) == 0
    capsys.readouterr()
    assert main(["validate", "--oracle", str(oracle_path)]) == 0
    out = capsys.readouterr().out
    assert "fconnected-equivalence" in out and "skipped" not in out


def test_validate_requires_input():
    assert main(["validate"]) == 2


def test_gen_all_kinds(tmp_path):
    for kind, extra in [("fconnected", ["--n", "12", "--f", "3"]),
                        ("lbfamily", ["--n", "16", "--f", "2"]),
                        ("lbpath", ["--n", "11"]),
                        ("ov", ["--count", "6", "--f", "3"]),
                        ("oumv", ["--n", "4"])]:
        path = tmp_path / f"{kind}.edges"
        assert main(["gen", "--kind", kind, "--seed", "3", "--out", str(path)]
                    + extra) == 0
        assert parse_edgelist(path.read_text()).n > 0


def test_missing_file_is_clean_error(tmp_path, capsys):
    assert main(["build", "--input", str(tmp_path / "nope.edges"), "--f", "1"]) == 1
    assert "error:" in capsys.readouterr().err
