"""Self-test of the benchmark on a tiny workload.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from vertexcuts import OracleMode  # noqa: E402
from vertexcuts.oracle import VertexCutOracle  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_workload(name: str, seed: int) -> workloads.Workload:
    rng = random.Random(seed)
    g, seps = workloads.block_chain(3, 10, 5.0, 2, 2, rng)
    queries = [s for s in seps] + [frozenset({0, 1}), frozenset({5})]
    planted = {s: True for s in seps}
    return workloads.Workload(name, g, 2, OracleMode.GENERAL, {}, queries,
                              ["separator"] * len(seps) + ["random"] * 2, planted)


def last_json(capsys) -> tuple[dict, str]:
    captured = capsys.readouterr()
    return json.loads(captured.out.strip().splitlines()[-1]), captured.err


def bfs_is_cut(n: int, edges, fs) -> bool:
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    live = [v for v in range(n) if v not in fs]
    if len(live) <= 1:
        return False
    seen = {live[0]}
    queue = deque([live[0]])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in fs and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) < len(live)


def test_independent_check_matches_bfs():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 9)
        edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.4}
        arrays = check.EdgeArrays(n, edges)
        for k in range(3):
            for fs in combinations(range(n), k):
                assert check.is_cut(arrays, fs) == bfs_is_cut(n, edges, set(fs))


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_clean_and_complete(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setattr(workloads, "make_workload", tiny_workload)
    monkeypatch.setattr(run, "HERE", tmp_path)
    code = run.main(["--workload", "chain-general", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)])
    out, err = last_json(capsys)
    assert code == 0, err
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in names)
    for m in names:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_wrong_answer_is_reported_as_failed(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(workloads, "make_workload", tiny_workload)
    original = VertexCutOracle.query

    def wrong_on_first_separator(self, f_set):
        answer = original(self, f_set)
        return (not answer) if frozenset(f_set) == frozenset({30, 31}) else answer

    monkeypatch.setattr(VertexCutOracle, "query", wrong_on_first_separator)
    code = run.main(["--workload", "chain-general", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    out, err = last_json(capsys)
    assert code == 1, err
    assert out["correct"] is False
    assert out["failed"] >= 1


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "gnp-general", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) != 0
