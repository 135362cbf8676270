"""Every size cap is a named module constant, and an input past it raises an
error that states the cap's value."""

import pytest

import vertexcuts.decomposition as decomposition
import vertexcuts.graph as graph
import vertexcuts.validate as validate
from helpers import path_graph, star_graph
from vertexcuts.errors import NotFConnected, SizeCapExceeded
from vertexcuts.generators import gen_f_connected
from vertexcuts.oracle import OracleMode, build_oracle


def fconnected_build(monkeypatch):
    cap = graph.FCONN_CHECK_CAP
    at_cap = build_oracle(gen_f_connected(cap, 2, 1), 2, OracleMode.FCONNECTED)
    assert at_cap.manifest["f_connected_verification"] == "verified"
    # one vertex more: still 2-connected, but refused without attestation
    build_oracle(gen_f_connected(cap + 1, 2, 1), 2, OracleMode.FCONNECTED)


def cut_enumeration(monkeypatch):
    # reaching the real cap takes 500 000 cuts; the 2^20 - 2 cuts of a
    # 20-leaf star pass a cap of 100 at once
    monkeypatch.setattr(validate, "CUT_ENUM_BUDGET", 100)
    list(validate.enumerate_vertex_cuts(star_graph(20)))


def lemma_suite(monkeypatch):
    # 4 000 T-cuts around the centre times 121 queries of size <= 2
    validate.left_right_lemma_report(star_graph(14), 2)


def ted_validation(monkeypatch):
    g = path_graph(140)   # C(140, 3) alone exceeds the cap at f = 3
    decomposition.validate_ted(decomposition.export_ted(g, 3), g, 3)


@pytest.mark.parametrize("run, error, module, cap", [
    (fconnected_build, NotFConnected, graph, "FCONN_CHECK_CAP"),
    (cut_enumeration, SizeCapExceeded, validate, "CUT_ENUM_BUDGET"),
    (lemma_suite, SizeCapExceeded, validate, "LEMMA_QUERY_BUDGET"),
    (ted_validation, SizeCapExceeded, decomposition, "TED_CHECK_BUDGET"),
], ids=["build_oracle", "enumerate_vertex_cuts", "left_right_lemma_report",
        "validate_ted"])
def test_a_cap_states_its_value(monkeypatch, run, error, module, cap):
    with pytest.raises(error) as raised:
        run(monkeypatch)
    assert f"cap of {getattr(module, cap)}" in str(raised.value)
