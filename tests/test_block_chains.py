"""Cut-rich default-parameter tests: chains of random blocks joined through
planted separators make the default build recurse, and the queries are
biased toward real cuts. Every answer is checked against
is_cut_bruteforce."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vertexcuts.oracle as vo
from vertexcuts.errors import InvalidParams, NotFConnected
from vertexcuts.generators import gen_block_chain
from vertexcuts.graph import is_cut_bruteforce, is_f_connected
from vertexcuts.oracle import OracleMode, build_oracle

SETTINGS = settings(max_examples=20, deadline=None, database=None)
QUERIES = 60
SEEDS = st.integers(0, 2 ** 16)


def biased_queries(g, seps, f, rng):
    """A third planted separators (padded with random vertices up to f), a
    third near misses (a separator with one vertex swapped for another), a
    third random sets of 1..f vertices."""
    out = []
    for i in range(QUERIES):
        sep = sorted(rng.choice(seps))
        if i % 3 == 0:
            fs = set(sep)
            while len(fs) < f and rng.random() < 0.5:
                fs.add(rng.randrange(g.n))
        elif i % 3 == 1:
            fs = set(sep)
            fs.discard(rng.choice(sep))
            fs.add(rng.choice([v for v in range(g.n) if v not in sep]))
        else:
            fs = set(rng.sample(range(g.n), rng.randint(1, f)))
        out.append(frozenset(fs))
    return out


def check_against_bruteforce(o, g, seps, f, rng):
    for i, fs in enumerate(biased_queries(g, seps, f, rng)):
        truth = is_cut_bruteforce(g, fs)
        assert o.query(fs) == truth, sorted(fs)
        if i % 3 == 0:
            assert truth, sorted(fs)  # a padded separator stays a cut


def test_block_chain_is_seeded_and_plants_cuts():
    g, seps = gen_block_chain(8, 20, 6.0, 2, 3, 4)
    assert (g, seps) == gen_block_chain(8, 20, 6.0, 2, 3, 4)
    assert g.n == 8 * 20 + 7 * 2 and g.is_connected()
    assert len(seps) == 7 and all(len(s) == 2 for s in seps)
    assert all(is_cut_bruteforce(g, s) for s in seps)
    with pytest.raises(InvalidParams):
        gen_block_chain(2, 5, 2.0, 1, 6, 0)  # attach more than a block holds


def test_default_general_build_fills_full_us_tables(monkeypatch):
    sizes = []
    real = vo.build_us

    def recorded(g, u_set, s_set, f, **kwargs):
        det = real(g, u_set, s_set, f, **kwargs)
        sizes.append(len(det.u_set))
        return det

    monkeypatch.setattr(vo, "build_us", recorded)
    g, _ = gen_block_chain(8, 20, 6.0, 2, 3, 1)
    o = build_oracle(g, 3)
    assert len(o.rounds) >= 2
    assert 2 * 3 + 2 in sizes  # U at the 2f + 2 cap


def test_default_general_build_of_a_deep_tree_matches_bruteforce():
    # The smallest n among chains of mean degree 6 with 2-vertex separators,
    # attach 3 and seeds 0..9 whose default f = 3 build recurses this deep.
    g, seps = gen_block_chain(9, 32, 6.0, 2, 3, 0)
    o = build_oracle(g, 3)
    assert max(info.depth for info in o.round_info) >= 4
    assert len(o.rounds) >= 2
    for qseed in range(3):
        check_against_bruteforce(o, g, seps, 3, random.Random(qseed))


@SETTINGS
@given(SEEDS, SEEDS)
def test_general_block_chain_matches_bruteforce(seed, qseed):
    g, seps = gen_block_chain(8, 20, 6.0, 2, 3, seed)
    check_against_bruteforce(build_oracle(g, 3), g, seps, 3, random.Random(qseed))


@SETTINGS
@given(SEEDS, SEEDS)
def test_hitmiss_block_chain_matches_bruteforce(seed, qseed):
    g, seps = gen_block_chain(4, 12, 6.0, 2, 3, seed)
    o = build_oracle(g, 2, OracleMode.HITMISS)
    check_against_bruteforce(o, g, seps, 2, random.Random(qseed))


@SETTINGS
@given(SEEDS, SEEDS)
def test_fconnected_block_chain_matches_bruteforce(seed, qseed):
    g, seps = gen_block_chain(4, 12, 6.0, 2, 3, seed)  # n = 54: checked exactly
    if not is_f_connected(g, 2):
        with pytest.raises(NotFConnected):
            build_oracle(g, 2, OracleMode.FCONNECTED)
        return
    o = build_oracle(g, 2, OracleMode.FCONNECTED)
    check_against_bruteforce(o, g, seps, 2, random.Random(qseed))
