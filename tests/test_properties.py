"""Randomized invariants over small networks (hypothesis)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from circmdd import (
    build_coherent_mdd,
    build_network,
    distance_table,
    encode,
    enumerate_mdds,
    is_coherent,
    parse_mdd_document,
    staircase_generators,
    validate_mdd,
    vertex_of,
)
from circmdd.errors import CircmddError

from oracles import is_down_closed


@st.composite
def small_networks(draw, max_n=18, max_r=3):
    n = draw(st.integers(2, max_n))
    r = draw(st.integers(1, min(max_r, n - 1)))
    steps = draw(
        st.lists(st.integers(1, n - 1), min_size=r, max_size=r, unique=True)
    )
    try:
        return build_network(n, steps)
    except CircmddError:
        return build_network(n, [1])


@settings(max_examples=40, deadline=None)
@given(small_networks())
def test_table_invariants(net):
    table = distance_table(net)
    assert table.dist[0] == 0
    assert table.routings(0) == ((0,) * net.r,)
    for i, vecs in enumerate(map(table.routings, range(net.n))):
        assert vecs
        for a in vecs:
            assert vertex_of(net, a) == i
            assert sum(a) == table.dist[i]


@settings(max_examples=30, deadline=None)
@given(small_networks())
def test_enumerated_diagrams_validate_and_dedupe(net):
    result = enumerate_mdds(net)
    seen = set()
    for mdd in result.mdds:
        validate_mdd(net, mdd.cells)
        assert is_down_closed(set(mdd.cells), net.r)
        assert mdd.cells not in seen
        seen.add(mdd.cells)
    assert len(result.mdds) >= 1


@settings(max_examples=30, deadline=None)
@given(small_networks(), st.integers(1, 5), st.integers(-3, 3))
def test_weight_scaling_invariance(net, scale, shift):
    weight = tuple(range(net.r, 0, -1))
    try:
        base = build_coherent_mdd(net, weight)
    except CircmddError:
        return
    moved = tuple(Fraction(scale) * x + shift for x in weight)
    assert build_coherent_mdd(net, moved).cells == base.cells


@settings(max_examples=30, deadline=None)
@given(small_networks())
def test_staircase_complement_identity(net):
    mdd = build_coherent_mdd(net, tuple(range(net.r, 0, -1)), tie_policy="lex")
    gens = staircase_generators(mdd).generators
    image = set(mdd.cells)
    # inside the bounding box: a point is in the image exactly when no
    # generator divides it
    bounds = [max(c[j] for c in mdd.cells) + 1 for j in range(net.r)]
    from itertools import product

    for point in product(*(range(b + 1) for b in bounds)):
        dominated = any(all(x >= g for x, g in zip(point, gen)) for gen in gens)
        assert dominated == (point not in image)


@settings(max_examples=25, deadline=None)
@given(small_networks(max_r=3))
def test_lex_build_is_coherent_with_verified_witness(net):
    mdd = build_coherent_mdd(net, tuple(range(net.r, 0, -1)), tie_policy="lex")
    result = is_coherent(mdd)
    if result.coherent:
        table = distance_table(net)
        for i, chosen in enumerate(mdd.cells):
            for alt in table.routings(i):
                if alt != chosen:
                    assert sum(w * (a - c) for w, a, c in zip(result.witness, alt, chosen)) > 0


@settings(max_examples=30, deadline=None)
@given(small_networks())
def test_encode_round_trip(net):
    mdd = build_coherent_mdd(net, tuple(range(net.r, 0, -1)), tie_policy="lex")
    parsed_net, cells = parse_mdd_document(encode(mdd))
    assert parsed_net == net
    assert cells == mdd.cells
