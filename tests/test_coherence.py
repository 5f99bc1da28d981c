"""Exact coherence decisions: witnesses, refutations, solver agreement."""

import hashlib
import random

import pytest

from circmdd import (
    DistanceTable,
    InternalInconsistencyError,
    UnsupportedArityError,
    build_coherent_mdd,
    build_network,
    distance_table,
    distances,
    enumerate_mdds,
    is_coherent,
    validate_mdd,
)
from circmdd.coherence import (
    _directions,
    _fm_feasible,
    _reduced_coords,
    _solve_fm,
    _solve_sweep2,
)
from circmdd.errors import BudgetExceededError, CircmddError
from circmdd.intlin import dot, primitive, vec_neg, vec_sub
from circmdd.network import packed_width
from oracles import mdds_by_backtracking, mdds_by_plain_dfs, minimal_paths_by_scan


def non_coherent_example():
    net = build_network(8, [1, 3, 5, 7])
    cells = [
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (2, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 1),
        (0, 0, 1, 0),
        (0, 2, 0, 0),
        (0, 0, 0, 1),
    ]
    return net, validate_mdd(net, cells)


def check_witness(mdd, witness):
    table = distance_table(mdd.net)
    for i, chosen in enumerate(mdd.cells):
        for alt in table.routings(i):
            if alt != chosen:
                assert dot(witness, alt) > dot(witness, chosen)


def test_non_coherent_example_refuted_via_the_forced_chain():
    net, mdd = non_coherent_example()
    result = is_coherent(mdd)
    assert not result.coherent
    assert result.witness is None
    refutation = result.refutation
    assert refutation
    # the refutation must include the vertex-4 preference that the two
    # squared choices force the other way
    vertices = {c.vertex for c in refutation}
    assert 4 in vertices
    v4 = next(c for c in refutation if c.vertex == 4)
    assert v4.chosen == (0, 0, 1, 1)
    assert v4.alternative == (1, 1, 0, 0)
    # irreducible: dropping any constraint makes the rest satisfiable
    dirs = [primitive(_reduced_coords(vec_sub(c.alternative, c.chosen))) for c in refutation]
    assert _solve_fm(sorted(set(dirs)), 3) is None
    for skip in range(len(dirs)):
        rest = sorted({d for i, d in enumerate(dirs) if i != skip})
        assert _solve_fm(rest, 3) is not None


def test_every_double_loop_diagram_is_coherent():
    for n, steps in [(10, [1, 6]), (9, [1, 4]), (17, [3, 5]), (30, [7, 11]), (6, [1, 3])]:
        net = build_network(n, steps)
        for mdd in enumerate_mdds(net).mdds:
            result = is_coherent(mdd)
            assert result.coherent
            check_witness(mdd, result.witness)


def test_weighted_build_is_coherent_and_witnessed():
    for n, steps, w in [
        (9, [1, 4, 7], (5, 1, 0)),
        (9, [1, 4], (1, 2)),
        (56, [9, 17, 33], (9, 2, 0)),
        (8, [1, 3, 5, 7], (11, 5, 2, 0)),
    ]:
        net = build_network(n, steps)
        mdd = build_coherent_mdd(net, w, tie_policy="lex")
        result = is_coherent(mdd)
        assert result.coherent
        check_witness(mdd, result.witness)


def test_nine_diagrams_of_c9_1_4_7_all_coherent():
    net = build_network(9, [1, 4, 7])
    mdds = enumerate_mdds(net).mdds
    assert len(mdds) == 9
    for mdd in mdds:
        assert is_coherent(mdd).coherent


def test_c8_1_3_5_7_coherent_count():
    net = build_network(8, [1, 3, 5, 7])
    mdds = enumerate_mdds(net).mdds
    flags = [is_coherent(m).coherent for m in mdds]
    assert len(mdds) == 18
    assert not all(flags)
    assert enumerate_mdds(net, "coherent_only").mdds == tuple(
        m for m, ok in zip(mdds, flags) if ok
    )


def test_argmin_invariance_under_scaling_and_shift():
    from fractions import Fraction

    net = build_network(9, [1, 4, 7])
    w = (7, 2, 0)
    base = build_coherent_mdd(net, w)
    shifted = tuple(Fraction(3, 2) * x + 5 for x in w)
    assert build_coherent_mdd(net, shifted).cells == base.cells


def test_unique_network_trivially_coherent():
    net = build_network(7, [1, 2, 4])
    mdd = enumerate_mdds(net).mdds[0]
    result = is_coherent(mdd)
    assert result.coherent and result.refutation is None


def test_coherence_arity_limit():
    net = build_network(11, [1, 2, 4, 7, 9])
    mdd = build_coherent_mdd(net, (16, 8, 4, 2, 0), tie_policy="lex")
    with pytest.raises(UnsupportedArityError):
        is_coherent(mdd)


def test_sweep_and_elimination_agree_on_plane_systems():
    import random

    rng = random.Random(99)
    for _ in range(300):
        k = rng.randint(1, 6)
        cons = []
        while len(cons) < k:
            x, y = rng.randint(-5, 5), rng.randint(-5, 5)
            if x or y:
                cons.append(primitive((x, y)))
        cons = sorted(set(cons))
        sweep = _solve_sweep2(cons)
        fm = _solve_fm(cons, 2)
        assert (sweep is None) == (fm is None)
        if sweep is not None:
            assert all(c[0] * sweep[0] + c[1] * sweep[1] > 0 for c in cons)
            assert all(c[0] * fm[0] + c[1] * fm[1] > 0 for c in cons)


def test_elimination_alone_decides_as_the_solver():
    # the filter of enumerate_mdds decides four steps by elimination
    # alone; its verdict is the solver's, which also back-substitutes
    rng = random.Random(4321)
    verdicts = []
    for _ in range(400):
        k = rng.randint(1, 8)
        cons = set()
        while len(cons) < k:
            c = tuple(rng.randint(-4, 4) for _ in range(3))
            if any(c):
                cons.add(primitive(c))
        cons = sorted(cons)
        verdicts.append(_fm_feasible(cons, 3))
        assert verdicts[-1] == (_solve_fm(cons, 3) is not None), cons
    assert 50 < sum(verdicts) < 350
    # every gapset the search meets on the four-step acceptance and
    # benchmark networks
    verdicts = []
    for n, steps in [(8, [1, 3, 5, 7]), (104, [5, 17, 21, 22]), (41, [8, 19, 23, 40]),
                     (199, [40, 58, 122, 181]), (126, [4, 40, 58, 63])]:
        _, gapsets, _, _ = mdds_by_plain_dfs(build_network(n, steps))
        for gaps in gapsets:
            directions = _directions(gaps, 4, packed_width(n))[1]
            verdicts.append(_fm_feasible(directions, 3))
            assert verdicts[-1] == (_solve_fm(directions, 3) is not None), (n, steps)
    # 62 diagrams, of which 14 + 12 + 6 + 6 + 12 are coherent
    assert (len(verdicts), sum(verdicts)) == (62, 50)


def test_staircase_generators_are_weight_leading_terms():
    # a weighted diagram's staircase generators g of minimal length are
    # beaten by the cell of their vertex: same vertex, same length,
    # strictly larger weight (the leading-term relation); longer
    # generators are beaten already by length
    from circmdd import staircase_generators, vertex_of

    for n, steps, w in [(9, [1, 4, 7], (7, 2, 0)), (10, [1, 6], (1, 2)),
                        (8, [2, 3, 7], (5, 3, 0)), (8, [1, 3, 5, 7], (11, 5, 2, 0))]:
        net = build_network(n, steps)
        mdd = build_coherent_mdd(net, w, tie_policy="lex")
        table = distance_table(net)
        for g in staircase_generators(mdd).generators:
            v = vertex_of(net, g)
            m = mdd.cells[v]
            assert sum(g) >= sum(m)
            if sum(g) == sum(m):
                assert dot(w, g) >= dot(w, m)
                if dot(w, g) == dot(w, m):
                    assert g > m  # lex refinement broke the tie


def test_triple_loop_coherence_matches_plane_solver():
    import random

    rng = random.Random(4242)
    from circmdd.errors import CircmddError

    tried = 0
    while tried < 12:
        n = rng.randint(5, 30)
        steps = rng.sample(range(1, n), min(3, n - 1))
        if len(steps) < 3:
            continue
        try:
            net = build_network(n, steps)
        except CircmddError:
            continue
        tried += 1
        for mdd in enumerate_mdds(net).mdds:
            result = is_coherent(mdd)
            dirs = set()
            table = distance_table(net)
            for i, chosen in enumerate(mdd.cells):
                for alt in table.routings(i):
                    if alt != chosen:
                        dirs.add(primitive(_reduced_coords(vec_sub(alt, chosen))))
            fm = _solve_fm(sorted(dirs), 2) if dirs else ()
            assert result.coherent == (fm is not None)


def test_failed_witness_check_is_an_internal_inconsistency(monkeypatch):
    # a solver bug that returns a weight violating a constraint must
    # surface as the typed internal error, not a bare assertion
    from circmdd import coherence

    mdd = build_coherent_mdd(build_network(9, [1, 4, 7]), (7, 2, 0))
    good = is_coherent(mdd).witness
    monkeypatch.setattr(coherence, "_weight_from_coords", lambda xs, r: vec_neg(good))
    with pytest.raises(InternalInconsistencyError) as info:
        is_coherent(mdd)
    assert info.value.details["witness"] == list(vec_neg(good))
    # the first (vertex, alternative) constraint the witness fails
    assert info.value.details["vertex"] == 2
    # a weight that only ties is no witness either: (1, 1, 1) gives every
    # sum-zero difference the value 0
    monkeypatch.setattr(coherence, "_weight_from_coords", lambda xs, r: (1, 1, 1))
    with pytest.raises(InternalInconsistencyError) as info:
        is_coherent(mdd)
    assert info.value.details == {"witness": [1, 1, 1], "vertex": 2}


def test_empty_back_interval_is_an_internal_inconsistency(monkeypatch):
    # x0 + x1 > 0 and x0 - x1 > 0 need x0 > 0; a wrong sub-solution
    # x0 = -1 leaves no room for x1 during back substitution
    from fractions import Fraction

    from circmdd import coherence

    monkeypatch.setattr(
        coherence,
        "_solve_fm",
        lambda cons, d: (Fraction(-1),) if d == 1 else _solve_fm(cons, d),
    )
    with pytest.raises(InternalInconsistencyError):
        _solve_fm([(1, 1), (1, -1)], 2)


def random_small_networks(seed, count, max_n=70):
    """Seeded connected 3- and 4-step networks with n < max_n."""
    rng = random.Random(seed)
    nets = []
    while len(nets) < count:
        r = rng.choice((3, 4))
        n = rng.randint(r + 2, max_n - 1)
        try:
            nets.append(build_network(n, rng.sample(range(1, n), r)))
        except CircmddError:
            continue
    return nets


# sha256 of repr(is_coherent(m)), one line per diagram, over every
# diagram of 250 seeded networks: 889 diagrams, 36 of them incoherent.
# It pins every witness and every refutation, not just the verdicts.
COHERENCE_RESULTS_DIGEST = "e68883e0e3f5c01118df2ee9dbc9b1b1eead49aa32e05e042e0efcc21188f12f"


def test_coherence_results_are_pinned_on_random_networks():
    digest = hashlib.sha256()
    diagrams = incoherent = 0
    for net in random_small_networks(20261018, 250):
        try:
            mdds = enumerate_mdds(net, budget=200_000).mdds
        except BudgetExceededError:
            digest.update(f"{net} budget\n".encode())
            continue
        kept = []
        for mdd in mdds:
            result = is_coherent(mdd)
            diagrams += 1
            incoherent += not result.coherent
            digest.update((repr(result) + "\n").encode())
            if result.coherent:
                kept.append(mdd)
        # the enumeration's own filter decides from staircase generators,
        # and its found count is every diagram, before the filter
        result = enumerate_mdds(net, "coherent_only", budget=200_000)
        assert (result.mdds, result.found) == (tuple(kept), len(mdds)), net
    assert (diagrams, incoherent) == (889, 36)
    assert digest.hexdigest() == COHERENCE_RESULTS_DIGEST


def witness_meets_every_constraint(n, steps, cells, witness):
    """The literal definition, on the oracle's routing table."""
    _, paths = minimal_paths_by_scan(n, steps)
    def weight(a):
        return sum(w * c for w, c in zip(witness, a))

    return all(
        weight(alt) > weight(chosen)
        for routes, chosen in zip(paths, cells)
        for alt in routes
        if alt != chosen
    )


@pytest.mark.parametrize("mode", ["all", "coherent_only"])
def test_enumeration_matches_backtracking_oracle_on_random_networks(mode):
    for net in random_small_networks(5150, 100, max_n=40):
        expected = set(mdds_by_backtracking(net.n, net.steps))
        if mode == "coherent_only":
            kept = set()
            for cells in expected:
                witness = is_coherent(validate_mdd(net, cells)).witness
                if witness and witness_meets_every_constraint(net.n, net.steps, cells, witness):
                    kept.add(cells)
            expected = kept
        got = [m.cells for m in enumerate_mdds(net, mode).mdds]
        assert got == sorted(expected), net


def test_coherence_decides_each_difference_vector_once(monkeypatch):
    # primitive runs once per distinct cell-plus-unit difference
    # D(v) + e_j - D(v + s_j) and once on the witness, not once per
    # (vertex, alternative) constraint
    from circmdd import coherence

    net = build_network(1892, [45, 265, 1585])
    n = net.n
    dist = distances(net)
    calls = []
    monkeypatch.setattr(coherence, "primitive", lambda u: calls.append(u) or primitive(u))
    mdds = enumerate_mdds(net).mdds
    assert len(mdds) == 24
    for mdd in mdds:
        calls.clear()
        assert is_coherent(mdd).coherent
        distinct = {
            tuple(x + (k == j) - y for k, (x, y) in enumerate(zip(cell, mdd.cells[(v + s) % n])))
            for j, s in enumerate(net.steps)
            for v, cell in enumerate(mdd.cells)
            if dist[(v + s) % n] == dist[v] + 1
        } - {(0, 0, 0)}
        assert len(calls) == len(distinct) + 1 <= 10


def test_coherence_builds_no_routing_table(monkeypatch):
    # a coherent diagram's cone comes from its cells and the distances:
    # no vertex's routings are listed
    net = build_network(1892, [45, 265, 1585])
    distance_table.cache_clear()
    walked = []
    monkeypatch.setattr(DistanceTable, "routings", lambda table, i: walked.append(i))
    for mdd in enumerate_mdds(net).mdds:
        assert is_coherent(mdd).coherent
    assert walked == []
