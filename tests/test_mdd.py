"""Diagram construction, validation, enumeration, and staircases."""

import math
import random
from fractions import Fraction
from math import prod

import pytest

import circmdd.mdd as mdd_module
import circmdd.network as network_module

from circmdd import (
    ArityMismatchError,
    BudgetExceededError,
    DoubleLoopShape,
    NotDownClosedError,
    NotMinimalError,
    UnsupportedArityError,
    WeightTieError,
    WrongVertexError,
    build_coherent_mdd,
    build_family,
    build_network,
    classify_double_loop_shape,
    distance_table,
    enumerate_mdds,
    is_unique_mdd,
    staircase_generators,
    validate_mdd,
)

from circmdd.coherence import _directions, _feasible
from circmdd.errors import CircmddError
from circmdd.network import packed_width
from circmdd.serialize import enumeration_json

from oracles import (
    brute_force_mdds,
    coherent_cells_by_definition,
    is_down_closed,
    mdds_by_plain_dfs,
    minimal_paths_by_scan,
    staircase_generators_by_box_scan,
)


def test_build_weighted_picks_cheap_horizontal_steps():
    net = build_network(9, [1, 4])
    mdd = build_coherent_mdd(net, (1, 2))
    assert mdd.cells[7] == (3, 1)
    validate_mdd(net, mdd.cells)


def test_build_weight_tie_detected():
    # the symmetric weight cannot separate equal-norm routes; the first
    # tied vertex in scan order is 3 with routes (3,0) and (0,3), and
    # vertex 7 with (3,1) versus (0,4) is tied as well
    net = build_network(9, [1, 4])
    with pytest.raises(WeightTieError) as info:
        build_coherent_mdd(net, (1, 1))
    assert info.value.details["vertex"] == 3
    assert {tuple(info.value.details["first"]), tuple(info.value.details["second"])} == {
        (3, 0),
        (0, 3),
    }
    table = distance_table(net)
    assert set(table.routings(7)) == {(3, 1), (0, 4)}


@pytest.mark.parametrize(
    "w", [(-9, 3, 6), (Fraction(-3, 2), Fraction(1, 2), Fraction(1))]
)
def test_build_weight_tie_is_a_prefix_tie(w):
    # at vertex 1 the lex scan holds (0,8,1) at weight 30 when (1,3,5)
    # ties it; later routings are lighter and the least, (7,1,1) at -54,
    # is unique, but the tie with the running least still raises
    net = build_network(56, [9, 17, 33])
    routes = distance_table(net).routings(1)
    weights = [sum(x * c for x, c in zip((-9, 3, 6), a)) for a in routes]
    assert min(weights) == -54 and weights.count(-54) == 1
    assert routes[weights.index(-54)] == (7, 1, 1)
    with pytest.raises(WeightTieError) as info:
        build_coherent_mdd(net, w)
    assert info.value.details == {"vertex": 1, "first": [0, 8, 1], "second": [1, 3, 5]}
    assert str(info.value) == (
        f"weight {tuple(w)} does not separate minimal routings "
        "(0, 8, 1) and (1, 3, 5) to vertex 1"
    )


def _random_weight(rng, r):
    if rng.random() < 0.5:
        return tuple(rng.randrange(-3, 4) for _ in range(r))
    return tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(r))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_build_matches_definition_on_random_networks(r):
    rng = random.Random(2007 + r)
    checked = ties = 0
    while checked < 40:
        n = rng.randrange(r + 2, 40)
        steps = rng.sample(range(1, n), r)
        try:
            net = build_network(n, steps)
        except CircmddError:
            continue
        checked += 1
        for _ in range(3):
            w = _random_weight(rng, r)
            for policy in ("error", "lex"):
                kind, expected = coherent_cells_by_definition(n, net.steps, w, policy)
                try:
                    got = ("cells", build_coherent_mdd(net, w, policy).cells)
                except WeightTieError as exc:
                    d = exc.details
                    got = ("tie", (d["vertex"], tuple(d["first"]), tuple(d["second"])))
                    ties += 1
                assert got == (kind, expected), (net, w, policy)
    # small weights tie often enough to exercise the error path; one step
    # gives every vertex one routing, which nothing can tie
    assert ties or r == 1


def test_build_matches_definition_on_tie_lines():
    # weights orthogonal to a difference of two routings of one vertex
    # (and to (1, 1, 1)) lie on a tie line; their multiples plus a small
    # offset may or may not raise
    rng = random.Random(2008)
    checked = raised = 0
    while checked < 150:
        n = rng.randrange(30, 130)
        try:
            net = build_network(n, rng.sample(range(1, n), 3))
        except CircmddError:
            continue
        checked += 1
        _, paths = minimal_paths_by_scan(n, net.steps)
        tied = [routes for routes in paths if len(routes) > 1]
        for routes in rng.sample(tied, min(4, len(tied))):
            a, b = rng.sample(routes, 2)
            d = [x - y for x, y in zip(a, b)]
            line = (d[1] - d[2], d[2] - d[0], d[0] - d[1])
            for w in (line, tuple(2 * x + rng.randrange(-1, 2) for x in line)):
                for policy in ("error", "lex"):
                    expected = coherent_cells_by_definition(
                        n, net.steps, w, policy, paths=paths
                    )
                    try:
                        got = ("cells", build_coherent_mdd(net, w, policy).cells)
                    except WeightTieError as exc:
                        d_ = exc.details
                        got = ("tie", (d_["vertex"], tuple(d_["first"]), tuple(d_["second"])))
                        raised += 1
                    assert got == expected, (net, w, policy)
    assert raised > 100, raised


def _refuse_count_pass(*args):
    raise AssertionError("a count pass ran")


def test_double_loop_tie_check_runs_no_count_pass(monkeypatch):
    # a double loop ties only under w0 == w1, and then its route counts
    # come off the tile of network._kernel and the routings of a vertex
    # from one coset walk: no _count_routes, in mdd or for tail bits
    monkeypatch.setattr(mdd_module, "_count_routes", _refuse_count_pass)
    monkeypatch.setattr(network_module, "_count_routes", _refuse_count_pass)
    distance_table.cache_clear()
    with pytest.raises(WeightTieError) as info:
        build_coherent_mdd(build_network(30, [2, 7]), (1, 1))
    assert info.value.details == {"vertex": 3, "first": [0, 9], "second": [6, 3]}
    net = build_network(30011, [7, 4003])
    for w in ((1, 1), (2, 3), (Fraction(1, 2), 3)):
        assert build_coherent_mdd(net, w) == build_coherent_mdd(net, w, "lex"), w


def test_build_matches_definition_on_every_small_double_loop():
    # all connected C_n(a, b), n <= 24, under weights that tie (w0 == w1)
    # and weights that cannot
    ties = 0
    for n in range(3, 25):
        for a in range(1, n):
            for b in range(1, n):
                if a == b or math.gcd(n, a, b) > 1:
                    continue
                net = build_network(n, [a, b])
                _, paths = minimal_paths_by_scan(n, net.steps)
                for w in ((1, 1), (-2, -2), (1, 2), (3, -1)):
                    expected = coherent_cells_by_definition(n, net.steps, w, paths=paths)
                    try:
                        got = ("cells", build_coherent_mdd(net, w).cells)
                    except WeightTieError as exc:
                        d = exc.details
                        got = ("tie", (d["vertex"], tuple(d["first"]), tuple(d["second"])))
                        ties += 1
                    assert got == expected, (net, w)
    assert ties > 800, ties


def test_build_lex_policy_resolves_ties():
    net = build_network(9, [1, 4])
    mdd = build_coherent_mdd(net, (1, 1), tie_policy="lex")
    assert mdd.cells[7] == (0, 4)  # lexicographically first among the tie
    validate_mdd(net, mdd.cells)


def test_build_on_unique_diagram_network():
    net = build_network(7, [1, 2, 4])
    mdd = build_coherent_mdd(net, (5, 3, 1))
    assert len(set(mdd.cells)) == 7
    validate_mdd(net, mdd.cells)


def test_build_weight_arity_checked():
    net = build_network(9, [1, 4])
    with pytest.raises(ArityMismatchError):
        build_coherent_mdd(net, (1, 2, 3))


def test_build_rational_weights():
    from fractions import Fraction

    net = build_network(9, [1, 4])
    assert build_coherent_mdd(net, (Fraction(1, 3), Fraction(1, 2))).cells == (
        build_coherent_mdd(net, (2, 3)).cells
    )


def test_validate_rejects_wrong_vertex():
    net = build_network(10, [1, 6])
    good = enumerate_mdds(net).mdds[1].cells
    bad = list(good)
    bad[1] = (0, 1)
    with pytest.raises(WrongVertexError) as info:
        validate_mdd(net, bad)
    assert info.value.details["vertex"] == 1


def test_validate_rejects_not_minimal_at_origin():
    net = build_network(10, [1, 6])
    good = enumerate_mdds(net).mdds[1].cells
    bad = list(good)
    bad[0] = (10, 0)
    with pytest.raises(NotMinimalError) as info:
        validate_mdd(net, bad)
    assert info.value.details["vertex"] == 0


def test_validate_rejects_broken_down_closure():
    # choosing (2,0) for vertex 2 but the three-six route for vertex 8
    net = build_network(10, [1, 6])
    with_x = next(
        m for m in enumerate_mdds(net).mdds if m.cells[2] == (2, 0)
    )
    bad = list(with_x.cells)
    assert bad[8] == (2, 1)
    bad[8] = (0, 3)
    with pytest.raises(NotDownClosedError) as info:
        validate_mdd(net, bad)
    assert info.value.details["vertex"] == 8
    assert info.value.details["coordinate"] == 1


def test_validate_accepts_non_coherent_example_image():
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
    mdd = validate_mdd(net, cells)
    assert len(mdd.image) == 8


def test_enumerate_c9_1_4_7_has_nine():
    net = build_network(9, [1, 4, 7])
    assert len(enumerate_mdds(net).mdds) == 9


def test_enumerate_c10_1_6_counts():
    net = build_network(10, [1, 6])
    result = enumerate_mdds(net)
    assert len(result.mdds) == 2
    assert result.routing_choice_count == 144


def test_enumerate_c8_1_3_5_7_has_eighteen():
    net = build_network(8, [1, 3, 5, 7])
    assert len(enumerate_mdds(net).mdds) == 18


def test_enumerate_c6_1_3_5_has_four():
    net = build_network(6, [1, 3, 5])
    assert len(enumerate_mdds(net).mdds) == 4


@pytest.mark.parametrize(
    "n,steps",
    [(10, [1, 6]), (9, [1, 4, 7]), (8, [1, 3, 5, 7]), (6, [1, 3, 5]), (7, [1, 2, 4]),
     (12, [2, 3]), (6, [1, 3])],
)
def test_enumerate_matches_product_oracle(n, steps):
    net = build_network(n, steps)
    result = enumerate_mdds(net)
    assert [m.cells for m in result.mdds] == brute_force_mdds(n, net.steps)
    for m in result.mdds:
        validate_mdd(net, m.cells)
        assert is_down_closed(set(m.cells), net.r)
    assert len({m.cells for m in result.mdds}) == len(result.mdds)


def test_enumerate_budget_guard():
    net = build_network(10, [1, 6])
    with pytest.raises(BudgetExceededError):
        enumerate_mdds(net, budget=3)


@pytest.mark.parametrize(
    "n, steps, least",
    [(9, [1, 4, 7], 89), (8, [1, 3, 5, 7], 32), (104, [5, 17, 21, 22], 556),
     (72, [19, 28, 64], 1827), (992, [33, 161, 801], 149964),
     (126, [4, 40, 58, 63], 5496), (1892, [45, 265, 1585], 414407),
     (5402, [75, 593, 4737], 2234369)],
)
def test_enumerate_least_sufficient_budget_is_pinned(n, steps, least):
    # every partial diagram visited counts the routings of its next
    # vertex, so this pins the set of partial diagrams visited, not the
    # order they are visited in
    net = build_network(n, steps)
    enumerate_mdds(net, budget=least)
    with pytest.raises(BudgetExceededError):
        enumerate_mdds(net, budget=least - 1)


def test_enumerate_default_budget_refuses_the_q11_lift():
    # the budget counts the routings the plain search accounts for, so
    # C17822(135,1475,16215) needs more than the default 10,000,000
    net = build_family(11).lifted
    assert net == build_network(17822, [135, 1475, 16215])
    with pytest.raises(BudgetExceededError):
        enumerate_mdds(net)


def check_against_plain_dfs(net, mode, budget=None):
    """enumerate_mdds equals the plain search: the same diagrams, kept by
    the same cone test of their gapsets in mode "coherent_only", the same
    routing count, and the budget raises exactly below its visits; past
    four steps "coherent_only" raises UnsupportedArityError whatever the
    budget. Returns the dead ends the plain search met, or None past
    budget."""
    found = mdds_by_plain_dfs(net, budget)
    if found is None:
        return None
    leaves, gapsets, visits, dead_ends = found
    r = net.r
    if mode == "coherent_only" and r > 4:
        for least in (visits, visits - 1):
            with pytest.raises(UnsupportedArityError):
                enumerate_mdds(net, mode, budget=least)
        return dead_ends
    if mode == "coherent_only":
        width = packed_width(net.n)
        leaves = [
            leaf
            for leaf, gaps in zip(leaves, gapsets)
            if _feasible(_directions(gaps, r, width)[1], r) is not None
        ]
    result = enumerate_mdds(net, mode, budget=visits)
    check_packed_result(net, mode, result)
    assert result.found == len(found[0]), (net, mode)
    assert [m.cells for m in result.mdds] == sorted(leaves), (net, mode)
    _, paths = minimal_paths_by_scan(net.n, net.steps)
    assert result.routing_choice_count == prod(map(len, paths)), net
    with pytest.raises(BudgetExceededError):
        enumerate_mdds(net, mode, budget=visits - 1)
    return dead_ends


def test_coherent_only_refuses_five_steps_before_searching():
    # the arity is checked first: a budget of one, which the search
    # would exceed at its first walk, still reports the arity
    net = build_network(500, [3, 37, 101, 233, 377])
    with pytest.raises(UnsupportedArityError):
        enumerate_mdds(net, "coherent_only", budget=1)
    assert len(enumerate_mdds(net, budget=10**6).leaves) == 850


def check_packed_result(net, mode, result):
    """The result keeps its diagrams packed: writing it decodes no
    diagram and no cell, and its diagrams share one tuple per distinct
    cell."""
    enumeration_json(net, mode, result)
    assert "mdds" not in vars(result), (net, mode)
    shared = {}
    for mdd in result.mdds:
        assert all(shared.setdefault(cell, cell) is cell for cell in mdd.cells), net
    assert len(shared) == len(set().union(*result.leaves)), net


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_enumerate_equals_the_plain_search_on_random_networks(r):
    rng = random.Random(1800 + r)
    checked = with_dead_ends = 0
    while checked < 80:
        n = rng.randrange(r + 1, 110)
        try:
            net = build_network(n, rng.sample(range(1, n), r))
        except CircmddError:
            continue
        for mode in ("all", "coherent_only"):
            dead_ends = check_against_plain_dfs(net, mode, budget=200_000)
        if dead_ends is not None:
            checked += 1
            with_dead_ends += dead_ends > 0
    # seeded: 5 of the four-step networks and 30 of the five-step ones
    # lead the search into dead ends, where a walk stops early
    assert with_dead_ends >= {4: 5, 5: 30}.get(r, 0), with_dead_ends


@pytest.mark.parametrize(
    "net",
    [*(build_family(q).lifted for q in (2, 5, 6)), build_network(105, [74, 56, 68])],
    ids=str,
)
def test_three_step_dead_ends_match_the_plain_search(net):
    # the seeded three-step sample above meets no dead end; these
    # networks meet two each, at places whose three predecessors are all
    # one level down, and the first three also drop forks there
    for mode in ("all", "coherent_only"):
        assert check_against_plain_dfs(net, mode) >= 1, (net, mode)


@pytest.mark.parametrize(
    "net, leaves",
    [
        *zip((build_family(q).lifted for q in (2, 5, 6)), (12, 21, 24)),
        (build_network(105, [74, 56, 68]), 6),
    ],
    ids=str,
)
def test_coherent_only_gapsets_match_the_plain_search(net, leaves, monkeypatch):
    # the gapset the cone test reads for each leaf, in search order, is
    # the plain search's: every option minus the chosen cell at each
    # place with two or more options. A place that stops being a fork
    # must leave the forks, or its stale options join later gapsets
    handed = []
    directions = mdd_module._directions

    def recorded(gaps, r, width):
        handed.append(gaps)
        return directions(gaps, r, width)

    monkeypatch.setattr(mdd_module, "_directions", recorded)
    result = enumerate_mdds(net, "coherent_only")
    assert handed == mdds_by_plain_dfs(net)[1], net
    assert result.found == len(handed) == leaves, net


def test_enumerate_builds_no_routing_table():
    distance_table.cache_clear()
    for net in (build_network(8, [1, 3, 5, 7]), build_network(72, [19, 28, 64])):
        for mode in ("all", "coherent_only"):
            enumerate_mdds(net, mode)
    assert distance_table.cache_info().currsize == 0


def test_validate_builds_no_routing_table():
    # validation reads the cached distances, which a coherence check of
    # the diagram then shares, and builds no routing, level or cell
    net = build_network(31, [1, 3, 7, 12, 20])
    mdd = build_coherent_mdd(net, (9, 7, 5, 2, 1), tie_policy="lex")
    assert max(map(sum, mdd.cells)) > 1
    distance_table.cache_clear()
    assert validate_mdd(net, mdd.cells) == mdd
    assert distance_table.cache_info().misses == 1
    built = vars(distance_table(net))
    for name in ("levels", "cells", "_tails"):
        assert name not in built, name


def test_enumerate_mode_validation():
    net = build_network(10, [1, 6])
    with pytest.raises(ValueError):
        enumerate_mdds(net, mode="everything")


def test_enumerate_refuses_a_negative_budget():
    # before any search, and before the arity check of coherent_only
    with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
        enumerate_mdds(build_network(10, [1, 6]), budget=-1)
    with pytest.raises(ValueError):
        enumerate_mdds(build_network(500, [3, 37, 101, 233, 377]), "coherent_only", budget=-5)
    with pytest.raises(BudgetExceededError):
        enumerate_mdds(build_network(10, [1, 6]), budget=0)


def test_staircase_of_non_coherent_example():
    net = build_network(8, [1, 3, 5, 7])
    cells = {
        0: (0, 0, 0, 0), 1: (1, 0, 0, 0), 2: (2, 0, 0, 0), 3: (0, 1, 0, 0),
        4: (0, 0, 1, 1), 5: (0, 0, 1, 0), 6: (0, 2, 0, 0), 7: (0, 0, 0, 1),
    }
    mdd = validate_mdd(net, [cells[i] for i in range(8)])
    gens = staircase_generators(mdd).generators
    assert set(gens) == {
        (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1),
        (0, 0, 2, 0), (0, 0, 0, 2), (3, 0, 0, 0), (0, 3, 0, 0),
    }


def test_staircase_single_loop():
    net = build_network(6, [1])
    mdd = build_coherent_mdd(net, (1,))
    assert staircase_generators(mdd).generators == ((6,),)


def test_staircase_is_antichain_with_down_closed_complement():
    net = build_network(9, [1, 4, 7])
    for mdd in enumerate_mdds(net).mdds:
        gens = staircase_generators(mdd).generators
        for a in gens:
            for b in gens:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))
        image = set(mdd.cells)
        for g in gens:
            assert g not in image


@pytest.mark.parametrize("r", [2, 3, 4])
def test_staircase_matches_the_box_scan_on_random_diagrams(r):
    # the generators come from the cells plus one unit vector each; the
    # oracle scans the whole box one above the largest coordinate
    rng = random.Random(3007 + r)
    diagrams = 0
    while diagrams < 300:
        n = rng.randrange(r + 2, 48)
        steps = rng.sample(range(1, n), r)
        try:
            mdds = enumerate_mdds(build_network(n, steps), budget=20_000).mdds
        except CircmddError:
            continue
        for mdd in rng.sample(mdds, min(len(mdds), 10)):
            assert staircase_generators(mdd).generators == (
                staircase_generators_by_box_scan(mdd.cells)
            ), mdd
            diagrams += 1


def test_double_loop_shapes():
    net = build_network(9, [1, 4])
    for mdd in enumerate_mdds(net).mdds:
        assert classify_double_loop_shape(mdd) is DoubleLoopShape.L_SHAPE
    for mdd in enumerate_mdds(build_network(4, [1, 3])).mdds:
        assert classify_double_loop_shape(mdd) is DoubleLoopShape.L_SHAPE
    rect = build_network(6, [1, 3])
    mdds = enumerate_mdds(rect).mdds
    assert len(mdds) == 1
    assert classify_double_loop_shape(mdds[0]) is DoubleLoopShape.RECTANGLE
    assert len(staircase_generators(mdds[0]).generators) == 2


def test_shape_classification_requires_two_steps():
    net = build_network(9, [1, 4, 7])
    mdd = enumerate_mdds(net).mdds[0]
    with pytest.raises(UnsupportedArityError):
        classify_double_loop_shape(mdd)


def test_double_loop_staircases_have_at_most_three_generators():
    for n, steps in [(10, [1, 6]), (9, [1, 4]), (17, [3, 5]), (30, [7, 11])]:
        net = build_network(n, steps)
        for mdd in enumerate_mdds(net).mdds:
            assert len(staircase_generators(mdd).generators) <= 3


def test_is_unique_examples():
    assert is_unique_mdd(build_network(7, [1, 2, 4]))
    assert not is_unique_mdd(build_network(8, [2, 3, 7]))
    assert not is_unique_mdd(build_network(10, [1, 6]))
    assert not is_unique_mdd(build_network(9, [1, 4]))
    # a double loop without routing ties has a single diagram
    assert is_unique_mdd(build_network(6, [1, 3]))
    assert is_unique_mdd(build_network(5, [1]))


def test_is_unique_agrees_with_enumeration():
    for n, steps in [(7, [1, 2, 4]), (8, [2, 3, 7]), (9, [1, 4, 7]), (6, [1, 3, 5]),
                     (13, [1, 3, 9]), (6, [1, 3]), (8, [1, 3, 5, 7]),
                     (5, [1, 2, 3, 4]), (13, [1, 3, 4, 9]), (11, [1, 2, 3, 4, 5]),
                     (14, [1, 3, 5, 7, 9])]:
        net = build_network(n, steps)
        assert is_unique_mdd(net) == (len(enumerate_mdds(net).mdds) == 1)


def test_weighted_build_appears_in_enumeration():
    net = build_network(9, [1, 4, 7])
    every = {m.cells for m in enumerate_mdds(net).mdds}
    assert build_coherent_mdd(net, (7, 2, 0)).cells in every
