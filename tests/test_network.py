"""Network construction, distances, and minimal-path tables."""

import gc
import itertools
import math
import random
import tracemalloc
import weakref

import pytest

from circmdd import (
    ArityMismatchError,
    CircmddError,
    CirculantNetwork,
    DisconnectedError,
    DistanceTable,
    DuplicateStepError,
    ZeroStepError,
    build_family,
    build_network,
    distance_table,
    distances,
    network_stats,
    route_counts,
    vertex_of,
)
from circmdd.groebner import _distances_and_counts, _graded_basis, _runs
from circmdd.network import (
    _bfs_levels,
    _CellStore,
    _count_routes,
    _levels_of,
    _routings,
    packed_width,
)

from oracles import bfs_distances, minimal_paths_by_scan


def test_build_reduces_steps_in_order():
    net = build_network(9, [10, 4])
    assert net.n == 9
    assert net.steps == (1, 4)
    assert net.r == 2
    assert str(net) == "C9(1,4)"


def test_build_rejects_zero_step():
    with pytest.raises(ZeroStepError):
        build_network(10, [5, 10])
    with pytest.raises(ZeroStepError):
        build_network(1, [1])


def test_build_rejects_duplicate_step():
    with pytest.raises(DuplicateStepError):
        build_network(10, [1, 11])


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        build_network(6, [2, 4])


def test_build_rejects_bad_size_and_empty_steps():
    with pytest.raises(ValueError):
        build_network(0, [1])
    with pytest.raises(ValueError):
        build_network(5, [])


def test_vertex_of_examples():
    net = build_network(9, [1, 4])
    assert vertex_of(net, (3, 1)) == 7
    assert vertex_of(net, (0, 4)) == 7
    assert vertex_of(net, (0, 0)) == 0
    with pytest.raises(ArityMismatchError):
        vertex_of(net, (1, 2, 3))


def test_c10_1_6_route_multiplicities():
    net = build_network(10, [1, 6])
    table = distance_table(net)
    counts = [len(table.routings(i)) for i in range(net.n)]
    for c in (0, 1, 6, 7):
        assert counts[c] == 1
    for c in (2, 3, 8, 9):
        assert counts[c] == 2
    for c in (4, 5):
        assert counts[c] == 3


def test_c7_1_2_4_distances_and_unique_routes():
    net = build_network(7, [1, 2, 4])
    table = distance_table(net)
    assert list(table.dist) == [0, 1, 1, 2, 1, 2, 2]
    assert all(len(table.routings(i)) == 1 for i in range(net.n))
    diameter, average = network_stats(net)
    assert diameter == 2


def test_table_basics_and_vertex_zero():
    net = build_network(13, [2, 5])
    table = distance_table(net)
    assert table.dist[0] == 0
    assert table.routings(0) == ((0, 0),)
    for i, vecs in enumerate(map(table.routings, range(net.n))):
        assert vecs
        assert list(vecs) == sorted(vecs)
        for a in vecs:
            assert vertex_of(net, a) == i
            assert sum(a) == table.dist[i]
            assert sum(a) <= net.n - 1


def test_single_loop_stats():
    from fractions import Fraction

    net = build_network(11, [1])
    diameter, average = network_stats(net)
    assert diameter == 10
    assert average == Fraction(10, 2)


@pytest.mark.parametrize(
    "n,steps",
    [(10, [1, 6]), (9, [1, 4, 7]), (7, [1, 2, 4]), (17, [3, 5]), (23, [2, 9, 13]),
     (8, [1, 3, 5, 7]), (30, [7, 11])],
)
def test_table_matches_exhaustive_oracle(n, steps):
    net = build_network(n, steps)
    table = distance_table(net)
    dist, paths = minimal_paths_by_scan(n, net.steps)
    assert list(table.dist) == dist
    assert [list(table.routings(i)) for i in range(n)] == paths


@pytest.mark.parametrize(
    "n,steps",
    [(10, [1, 6]), (9, [1, 4, 7]), (56, [9, 17, 33]), (31, [4, 7, 19])],
)
def test_dist_matches_plain_bfs(n, steps):
    net = build_network(n, steps)
    assert list(distance_table(net).dist) == bfs_distances(n, net.steps)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_distances_and_route_counts_match_the_table(r):
    rng = random.Random(700 + r)
    checked = 0
    while checked < 40:
        n = rng.randrange(r + 1, 200)
        try:
            net = build_network(n, rng.sample(range(1, n), r))
        except CircmddError:
            continue
        checked += 1
        table = distance_table(net)
        dist = distances(net)
        assert dist == table.dist, net
        assert route_counts(net, dist) == tuple(len(table.routings(i)) for i in range(n)), net
        # every arity but two and three walks its routings guided by the
        # tail bits, which one count over the steps r - 1 down to 1 gives
        # as a count over each suffix of the steps does
        _, paths = minimal_paths_by_scan(n, net.steps)
        assert [list(table.routings(i)) for i in range(n)] == paths, net
        suffixes = [CirculantNetwork(n, net.steps[m:]) for m in range(1, r)]
        tails = tuple(bytes(c > 0 for c in route_counts(sub, dist)) for sub in suffixes)
        assert table._tails == tails, net


def random_networks(seed: int, r: int, count: int, largest: int):
    """count seeded random connected networks with r steps and n below
    largest, n = r + 1 first (n = 2 for a single step)."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = r + 1 if not found else rng.randrange(r + 1, largest)
        try:
            found.append(build_network(n, rng.sample(range(1, n), r)))
        except CircmddError:
            continue
    return found


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_bfs_levels_match_the_plain_search(r):
    for net in random_networks(2000 + r, r, 40, 200):
        n = net.n
        dist, levels = _bfs_levels(net)
        assert dist == bfs_distances(n, net.steps), net
        # level d is the set of vertices at distance d, and the levels
        # partition Z_n
        for d, level in enumerate(levels):
            assert set(level) == {v for v in range(n) if dist[v] == d}, (net, d)
        assert sorted(v for level in levels for v in level) == list(range(n)), net
        # the same levels in vertex order, from dist alone
        assert _levels_of(dist) == [sorted(level) for level in levels], net
        counts = _count_routes(net.steps, dist, levels)
        assert counts == route_counts(net, dist), net
        table = distance_table(net)
        assert counts == tuple(len(table.routings(i)) for i in range(n)), net


def test_bfs_levels_of_a_disconnected_network_raise():
    # the message and details distances gave before it ran on the levels
    with pytest.raises(DisconnectedError) as info:
        _bfs_levels(CirculantNetwork(6, (2, 4)))
    assert str(info.value) == "vertex 0 reaches 3 of 6 vertices"
    assert info.value.details == {"n": 6}


def relabelled(rng, net):
    """An isomorphic copy of a three-step network: its steps times a
    unit of Z_n, in a new order."""
    n = net.n
    unit = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
    return build_network(n, [unit * s for s in rng.sample(net.steps, 3)])


def run_step(net):
    """The step of the strictly highest pure-power lead of the graded
    basis, along which _distances_and_counts lays its runs; None on a
    tie."""
    powers = sorted(
        (max(g), g.index(max(g))) for g in _graded_basis(net) if sum(c > 0 for c in g) == 1
    )
    (low, _), (high, j) = powers[-2:]
    return net.steps[j] if high > low else None


def test_staircase_counts_match_the_oracles():
    # distances and route counts of every vertex read off the graded
    # staircase, against the plain search and the exhaustive scan
    rng = random.Random(3100)
    nets = random_networks(3000, 3, 40, 200)
    for net in nets + [relabelled(rng, net) for net in nets]:
        dist, counts = _distances_and_counts(net)
        assert dist == bfs_distances(net.n, net.steps), net
        _, paths = minimal_paths_by_scan(net.n, net.steps)
        assert counts == list(map(len, paths)), net


# runs along a step that shares a factor with n lie on several cycles:
# C946(618,323,913) 11 of them, C572(297,430,148) also 11,
# C6000(2,3002,1) 2; the last has route counts up to 751. C20000 has
# step differences of small order (10003 - 3 = n / 2)
# The last six: C5997, every class of t but j = 0 empty (fibre step
# 1999 = h(0, 0)); C1455, 623 runs over 208 values of x; C372 and C161,
# several t in one class at fibre steps 124 and 1; C6000(1,2001,4001),
# its three steps alike mod 2000, about two million minimal routings
# with a_z = 0 in all. C6000(2,3002,1) has m = n and C20000 m = n / 2
LARGE_NETWORKS = [
    (946, [618, 323, 913]),
    (572, [297, 430, 148]),
    (6000, [2, 3002, 1]),
    (20000, [3, 10003, 101]),
    (5997, [1, 1999, 3998]),
    (1455, [58, 1107, 1339]),
    (372, [76, 365, 324]),
    (161, [110, 64, 41]),
    (6000, [1, 2001, 4001]),
]


def test_staircase_counts_match_the_search_on_larger_networks():
    rng = random.Random(3200)
    nets = random_networks(3300, 3, 60, 3000)
    nets += [build_network(n, steps) for n, steps in LARGE_NETWORKS]
    nets += [build_family(q).lifted for q in (2, 5, 8)]
    nets += [relabelled(rng, net) for net in nets]
    cycles = [net for net in nets if math.gcd(run_step(net) or 1, net.n) > 1]
    assert len(cycles) >= 20
    for n, steps in LARGE_NETWORKS[:3]:
        assert math.gcd(run_step(build_network(n, steps)), n) > 1
    for net in nets:
        dist, levels = _bfs_levels(net)
        expected = (dist, list(_count_routes(net.steps, dist, levels)))
        assert _distances_and_counts(net) == expected, net


def test_minimal_routings_off_one_step_form_one_class():
    # the fact the three-step counts are read by, from the exhaustive
    # scan alone: for every minimal routing of a vertex, with its
    # coordinates named x, y, z in any order, the minimal routings with
    # a_z = 0 are the (x + t, y + j - t, 0), j = a_z, for the t in
    # [-x, y + j] with t (s_x - s_y) = j (s_z - s_y) mod n. With
    # g = gcd(s_x - s_y, n), some t solve that only when j is a multiple
    # of g / gcd(g, s_z - s_y), and then they form one class mod n / g
    several = 0
    for net in random_networks(3400, 3, 60, 120):
        n = net.n
        _, paths = minimal_paths_by_scan(n, net.steps)
        for order in itertools.permutations(range(3)):
            sx, sy, sz = (net.steps[k] for k in order)
            g = math.gcd(sx - sy, n)
            solutions = {}
            for routings in paths:
                zero = sorted(r for r in routings if r[order[2]] == 0)
                several += len(zero) > 1
                for r in routings:
                    x, y, j = (r[k] for k in order)
                    if j not in solutions:
                        solutions[j] = {
                            t for t in range(n) if (t * (sx - sy) - j * (sz - sy)) % n == 0
                        }
                        assert bool(solutions[j]) == (j % (g // math.gcd(g, sz - sy)) == 0)
                        assert len({t % (n // g) for t in solutions[j]}) <= 1
                    found = []
                    for t in range(-x, y + j + 1):
                        if t % n in solutions[j]:
                            a = [0, 0, 0]
                            a[order[0]], a[order[1]] = x + t, y + j - t
                            found.append(tuple(a))
                    assert sorted(found) == zero, (net, r, order)
    assert several


def run_shape(net):
    """(runs, f, m) of a three-step network: the runs the staircase
    lays, and the fibre step f and the modulus m of the classes of t
    along their steps (s_x, s_y, s_z)."""
    runs, (sx, sy, sz) = _runs(net, _graded_basis(net))
    g = math.gcd(sx - sy, net.n)
    return runs, g // math.gcd(g, sz - sy), net.n // g


def test_larger_networks_cover_the_edge_shapes():
    shapes = [run_shape(build_network(n, steps)) for n, steps in LARGE_NETWORKS]
    assert [m for _, _, m in shapes[2:4]] == [6000, 10000]
    runs, f, _ = shapes[4]
    assert f >= max(h for _, _, h, _, _ in runs)
    runs = shapes[5][0]
    assert len(runs) == 623 and max(x for *_, x, _ in runs) == 207
    # a fibre step above 1, and a vertex whose window [-x, y + j] holds
    # two t or more of its class
    assert any(f > 1 for _, f, _ in shapes)
    assert any(
        x + y + (h - 1) // f * f + 1 >= 2 * m for runs, f, m in shapes for _, _, h, x, y in runs
    )


def test_staircase_counts_hold_no_entry_per_routing():
    # C6000(1,2001,4001) has about two million minimal routings with
    # a_z = 0; the counts are read off rows of at most 2n entries, with
    # no entry per t. About 140 bytes a vertex are traced; one entry per
    # t of [0, j] would take about 1,100
    net = build_network(6000, [1, 2001, 4001])
    tracemalloc.start()
    try:
        _distances_and_counts(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * net.n


@pytest.mark.parametrize(
    "n,steps",
    [(10, [1, 6]), (9, [1, 4, 7]), (7, [1, 2, 4]), (56, [9, 17, 33]),
     (72, [19, 28, 64]), (8, [1, 3, 5, 7])],
)
def test_volume_bound(n, steps):
    net = build_network(n, steps)
    diameter, _ = network_stats(net)
    assert n <= math.comb(diameter + net.r, net.r)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_distance_levels_follow_the_distances(r):
    rng = random.Random(31 + r)
    checked = 0
    while checked < 25:
        n = rng.randrange(r + 2, 90)
        try:
            net = build_network(n, rng.sample(range(1, n), r))
        except CircmddError:
            continue
        checked += 1
        dist = bfs_distances(n, net.steps)
        levels = distance_table(net).levels
        # one list per distance 0..D, each in vertex order
        assert len(levels) == max(dist) + 1
        for d, level in enumerate(levels):
            assert level == sorted(level) and {dist[i] for i in level} == {d}
        flat = [i for level in levels for i in level]
        assert flat == sorted(range(n), key=lambda i: (dist[i], i))


def test_derived_structures_live_and_die_with_the_table():
    # the fields are exactly net and dist; what is derived lives in the
    # instance dict, which is empty until something is read
    assert DistanceTable._fields == ("net", "dist")
    net = build_network(56, [9, 17, 33])
    distance_table.cache_clear()
    table = distance_table(net)
    assert tuple(table) == (net, distances(net)) and vars(table) == {}
    derived = {name: getattr(table, name) for name in ("levels", "cells", "_tails")}
    for name, value in derived.items():
        assert vars(table)[name] is value
        assert getattr(distance_table(net), name) is value
    # a tuple subclass takes no weak reference, so the table's death is
    # seen through its cell store, which nothing else holds
    gone = weakref.ref(table.cells)
    distance_table.cache_clear()
    fresh = distance_table(net)
    assert fresh is not table and vars(fresh) == {}
    del table, derived, value
    gc.collect()
    assert gone() is None
    # equality and hashing see only the two fields
    fresh.levels, fresh.cells, fresh._tails
    bare = DistanceTable(fresh.net, fresh.dist)
    assert vars(bare) == {}
    assert bare == fresh and hash(bare) == hash(fresh) == hash((fresh.net, fresh.dist))
    assert list(map(bare.routings, range(56))) == list(map(fresh.routings, range(56)))
    assert bare != DistanceTable(fresh.net, fresh.dist[:-1] + (0,))


@pytest.mark.parametrize("seed", range(4))
def test_vertex_routings_match_the_table(seed):
    # the coset walk of a three-step vertex lists its minimal routings,
    # in order, and so does the table built from it; every other network has gcd(s1 - s2, n) > 1, so the
    # solutions y form a class modulo a proper divisor of n
    rng = random.Random(900 + seed)
    shared = 0
    for k in range(30):
        n = 2 * rng.randrange(2, 200)
        s0, s2 = rng.sample(range(1, n), 2)
        # an even difference shares the factor 2 with n
        s1 = s2 + 2 * rng.randrange(1, n) if k % 2 else rng.randrange(1, n)
        try:
            net = build_network(n, [s0, s1, s2])
        except CircmddError:
            continue
        shared += math.gcd(net.steps[1] - net.steps[2], n) > 1
        table = distance_table(net)
        _, paths = minimal_paths_by_scan(n, net.steps)
        assert [list(table.routings(i)) for i in range(n)] == paths, net
    assert shared >= 10


def test_table_cache_tells_a_network_from_a_plain_tuple():
    # a network equals the tuple of its fields, but the typed cache gives
    # that tuple no table (it has no steps to count)
    net = build_network(10, [1, 6])
    distance_table.cache_clear()
    table = distance_table(net)
    assert (10, (1, 6)) == net
    with pytest.raises(AttributeError):
        distance_table((10, (1, 6)))
    assert distance_table(net) is table


def test_double_loop_routings_are_one_coset_walk():
    # the routings of length d of a double-loop vertex are the (y, d - y)
    # that reach it, one residue class of y, for d its distance (its
    # minimal routings, as the table lists them) or any other length:
    # every connected C_n(a, b) with n <= 24, gcd(a - b, n) > 1 included
    shared = 0
    for n in range(3, 25):
        for a in range(1, n):
            for b in range(1, n):
                if a == b or math.gcd(n, a, b) > 1:
                    continue
                net = build_network(n, [a, b])
                shared += math.gcd(a - b, n) > 1
                dist, paths = minimal_paths_by_scan(n, net.steps)
                table = distance_table(net)
                assert [list(table.routings(i)) for i in range(n)] == paths, net
                for i in range(n):
                    for d in (dist[i], dist[i] + 1, dist[i] + n):
                        reach = [(y, d - y) for y in range(d + 1) if (y * a + (d - y) * b - i) % n == 0]
                        assert list(_routings(net, i, d)) == reach, (net, i, d)
    assert shared > 900, shared


def test_cell_store_decodes_the_packed_layout():
    # one layout: the store decodes the codes enumerate_mdds and
    # is_coherent pack, each on first use
    rng = random.Random(77)
    for n, r in [(2, 1), (9, 3), (1892, 3), (126, 4), (40009, 5)]:
        shifts = [packed_width(n) * (r - 1 - j) for j in range(r)]
        cells = {tuple(rng.randrange(n) for _ in range(r)) for _ in range(40)}
        codes = {sum(c << s for c, s in zip(cell, shifts)): cell for cell in cells}
        store = _CellStore(n, r)
        assert all(store[code] == cell for code, cell in codes.items())
        assert store == codes
