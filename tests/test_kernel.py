"""The per-vertex routing walk against the exhaustive-scan oracle, and
the distance kernels against the breadth-first search.

DistanceTable.routings lists the minimal routings of one vertex from
the distances alone: the coset walk of _routings for three steps, and
for every other arity a walk over the coordinates in order, guided by
one byte per vertex and step. These tests compare its lists with
minimal_paths_by_scan, which scans plain tuples. Three steps read
their distances and route counts off the graded staircase and two off
the L-shaped tile; both are checked against _bfs_levels and
_count_routes, the kernel of one step and of four or more.
"""

import itertools
import math
import random

import pytest

from circmdd import (
    CirculantNetwork,
    DistanceTable,
    build_coherent_mdd,
    build_network,
    distance_table,
    distances,
    enumerate_mdds,
    is_unique_mdd,
    network_stats,
)
from circmdd.errors import CircmddError, DisconnectedError
from circmdd.network import _bfs_levels, _count_routes, _kernel

from oracles import minimal_paths_by_scan

# largest n drawn per step count, so that the oracle's scan stays small
MAX_N = {1: 200, 2: 150, 3: 100, 4: 60, 5: 40}


def assert_matches_oracle(net):
    table = DistanceTable(net, distances(net))
    dist, paths = minimal_paths_by_scan(net.n, net.steps)
    assert list(table.dist) == dist, net
    assert [list(table.routings(i)) for i in range(net.n)] == paths, net


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_kernel_matches_scan_oracle_on_random_networks(r):
    rng = random.Random(4000 + r)
    tried = 0
    while tried < 60:
        n = rng.randint(r + 1, MAX_N[r])
        try:
            net = build_network(n, rng.sample(range(1, n), r))
        except CircmddError:
            continue
        tried += 1
        assert_matches_oracle(net)


@pytest.mark.parametrize("n", [63, 64, 65, 255, 256, 257])
def test_single_loop_fills_its_coordinate_field(n):
    # the last vertex needs n - 1 arcs, the largest coordinate any
    # network of size n can reach
    net = build_network(n, [1])
    assert distance_table(net).routings(n - 1) == ((n - 1,),)
    assert_matches_oracle(net)


def test_unvalidated_disconnected_network_raises():
    with pytest.raises(DisconnectedError):
        distance_table(CirculantNetwork(6, (2, 4)))
    with pytest.raises(DisconnectedError):
        distances(CirculantNetwork(6, (2, 4)))
    # the staircase and the tile would return wrong distances on steps
    # that do not generate Z_n, so the search runs and refuses the network
    for steps in ((2, 4), (2, 4, 6)):
        for compute in (distances, distance_table, _kernel):
            with pytest.raises(DisconnectedError) as info:
                compute(CirculantNetwork(12, steps))
            assert str(info.value) == "vertex 0 reaches 6 of 12 vertices"
            assert info.value.details == {"n": 12}


def assert_kernel_matches_search(net):
    dist, levels = _bfs_levels(net)
    assert distances(net) == tuple(dist), net
    found = _kernel(net)
    assert list(found[0]) == dist, net
    assert list(found[1]) == list(_count_routes(net.steps, dist, levels)), net


def small_networks(r, largest):
    """Every connected CirculantNetwork(n, steps) with r steps and
    n <= largest, zero and repeated steps included."""
    return [
        CirculantNetwork(n, steps)
        for n in range(1, largest + 1)
        for steps in itertools.product(range(n), repeat=r)
        if math.gcd(n, *steps) == 1
    ]


def test_every_small_triple_gets_the_search_distances():
    # read off the staircase
    nets = small_networks(3, 12)
    for net in nets:
        assert_kernel_matches_search(net)
    assert len(nets) == 5542


def test_every_small_double_loop_gets_the_search_distances():
    # read off the tile
    nets = small_networks(2, 24)
    for net in nets:
        assert_kernel_matches_search(net)
    assert len(nets) == 4032


# double loops whose first step, second step or both share a factor
# with n; the tile's Hermite basis has h_0 < n when the first does
SHARED_FACTORS = [
    (1000, (4, 25)),
    (105, (87, 59)),
    (105, (59, 87)),
    (4096, (2, 3)),
    (4096, (3, 2)),
    (360, (8, 9)),
    (6000, (2, 3001)),
]


def test_random_double_loops_get_the_search_distances():
    # seeded random double loops with n < 5,000, and each relabelled by a
    # unit of Z_n: an isomorphic network whose tile lies another way
    rng = random.Random(2900)
    nets = [build_network(n, steps) for n, steps in SHARED_FACTORS]
    while len(nets) < 80:
        n = rng.randrange(3, 5000)
        try:
            nets.append(build_network(n, rng.sample(range(1, n), 2)))
        except CircmddError:
            continue
    for net in list(nets):
        n = net.n
        unit = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
        nets.append(build_network(n, [unit * s for s in net.steps]))
    for j in (0, 1):
        assert sum(math.gcd(net.n, net.steps[j]) > 1 for net in nets) >= 20, j
    for net in nets:
        assert_kernel_matches_search(net)


def test_double_loops_run_no_search(monkeypatch):
    # every library call on a connected double loop reads the tile
    import circmdd.network

    def refused(net):
        raise AssertionError(f"_bfs_levels({net})")

    monkeypatch.setattr(circmdd.network, "_bfs_levels", refused)
    distance_table.cache_clear()
    net = build_network(105, [87, 59])
    assert network_stats(net)[0] == max(distance_table(net).dist)
    assert len(enumerate_mdds(net).mdds) == 2
    assert not is_unique_mdd(net)
    assert build_coherent_mdd(net, (1, 1), "lex").net == net
