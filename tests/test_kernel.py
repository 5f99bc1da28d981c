"""The per-vertex routing walk against the exhaustive-scan oracle, and
the distance kernels against the breadth-first search.

DistanceTable.routings lists the minimal routings of one vertex from
the distances alone: the coset walk of _routings for three steps, and
for every other arity a walk over the coordinates in order, guided by
one byte per vertex and step. These tests compare its lists with
minimal_paths_by_scan, which scans plain tuples. Three steps read
their distances and route counts off the graded staircase, which is
checked against _bfs_levels and _count_routes, the kernel of every
other arity.
"""

import itertools
import math
import random

import pytest

from circmdd import (
    CirculantNetwork,
    DistanceTable,
    build_network,
    distance_table,
    distances,
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
    # the staircase would return wrong distances on three steps that do
    # not generate Z_n, so the search runs and refuses the network
    for compute in (distances, distance_table, _kernel):
        with pytest.raises(DisconnectedError) as info:
            compute(CirculantNetwork(12, (2, 4, 6)))
        assert str(info.value) == "vertex 0 reaches 6 of 12 vertices"
        assert info.value.details == {"n": 12}


def test_every_small_triple_gets_the_search_distances():
    # every connected CirculantNetwork(n, (a, b, c)), n <= 12, zero and
    # repeated steps included, read off the staircase
    checked = 0
    for n in range(1, 13):
        for steps in itertools.product(range(n), repeat=3):
            if math.gcd(n, *steps) > 1:
                continue
            net = CirculantNetwork(n, steps)
            dist, levels = _bfs_levels(net)
            assert distances(net) == tuple(dist), net
            assert list(_kernel(net)[1]) == list(_count_routes(steps, dist, levels)), net
            checked += 1
    assert checked == 5542
