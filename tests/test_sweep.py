"""Exhaustive differential sweep over small triple loops.

Every three-step network with n <= 28 is covered, one per class under
multiplying the steps by a unit of Z_n: that relabels the vertices and
leaves distances, routing counts, lattices and diagram counts as they
are. Each network is checked eight ways: the fan's diagram count equals
the brute-force coherent count, is_coherent accepts exactly the
least-weight diagrams of the fan's sector representatives (a check with
no cone solver), the enumeration's own coherence filter keeps exactly
the diagrams is_coherent accepts, the staircase of every diagram equals
the one a scan of its bounding box finds, every octant Hilbert basis
equals the definition-level indecomposable filter, the candidate rays
equal those screened over every short octant point, the uniqueness
criterion agrees with the enumeration, and the breadth-first distances,
the route counts, the per-vertex routing walks and the table built from
them equal those of an exhaustive scan, and so do the distances and route
counts read off the graded staircase. A second sweep builds the
diagram of every sector representative and every wall ray of the fan,
with both tie policies, against the definition-level census: wall rays
lie on tie lines, so they reach the weight-tie check. It also checks
every sector's census key: the lead set of its reduced Groebner basis,
which must be the staircase of the definition's diagram, both as the
census computes it (one flip across each wall) and by Buchberger's
algorithm alone, on every network, the 115 with no unit step among them.
And the census's tie check, which stops at one vertex, must raise
exactly when the scan of build_coherent_mdd does, on sector
representatives, the weights the census slides them to, wall rays and
random weights. A third sweep runs the plain depth-first search of the
enumerator (oracles.mdds_by_plain_dfs) against enumerate_mdds, in both
modes: the same diagrams, the same routing count, and the budget
raising exactly below the plain search's visits. A fourth writes every
enumeration, in both modes, and every `net info` document, and compares
the text with json.dumps of oracles.enumeration_payload and
oracles.net_info_payload.
"""

import random
from functools import partial
from itertools import combinations, compress
from math import gcd

import pytest

from circmdd import (
    Mdd,
    OctantSemigroup,
    SINGLE_NEGATIVE_SIGNS,
    WeightTieError,
    boundary_ray_minima,
    build_coherent_mdd,
    build_network,
    candidate_rays,
    distance_table,
    distances,
    enumerate_mdds,
    fan_report,
    hilbert_basis,
    homogeneous_lattice,
    is_coherent,
    is_unique_mdd,
    route_counts,
    staircase_generators,
)
from circmdd.intlin import norm1
from circmdd.groebner import _degree, _distances_and_counts, _graded_basis, _sector_leads
from circmdd.mdd import _first_tie, _tie_at_u
from circmdd.serialize import canonical_json, enumeration_json, net_info_json

from oracles import (
    coherent_cells_by_definition,
    coherent_diagrams_by_sectors,
    enumeration_payload,
    indecomposable_filter,
    minimal_paths_by_scan,
    net_info_payload,
    rays_screened_by_points,
    single_negative_octant_points,
    staircase_generators_by_box_scan,
)
from test_mdd import check_against_plain_dfs

MAX_N = 28


def unit_classes(n):
    """The least sorted step triple of each class, for connected C_n."""
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    for steps in combinations(range(1, n), 3):
        if gcd(n, *steps) == 1 and steps == min(
            tuple(sorted(u * s % n for s in steps)) for u in units
        ):
            yield steps


def test_sweep_size():
    assert sum(len(list(unit_classes(n))) for n in range(4, MAX_N + 1)) == 1745


def test_sweep_has_networks_without_a_unit_step():
    # their lattice ideals have no generator x_p^n - 1, e.g. C6(2,3,4)
    pivotless = [
        (n, steps)
        for n in range(4, MAX_N + 1)
        for steps in unit_classes(n)
        if all(gcd(s, n) > 1 for s in steps)
    ]
    assert (6, (2, 3, 4)) in pivotless and len(pivotless) == 115


@pytest.mark.parametrize("n", range(4, MAX_N + 1))
def test_every_triple_loop_agrees_with_the_oracles(n):
    rng = random.Random(n)
    ties = incoherent = 0
    for steps in unit_classes(n):
        net = build_network(n, steps)
        table = distance_table(net)
        dist = distances(net)
        assert dist == table.dist, net
        _, paths = minimal_paths_by_scan(n, net.steps)
        assert list(route_counts(net, dist)) == list(map(len, paths)), net
        assert _distances_and_counts(net) == (list(dist), list(map(len, paths))), net
        assert [list(table.routings(i)) for i in range(n)] == paths, net
        mdds = enumerate_mdds(net, "all").mdds
        for m in mdds:
            assert staircase_generators(m).generators == (
                staircase_generators_by_box_scan(m.cells)
            ), (net, m)
        fan = fan_report(net)
        by_sectors = coherent_diagrams_by_sectors(
            n, net.steps, fan.sector_representatives, paths
        )
        verdicts = [is_coherent(m).coherent for m in mdds]
        assert verdicts == [m.cells in by_sectors for m in mdds], net
        coherent = tuple(compress(mdds, verdicts))
        incoherent += len(mdds) - len(coherent)
        assert enumerate_mdds(net, "coherent_only").mdds == coherent, net
        assert fan.mdd_count == len(coherent), net
        ties += census_ties_against_definition(net, fan)
        census_ties_against_the_scan(net, fan, rng)
        assert is_unique_mdd(net) == (len(mdds) == 1), net
        lat = homogeneous_lattice(net)
        for signs in SINGLE_NEGATIVE_SIGNS:
            oct = OctantSemigroup(lat, signs)
            # every Hilbert generator is u, v or lies strictly inside
            # the parallelogram they span, so its norm is below the bound
            u, v = boundary_ray_minima(oct)
            points = single_negative_octant_points(
                n, net.steps, signs, norm1(u) + norm1(v)
            )
            assert list(hilbert_basis(oct).elements) == indecomposable_filter(
                points
            ), (net, signs)
        rays = {c.ray: c.sources for c in candidate_rays(lat)}
        assert rays == rays_screened_by_points(n, net.steps), net
    assert ties or n < 6, n  # wall rays reach the weight-tie check
    # of the 3,338 diagrams, only two of C14(1,9,11) are incoherent
    assert incoherent == (2 if n == 14 else 0), n


@pytest.mark.parametrize("n", range(4, MAX_N + 1))
def test_every_triple_loop_enumerates_as_the_plain_search(n):
    for steps in unit_classes(n):
        net = build_network(n, steps)
        for mode in ("all", "coherent_only"):
            check_against_plain_dfs(net, mode)


@pytest.mark.parametrize("n", range(4, MAX_N + 1))
def test_every_triple_loop_enumeration_is_written_as_the_oracle(n):
    for steps in unit_classes(n):
        net = build_network(n, steps)
        for mode in ("all", "coherent_only"):
            result = enumerate_mdds(net, mode)
            expected = canonical_json(enumeration_payload(net, mode, result))
            assert enumeration_json(net, mode, result) == expected, (net, mode)


@pytest.mark.parametrize("n", range(4, MAX_N + 1))
def test_every_triple_loop_net_info_is_written_as_the_oracle(n):
    for steps in unit_classes(n):
        net = build_network(n, steps)
        dist = distances(net)
        counts = route_counts(net, dist)
        expected = canonical_json(net_info_payload(net, dist, counts))
        assert net_info_json(net, dist, counts) == expected, net


def census_ties_against_definition(net, fan):
    """Check the diagram of every sector and wall weight of the fan, both
    tie policies, and the census key of every sector against the
    definition; return the number of ties."""
    ties = 0
    _, paths = minimal_paths_by_scan(net.n, net.steps)
    # the key is the sector's lead set, the staircase of its diagram.
    # The census flips each sector's basis across the wall it crosses;
    # the chain without walls runs Buchberger's algorithm for every
    # sector. Both start from the graded basis
    basis = flipped = _graded_basis(net)
    crossed = [None] + [wall.ray for wall in fan.walls[1:]]
    for w, wall in zip(fan.sector_representatives, crossed):
        leads, basis = _sector_leads(w, basis)
        flip_leads, flipped = _sector_leads(w, flipped, wall)
        _, cells = coherent_cells_by_definition(net.n, net.steps, w, paths=paths)
        staircase = staircase_generators(Mdd(net, cells)).generators
        assert leads == flip_leads == staircase, (net, w)
    for w in fan.sector_representatives + tuple(wall.ray for wall in fan.walls):
        for policy in ("error", "lex"):
            expected = coherent_cells_by_definition(
                net.n, net.steps, w, policy, paths=paths
            )
            try:
                got = ("cells", build_coherent_mdd(net, w, policy).cells)
            except WeightTieError as exc:
                d = exc.details
                got = ("tie", (d["vertex"], tuple(d["first"]), tuple(d["second"])))
                ties += 1
            assert got == expected, (net, w, policy)
    return ties


def census_ties_against_the_scan(net, fan, rng):
    """The census's tie check, _tie_at_u with normal-form degrees, finds
    a tie exactly when _first_tie does, under the graded basis and under
    sector bases alike."""
    table = distance_table(net)
    walls = [wall.ray for wall in fan.walls]
    weights = list(fan.sector_representatives) + walls
    for a, b in zip(walls, walls[1:] + walls[:1]):
        # the representative a + b, slid toward a as the census does
        weights += [tuple(x + y + t * x for x, y in zip(a, b)) for t in (1, 3, 7)]
    for _ in range(8):
        x, y = rng.randrange(-12, 13), rng.randrange(-12, 13)
        weights.append((x, y, -x - y))
    bases = [_graded_basis(net)]
    for k, w in enumerate(weights):
        if not any(w):
            continue
        basis = bases[k % len(bases)]
        tied = _tie_at_u(net, w, partial(_degree, basis)) is not None
        if not tied and len(bases) < 4:
            bases.append(_sector_leads(w, basis)[1])
        assert tied == (_first_tie(table, w) is not None), (net, w)
