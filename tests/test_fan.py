"""Candidate rays, wall verification, fans, and lifts."""

import random
from itertools import permutations
from math import gcd

import pytest

from circmdd import (
    BadLiftParamsError,
    BadRayError,
    Mdd,
    RayCandidate,
    UnsupportedArityError,
    Wall,
    WallRejection,
    build_family,
    build_network,
    candidate_rays,
    distance_table,
    distances,
    enumerate_mdds,
    fan_report,
    hilbert_basis,
    homogeneous_lattice,
    is_coherent,
    lift_network,
    octant,
    staircase_generators,
    verify_family,
    verify_wall,
    vertex_of,
)
from circmdd.intlin import dot
import circmdd.groebner as groebner
from circmdd.groebner import _graded_basis, _lattice_ideal_basis, _sector_leads

import oracles
from oracles import (
    coherent_cells_by_definition,
    mdds_by_backtracking,
    minimal_paths_by_scan,
)

C9_RAYS = {
    (2, -1, -1), (-1, 2, -1), (-1, -1, 2),
    (0, 1, -1), (0, -1, 1), (1, 0, -1), (-1, 0, 1), (1, -1, 0), (-1, 1, 0),
}


def test_candidate_rays_c9_1_4_7():
    lat = homogeneous_lattice(build_network(9, [1, 4, 7]))
    cands = candidate_rays(lat)
    assert {c.ray for c in cands} == C9_RAYS
    by_ray = {c.ray: c.sources for c in cands}
    assert by_ray[(2, -1, -1)] == ((0, -3, 3), (0, 3, -3))
    assert by_ray[(0, 1, -1)] == ((-2, 1, 1),)
    for c in cands:
        for a in c.sources:
            assert dot(c.ray, a) == 0
        assert sum(c.ray) == 0


def test_candidate_rays_c8_2_3_7():
    # ten Hilbert generators screen down to eight distinct rays: the
    # octant with two minimal generators contributes one ray per
    # generator and the two axis-pair generators coincide in pairs
    lat = homogeneous_lattice(build_network(8, [2, 3, 7]))
    cands = candidate_rays(lat)
    assert {c.ray for c in cands} == {
        (-2, -5, 7), (-2, 7, -5), (-1, -1, 2), (-1, 2, -1),
        (2, -1, -1), (-2, 1, 1), (-2, -1, 3), (-2, 3, -1),
    }
    total = sum(
        len(hilbert_basis(octant(lat, s)).elements) for s in ("-++", "+-+", "++-")
    )
    assert total == 10


def test_candidate_rays_requires_three_steps():
    lat = homogeneous_lattice(build_network(10, [1, 6]))
    with pytest.raises(UnsupportedArityError):
        candidate_rays(lat)


def test_verify_wall_requires_three_steps():
    # refused before the ray is read, with or without precomputed inputs
    net = build_network(10, [1, 6])
    for inputs in (None, (homogeneous_lattice(net), None, None)):
        with pytest.raises(UnsupportedArityError) as info:
            verify_wall(net, RayCandidate((1, -1), ()), inputs)
        assert info.value.details == {"r": 2}


def test_verify_wall_c9_1_4_7_accepts_with_witness():
    net = build_network(9, [1, 4, 7])
    cands = {c.ray: c for c in candidate_rays(homogeneous_lattice(net))}
    wall = verify_wall(net, cands[(2, -1, -1)])
    assert isinstance(wall, Wall)
    assert wall.witness in ((0, -3, 3), (0, 3, -3))


def test_verify_wall_c7_1_2_4_rejects_at_minimality():
    # the short-norm orthogonal vector (-3,1,2) routes to vertex 3 with
    # three arcs while the true distance is two
    net = build_network(7, [1, 2, 4])
    cands = {c.ray: c for c in candidate_rays(homogeneous_lattice(net))}
    rejection = verify_wall(net, cands[(-1, 5, -4)])
    assert isinstance(rejection, WallRejection)
    assert rejection.failed_condition == 1
    assert "vertex 3" in rejection.reason


def test_fan_c9_1_4_7():
    report = fan_report(build_network(9, [1, 4, 7]))
    assert len(report.walls) == 9
    assert report.mdd_count == 9
    assert len(report.sector_representatives) == 9


def test_fan_c8_2_3_7_two_diagrams():
    report = fan_report(build_network(8, [2, 3, 7]))
    assert report.mdd_count == 2
    assert len(report.walls) == 2


def test_fan_c7_1_2_4_unique():
    report = fan_report(build_network(7, [1, 2, 4]))
    assert report.walls == ()
    assert report.mdd_count == 1
    assert report.candidates
    assert all(r.failed_condition == 1 for r in report.rejections)


@pytest.mark.parametrize("n, steps", [(7, [1, 2, 4]), (8, [2, 3, 7]), (9, [1, 4, 7])])
def test_standalone_verify_wall_matches_fan_report(n, steps):
    # checking each candidate on its own must give the walls and
    # rejections of the fan, in the fan's order
    net = build_network(n, steps)
    report = fan_report(net)
    assert report.candidates == candidate_rays(homogeneous_lattice(net))
    results = [verify_wall(net, c) for c in report.candidates]
    walls = sorted((x for x in results if isinstance(x, Wall)), key=lambda w: w.ray)
    assert walls == sorted(report.walls, key=lambda w: w.ray)
    assert [x for x in results if isinstance(x, WallRejection)] == list(report.rejections)


def test_fan_report_verifies_each_candidate_once(monkeypatch):
    import circmdd.fan as fan

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("candidate_rays", "verify_wall"):
        monkeypatch.setattr(fan, name, counted(name, getattr(fan, name)))
    report = fan_report(build_network(9, [1, 4, 7]))
    assert calls.count("candidate_rays") == 1
    assert calls.count("verify_wall") == len(report.candidates) > 0
    with pytest.raises(UnsupportedArityError):
        fan_report(build_network(9, [1, 4]))


def test_condition_3_names_the_first_failing_point_not_a_generator():
    # the screening decides condition 3 on generators, but the reason
    # names the lexicographically first failing octant point: here
    # (-4, 4, 0) = 2 * (-2, 2, 0), which is not a generator
    net = build_network(12, [1, 7, 10])
    result = verify_wall(net, RayCandidate((1, -2, 1), ()))
    assert result == WallRejection(
        (1, -2, 1),
        3,
        "octant point (-4, 4, 0) lies strictly on the negative side of the ray",
    )
    elements = hilbert_basis(octant(homogeneous_lattice(net), "-++")).elements
    assert (-2, 2, 0) in elements and (-4, 4, 0) not in elements


def test_condition_2_rejects_a_minimal_vector_that_is_not_a_generator():
    # (1, 4, -5) routes minimally on both sides, at distance 5, but it
    # is (1, 1, -2) + (0, 3, -3) in its octant; its negation has two
    # negative entries and is not tried
    net = build_network(15, [1, 6, 11])
    result = verify_wall(net, RayCandidate((-3, 2, 1), ()))
    assert result == WallRejection(
        (-3, 2, 1), 2, "(1, 4, -5) is not a Hilbert generator of its octant"
    )
    elements = hilbert_basis(octant(homogeneous_lattice(net), "++-")).elements
    assert {(1, 1, -2), (0, 3, -3)} <= set(elements)


@pytest.mark.parametrize("ray", [(0, 0, 0), (1, 1, 1), (1, 2, 3)])
def test_verify_wall_rejects_degenerate_rays(ray):
    # a zero ray has no orthogonal line, and a ray off the sum-zero
    # plane is no weight direction of the fan
    net = build_network(9, [1, 4, 7])
    with pytest.raises(BadRayError) as info:
        verify_wall(net, RayCandidate(ray, ()))
    assert info.value.details == {"ray": list(ray)}


def test_lattice_ideal_basis_with_a_unit_step_is_the_closed_form():
    # x_p^n - 1 and x_j - x_p^c_j, c_j = s_j / s_p mod n, for the first
    # unit step s_p
    rng = random.Random(15)
    nets = 0
    while nets < 300:
        n = rng.randrange(4, 400)
        steps = rng.sample(range(1, n), 3)
        p = next((p for p, s in enumerate(steps) if gcd(s, n) == 1), None)
        if p is None:
            continue
        nets += 1
        inv = pow(steps[p], -1, n)
        expected = []
        for j, s in enumerate(steps):
            a = [0, 0, 0]
            a[j] = 1
            a[p] = n if j == p else -(s * inv % n)
            expected.append(tuple(a))
        assert _lattice_ideal_basis(build_network(n, steps)) == expected, (n, steps)


def test_lattice_ideal_basis_generates_the_lattice_ideal():
    # every vector lies in L, vector j has the plus part h_j e_j, and
    # some lex order leads every vector by its plus part: coprime leads,
    # so a Groebner basis, whose quotient has dimension prod h_j = n.
    # Buchberger's algorithm from it leaves n standard monomials
    rng = random.Random(16)
    pivotless = 0
    for _ in range(600):
        n = rng.randrange(4, 300)
        steps = rng.sample(range(1, n), 3)
        if gcd(n, *steps) > 1:
            continue
        net = build_network(n, steps)
        basis = _lattice_ideal_basis(net)
        assert all(dot(a, net.steps) % n == 0 for a in basis), (net, basis)
        plus = [[k for k in range(3) if a[k] > 0] for a in basis]
        assert plus == [[0], [1], [2]], (net, basis)
        assert basis[0][0] * basis[1][1] * basis[2][2] == n, (net, basis)
        assert any(
            all(a[next(k for k in order if a[k])] > 0 for a in basis)
            for order in permutations(range(3))
        ), (net, basis)
        if any(gcd(s, n) == 1 for s in steps):
            continue
        pivotless += 1
        for iw in ((0, 0, 0), (1, 0, -1), (-3, 1, 2)):
            leads = [g[:3] for g in groebner._buchberger(basis, iw)]
            assert oracles.standard_monomial_count(leads) == n, (net, iw)
    assert pivotless == 24
    # Z_30 = Z_5 x Z_3 x Z_2 on the steps 6, 10 and 15
    assert _lattice_ideal_basis(build_network(30, [6, 10, 15])) == [
        (5, 0, 0), (0, 3, 0), (0, 0, 2),
    ]
    assert _lattice_ideal_basis(build_network(6, [2, 3, 4])) == [
        (3, 0, 0), (0, 2, 0), (-2, 0, 1),
    ]


def test_graded_basis_degrees_are_the_distances():
    # under a graded order the normal form of a routing is the least
    # routing of its vertex, so its degree is the vertex's distance, and
    # the standard monomials, one per vertex, number n
    rng = random.Random(17)
    nets = pivotless = 0
    while nets < 400:
        n = rng.randrange(4, 300)
        steps = rng.sample(range(1, n), 3)
        if gcd(n, *steps) > 1:
            continue
        net = build_network(n, steps)
        nets += 1
        pivotless += all(gcd(s, n) > 1 for s in steps)
        basis = _graded_basis(net)
        assert all(sum(a) >= 0 and dot(a, net.steps) % n == 0 for a in basis), net
        leads = [tuple(max(c, 0) for c in a) for a in basis]
        assert oracles.standard_monomial_count(leads) == n, net
        dist = distances(net)
        for _ in range(20):
            a = tuple(rng.randrange(2 * n) for _ in range(3))
            assert groebner._degree(basis, a) == dist[vertex_of(net, a)], (net, a)
    assert pivotless == 15


def test_fan_reads_no_distances(monkeypatch):
    # a fan reads its distances as normal-form degrees and keys a
    # wall-less fan by its lead set, so neither the fan of the q = 8
    # lift, nor that of C7(1,2,4), which has no walls, nor the check of
    # the q = 20 lift runs the distance search or fills the table cache
    import circmdd.mdd
    import circmdd.network

    def refused(net):
        raise AssertionError(f"distances({net})")

    monkeypatch.setattr(circmdd.network, "distances", refused)
    for module in (circmdd.network, circmdd.mdd):
        monkeypatch.setattr(module, "_kernel", refused)
    distance_table.cache_clear()
    assert fan_report(build_family(8).lifted).mdd_count == 30
    report = fan_report(build_network(7, [1, 2, 4]))
    assert (report.walls, report.mdd_count) == ((), 1)
    result = verify_family(20)
    assert result.ok and result.fan_mdd_count == 66
    assert distance_table.cache_info().misses == 0


def sector_lead_sets(net, fan):
    """Each sector representative of the fan with its lead set, by a walk
    the census does not take: the first sector's basis from the graded
    basis (_sector_leads without a wall), then one flip across each
    wall to the next."""
    crossed = [None] + [wall.ray for wall in fan.walls[1:]]
    keyed = []
    basis = _graded_basis(net)
    for w, wall in zip(fan.sector_representatives, crossed):
        leads, basis = _sector_leads(w, basis, wall)
        keyed.append((w, leads))
    return keyed


def count_groebner_paths(monkeypatch):
    """(counts, flipped): the counts of Buchberger runs, flips and failed
    flips, and the leads of each flipped basis, kept up to date while
    the census runs."""
    counts = {"buchberger": 0, "flips": 0, "fallbacks": 0}
    flipped = []
    buchberger, flip = groebner._buchberger, groebner._flip

    def counted_buchberger(*args):
        counts["buchberger"] += 1
        return buchberger(*args)

    def counted_flip(*args):
        result = flip(*args)
        if result is None:
            counts["fallbacks"] += 1
        else:
            counts["flips"] += 1
            flipped.append([g[:3] for g in result])
        return result

    monkeypatch.setattr(groebner, "_buchberger", counted_buchberger)
    monkeypatch.setattr(groebner, "_flip", counted_flip)
    return counts, flipped


def test_lead_sets_match_the_definition_on_random_networks():
    # the census key is the lead set of the reduced Groebner basis,
    # which must be the staircase of the diagram the definition picks
    # for the sector's weight, with or without a unit step
    rng = random.Random(12)
    nets = sectors = pivotless = 0
    while nets < 400:
        n = rng.randrange(8, 160)
        steps = rng.sample(range(1, n), 3)
        if gcd(n, *steps) > 1:
            continue
        net = build_network(n, steps)
        nets += 1
        unit = any(gcd(s, n) == 1 for s in steps)
        _, paths = minimal_paths_by_scan(n, net.steps)
        for w, leads in sector_lead_sets(net, fan_report(net)):
            tag, cells = coherent_cells_by_definition(n, net.steps, w, paths=paths)
            assert tag == "cells", (net, w)
            assert leads == staircase_generators(Mdd(net, cells)).generators, (net, w)
            sectors += 1
            pivotless += not unit
    # 23 sectors of 15 networks with no unit step
    assert (sectors, pivotless) == (699, 23)


def walled_random_fans(seed):
    """The fans of 1000 seeded random three-step networks, n < 64, that
    have at least two walls, with their networks."""
    rng = random.Random(seed)
    nets = 0
    while nets < 1000:
        n = rng.randrange(8, 64)
        steps = rng.sample(range(1, n), 3)
        if gcd(n, *steps) > 1:
            continue
        net = build_network(n, steps)
        fan = fan_report(net)
        if len(fan.walls) >= 2:
            nets += 1
            yield net, fan


def test_flip_keys_equal_buchberger_keys_on_random_networks(monkeypatch):
    # the census flips each sector's basis across the wall it crosses;
    # every key must equal the one Buchberger's algorithm gives from the
    # graded basis, and no flip may fall back
    counts, _ = count_groebner_paths(monkeypatch)
    nets = sectors = pivotless = 0
    for net, fan in walled_random_fans(13):
        nets += 1
        unit = any(gcd(s, net.n) == 1 for s in net.steps)
        start = _graded_basis(net)
        for w, leads in sector_lead_sets(net, fan):
            assert leads == tuple(sorted(g[:3] for g in groebner._buchberger(start, w))), (net, w)
            sectors += 1
            pivotless += not unit
    # the census and the walk each flip into every sector but the first
    assert counts["flips"] == 2 * (sectors - nets) and counts["fallbacks"] == 0
    # 42 sectors of 21 networks with no unit step
    assert (nets, sectors, pivotless) == (1000, 2275, 42)


def test_flips_across_any_ray_keep_the_key(monkeypatch):
    # no key rests on the wall being right: from any sector's basis,
    # across any ray, wall or not, the flip either passes its checks or
    # falls back, and the leads are Buchberger's
    counts, _ = count_groebner_paths(monkeypatch)
    rng = random.Random(14)
    for q in (2, 5):
        net = build_family(q).lifted
        fan = fan_report(net)
        start = _graded_basis(net)
        keyed = [_sector_leads(w, start) for w in fan.sector_representatives]
        rays = [wall.ray for wall in fan.walls] + [(1, -1, 0), (2, -1, -1), (1, 2, -3)]
        for _ in range(100):
            i, j = rng.randrange(len(keyed)), rng.randrange(len(keyed))
            w = fan.sector_representatives[j]
            ray = rng.choice(rays)
            assert _sector_leads(w, keyed[i][1], ray)[0] == keyed[j][0], (q, i, w, ray)
    assert counts["fallbacks"] > 0


def test_census_flips_equal_buchberger_bases(monkeypatch):
    # every flip the census makes returns the reduced basis Buchberger's
    # algorithm completes from the same input, vectors included, so a
    # trailing term left unreduced shows, which a key would not: on
    # family lifts and on the random networks of the key test above.
    # Step 3 checks minimality only of f against the old leads and of
    # each remainder against the later ones; both checks drop a lead in
    # some of these flips
    flips = []
    dropped = {"old": 0, "remainder": 0}
    flip, minimal_leads = groebner._flip, groebner._minimal_leads

    def recorded(basis, wall, iw):
        result = flip(basis, wall, iw)
        flips.append((basis, iw, result))
        return result

    def counted(olds, f, remainders):
        leads = minimal_leads(olds, f, remainders)
        dropped["old"] += any(m not in leads for m in olds)
        dropped["remainder"] += any(m not in leads for m in remainders)
        return leads

    monkeypatch.setattr(groebner, "_flip", recorded)
    monkeypatch.setattr(groebner, "_minimal_leads", counted)
    for q in (2, 5, 8, 14, 29):
        fan_report(build_family(q).lifted)
    lifted = dict(dropped)
    for _ in walled_random_fans(13):
        pass
    for basis, iw, result in flips:
        assert result is not None, (basis, iw)
        assert sorted(result) == sorted(groebner._buchberger(basis, iw)), (basis, iw)
    # one flip into every sector but the first: 3(q + 2) - 1 per lift
    assert len(flips) == 11 + 20 + 29 + 47 + 92 + 2275 - 1000
    # flips that drop an old lead and a remainder, lifts then networks
    assert lifted == {"old": 199, "remainder": 26}
    assert {k: dropped[k] - lifted[k] for k in dropped} == {"old": 1046, "remainder": 184}


def test_family_q8_lead_sets_are_the_coherent_staircases():
    # brute force finds the 30 coherent diagrams of C5402(75,593,4737);
    # their staircases are exactly the fan's lead sets
    net = build_family(8).lifted
    mdds = enumerate_mdds(net, "coherent_only").mdds
    assert len(mdds) == 30
    keys = [leads for _, leads in sector_lead_sets(net, fan_report(net))]
    assert len(keys) == len(set(keys)) == 30
    assert set(keys) == {staircase_generators(m).generators for m in mdds}


def test_a_weight_parallel_to_ones_lies_in_no_sector():
    # refused before the tie check reads any distance
    from circmdd.errors import InternalInconsistencyError
    from circmdd.mdd import _tie_at_u

    def refused(a):
        raise AssertionError(f"distance of {a}")

    net = build_network(9, [1, 4, 7])
    for iw in ((0, 0, 0), (2, 2, 2)):
        with pytest.raises(InternalInconsistencyError) as info:
            _tie_at_u(net, iw, refused)
        assert info.value.details == {"weight": list(iw)}


def test_family_census_call_counts_are_pinned(monkeypatch):
    # family verify 2, 5 and 8 tie-check 72 sector weights, 9 of them
    # retried past a weight tie; perfbench's family-ladder expects both
    import circmdd.fan as fan

    check = fan._tie_at_u
    calls = []
    retries = []

    def counted(net, iw, distance):
        calls.append(iw)
        tie = check(net, iw, distance)
        if tie is not None:
            retries.append(iw)
        return tie

    monkeypatch.setattr(fan, "_tie_at_u", counted)
    for q in (2, 5, 8):
        assert verify_family(q).ok
    assert (len(calls), len(retries)) == (72, 9)


def test_family_census_runs_buchberger_once_per_network(monkeypatch):
    # family verify 2, 5 and 8: Buchberger's algorithm for the graded
    # basis of each lift only, which is already one sector's reduced
    # basis, and one flip into each of the other 11 + 20 + 29. The
    # fourth graded basis is the q = 2 brute force's: it reads the
    # distances and route counts of C56 off the graded staircase
    counts, _ = count_groebner_paths(monkeypatch)
    for q in (2, 5, 8):
        assert verify_family(q).ok
    assert counts == {"buchberger": 4, "flips": 60, "fallbacks": 0}


def test_flip_normal_form_calls_are_pinned(monkeypatch):
    # family verify 2, 5 and 8: the 60 flips take 660 normal forms, for
    # step 2's remainders, the new leads and the trailing terms that the
    # flipped element's new lead divides; reducing every trailing term
    # took 1432
    flip, normal_form = groebner._flip, groebner._normal_form
    inside = []
    calls = []

    def counted_flip(*args):
        inside.append(args)
        try:
            return flip(*args)
        finally:
            inside.pop()

    def counted_normal_form(*args):
        if inside:
            calls.append(args)
        return normal_form(*args)

    monkeypatch.setattr(groebner, "_flip", counted_flip)
    monkeypatch.setattr(groebner, "_normal_form", counted_normal_form)
    for q in (2, 5, 8):
        assert verify_family(q).ok
    assert len(calls) == 660


def test_family_q50_census_flips_without_fallback(monkeypatch):
    # flips from bases of 58 elements on average, up to 105, where
    # skipping the trailing terms that cannot reduce saves the most
    counts, _ = count_groebner_paths(monkeypatch)
    result = verify_family(50)
    assert result.ok and result.fan_mdd_count == 156
    assert counts == {"buchberger": 1, "flips": 155, "fallbacks": 0}


def test_family_q110_census_flips_without_fallback(monkeypatch):
    # bases of up to 225 elements: 336 = 3(q + 2) diagrams, one flip
    # into every sector but the first and no fallback
    counts, _ = count_groebner_paths(monkeypatch)
    result = verify_family(110)
    assert result.ok and result.fan_mdd_count == 336
    assert counts == {"buchberger": 1, "flips": 335, "fallbacks": 0}


def test_graded_basis_is_the_reduced_basis_of_one_sector():
    # exactly one sector's representative leads the graded basis, and
    # that sector's key, by Buchberger's algorithm from the generators
    # of I_L, is the graded basis's leads: on the q = 2..14 lifts and on
    # 100 random networks with walls
    def check(net, fan):
        graded = _graded_basis(net)
        led = [w for w in fan.sector_representatives if groebner._is_led(graded, w)]
        assert len(led) == 1, net
        key = sorted(g[:3] for g in groebner._buchberger(_lattice_ideal_basis(net), led[0]))
        assert key == sorted(tuple(max(c, 0) for c in a) for a in graded), net

    for q in (2, 3, 5, 6, 8, 9, 11, 12, 14):
        net = build_family(q).lifted
        check(net, fan_report(net))
    rng = random.Random(15)
    walled = 0
    while walled < 100:
        n = rng.randrange(8, 200)
        steps = rng.sample(range(1, n), 3)
        if gcd(n, *steps) > 1:
            continue
        net = build_network(n, steps)
        fan = fan_report(net)
        if fan.walls:
            check(net, fan)
            walled += 1


def test_fan_report_computes_each_octant_basis_once(monkeypatch):
    # candidate_rays reads the octant bases of _wall_inputs, which
    # lattice._octant_norms computes
    import circmdd.fan as fan
    import circmdd.lattice as lattice
    from circmdd.lattice import SINGLE_NEGATIVE_SIGNS

    signs = []

    def counted(oct):
        signs.append(oct.signs)
        return hilbert_basis(oct)

    for module in (fan, lattice):
        monkeypatch.setattr(module, "hilbert_basis", counted)
    assert fan_report(build_family(8).lifted).mdd_count == 30
    assert sorted(signs) == sorted(SINGLE_NEGATIVE_SIGNS)


def test_flipped_family_bases_have_n_standard_monomials(monkeypatch):
    # the standard monomials of a flipped basis are a diagram: n of them
    counts, flipped = count_groebner_paths(monkeypatch)
    for q in (2, 3, 5, 6, 8, 9, 11, 12, 14):
        fam = build_family(q)
        flipped.clear()
        assert fan_report(fam.lifted).mdd_count == fam.predicted_mdd_count
        assert len(flipped) == fam.predicted_mdd_count - 1
        for leads in flipped:
            assert oracles.standard_monomial_count(leads) == fam.lifted.n, (q, leads)
    assert counts["fallbacks"] == 0


# Sector representatives of the family lifts. Some sectors need retries
# past a weight tie with the running least weight at a vertex (the
# prefix-tie rule of build_coherent_mdd), so a census that decides ties
# differently, e.g. only at the minimum, moves a representative such as
# (-24,15,9) or (-95,52,43).
FAMILY_SECTOR_REPRESENTATIVES = {
    2: (
        (7, -5, -2), (5, -2, -3), (7, 0, -7), (3, 6, -9), (-2, 7, -5), (-3, 5, -2),
        (-7, 7, 0), (-24, 15, 9), (-5, -2, 7), (-2, -3, 5), (0, -7, 7), (6, -9, 3),
    ),
    5: (
        (13, -8, -5), (19, -9, -10), (57, -25, -32), (69, -27, -42), (35, -11, -24),
        (13, 3, -16), (3, 15, -18), (-5, 13, -8), (-10, 19, -9), (-32, 57, -25),
        (-42, 69, -27), (-24, 35, -11), (-16, 13, 3), (-95, 52, 43), (-8, -5, 13),
        (-9, -10, 19), (-25, -32, 57), (-27, -42, 69), (-11, -24, 35), (3, -16, 13),
        (15, -18, 3),
    ),
}


@pytest.mark.parametrize("q", [2, 5])
def test_family_sector_representatives_are_pinned(q):
    report = fan_report(build_family(q).lifted)
    assert report.sector_representatives == FAMILY_SECTOR_REPRESENTATIVES[q]
    assert report.mdd_count == 3 * (q + 2)


def test_fan_lifted_c72_attains_every_screened_ray():
    # every screened ray of the C8(2,3,7) lattice becomes a wall after
    # lifting; the count matches the exhaustive enumeration exactly
    net = build_network(72, [19, 28, 64])
    report = fan_report(net)
    assert len(report.candidates) == 8
    assert report.rejections == ()
    assert len(report.walls) == 8
    assert report.mdd_count == 8
    mdds = enumerate_mdds(net).mdds
    assert len(mdds) == 8
    assert all(is_coherent(m).coherent for m in mdds)


@pytest.mark.parametrize("n, steps", [(72, [19, 28, 64]), (200, [51, 76, 176])])
def test_lifts_of_c8_2_3_7_have_eight_diagrams_by_definition(n, steps):
    # the oracle never touches circmdd: its routing table is an exhaustive
    # scan and each diagram passes the literal down-closure test, so the
    # count of 8 (not 9) holds by the definitions alone
    found = mdds_by_backtracking(n, steps)
    assert len(found) == 8
    assert set(found) == {m.cells for m in enumerate_mdds(build_network(n, steps)).mdds}


def test_oracles_do_not_import_circmdd():
    import ast
    from pathlib import Path

    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "circmdd" for name in imported)


def test_fan_counts_match_enumeration_on_small_networks():
    for n, steps in [(9, [1, 4, 7]), (8, [2, 3, 7]), (7, [1, 2, 4]), (6, [1, 3, 5]),
                     (13, [1, 3, 9]), (14, [3, 5, 12])]:
        net = build_network(n, steps)
        coherent = [m for m in enumerate_mdds(net).mdds if is_coherent(m).coherent]
        assert fan_report(net).mdd_count == len(coherent)


def test_fan_count_bounded_by_hilbert_total():
    for n, steps in [(9, [1, 4, 7]), (8, [2, 3, 7]), (72, [19, 28, 64]), (13, [1, 3, 9])]:
        net = build_network(n, steps)
        lat = homogeneous_lattice(net)
        total = sum(
            len(hilbert_basis(octant(lat, s)).elements)
            for s in ("-++", "+-+", "++-")
        )
        assert fan_report(net).mdd_count <= total


def test_sector_representatives_rebuild_distinct_diagrams():
    from circmdd import build_coherent_mdd

    net = build_network(9, [1, 4, 7])
    report = fan_report(net)
    cells = {build_coherent_mdd(net, w).cells for w in report.sector_representatives}
    assert len(cells) == report.mdd_count


def test_walls_are_in_circular_order():
    from circmdd.fan import _plane_coords
    from circmdd.intlin import cross, half_plane

    report = fan_report(build_network(9, [1, 4, 7]))
    points = [_plane_coords(w.ray) for w in report.walls]
    keys = [half_plane(p) for p in points]
    # nondecreasing halves, and within a half consecutive cross products positive
    assert keys == sorted(keys)
    for a, b in zip(points, points[1:]):
        if half_plane(a) == half_plane(b):
            assert cross(a, b) > 0


def test_lift_examples():
    c8 = build_network(8, [2, 3, 7])
    assert lift_network(c8, 9, 1) == build_network(72, [19, 28, 64])
    c7 = build_network(7, [1, 2, 4])
    assert lift_network(c7, 8, 1) == build_network(56, [9, 17, 33])
    assert lift_network(c7, 1, 0) == c7


def test_lift_preserves_homogeneous_lattice():
    net = build_network(8, [2, 3, 7])
    lifted = lift_network(net, 9, 1)
    assert homogeneous_lattice(lifted).basis == homogeneous_lattice(net).basis


def test_lift_rejects_bad_params():
    net = build_network(8, [2, 3, 7])
    with pytest.raises(BadLiftParamsError):
        lift_network(net, 4, 1)  # gcd(k, n) = 4
    with pytest.raises(BadLiftParamsError):
        lift_network(net, 9, 3)  # gcd(k, t) = 3
    with pytest.raises(BadLiftParamsError):
        lift_network(net, 0, 1)
