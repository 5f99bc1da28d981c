"""Homogeneous lattices, octant points, and Hilbert bases."""

import random
from itertools import product
from math import gcd

import pytest

from circmdd import (
    ArityMismatchError,
    OctantSemigroup,
    SINGLE_NEGATIVE_SIGNS,
    UnsupportedArityError,
    boundary_ray_minima,
    build_network,
    hilbert_basis,
    homogeneous_lattice,
    octant,
    octant_points_bounded,
)
from circmdd.intlin import hnf_rows

from oracles import (
    generates,
    indecomposable_filter,
    octant_points_by_box_scan,
    single_negative_octant_points,
)


def lattice_of(n, steps):
    return homogeneous_lattice(build_network(n, steps))


def test_c9_1_4_7_basis_spans_the_stated_pair():
    lat = lattice_of(9, [1, 4, 7])
    assert lat.basis == hnf_rows([(3, 0, -3), (1, 1, -2)], 3)
    assert lat.contains((3, 0, -3))
    assert lat.contains((1, 1, -2))
    assert lat.index == 3


def test_membership_examples():
    lat = lattice_of(7, [1, 2, 4])
    assert lat.contains((-3, 1, 2))
    lat9 = lattice_of(9, [1, 4, 7])
    assert lat9.contains((1, 1, -2))
    assert lat9.contains((0, 0, 0))
    assert not lat9.contains((1, 0, -1))
    lat8 = lattice_of(8, [2, 3, 7])
    assert lat8.contains((-4, 3, 1))
    assert lat8.contains((-4, 1, 3))
    with pytest.raises(ArityMismatchError):
        lat9.contains((1, -1))


def test_basis_vectors_satisfy_both_conditions():
    for n, steps in [(9, [1, 4, 7]), (8, [2, 3, 7]), (56, [9, 17, 33]), (20, [3, 7])]:
        lat = lattice_of(n, steps)
        for b in lat.basis:
            assert sum(b) == 0
            assert lat.contains(b)


def test_octant_points_c8_2_3_7():
    lat = lattice_of(8, [2, 3, 7])
    pts = octant_points_bounded(octant(lat, "-++"), 8)
    assert (-4, 3, 1) in pts
    assert (-4, 1, 3) in pts
    assert pts == [(-4, 1, 3), (-4, 3, 1)]


def test_octant_points_bound_zero_and_sorted():
    lat = lattice_of(9, [1, 4, 7])
    assert octant_points_bounded(octant(lat, "-++"), 0) == []
    pts = octant_points_bounded(octant(lat, "+-+"), 14)
    assert pts == sorted(pts)
    for a in pts:
        assert sum(a) == 0
        assert lat.contains(a)
        assert all(s * c >= 0 for s, c in zip((1, -1, 1), a))


@pytest.mark.parametrize(
    "n, steps, bounds",
    [(10, [1, 6], (0, 1, 9, 14)), (9, [1, 4, 7], (0, 1, 6, 7, 12)),
     (8, [2, 3, 7], (5, 8, 11)), (30, [7, 11, 24], (9, 16)), (8, [1, 3, 5, 7], (4, 5))],
)
def test_octant_points_match_box_scan_for_every_sign_pattern(n, steps, bounds):
    # mixed and uniform patterns alike, odd bounds included: the scan
    # caps each magnitude at bound // 2 and must lose no point by it
    lat = lattice_of(n, steps)
    for signs in product((-1, 1), repeat=len(steps)):
        for bound in bounds:
            assert octant_points_bounded(octant(lat, signs), bound) == (
                octant_points_by_box_scan(n, steps, signs, bound)
            )


def test_octant_points_c9_1_4_7_bound_6_exact():
    # exact content of the ++- octant ball of radius 6, scanned by hand
    lat = lattice_of(9, [1, 4, 7])
    pts = octant_points_bounded(octant(lat, "++-"), 6)
    assert pts == [(0, 3, -3), (1, 1, -2), (3, 0, -3)]


def test_hilbert_c9_1_4_7_nine_elements_total():
    lat = lattice_of(9, [1, 4, 7])
    expected = {
        (-1, 1, 1): {(-3, 0, 3), (-3, 3, 0), (-2, 1, 1)},
        (1, -1, 1): {(0, -3, 3), (3, -3, 0), (1, -2, 1)},
        (1, 1, -1): {(0, 3, -3), (3, 0, -3), (1, 1, -2)},
    }
    total = 0
    for signs in SINGLE_NEGATIVE_SIGNS:
        elements = hilbert_basis(OctantSemigroup(lat, signs)).elements
        assert set(elements) == expected[signs]
        total += len(elements)
    assert total == 9


def test_hilbert_c8_2_3_7_ten_elements_total():
    lat = lattice_of(8, [2, 3, 7])
    sizes = {}
    for signs in SINGLE_NEGATIVE_SIGNS:
        sizes[signs] = len(hilbert_basis(OctantSemigroup(lat, signs)).elements)
    assert sizes == {(-1, 1, 1): 4, (1, -1, 1): 3, (1, 1, -1): 3}
    elements = hilbert_basis(octant(lat, "-++")).elements
    least = min(sum(map(abs, a)) for a in elements)
    minimal = {a for a in elements if sum(map(abs, a)) == least}
    assert minimal == {(-4, 1, 3), (-4, 3, 1)}


def test_hilbert_c7_1_2_4_closed_form():
    lat = lattice_of(7, [1, 2, 4])
    elements = hilbert_basis(octant(lat, "-++")).elements
    assert set(elements) == {(-7, 0, 7), (-3, 1, 2), (-5, 4, 1), (-7, 7, 0)}


def test_hilbert_requires_three_steps():
    lat = lattice_of(10, [1, 6])
    with pytest.raises(UnsupportedArityError):
        hilbert_basis(octant(lat, "-+"))


def test_hilbert_negated_octant_is_negation():
    lat = lattice_of(9, [1, 4, 7])
    plus = hilbert_basis(octant(lat, "-++")).elements
    minus = hilbert_basis(octant(lat, "+--")).elements
    assert set(minus) == {tuple(-c for c in a) for a in plus}


def test_hilbert_uniform_signs_trivial():
    lat = lattice_of(9, [1, 4, 7])
    assert hilbert_basis(octant(lat, "+++")).elements == ()


@pytest.mark.parametrize(
    "n,steps",
    [(9, [1, 4, 7]), (8, [2, 3, 7]), (7, [1, 2, 4]), (13, [1, 3, 9]),
     (21, [2, 5, 16]), (36, [5, 7, 16])],
)
def test_hilbert_matches_indecomposable_oracle(n, steps):
    lat = lattice_of(n, steps)
    for signs in SINGLE_NEGATIVE_SIGNS:
        oct = OctantSemigroup(lat, signs)
        u, v = boundary_ray_minima(oct)
        assert lat.contains(u) and lat.contains(v)
        bound = sum(map(abs, u)) + sum(map(abs, v))
        pts = octant_points_bounded(oct, bound)
        assert indecomposable_filter(pts) == list(hilbert_basis(oct).elements)


def random_triple_loops(seed, count, max_n):
    """Seeded three-step networks; every other one has a step difference
    sharing a factor d > 1 with n, so some boundary minimum is below n."""
    rng = random.Random(seed)
    nets = []
    while len(nets) < count:
        n = rng.randint(4, max_n)
        if len(nets) % 2:
            divisors = [d for d in range(2, n // 2 + 1) if n % d == 0]
            if not divisors:
                continue
            d = rng.choice(divisors)
            s0 = rng.randrange(1, n)
            s1 = (s0 + d * rng.randrange(1, n // d)) % n
            steps = [s0, s1, rng.randrange(1, n)]
        else:
            steps = rng.sample(range(1, n), 3)
        if len(set(steps)) == 3 and 0 not in steps and gcd(n, *steps) == 1:
            nets.append((n, sorted(steps)))
    return nets


def test_hilbert_walk_matches_indecomposable_oracle_on_random_networks():
    # every non-uniform pattern: the two-negative ones are the negated
    # single-negative octants. Each generator lies in the triangle of
    # 0 and the boundary minima u, v (the hull of the nonzero points
    # contains the segment uv), so its norm is at most max(|u|, |v|)
    nets = random_triple_loops(seed=11, count=200, max_n=300)
    shared = 0
    for n, steps in nets:
        lat = lattice_of(n, steps)
        for signs in SINGLE_NEGATIVE_SIGNS:
            oct = OctantSemigroup(lat, signs)
            u, v = boundary_ray_minima(oct)
            shared += max(map(abs, u)) < n or max(map(abs, v)) < n
            bound = max(sum(map(abs, u)), sum(map(abs, v)))
            expected = indecomposable_filter(
                single_negative_octant_points(n, steps, signs, bound)
            )
            assert list(hilbert_basis(oct).elements) == expected, (n, steps, signs)
            negated = tuple(-s for s in signs)
            assert list(hilbert_basis(OctantSemigroup(lat, negated)).elements) == (
                sorted(tuple(-c for c in a) for a in expected)
            ), (n, steps, negated)
    assert shared >= 100


@pytest.mark.parametrize("n,steps", [(9, [1, 4, 7]), (8, [2, 3, 7]), (13, [1, 3, 9])])
def test_hilbert_generates_bounded_region(n, steps):
    lat = lattice_of(n, steps)
    for signs in SINGLE_NEGATIVE_SIGNS:
        oct = OctantSemigroup(lat, signs)
        basis = hilbert_basis(oct).elements
        bound = 2 * max(sum(map(abs, a)) for a in basis)
        for point in octant_points_bounded(oct, bound):
            assert generates(point, basis, signs)


def test_basis_spans_exactly_the_lattice():
    # each basis row is a member, and the determinant of the basis in
    # the first r-1 coordinates equals the index in the sum-zero
    # lattice, so the row span is not a proper sublattice
    for n, steps in [(9, [1, 4, 7]), (8, [2, 3, 7]), (7, [1, 2, 4]), (31, [4, 7, 19])]:
        lat = lattice_of(n, steps)
        (a1, a2, _), (b1, b2, _) = lat.basis
        assert all(lat.contains(row) for row in lat.basis)
        assert abs(a1 * b2 - a2 * b1) == lat.index


def test_index_of_single_and_double_loops():
    assert lattice_of(5, [1]).index == 1
    assert lattice_of(10, [1, 6]).index == 2  # multiples of (2, -2)
    assert lattice_of(6, [1, 3]).index == 3


def test_lattice_equality_via_canonical_form():
    # same lattice from different step presentations compares equal
    a = lattice_of(8, [2, 3, 7])
    b = lattice_of(72, [19, 28, 64])
    assert a.basis == b.basis


def test_hnf_is_presentation_invariant():
    rows1 = [(3, 0, -3), (1, 1, -2)]
    rows2 = [(1, 1, -2), (4, 1, -5), (3, 0, -3)]
    assert hnf_rows(rows1, 3) == hnf_rows(rows2, 3)
