"""Fans of coherent diagrams for three-step networks.

Weight vectors matter only up to positive scale and shifts along
(1, 1, 1), so weights live in the sum-zero plane. Weights producing the
same diagram form open convex cones whose boundary rays are orthogonal
to Hilbert generators of the octant semigroups; candidate rays are
generated from those Hilbert bases, verified against the network, and
the open sectors between verified rays are sampled to count the
distinct coherent diagrams. Sectors are told apart by the lead sets of
the reduced Groebner bases of the lattice ideal, which are their
diagrams' staircases, and distances are normal-form degrees, so no
fan builds a diagram or an n-sized array. The census starts at the
sector whose reduced basis is the graded one and reaches each other
sector by one flip across the wall between neighbours. Also
provides the size lift that preserves the homogeneous lattice and the
geometric-step families with many diagrams.
"""

from __future__ import annotations

from functools import partial
from math import gcd
from typing import NamedTuple

from .errors import (
    BadFamilyParamsError,
    BadLiftParamsError,
    BadRayError,
    InternalInconsistencyError,
    UnsupportedArityError,
)
from .groebner import _degree, _graded_basis, _is_led, _sector_leads
from .intlin import angular_key, cross, dot, primitive, vec_neg, vec_scale
from .lattice import (
    HomogeneousLattice,
    OctantSemigroup,
    SINGLE_NEGATIVE_SIGNS,
    _octant_norms,
    hilbert_basis,
    homogeneous_lattice,
    octant_points_bounded,
)
from .mdd import _tie_at_u, enumerate_mdds
from .network import CirculantNetwork, build_network, vertex_of


class RayCandidate(NamedTuple):
    """A primitive sum-zero ray together with the Hilbert generators
    orthogonal to it that survived the one-sided octant screening."""

    ray: tuple[int, int, int]
    sources: tuple[tuple[int, int, int], ...]


class Wall(NamedTuple):
    """A verified boundary ray between two adjacent diagram cones."""

    ray: tuple[int, int, int]
    witness: tuple[int, int, int]


class WallRejection(NamedTuple):
    ray: tuple[int, int, int]
    failed_condition: int
    reason: str


class FanReport(NamedTuple):
    """The fan of a three-step network: its candidate rays, the verified
    walls in circular order and the rejected rays, one generic weight
    per sector, and the count of coherent diagrams."""

    net: CirculantNetwork
    candidates: tuple[RayCandidate, ...]
    walls: tuple[Wall, ...]
    rejections: tuple[WallRejection, ...]
    sector_representatives: tuple[tuple[int, int, int], ...]
    mdd_count: int


def _orth_in_plane(a) -> tuple[int, int, int]:
    """A sum-zero vector orthogonal to a (nonzero whenever a is)."""
    return (a[1] - a[2], a[2] - a[0], a[0] - a[1])


def _plane_coords(w) -> tuple[int, int]:
    """Coordinates of a sum-zero vector in the basis (1,-1,0), (0,1,-1)."""
    return (w[0], -w[2])


def _plane_vector(p) -> tuple[int, int, int]:
    x, y = p
    return (x, y - x, -y)


def candidate_rays(lat: HomogeneousLattice, octants=None) -> tuple[RayCandidate, ...]:
    """All rays that can separate two diagram cones of this lattice.

    Each Hilbert generator a of a single-negative octant is orthogonal
    to two opposite rays; a ray survives only if every octant point of
    norm at most ||a|| has nonnegative product with it (the one-sided
    screening that a separating ray must satisfy). The 1-norm is linear
    on an octant, so such a point is a sum of generators of norm at most
    ||a||, and the screening tests those generators only (_screens).
    Survivors are deduplicated and sorted by angle. octants, when
    given, is lattice._octant_norms(lat), as fan_report's _wall_inputs
    holds it.
    """
    if lat.r != 3:
        raise UnsupportedArityError("fans are computed for three steps", r=lat.r)
    found: dict[tuple[int, int, int], set] = {}
    for norms in (octants or _octant_norms(lat)).values():
        for a, bound in norms.items():
            base = primitive(_orth_in_plane(a))
            for ray in (base, vec_neg(base)):
                if _screens(ray, norms, bound):
                    found.setdefault(ray, set()).add(a)
    cands = [RayCandidate(ray, tuple(sorted(sources))) for ray, sources in found.items()]
    cands.sort(key=lambda c: angular_key(_plane_coords(c.ray)))
    return tuple(cands)


def _screens(ray, norms, bound):
    """Whether ray has a nonnegative product with every generator of
    norms, a dict from generator to 1-norm, of norm at most bound."""
    r0, r1, r2 = ray
    return all(
        r0 * b0 + r1 * b1 + r2 * b2 >= 0 for (b0, b1, b2), nb in norms.items() if nb <= bound
    )


def _wall_inputs(lat):
    """verify_wall's inputs, once per fan: the lattice, _octant_norms and _graded_basis."""
    return lat, _octant_norms(lat), _graded_basis(lat.net)


def _check_wall_conditions(net, inputs, ray, a):
    """None if a certifies the ray as a wall, else (condition, reason).

    Condition 3 tests the Hilbert generators of a's octant of norm at
    most ||a||, which decides it (see candidate_rays). Only when one
    fails are the octant points of norm at most ||a|| listed, to name
    the lexicographically first failing point, which need not be a
    generator.
    """
    lat, octants, graded = inputs
    plus = tuple(max(c, 0) for c in a)
    minus = tuple(max(-c, 0) for c in a)
    v = vertex_of(net, plus)
    if vertex_of(net, minus) != v:
        raise InternalInconsistencyError(
            "positive and negative parts reach different vertices",
            vector=list(a),
        )
    half_len = sum(plus)
    dist = _degree(graded, plus)
    if dist != half_len:
        return (
            1,
            f"part {plus} reaches vertex {v} in {half_len} arcs but the "
            f"distance is {dist}",
        )
    signs = tuple(-1 if c < 0 else 1 for c in a)
    bound = octants[signs].get(a)
    if bound is None:
        return (2, f"{a} is not a Hilbert generator of its octant")
    if _screens(ray, octants[signs], bound):
        return None
    points = octant_points_bounded(OctantSemigroup(lat, signs), bound)
    b = next(b for b in points if dot(ray, b) < 0)
    return (3, f"octant point {b} lies strictly on the negative side of the ray")


def verify_wall(net: CirculantNetwork, cand: RayCandidate, inputs=None):
    """Check a candidate ray against the network; Wall or WallRejection.

    The smallest nonzero lattice vector on the line orthogonal to the
    ray is m*d, with d the primitive direction of that line and
    m = n / gcd(n, d.s), the least m with m*(d.s) = 0 mod n. It is
    oriented to have a single negative entry and must: route minimally
    on both sides, be a Hilbert generator of its octant, and have no
    short octant point strictly on the negative side of the ray.
    fan_report passes its _wall_inputs.

    m never exceeds the lattice index n / gcd(n, s0 - s2, s1 - s2): d
    sums to zero, so d.s = d0(s0 - s2) + d1(s1 - s2), which that gcd
    divides; hence the line always holds a lattice point. A ray that
    is zero or does not sum to zero raises BadRayError.
    """
    lat = homogeneous_lattice(net) if inputs is None else inputs[0]
    if lat.r != 3:
        raise UnsupportedArityError("fans are computed for three steps", r=lat.r)
    ray = cand.ray
    if sum(ray) or not any(ray):
        raise BadRayError(f"ray {ray} is not a nonzero sum-zero vector", ray=list(ray))
    direction = primitive(_orth_in_plane(ray))
    base = vec_scale(direction, net.n // gcd(net.n, dot(direction, net.steps)))
    inputs = inputs or _wall_inputs(lat)
    attempts = []
    for a in (base, vec_neg(base)):
        if sum(1 for c in a if c < 0) != 1:
            continue
        failure = _check_wall_conditions(net, inputs, ray, a)
        if failure is None:
            return Wall(ray=ray, witness=a)
        attempts.append(failure)
    condition, reason = max(attempts, key=lambda t: t[0])
    return WallRejection(ray=ray, failed_condition=condition, reason=reason)


def _sample_sectors(net, walls, basis):
    """One generic weight per open sector, and its census key.

    A sector's representative is the sum of its two walls' plane
    vectors, slid toward the opening wall while mdd._tie_at_u, reading
    distances as normal-form degrees, finds a weight tie there. Its key
    is the lead set of the reduced Groebner basis of the lattice ideal
    (_sector_leads). The graded basis is already the reduced basis of
    the sector whose representative leads it (_is_led), so the census
    starts there, without a wall, and flips forward across each wall
    into the next sector, wrapping round; without walls the single
    sector is keyed at (1, 0, -1). When no representative leads the
    graded basis, or a check fails, Buchberger's algorithm runs, so a
    wrong wall cannot change a key.
    """
    if not walls:
        rep = (1, 0, -1)
        if _tie_at_u(net, rep, partial(_degree, basis)) is not None:
            raise InternalInconsistencyError(
                "no verified walls but the network still admits weight ties"
            )
        return [rep], [_sector_leads(rep, basis)[0]]
    if len(walls) == 1:
        raise InternalInconsistencyError(
            "a complete fan cannot have exactly one boundary ray"
        )
    m = len(walls)
    starts = []
    for i in range(m):
        # sector i lies between walls i and i + 1, so it is entered from
        # sector i - 1 across wall i
        a2 = _plane_coords(walls[i].ray)
        b2 = _plane_coords(walls[(i + 1) % m].ray)
        cr = cross(a2, b2)
        if cr > 0:
            starts.append((a2[0] + b2[0], a2[1] + b2[1]))
        elif cr == 0 and (a2[0] * b2[0] + a2[1] * b2[1]) < 0:
            starts.append((-a2[1], a2[0]))  # half-plane sector: rotate the start ray
        else:
            raise InternalInconsistencyError(
                "consecutive walls are not in convex position",
                first=list(walls[i].ray),
                second=list(walls[(i + 1) % m].ray),
            )
    first = next((i for i, p in enumerate(starts) if _is_led(basis, _plane_vector(p))), 0)
    reps = [None] * m
    keys = [None] * m
    for i in [*range(first, m), *range(first)]:
        crossed = walls[i].ray if i != first else None
        a2 = _plane_coords(walls[i].ray)
        rep = starts[i]
        step = 1
        for _ in range(64):
            w = _plane_vector(rep)
            if _tie_at_u(net, w, partial(_degree, basis)) is None:
                break
            # slide toward the opening wall past any interior tie line;
            # doubling reaches any integer threshold quickly
            rep = (rep[0] + step * a2[0], rep[1] + step * a2[1])
            step *= 2
        else:
            raise InternalInconsistencyError(
                "sector sampling found no generic weight", sector=i
            )
        reps[i] = w
        keys[i], basis = _sector_leads(w, basis, crossed)
    return reps, keys


def fan_report(net: CirculantNetwork) -> FanReport:
    """Candidates, verified walls, rejections, and the sector census.

    The census counts the distinct keys of the sectors' diagrams, their
    lead sets or staircases (see _sample_sectors). That number must
    equal the number of verified walls (one diagram when there are
    none); any discrepancy is raised as an internal inconsistency
    rather than absorbed. The keys, and so this check, do not rest on
    the walls being right (see _sample_sectors).
    """
    lat = homogeneous_lattice(net)
    walls: list[Wall] = []
    rejections: list[WallRejection] = []
    # candidate_rays refuses other arities before any octant is built
    inputs = _wall_inputs(lat) if lat.r == 3 else (lat, None, None)
    cands = candidate_rays(lat, inputs[1])
    for cand in cands:
        result = verify_wall(net, cand, inputs)
        if isinstance(result, Wall):
            walls.append(result)
        else:
            rejections.append(result)
    walls.sort(key=lambda w: angular_key(_plane_coords(w.ray)))
    reps, keys = _sample_sectors(net, walls, inputs[2])
    count = len(set(keys))
    expected = len(walls) if walls else 1
    if count != expected:
        raise InternalInconsistencyError(
            f"{len(walls)} verified walls but {count} distinct diagrams",
            walls=len(walls),
            diagrams=count,
        )
    return FanReport(net, cands, tuple(walls), tuple(rejections), tuple(reps), count)


def lift_network(net: CirculantNetwork, k: int, t: int) -> CirculantNetwork:
    """Scale a network to size n*k with steps t + k*s.

    Requires gcd(k, n) = gcd(k, t) = 1. The transformation preserves the
    homogeneous lattice (checked for three steps); for k large enough it
    turns every lattice-level wall into an actual wall of the network.
    """
    if not isinstance(k, int) or not isinstance(t, int) or k < 1:
        raise BadLiftParamsError(f"lift factor must be a positive integer, got {k!r}")
    if gcd(k, net.n) != 1:
        raise BadLiftParamsError(
            f"gcd(k, n) = {gcd(k, net.n)} must be 1", k=k, n=net.n
        )
    if gcd(k, t) != 1:
        raise BadLiftParamsError(f"gcd(k, t) = {gcd(k, t)} must be 1", k=k, t=t)
    lifted = build_network(net.n * k, [t + k * s for s in net.steps])
    if net.r == 3:
        if homogeneous_lattice(lifted).basis != homogeneous_lattice(net).basis:
            raise InternalInconsistencyError(
                "lift changed the homogeneous lattice", k=k, t=t
            )
    return lifted


class FamilyNetwork(NamedTuple):
    """A geometric-step network C_N(1, q, q^2), N = 1 + q + q^2, lifted."""

    q: int
    k: int
    t: int
    base: CirculantNetwork
    lifted: CirculantNetwork
    predicted_hilbert: tuple[tuple[tuple[int, int, int], tuple[tuple[int, int, int], ...]], ...]
    predicted_mdd_count: int
    hypothesis_note: str | None


class OctantCheck(NamedTuple):
    signs: tuple[int, int, int]
    expected: tuple[tuple[int, int, int], ...]
    actual: tuple[tuple[int, int, int], ...]
    match: bool


class FamilyVerification(NamedTuple):
    family: FamilyNetwork
    octant_checks: tuple[OctantCheck, ...]
    fan_mdd_count: int
    fan_match: bool
    brute_force_total_count: int | None
    brute_force_coherent_count: int | None
    brute_force_match: bool | None
    ok: bool


def build_family(q: int, k: int | None = None, t: int | None = None) -> FamilyNetwork:
    """Construct the q-family network and its predictions.

    Requires q >= 2 with q - 1 not a multiple of three (equivalently
    gcd(q - 1, N) = 1 for N = 1 + q + q^2, which makes the homogeneous
    lattice symmetric under cyclic coordinate shifts). Defaults
    k = N + 1, t = 1; any k > N with gcd(k, N) = gcd(k, t) = 1 works.
    Predicts q + 2 Hilbert generators per single-negative octant and
    3(q + 2) coherent diagrams for the lifted network. Values of q
    divisible by three are accepted but flagged: a stricter reading of
    the family hypothesis excludes them.
    """
    if not isinstance(q, int) or q < 2:
        raise BadFamilyParamsError(f"q must be an integer >= 2, got {q!r}")
    if (q - 1) % 3 == 0:
        raise BadFamilyParamsError(
            f"q - 1 = {q - 1} is a multiple of three; the family construction "
            "degenerates",
            q=q,
        )
    n0 = 1 + q + q * q
    k = n0 + 1 if k is None else k
    t = 1 if t is None else t
    if not isinstance(k, int) or k <= n0:
        raise BadFamilyParamsError(
            f"lift factor k must exceed N = {n0}", q=q, k=k
        )
    if not isinstance(t, int):
        raise BadFamilyParamsError(f"t must be an integer, got {t!r}")
    if gcd(k, n0) != 1:
        raise BadFamilyParamsError(
            f"gcd(k, N) = {gcd(k, n0)} must be 1", k=k, n=n0
        )
    if gcd(k, t) != 1:
        raise BadFamilyParamsError(f"gcd(k, t) = {gcd(k, t)} must be 1", k=k, t=t)
    base = build_network(n0, [1, q, q * q])
    lifted = lift_network(base, k, t)
    first = [(-n0, 0, n0)]
    for i in range(q + 1):
        first.append((-q - 1 - i * q, 1 + i * (q + 1), q - i))
    predictions = []
    block = first
    for signs in SINGLE_NEGATIVE_SIGNS:
        predictions.append((signs, tuple(sorted(block))))
        block = [(a[2], a[0], a[1]) for a in block]
    note = None
    if q % 3 == 0:
        note = (
            "q is a multiple of three: accepted under the gcd(q-1, 3) = 1 "
            "hypothesis, excluded under the stricter reading that forbids "
            "q divisible by three"
        )
    return FamilyNetwork(
        q=q,
        k=k,
        t=t,
        base=base,
        lifted=lifted,
        predicted_hilbert=tuple(predictions),
        predicted_mdd_count=3 * (q + 2),
        hypothesis_note=note,
    )


def verify_family(
    q: int,
    k: int | None = None,
    t: int | None = None,
    brute_force_limit: int = 100,
) -> FamilyVerification:
    """Check the family predictions against the actual computations.

    Compares each per-octant Hilbert basis of the base network with the
    closed form, runs the fan on the lifted network against 3(q + 2),
    and for lifted sizes up to brute_force_limit also enumerates all
    diagrams and counts the coherent ones, by one coherent_only search:
    its found count is every diagram and its leaves, kept by a cone
    test, the coherent ones; no diagram is decoded. Mismatches are
    reported, never absorbed.
    """
    fam = build_family(q, k, t)
    lat = homogeneous_lattice(fam.base)
    checks = []
    for signs, expected in fam.predicted_hilbert:
        actual = hilbert_basis(OctantSemigroup(lat, signs)).elements
        checks.append(
            OctantCheck(signs, expected, actual, set(expected) == set(actual))
        )
    fan_count = fan_report(fam.lifted).mdd_count
    fan_match = fan_count == fam.predicted_mdd_count
    brute_total = brute_coherent = brute_match = None
    if fam.lifted.n <= brute_force_limit:
        result = enumerate_mdds(fam.lifted, "coherent_only")
        brute_total, brute_coherent = result.found, len(result.leaves)
        brute_match = brute_coherent == fan_count
    ok = (
        all(c.match for c in checks)
        and fan_match
        and brute_match is not False
    )
    return FamilyVerification(
        family=fam,
        octant_checks=tuple(checks),
        fan_mdd_count=fan_count,
        fan_match=fan_match,
        brute_force_total_count=brute_total,
        brute_force_coherent_count=brute_coherent,
        brute_force_match=brute_match,
        ok=ok,
    )
