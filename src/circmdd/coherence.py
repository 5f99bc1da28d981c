"""Exact coherence decisions for diagrams.

A diagram is coherent when some weight vector w satisfies
w . (b - D(i)) > 0 for every vertex i and every alternative minimal
routing b. All difference vectors sum to zero, so after dropping the
direction (1, ..., 1) this is strict feasibility of an open cone
through the origin in r-1 dimensions: a sign check for two steps, an
angular sweep in the plane for three, strict Fourier-Motzkin
elimination for four. Everything is integer or rational arithmetic.

No routing table is needed: the differences D(v) + e_j - D(v + s_j),
r per vertex, span the same cone as every constraint (see
is_coherent), and a diagram of C1892(45,265,1585) has at most nine
distinct ones. Single constraints are walked vertex by vertex only to
report a failed witness check or a refutation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import lshift
from typing import TYPE_CHECKING, NamedTuple

from .errors import InternalInconsistencyError, UnsupportedArityError
from .intlin import angular_key, cross, dot, primitive, vec_sub
from .network import _packed_fields, distance_table, packed_width

if TYPE_CHECKING:
    from .mdd import Mdd


class RoutingConstraint(NamedTuple):
    """One forced strict preference: the chosen cell beats an alternative."""

    vertex: int
    chosen: tuple[int, ...]
    alternative: tuple[int, ...]


class CoherenceResult(NamedTuple):
    coherent: bool
    witness: tuple[int, ...] | None
    refutation: tuple[RoutingConstraint, ...] | None


def _reduced_coords(c) -> tuple[int, ...]:
    """Coordinates of a sum-zero vector against the basis e_k - e_{k+1}."""
    return tuple(c[k] - c[k + 1] for k in range(len(c) - 1))


def _weight_from_coords(xs, r: int) -> tuple[int, ...]:
    """Rebuild a sum-zero integer weight from reduced coordinates."""
    w = []
    prev = Fraction(0)
    for k in range(r - 1):
        x = Fraction(xs[k])
        w.append(x - prev)
        prev = x
    w.append(-prev)
    denom = 1
    for x in w:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in w]
    return primitive(ints)


def _solve_1d(cons):
    if all(c[0] > 0 for c in cons):
        return (Fraction(1),)
    if all(c[0] < 0 for c in cons):
        return (Fraction(-1),)
    return None


def _solve_sweep2(cons):
    """Strict feasibility of open half-planes through the origin in 2-D.

    Sort the (deduplicated, primitive) constraint normals by angle; the
    feasible directions form an open arc that is nonempty exactly when
    some cyclic gap between consecutive normals exceeds pi. The witness
    is built from exact 90-degree rotations of the arc's end normals.
    """
    normals = sorted(set(cons))
    if len(normals) == 1:
        n0 = normals[0]
        return (Fraction(n0[0]), Fraction(n0[1]))

    normals.sort(key=angular_key)
    m = len(normals)
    for i in range(m):
        a = normals[i]
        b = normals[(i + 1) % m]
        if cross(a, b) < 0:
            # ccw gap from a to b exceeds pi, so the normals fit in an
            # open half-plane; the arc of feasible directions runs from
            # a rotated clockwise to b rotated counterclockwise
            e1 = (a[1], -a[0])
            e2 = (-b[1], b[0])
            return (Fraction(e1[0] + e2[0]), Fraction(e1[1] + e2[1]))
    return None


def _eliminate(cons, d: int):
    """The constraints left when Fourier-Motzkin elimination drops the
    last of d > 1 variables, as a set of primitive vectors, or None when
    one of them reads 0 > 0.

    Each pair of opposite-sign constraints combines with positive
    multipliers, so strictness is preserved, and the constraints free of
    the last variable are kept. Integers only.
    """
    reduced = set()
    for c in cons:
        if c[d - 1] == 0:
            rest = c[: d - 1]
            if not any(rest):
                return None  # constraint 0 > 0
            reduced.add(primitive(rest))
    for p in cons:
        if p[d - 1] <= 0:
            continue
        for q in cons:
            if q[d - 1] >= 0:
                continue
            comb = tuple(
                (-q[d - 1]) * p[j] + p[d - 1] * q[j] for j in range(d - 1)
            )
            if not any(comb):
                return None  # positive combination collapses to 0 > 0
            reduced.add(primitive(comb))
    return reduced


def _fm_feasible(cons, d: int) -> bool:
    """Whether _solve_fm(cons, d) finds a witness, by elimination alone:
    no back substitution and no Fraction."""
    while cons and d > 1:
        cons = _eliminate(cons, d)
        if cons is None:
            return False
        d -= 1
    return not cons or all(c[0] > 0 for c in cons) or all(c[0] < 0 for c in cons)


def _solve_fm(cons, d: int):
    """Strict homogeneous feasibility by Fourier-Motzkin elimination.

    Each step drops the last variable (_eliminate); the witness is
    recovered by back substitution with exact rationals.
    """
    if not cons:
        return tuple(Fraction(0) for _ in range(d))
    if d == 1:
        return _solve_1d(cons)
    reduced = _eliminate(cons, d)
    if reduced is None:
        return None
    sub = _solve_fm(sorted(reduced), d - 1)
    if sub is None:
        return None
    lo = None
    hi = None
    for c in cons:
        cd = c[d - 1]
        if cd == 0:
            continue
        val = sum(Fraction(c[j]) * sub[j] for j in range(d - 1))
        bound = -val / cd
        if cd > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is None and hi is None:
        x = Fraction(0)
    elif hi is None:
        x = lo + 1
    elif lo is None:
        x = hi - 1
    else:
        if not lo < hi:
            raise InternalInconsistencyError(
                "elimination produced an empty back interval"
            )
        x = (lo + hi) / 2
    return tuple(sub) + (x,)


def _feasible(directions, r: int):
    """Witness in reduced coordinates for strict positivity, or None."""
    if not directions:
        return tuple(Fraction(0) for _ in range(max(r - 1, 1)))
    if r == 2:
        return _solve_1d(directions)
    if r == 3:
        return _solve_sweep2(directions)
    return _solve_fm(directions, r - 1)


def _has_solution(directions, r: int) -> bool:
    """Whether _feasible(directions, r) finds a witness; four steps
    decide it without building one (_fm_feasible)."""
    if r == 4:
        return _fm_feasible(directions, 3)
    return _feasible(directions, r) is not None


def _directions(codes, r: int, width: int):
    """Decoded differences of packed codes (see packed_width) of the
    given field width, and their distinct primitive reduced directions,
    sorted."""
    mask, shifts = _packed_fields(width, r)
    # a bias of half a field on every field keeps each one nonnegative
    half = 1 << (width - 1)
    bias = sum(half << shift for shift in shifts)
    diffs = [tuple(((c + bias) >> shift & mask) - half for shift in shifts) for c in codes]
    return diffs, sorted({primitive(_reduced_coords(d)) for d in diffs})


def is_coherent(mdd: Mdd) -> CoherenceResult:
    """Decide coherence exactly; witness weight or irreducible refutation.

    The cells must be minimal routings of their vertices, as in every
    diagram the library builds or validates. The cone is decided from
    the differences D(v) + e_j - D(v + s_j) for every vertex v and step
    j with dist[v + s_j] == dist[v] + 1, packed into integers (see
    packed_width) and collected in one set. Each is a (vertex,
    alternative) constraint or zero, and they include g - D(vertex(g))
    for every staircase generator g that is a minimal routing, since
    g - e_j is a cell for any j with g_j > 0. Those generator
    constraints imply every constraint (see enumerate_mdds), so both
    sets have the same open solution cone and the same extreme rays.

    The witness, a primitive sum-zero integer weight, is then the one
    the full list would give. _solve_1d reads only signs. _solve_sweep2
    reads only the two normals that bound the unique gap larger than
    pi, both extreme rays. Each system _solve_fm eliminates to defines
    the same projected cone, and its back-substitution bounds lo and hi
    are attained at extreme rays. So the witness depends only on the
    extreme rays. It is re-checked against every difference before
    returning, which by the same argument checks every constraint; on a
    failure, the first (vertex, alternative) constraint it fails is
    reported.

    On infeasibility a subset of constraints that is infeasible and
    loses infeasibility if any one is dropped is produced by greedy
    deletion over the sorted directions of every constraint, walked
    vertex by vertex through DistanceTable.routings; each direction is
    reported by its least (vertex, alternative) constraint.
    """
    net = mdd.net
    r = net.r
    if r > 4:
        raise UnsupportedArityError(
            "coherence is decided for at most four steps", r=r
        )
    table = distance_table(net)
    dist = table.dist
    width = packed_width(net.n)
    shifts = _packed_fields(width, r)[1]
    cells = [sum(map(lshift, cell, shifts)) for cell in mdd.cells]
    codes: set[int] = set()
    for s, shift in zip(net.steps, shifts):
        # ahead[v] and later[v] belong to vertex v + s
        ahead = dist[s:] + dist[:s]
        later = cells[s:] + cells[:s]
        unit = 1 << shift
        codes.update(
            c + unit - b for c, b, d, e in zip(cells, later, dist, ahead) if e == d + 1
        )
    codes.discard(0)
    if not codes:
        witness = tuple(range(r - 1, -1, -1)) if r >= 2 else (1,)
        return CoherenceResult(True, witness, None)

    diffs, directions = _directions(codes, r, width)
    solution = _feasible(directions, r)
    if solution is not None:
        witness = _weight_from_coords(solution, r)
        if any(dot(witness, d) <= 0 for d in diffs):
            for con in _constraints(mdd, table):
                if dot(witness, con.alternative) <= dot(witness, con.chosen):
                    raise InternalInconsistencyError(
                        f"witness {witness} fails constraint at vertex {con.vertex}",
                        witness=list(witness),
                        vertex=con.vertex,
                    )
        return CoherenceResult(True, witness, None)

    pairs = [
        (primitive(_reduced_coords(vec_sub(con.alternative, con.chosen))), con)
        for con in _constraints(mdd, table)
    ]
    directions = sorted({direction for direction, _ in pairs})
    core = list(directions)
    for direction in directions:
        trial = [p for p in core if p != direction]
        if trial and _feasible(trial, r) is None:
            core = trial
    # constraints come in (vertex, alternative) order, so the first one
    # of each core direction is its least
    wanted = set(core)
    refutation = []
    for direction, con in pairs:
        if direction in wanted:
            wanted.discard(direction)
            refutation.append(con)
    return CoherenceResult(False, None, tuple(refutation))


def _constraints(mdd: Mdd, table):
    """Every (vertex, alternative) constraint, in that order."""
    for i, chosen in enumerate(mdd.cells):
        for alt in table.routings(i):
            if alt != chosen:
                yield RoutingConstraint(i, chosen, alt)
