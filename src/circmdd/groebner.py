"""Reduced Groebner bases of the lattice ideal of a three-step network.

The fan reads the distances it needs as normal-form degrees under one
Groebner basis of I_L = <x^a+ - x^a- : a.s = 0 mod n> for a graded
order, so no fan builds an n-sized array. Its sector census
keys each sector by the leads of the reduced Groebner basis for the
sector's weight, which are the staircase generators of its coherent
diagram. The graded basis is already the reduced basis of one sector,
the one whose weight leads every sum-zero vector of it (_is_led); the
census starts there and reaches every other sector by one flip across
the wall between neighbours. In the fan, Buchberger's algorithm runs for
the graded basis and as the fallback of a failed check only.

network reads every three-step distance and route count off the
staircase of the graded basis (_distances_and_counts), distances alone
off its first half (_staircase). Its two-step kernel runs _buchberger on
a Hermite basis of the double loop's lattice, to read the L-shaped tile
(network._tile_distances_and_counts). This module imports no circmdd
module at run time, so network can import it.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .network import CirculantNetwork


def _variables(net: CirculantNetwork):
    """(a, b, c): the step indices, a the first of least gcd(s, n) and b
    before c."""
    ia = min(range(3), key=lambda j: gcd(net.steps[j], net.n))
    ib, ic = [j for j in range(3) if j != ia]
    return ia, ib, ic


def _lattice_ideal_basis(net: CirculantNetwork):
    """Vectors a whose binomials x^a+ - x^a- generate the lattice ideal
    I_L of a three-step network, L = {a : a.s = 0 mod n}, one vector
    per variable, in variable order.

    Name the variables as _variables does. With g = gcd(n, s_a) the
    vectors are

        h_a e_a,  h_b e_b - u e_a,  h_c e_c - v e_b - x e_a,

    for h_a = n / g, h_b = g / gcd(g, s_b), h_c = gcd(n, s_a, s_b) and
    the u, v, x >= 0 that put these vectors in L: v mod h_b, then u and
    x mod h_a, through the same modular inverses as hilbert_basis.
    Under lex c > b > a their leads x_a^h_a, x_b^h_b and x_c^h_c are
    pairwise coprime, so the binomials are a Groebner basis of an ideal
    J in I_L whose quotient has dimension h_a h_b h_c = n, the index of
    L (the steps generate Z_n). The ring modulo I_L has that dimension
    too, so J = I_L (Sturmfels, Groebner Bases and Convex Polytopes,
    ch. 4-5). With s_a a unit mod n, h_a = n and h_b = h_c = 1: the
    binomials are x_a^n - 1 and x_j - x_a^c_j, c_j = s_j / s_a mod n.
    """
    n = net.n
    s = net.steps
    ia, ib, ic = _variables(net)
    sa, sb, sc = s[ia], s[ib], s[ic]
    g = gcd(n, sa)
    ha, hb, hc = n // g, g // gcd(g, sb), gcd(n, sa, sb)
    # k*s_a = t mod n for t a multiple of g, solved in the units mod h_a
    inv = pow(sa // g, -1, ha)
    v = sc * pow(sb // hc, -1, hb) % hb
    u = hb * sb // g * inv % ha
    x = (hc * sc - v * sb) // g * inv % ha
    basis = [[0, 0, 0] for _ in range(3)]
    basis[ia][ia] = ha
    basis[ib][ib], basis[ib][ia] = hb, -u
    basis[ic][ic], basis[ic][ib], basis[ic][ia] = hc, -v, -x
    return [tuple(a) for a in basis]


def _graded_basis(net: CirculantNetwork):
    """A Groebner basis of I_L for a graded order: the reduced one for
    "degree, then w0, then lex", w0 = -1 on the variable a of
    _variables, +1 on c and 0 on b, each vector led by its plus part.

    Under any graded order the normal form of a routing is the least
    routing of its vertex, so its degree is the vertex's distance
    (_degree). Of the orders tried, this w0 gives the fastest
    Buchberger run from _lattice_ideal_basis: on the q = 14 family lift
    0.1 ms, where (1, 0, -1) takes 0.9 ms and plain degree-lex 5.9 ms
    (CPython 3.11, 2-vCPU Xeon).
    """
    ia, _, ic = _variables(net)
    w0 = [0, 0, 0]
    w0[ia], w0[ic] = -1, 1
    return [g[3:] for g in _buchberger(_lattice_ideal_basis(net), w0)]


def _distances_and_counts(net: CirculantNetwork):
    """(dist, counts) of a connected three-step network, as lists: the
    dist of network._bfs_levels and route_counts, read off the staircase
    of _graded_basis in O(n + D + runs * |leads|) steps, D the diameter:
    the distances of _staircase, then the counts of _staircase_counts."""
    dist, runs, steps = _staircase(net)
    return dist, _staircase_counts(dist, runs, *steps)


def _staircase(net: CirculantNetwork):
    """(dist, runs, (s_x, s_y, s_z)) of a connected three-step network:
    its distances, read off the staircase of _graded_basis, and the runs
    and steps that _staircase_counts reads.

    The standard monomials are one least routing per vertex (_degree).
    Name the variables x, y, z, z the one of highest pure-power lead.
    Each standard (x, y, 0) starts a run of standard (x, y, k) for
    k < h(x, y), the least l_z over the leads l with l_x <= x and
    l_y <= y: the vertices x s_x + y s_y + k s_z, at distances
    x + y + k. The runs cover every vertex once; each is a stretch of
    one cycle of s_z whose arcs are all tight (add one to the distance).
    """
    n = net.n
    leads = [g[:3] for g in _led(_graded_basis(net))]
    pure = {j: g[j] for g in leads for j in range(3) if g[j] == sum(g)}
    iz = max(pure, key=pure.get)
    ix, iy = [j for j in range(3) if j != iz]
    sx, sy, sz = (net.steps[j] for j in (ix, iy, iz))
    leads = [(g[ix], g[iy], g[iz]) for g in leads]
    # first, so that an n too large to hold fails before the runs fill memory
    dist = [0] * n
    # (distance, vertex) of each run's start, and its length h; the pure
    # power of z passes the filter for every (x, y), so min() has a list
    runs = []
    x = 0
    while True:
        y = 0
        while h := min([lz for lx, ly, lz in leads if lx <= x and ly <= y]):
            runs.append((x + y, (x * sx + y * sy) % n, h))
            y += 1
        if not y:
            break
        x += 1
    for d, v, h in runs:
        for d in range(d, d + h):
            dist[v] = d
            v += sz
            if v >= n:
                v -= n
    return dist, runs, (sx, sy, sz)


def _staircase_counts(dist, runs, sx, sy, sz):
    """route_counts of a three-step network, as a list, from what
    _staircase returned.

    Counts follow route_counts with z taken last: count[v] is P[v], the
    minimal routings of v with a_z = 0, plus count[v - s_z] when that
    arc is tight. A routing (a, b, 0) is minimal iff a s_x is on the
    x-chain {a s_x : dist = a} and the s_y-chain from it to v is tight,
    so P[v] counts the x-chain vertices on the tight s_y-chain ending
    at v. Each such chain is walked once, from its first x-chain vertex
    (the least a). The runs are then taken by the distance of their
    starts: a tight arc into a run's start comes from the end of a run
    that starts nearer, already done.
    """
    n = len(dist)
    count = [0] * n
    # P, walked along the tight s_y-chains from the x-chain vertices u
    u = a = 0
    while dist[u] == a:
        if not count[u]:
            v, d, p = u, a, 0
            while dist[v] == d:
                if v == d * sx % n:  # on the x-chain
                    p += 1
                count[v] = p
                v += sy
                if v >= n:
                    v -= n
                d += 1
        u += sx
        if u >= n:
            u -= n
        a += 1
    runs.sort()
    for d, v, h in runs:
        # v - s_z lies in (-n, n), and a negative index wraps
        c = count[v - sz] if dist[v - sz] == d - 1 else 0
        for _ in range(h):
            c += count[v]
            count[v] = c
            v += sz
            if v >= n:
                v -= n
    return count


def _led(basis):
    """The vectors of basis as (lead, vector) tuples, each led by its
    plus part, as the reduced bases here are."""
    return [(a0 if a0 > 0 else 0, a1 if a1 > 0 else 0, a2 if a2 > 0 else 0, a0, a1, a2)
            for a0, a1, a2 in basis]


def _degree(basis, a):
    """The distance of vertex(a), for a routing a: deg NF(x^a) under
    basis, a Groebner basis of I_L for a graded order such as
    _graded_basis or one _sector_leads returned (Sturmfels, ch. 4-5)."""
    return sum(_normal_form(_led(basis), *a))


def _is_led(basis, iw):
    """Whether every sum-zero vector a of basis is led by its plus part
    under the integer weights iw: (iw.a, a) is lexicographically
    positive. A reduced Groebner basis of I_L for a graded order, each
    vector led by its plus part, is then the reduced one for iw (step 4
    of _flip)."""
    w0, w1, w2 = iw
    return all(
        a0 + a1 + a2 or (w0 * a0 + w1 * a1 + w2 * a2, a0, a1, a2) > (0, 0, 0, 0)
        for a0, a1, a2 in basis
    )


def _sector_leads(iw, basis, wall=None):
    """(leads, basis): the sorted leads of the reduced Groebner basis of
    the lattice ideal for the integer weights iw, and the vectors of
    that basis.

    basis is the reduced Groebner basis of I_L for a graded order:
    _graded_basis or the basis this returned for another weight. The
    term order is "degree, then iw, then lex", so the standard monomials
    of the initial ideal are the least routings of the vertices, the
    diagram of iw, and the leads are
    staircase_generators(build_coherent_mdd(net, iw)).generators
    (Sturmfels, Groebner Bases and Convex Polytopes, ch. 4-5;
    Conti-Traverso 1991), whether or not a step is a unit mod n. No tie
    is checked: the fan slides iw past ties first (mdd._tie_at_u).

    With a wall ray, basis must be one this returned for a weight on
    the far side of that wall, and the new basis is one flip across it
    (_flip). Without a wall, basis is returned as it stands when iw
    leads every sum-zero vector of it (_is_led), which makes it the
    reduced basis for iw. When that check or a check of the flip fails,
    Buchberger's algorithm completes basis (_buchberger). Either way the
    result is the reduced basis for iw, so the leads do not depend on
    the path taken.
    """
    if wall is None:
        elements = _led(basis) if _is_led(basis, iw) else None
    else:
        elements = _flip(basis, wall, iw)
    if elements is None:
        elements = _buchberger(basis, iw)
    return tuple(sorted(g[:3] for g in elements)), [g[3:] for g in elements]


def _normal_form(elements, u0, u1, u2):
    """The monomial u reduced by elements (lead, vector), inline, until
    no lead divides it. A monomial u led by g+ is reduced to u - k g in
    one step, k the least u_i // g+_i over g+_i > 0."""
    while True:
        for l0, l1, l2, a0, a1, a2 in elements:
            if l0 <= u0 and l1 <= u1 and l2 <= u2:
                k = u0 // l0 if l0 else u1 // l1 if l1 else u2 // l2
                if l1 and u1 // l1 < k:
                    k = u1 // l1
                if l2 and u2 // l2 < k:
                    k = u2 // l2
                u0 -= k * a0
                u1 -= k * a1
                u2 -= k * a2
                break
        else:
            return u0, u1, u2


def _reduce_trailing(elements):
    """Replace each vector's trailing term by its normal form, in place.
    With minimal leads this makes a Groebner basis the reduced one."""
    for i, (l0, l1, l2, a0, a1, a2) in enumerate(elements):
        t0, t1, t2 = _normal_form(elements, l0 - a0, l1 - a1, l2 - a2)
        elements[i] = (l0, l1, l2, l0 - t0, l1 - t1, l2 - t2)


def _buchberger(basis, iw):
    """The reduced Groebner basis of the ideal of basis for the integer
    weights iw, as (lead, vector) tuples, inline.

    Binomials are held as vectors a, led by a+ when (sum a, iw.a, a) is
    lexicographically positive. A queued vector is kept as the
    difference of the normal forms of its two parts, when nonzero; the
    S-vector of two elements is their difference, and pairs with
    coprime leads are skipped (Buchberger's first criterion). An element
    whose lead the new lead divides goes back to the queue, so the leads
    stay minimal.
    """
    w0, w1, w2 = iw
    elements = []
    # the queue is read while it grows, first in, first out
    queue = list(basis)
    for a0, a1, a2 in queue:
        l0, l1, l2 = a0 if a0 > 0 else 0, a1 if a1 > 0 else 0, a2 if a2 > 0 else 0
        p0, p1, p2 = _normal_form(elements, l0, l1, l2)
        q0, q1, q2 = _normal_form(elements, l0 - a0, l1 - a1, l2 - a2)
        a0, a1, a2 = p0 - q0, p1 - q1, p2 - q2
        if (a0 + a1 + a2, w0 * a0 + w1 * a1 + w2 * a2, a0, a1, a2) < (0, 0, 0, 0, 0):
            a0, a1, a2 = -a0, -a1, -a2
        elif not (a0 or a1 or a2):
            continue
        l0, l1, l2 = a0 if a0 > 0 else 0, a1 if a1 > 0 else 0, a2 if a2 > 0 else 0
        kept = []
        for g in elements:
            if l0 <= g[0] and l1 <= g[1] and l2 <= g[2]:
                queue.append(g[3:])
            else:
                kept.append(g)
                if (l0 and g[0]) or (l1 and g[1]) or (l2 and g[2]):
                    queue.append((g[3] - a0, g[4] - a1, g[5] - a2))
        kept.append((l0, l1, l2, a0, a1, a2))
        elements = kept
    _reduce_trailing(elements)
    return elements


def _flip(basis, wall, iw):
    """The reduced Groebner basis for the integer weights iw, from the
    one across the wall ray, as in _buchberger; None when a check fails.

    One flip of Fukuda-Jensen-Thomas ("Computing Groebner fans", Math.
    Comp. 2007), the local step of the Groebner walk
    (Collart-Kalkbrener-Mall 1997). basis must be the reduced Groebner
    basis of I_L for the order of some weight, each vector led by its
    plus part, as every basis _sector_leads returns is.

    1. The wall must bound that order's cone: o.g >= 0 for the wall ray
       o and every sum-zero g. The sum-zero g with o.g = 0 are parallel,
       and with minimal leads at most one, e, is held; without it the
       ray is no facet of the cone.
    2. The initial ideal of I_L under "degree, then o" is generated by
       the other leads and e, which is oriented by (iw.e, lex); call its
       lead f, and t its lead in basis. Buchberger's algorithm on these
       monomials and one binomial adds each nonzero remainder of
       lcm(f, m) - e, for m a monomial sharing a variable with f, as a
       monomial, unless a monomial held then divides it. The new leads
       are the minimal monomials.
    3. Two kinds of pair are checked for that (_minimal_leads): f
       against the old leads, and each remainder against the later
       ones. No other pair can divide. No old lead divides another.
       When f = t, so none divides f, every vector of basis keeps its
       lead under "degree, then o, then iw" (step 1), so basis is a
       Groebner basis for it, every S-pair reduces to zero and there is
       no remainder. Otherwise e = f - t and f trails e in basis, a
       standard monomial, so no old lead divides f; and lcm(f, m) - e =
       lcm(f, m) - f + t stays a multiple of t under each reduction by
       e, so a remainder is a multiple of t of degree above |f| = |t|,
       m not dividing f. It then divides neither f nor an old lead,
       which t would then divide; f does not divide it, a normal form
       under e; and step 2 kept it only if no old lead and no earlier
       remainder divides it.
       An old lead keeps its vector, f keeps e, and a new lead m
       lifts to m - NF(m) under basis. Then each trailing term is
       reduced under the new set, which gives the reduced basis for the
       order "degree, then o, then iw, then lex". Only the trailing
       terms that f divides can reduce, so only those are: the
       trailing terms of basis and each NF(m) are standard for the old
       leads, t among them, and e trails with t, which no other old
       lead divides. Each remainder is a multiple of t other than t, so
       no new m divides any of these terms.
    4. Every sum-zero vector must be led under iw (_is_led). Then the
       leads lie in the initial ideal for iw, which so contains the one
       for the order of step 3; both orders are degree-compatible, so
       the two ideals have as many standard monomials of each degree at
       most d, and are equal. The basis is then the reduced one for iw.

    So the result is correct whether or not the ray is a true wall.
    """
    o0, o1, o2 = wall
    e = None
    for g in basis:
        a0, a1, a2 = g
        if a0 + a1 + a2 == 0:
            d = o0 * a0 + o1 * a1 + o2 * a2
            if d < 0:
                return None
            if d == 0:
                if e is not None:
                    return None
                e = g
    if e is None:
        return None
    old = _led(basis)
    vectors = {g[:3]: g[3:] for g in old if g[3:] != e}
    w0, w1, w2 = iw
    e0, e1, e2 = e
    if (w0 * e0 + w1 * e1 + w2 * e2, e0, e1, e2) < (0, 0, 0, 0):
        e0, e1, e2 = -e0, -e1, -e2
    f0, f1, f2 = e0 if e0 > 0 else 0, e1 if e1 > 0 else 0, e2 if e2 > 0 else 0
    binomial = [(f0, f1, f2, e0, e1, e2)]
    # the monomials are read while they grow
    monomials = list(vectors)
    # the last divisor found is tried first: f at the start, which
    # divides no normal form under e
    x0, x1, x2 = f0, f1, f2
    for m0, m1, m2 in monomials:
        if not ((f0 and m0) or (f1 and m1) or (f2 and m2)):
            continue
        u0, u1, u2 = _normal_form(
            binomial,
            (f0 if f0 > m0 else m0) - e0,
            (f1 if f1 > m1 else m1) - e1,
            (f2 if f2 > m2 else m2) - e2,
        )
        if x0 <= u0 and x1 <= u1 and x2 <= u2:
            continue  # u reduces to zero
        for x0, x1, x2 in monomials:
            if x0 <= u0 and x1 <= u1 and x2 <= u2:
                break
        else:
            monomials.append((u0, u1, u2))
    k = len(vectors)
    vectors[f0, f1, f2] = (e0, e1, e2)
    elements = []
    for m in _minimal_leads(monomials[:k], (f0, f1, f2), monomials[k:]):
        a = vectors.get(m)
        if a is None:
            m0, m1, m2 = m
            t0, t1, t2 = _normal_form(old, m0, m1, m2)
            a = (m0 - t0, m1 - t1, m2 - t2)
        elements.append(m + a)
    for i, (l0, l1, l2, a0, a1, a2) in enumerate(elements):
        t0, t1, t2 = l0 - a0, l1 - a1, l2 - a2
        if f0 <= t0 and f1 <= t1 and f2 <= t2:
            t0, t1, t2 = _normal_form(elements, t0, t1, t2)
            elements[i] = (l0, l1, l2, l0 - t0, l1 - t1, l2 - t2)
    return elements if _is_led([g[3:] for g in elements], iw) else None


def _minimal_leads(olds, f, remainders):
    """The new leads of step 3 of _flip, sorted by sum, ties in the
    order olds, remainders, f: the old leads other than t that f does
    not divide, the remainders that no later remainder divides, and f.
    No other pair of these monomials can divide (see _flip)."""
    f0, f1, f2 = f
    kept = [m for m in olds if not (f0 <= m[0] and f1 <= m[1] and f2 <= m[2])]
    for j, (m0, m1, m2) in enumerate(remainders, 1):
        for x0, x1, x2 in remainders[j:]:
            if x0 <= m0 and x1 <= m1 and x2 <= m2:
                break
        else:
            kept.append((m0, m1, m2))
    kept.append(f)
    return sorted(kept, key=sum)
