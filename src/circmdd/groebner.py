"""Reduced Groebner bases of the lattice ideal of a three-step network.

The fan reads the distances it needs as normal-form degrees under one
Groebner basis of I_L = <x^a+ - x^a- : a.s = 0 mod n> for a graded
order, so no fan builds an n-sized array. Its sector census keys each
sector by the leads of the reduced Groebner basis for its weight, the
staircase generators of its coherent diagram. The graded basis is
already the reduced basis of one sector, the one whose weight leads
every sum-zero vector of it (_is_led); the census starts there and
reaches every other sector by one flip across the wall between
neighbours. In the fan, Buchberger's algorithm runs for the graded
basis and as the fallback of a failed check only. Every reduced basis
here is held as _buchberger returns it: (lead, vector) tuples, each
vector led by its plus part.

network reads three-step distances and route counts off the runs of the
graded staircase in one sweep (_distances_and_counts), distances alone
in one without counts (_staircase), diameter and total distance off the
runs alone (_run_stats), and the two-step tile off a _buchberger run
(network._tile_runs). This module imports no circmdd module at run
time, so network can import it.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from operator import add, mul
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
    _variables, +1 on c and 0 on b.

    Its normal forms are least routings (_degree). Of the orders tried,
    this w0 gives the fastest Buchberger run from _lattice_ideal_basis:
    on the q = 14 family lift 0.1 ms, where (1, 0, -1) takes 0.9 ms and
    plain degree-lex 5.9 ms (CPython 3.11, 2-vCPU Xeon).
    """
    ia, _, ic = _variables(net)
    w0 = [0, 0, 0]
    w0[ia], w0[ic] = -1, 1
    return _buchberger(_lattice_ideal_basis(net), w0)


def _distances_and_counts(net: CirculantNetwork):
    """(dist, counts, diameter, total) of a connected three-step network:
    distances and route_counts as lists, in one sweep over the runs of
    the staircase of _graded_basis (_runs), and max(dist) and sum(dist)
    off the runs (_run_stats).

    count[v] is P[v], the minimal routings of v with a_z = 0, plus
    count[v - s_z] when that arc is tight (route_counts, z last). For
    the j-th vertex of run (x, y) those are (x, y, j) plus sum-zero
    vectors, (x + t, y + j - t, 0) for the t in [-x, y + j] with
    t (s_x - s_y) = j (s_z - s_y) mod n: one class mod m = n / g,
    g = gcd(s_x - s_y, n), for j a multiple of f = g / gcd(g, s_z - s_y)
    only. So count(x, y, j) = c0 + N[x][j] + P[y][j]: c0 that of a tight
    arc into the run's start, written already as the runs go by start
    distance; N and P running sums over j, N[0] of the t in [0, j], row
    x > 0 adding t = -x and row y > 0 t = j + y, each at the j of one
    progression (_rows). Row x runs to h(x, 0) and row y to h(0, y), so
    the rows hold O(n) entries, none per routing.
    """
    n = net.n
    # first, so that an n too large to hold fails before the runs fill memory
    dist, counts = [0] * n, [0] * n
    runs, (sx, sy, sz) = _runs(net, _graded_basis(net))
    hx, hy = [h for _, _, h, _, y in runs if not y], [h for _, _, h, x, _ in runs if not x]
    g = gcd(sx - sy, n)
    m, e = n // g, gcd(g, sz - sy)
    # the t of j = i f are the class of i u mod m
    u, f = (sz - sy) // e * pow((sx - sy) // g, -1, m) % m, g // e
    base = [0] * hx[0]
    base[::f] = [(j - i * u % m) // m + 1 for i, j in enumerate(range(0, hx[0], f))]
    # t = -x counts in row x when i u = -x, t = j + y in row y when
    # i (u - f) = y, mod m
    rows_x = _rows(list(accumulate(base)), hx, -u, m, f)
    rows_y = _rows([0] * hx[0], hy, u - f, m, f)
    _, diameter, total = _run_stats(runs)
    runs.sort()
    for d, v, h, x, y in runs:
        # v - s_z lies in (-n, n), and a negative index wraps
        c = counts[v - sz] if dist[v - sz] == d - 1 else 0
        for d, p, q in zip(range(d, d + h), rows_x[x], rows_y[y]):
            dist[v] = d
            counts[v] = c + p + q
            v += sz
            if v >= n:
                v -= n
    return dist, counts, diameter, total


def _rows(row, heights, w, m, f):
    """Rows k of running sums over j: row k - 1 (row, at k = 0) plus one
    from each j = i f below heights[k] with i w = k mod m on. Those j
    are one progression, or none, and then row k is row k - 1."""
    d = gcd(w, m)
    p, rows = m // d, [row]
    inv = pow(w // d, -1, p)
    for k in range(1, len(heights)):
        j, h = k // d * inv % p * f, heights[k]
        if k % d == 0 and j < h:
            step = [0] * h
            step[j :: p * f] = [1] * len(range(j, h, p * f))
            row = list(map(add, row, accumulate(step)))
        rows.append(row)
    return rows


def _staircase(net: CirculantNetwork):
    """The dist of _distances_and_counts alone, in a sweep without counts."""
    n = net.n
    dist = [0] * n
    runs, (_, _, sz) = _runs(net, _graded_basis(net))
    for d, v, h, _, _ in runs:
        for d in range(d, d + h):
            dist[v] = d
            v += sz
            if v >= n:
                v -= n
    return dist


def _runs(net: CirculantNetwork, basis):
    """(runs, (s_x, s_y, s_z)): the runs of the staircase of basis, a
    Groebner basis of I_L for a graded order, as (x + y, vertex, h, x, y)
    by x, then y, and the steps they lie along.

    Its standard monomials are one least routing per vertex (_degree).
    Name the variables x, y, z, z the one of highest pure-power lead.
    Each standard (x, y, 0) starts a run of standard (x, y, k) for k <
    h(x, y), the least l_z over the leads l with l_x <= x and l_y <= y:
    the vertices x s_x + y s_y + k s_z, at distances x + y + k, every
    arc tight. The runs cover every vertex once. h(x, y) falls as y
    passes the l_y of the leads with l_x <= x, sorted once per l_x.
    """
    n = net.n
    leads = [g[:3] for g in basis]
    pure = {j: g[j] for g in leads for j in range(3) if g[j] == sum(g)}
    iz = max(pure, key=pure.get)
    ix, iy = [j for j in range(3) if j != iz]
    sx, sy, sz = (net.steps[j] for j in (ix, iy, iz))
    leads = [(g[ix], g[iy], g[iz]) for g in leads]
    lxs = {lx for lx, _, _ in leads}
    runs, x = [], 0
    while True:
        if x in lxs:
            # h(x, y) by y, set by the pure power of z, ended by that of y
            hs, y, h = [], 0, n
            for ly, lz in sorted([(ly, lz) for lx, ly, lz in leads if lx <= x]):
                hs += [h] * (ly - y)
                y, h = ly, min(h, lz)
                if not h:
                    break
            if not hs:
                break
        v = x * sx
        runs += [(x + y, (v + y * sy) % n, h, x, y) for y, h in enumerate(hs)]
        x += 1
    return runs, (sx, sy, sz)


def _run_stats(runs):
    """(vertices, diameter, total distance) of runs (d, vertex, h, ...),
    at distances d, ..., d + h - 1, with no list of the distances."""
    d, _, h, *_ = zip(*runs)
    k = sum(h)
    return k, max(map(add, d, h)) - 1, sum(map(mul, d, h)) + (sum(map(mul, h, h)) - k) // 2


def _degree(basis, a):
    """The distance of vertex(a), for a routing a: deg NF(x^a) under
    basis, a Groebner basis of I_L for a graded order such as
    _graded_basis or one _sector_leads returned (Sturmfels, ch. 4-5)."""
    return sum(_normal_form(basis, *a))


def _is_led(basis, iw):
    """Whether every sum-zero vector a of basis is led by its plus part
    under the integer weights iw: (iw.a, a) is lexicographically
    positive. A reduced Groebner basis of I_L for a graded order is then
    the reduced one for iw (step 4 of _flip)."""
    w0, w1, w2 = iw
    return all(
        a0 + a1 + a2 or (w0 * a0 + w1 * a1 + w2 * a2, a0, a1, a2) > (0, 0, 0, 0)
        for _, _, _, a0, a1, a2 in basis
    )


def _sector_leads(iw, basis, wall=None):
    """(leads, basis): the sorted leads of the reduced Groebner basis of
    the lattice ideal for the integer weights iw, and that basis.

    basis is the reduced Groebner basis of I_L for a graded order:
    _graded_basis or the basis this returned for another weight. The
    term order is "degree, then iw, then lex", so the standard monomials
    of the initial ideal are the least routings of the vertices, the
    diagram of iw, and the leads are
    staircase_generators(build_coherent_mdd(net, iw)).generators
    (Sturmfels, ch. 4-5; Conti-Traverso 1991), whether or not a step is
    a unit mod n. No tie is checked: the fan slides iw past ties first
    (mdd._tie_at_u).

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
        elements = basis if _is_led(basis, iw) else None
    else:
        elements = _flip(basis, wall, iw)
    if elements is None:
        elements = _buchberger([g[3:] for g in basis], iw)
    return tuple(sorted(g[:3] for g in elements)), elements


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
    basis of I_L for the order of some weight, as every basis
    _sector_leads returns is.

    1. The wall must bound that order's cone: o.g >= 0 for the wall ray
       o and every sum-zero g. The sum-zero g with o.g = 0 are parallel,
       and with minimal leads at most one, e, is held; without it the
       ray is no facet of the cone.
    2. The initial ideal of I_L under "degree, then o" is generated by
       the other leads and e, which is oriented by (iw.e, lex); call its
       lead f, and t its lead in basis. Buchberger's algorithm on these
       monomials and one binomial adds, for each monomial m sharing a
       variable with f, the remainder of u = lcm(f, m) - e under e as
       a monomial, unless a monomial held then divides it. As f and t
       share no variable, that is u - k e, k the least u_i // f_i over
       f_i > 0. The new leads are the minimal monomials.
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
       An old element is kept as it is, f keeps e, and a new lead m
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
        _, _, _, a0, a1, a2 = g
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
    old = {g[:3]: g for g in basis if g is not e}
    w0, w1, w2 = iw
    _, _, _, e0, e1, e2 = e
    if (w0 * e0 + w1 * e1 + w2 * e2, e0, e1, e2) < (0, 0, 0, 0):
        e0, e1, e2 = -e0, -e1, -e2
    f0, f1, f2 = e0 if e0 > 0 else 0, e1 if e1 > 0 else 0, e2 if e2 > 0 else 0
    # the monomials are read while they grow
    monomials = list(old)
    k = len(monomials)
    # the last divisor found is tried first: f at the start, which
    # divides no normal form under e
    x0, x1, x2 = f0, f1, f2
    for m0, m1, m2 in monomials:
        if not ((f0 and m0) or (f1 and m1) or (f2 and m2)):
            continue
        # lcm(f, m) - e, then its normal form under e (step 2)
        u0 = (f0 if f0 > m0 else m0) - e0
        u1 = (f1 if f1 > m1 else m1) - e1
        u2 = (f2 if f2 > m2 else m2) - e2
        j = u0 // f0 if f0 else u1 // f1 if f1 else u2 // f2
        if f1 and u1 // f1 < j:
            j = u1 // f1
        if f2 and u2 // f2 < j:
            j = u2 // f2
        if j:
            u0, u1, u2 = u0 - j * e0, u1 - j * e1, u2 - j * e2
        if x0 <= u0 and x1 <= u1 and x2 <= u2:
            continue  # u reduces to zero
        for x0, x1, x2 in monomials:
            if x0 <= u0 and x1 <= u1 and x2 <= u2:
                break
        else:
            monomials.append((u0, u1, u2))
    old[f0, f1, f2] = (f0, f1, f2, e0, e1, e2)
    elements = []
    for m in _minimal_leads(monomials[:k], (f0, f1, f2), monomials[k:]):
        g = old.get(m)
        if g is None:
            m0, m1, m2 = m
            t0, t1, t2 = _normal_form(basis, m0, m1, m2)
            g = (m0, m1, m2, m0 - t0, m1 - t1, m2 - t2)
        elements.append(g)
    for i, (l0, l1, l2, a0, a1, a2) in enumerate(elements):
        t0, t1, t2 = l0 - a0, l1 - a1, l2 - a2
        if f0 <= t0 and f1 <= t1 and f2 <= t2:
            t0, t1, t2 = _normal_form(elements, t0, t1, t2)
            elements[i] = (l0, l1, l2, l0 - t0, l1 - t1, l2 - t2)
    return elements if _is_led(elements, iw) else None


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
