"""Exact integer vector and matrix helpers.

Everything here runs on plain Python integers, so there is no overflow
to worry about anywhere in the lattice machinery.
"""

from __future__ import annotations

import functools
from math import gcd


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: return (g, x, y) with a*x + b*y = g and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def vec_scale(u, c):
    return tuple(c * a for a in u)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def norm1(u):
    return sum(abs(a) for a in u)


def cross(p, q) -> int:
    """The z-component of the cross product of two plane vectors."""
    return p[0] * q[1] - p[1] * q[0]


def half_plane(p) -> int:
    """0 for angles in [0, pi) from the positive x-axis, 1 for [pi, 2*pi)."""
    return 0 if (p[1] > 0 or (p[1] == 0 and p[0] > 0)) else 1


def angular_cmp(p, q) -> int:
    """Order nonzero plane vectors by angle from the positive x-axis.

    Counterclockwise, exactly: by half-plane first, then by the sign of
    the cross product; vectors pointing the same way compare equal.
    """
    hp, hq = half_plane(p), half_plane(q)
    if hp != hq:
        return -1 if hp < hq else 1
    c = cross(p, q)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


angular_key = functools.cmp_to_key(angular_cmp)


def primitive(u):
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = 0
    for a in u:
        g = gcd(g, a)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple(a // g for a in u)


def hnf_rows(rows, width: int) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form of the row span of ``rows``.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), and zero rows are dropped, so equal row lattices yield
    identical output. Used as the canonical form for lattice equality.
    """
    mat = [list(map(int, row)) for row in rows]
    pivot = 0
    for col in range(width):
        found = None
        for i in range(pivot, len(mat)):
            if mat[i][col]:
                found = i
                break
        if found is None:
            continue
        mat[pivot], mat[found] = mat[found], mat[pivot]
        for i in range(pivot + 1, len(mat)):
            if mat[i][col] == 0:
                continue
            a, b = mat[pivot][col], mat[i][col]
            g, x, y = xgcd(a, b)
            rp, ri = mat[pivot], mat[i]
            # unimodular 2x2 row operation: det = (a*x + b*y) / g = 1
            mat[pivot] = [x * rp[j] + y * ri[j] for j in range(width)]
            mat[i] = [(a // g) * ri[j] - (b // g) * rp[j] for j in range(width)]
        if mat[pivot][col] < 0:
            mat[pivot] = [-v for v in mat[pivot]]
        for i in range(pivot):
            q = mat[i][col] // mat[pivot][col]
            if q:
                mat[i] = [mat[i][j] - q * mat[pivot][j] for j in range(width)]
        pivot += 1
    return tuple(tuple(row) for row in mat[:pivot])


def kernel_of_row(row) -> list[tuple[int, ...]]:
    """Basis of the integer kernel of a single row vector.

    Returns len(row) - 1 vectors spanning {c : c . row = 0} whenever the
    row is nonzero (column-style reduction by unimodular operations).
    """
    m = len(row)
    w = [int(v) for v in row]
    cols = [tuple(1 if i == j else 0 for i in range(m)) for j in range(m)]
    for j in range(1, m):
        a, b = w[0], w[j]
        if b == 0:
            continue
        g, x, y = xgcd(a, b)
        c0, cj = cols[0], cols[j]
        cols[0] = tuple(x * c0[i] + y * cj[i] for i in range(m))
        cols[j] = tuple((a // g) * cj[i] - (b // g) * c0[i] for i in range(m))
        w[0], w[j] = g, 0
    if w[0] == 0:
        raise ValueError("kernel_of_row requires a nonzero row")
    return [cols[j] for j in range(1, m)]
