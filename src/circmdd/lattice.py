"""Homogeneous lattices of circulant networks and their octant cones.

The homogeneous lattice of C_n(s) is the set of integer vectors that
sum to zero and satisfy sum(a_l * s_l) = 0 mod n. Its intersections
with sign orthants are finitely generated semigroups; for three steps
each such cone is two-dimensional and its unique minimal generating set
(Hilbert basis) is computed exactly here.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import ArityMismatchError, UnsupportedArityError
from .intlin import dot, hnf_rows, kernel_of_row, norm1, vec_neg
from .network import CirculantNetwork

SINGLE_NEGATIVE_SIGNS = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))


class HomogeneousLattice(NamedTuple):
    """Sum-zero sublattice of the routing relations, canonical basis."""

    net: CirculantNetwork
    basis: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return self.net.r

    @property
    def index(self) -> int:
        """Index in the full sum-zero lattice of Z^r."""
        n = self.net.n
        s = self.net.steps
        g = n
        for i in range(self.r - 1):
            g = gcd(g, s[i] - s[-1])
        return n // g

    def contains(self, a) -> bool:
        """Membership test: coordinate sum zero and relation 0 mod n."""
        if len(a) != self.r:
            raise ArityMismatchError(
                f"vector has {len(a)} coordinates, lattice lives in Z^{self.r}",
                expected=self.r,
                got=len(a),
            )
        if sum(a) != 0:
            return False
        return dot(a, self.net.steps) % self.net.n == 0


def homogeneous_lattice(net: CirculantNetwork) -> HomogeneousLattice:
    """Compute a canonical basis of the homogeneous lattice.

    Parametrize the sum-zero hyperplane by the first r-1 coordinates;
    the relation becomes a single congruence whose integer kernel is
    read off a unimodular column reduction. The basis is then put in
    Hermite normal form so equal lattices compare equal as data.
    """
    r = net.r
    if r == 1:
        return HomogeneousLattice(net, ())
    row = [net.steps[i] - net.steps[-1] for i in range(r - 1)] + [net.n]
    gens = []
    for col in kernel_of_row(row):
        c = col[: r - 1]
        gens.append(tuple(c) + (-sum(c),))
    return HomogeneousLattice(net, hnf_rows(gens, r))


class _OctantFields(NamedTuple):
    lattice: HomogeneousLattice
    signs: tuple[int, ...]


class OctantSemigroup(_OctantFields):
    """Lattice points of one sign orthant (zeros allowed everywhere);
    the signs are checked against the lattice when the octant is made."""

    __slots__ = ()

    def __new__(cls, lattice: HomogeneousLattice, signs: tuple[int, ...]):
        if len(signs) != lattice.r:
            raise ArityMismatchError(
                "sign pattern length does not match the lattice dimension",
                expected=lattice.r,
                got=len(signs),
            )
        if any(s not in (-1, 1) for s in signs):
            raise ValueError(f"signs must be +1 or -1, got {signs!r}")
        return super().__new__(cls, lattice, signs)

    @classmethod
    def _make(cls, iterable):
        """As cls(*iterable), checked, so that _replace checks too."""
        return cls(*iterable)


def octant(lat: HomogeneousLattice, signs) -> OctantSemigroup:
    """Build an octant from a sign tuple or a string like '-++'."""
    if isinstance(signs, str):
        signs = tuple(-1 if ch == "-" else 1 for ch in signs)
    return OctantSemigroup(lat, tuple(signs))


def signs_str(signs) -> str:
    return "".join("-" if s < 0 else "+" for s in signs)


def octant_points_bounded(oct: OctantSemigroup, bound: int) -> list[tuple[int, ...]]:
    """All nonzero octant points of 1-norm at most ``bound``, sorted.

    Exhaustive scan: magnitudes of all but the last coordinate are free,
    the last is forced by the zero-sum condition and checked against the
    sign pattern and the congruence. The positive and the negative part
    of a sum-zero point each carry half its 1-norm, so no magnitude
    exceeds bound // 2.
    """
    lat = oct.lattice
    net = lat.net
    r = lat.r
    eps = oct.signs
    steps = net.steps
    n = net.n
    half = bound // 2
    out: list[tuple[int, ...]] = []

    def scan(idx: int, remaining: int, acc: tuple[int, ...], acc_sum: int):
        if idx == r - 1:
            last = -acc_sum
            if last * eps[-1] < 0 or abs(last) > remaining:
                return
            a = acc + (last,)
            if any(a) and dot(a, steps) % n == 0:
                out.append(a)
            return
        for m in range(min(remaining, half) + 1):
            val = eps[idx] * m
            scan(idx + 1, remaining - m, acc + (val,), acc_sum + val)

    if bound >= 0:
        scan(0, bound, (), 0)
    return sorted(out)


class HilbertBasis(NamedTuple):
    """Unique minimal generating set of an octant semigroup."""

    octant: OctantSemigroup
    elements: tuple[tuple[int, ...], ...]


def boundary_ray_minima(oct: OctantSemigroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Smallest nonzero lattice points on the two boundary rays (3 steps).

    For a single-negative pattern the cone in the sum-zero plane is
    spanned by the two directions moving weight from the negative
    coordinate to one positive coordinate; the minimal multiple on each
    ray comes from a gcd with n.
    """
    lat = oct.lattice
    if lat.r != 3:
        raise UnsupportedArityError(
            "boundary rays are only defined for three steps", r=lat.r
        )
    negs = [i for i, s in enumerate(oct.signs) if s < 0]
    if len(negs) == 2:
        u, v = boundary_ray_minima(octant(lat, vec_neg(oct.signs)))
        return vec_neg(u), vec_neg(v)
    if len(negs) != 1:
        raise ValueError("cone is trivial for uniform sign patterns")
    j = negs[0]
    p1, p2 = [i for i in range(3) if i != j]
    n = lat.net.n
    s = lat.net.steps
    mins = []
    for p in (p1, p2):
        c = n // gcd(n, (s[p] - s[j]) % n)
        vec = [0, 0, 0]
        vec[p] = c
        vec[j] = -c
        mins.append(tuple(vec))
    return mins[0], mins[1]


def hilbert_basis(oct: OctantSemigroup) -> HilbertBasis:
    """Hilbert basis of an octant semigroup for a three-step network.

    With j the negative coordinate, a single-negative octant is the
    semigroup of (y, z) in N^2, the entries at the two positive
    coordinates p1 < p2, with a*y + b*z = 0 mod n, where a = s_p1 - s_j
    and b = s_p2 - s_j. Its Hilbert basis is the Hirzebruch-Jung
    continued-fraction sequence from the y-axis to the z-axis (Oda,
    Convex Bodies and Algebraic Geometry, 1.6). The least point on the
    y-axis is h0 = (c1, 0) with c1 = n / gcd(n, a). The lattice has
    covolume D = n / gcd(a, b, n), so its least positive z is
    z1 = D / c1, and h1 = (y1, z1) with y1 in [0, c1) makes (h0, h1) a
    basis. Each step h' = k*h - h_prev with k = ceil(y_prev / y) keeps a
    basis and the least y >= 0, so k >= 2 and every h is a vertex of
    the convex hull of the nonzero points; the walk ends on the z-axis
    at (0, c2). The work is one step per generator.
    """
    lat = oct.lattice
    if lat.r != 3:
        raise UnsupportedArityError(
            "Hilbert bases are only computed for three steps", r=lat.r
        )
    negs = [i for i, s in enumerate(oct.signs) if s < 0]
    if len(negs) in (0, 3):
        return HilbertBasis(oct, ())
    if len(negs) == 2:
        inner = hilbert_basis(octant(lat, vec_neg(oct.signs)))
        return HilbertBasis(oct, tuple(sorted(vec_neg(a) for a in inner.elements)))
    j = negs[0]
    p1, p2 = [i for i in range(3) if i != j]
    n = lat.net.n
    s = lat.net.steps
    alpha, beta = (s[p1] - s[j]) % n, (s[p2] - s[j]) % n
    g = gcd(n, alpha)
    c1 = n // g
    z1 = g // gcd(g, beta)
    # alpha*y1 = -beta*z1 (mod n), solved in the units mod c1
    y1 = -beta * z1 // g * pow(alpha // g, -1, c1) % c1
    walk = [(c1, 0), (y1, z1)]
    while walk[-1][0]:
        (y0, z0), (y, z) = walk[-2:]
        k = -(-y0 // y)
        walk.append((k * y - y0, k * z - z0))
    elements = []
    for y, z in walk:
        a = [0, 0, 0]
        a[p1], a[p2], a[j] = y, z, -(y + z)
        elements.append(tuple(a))
    return HilbertBasis(oct, tuple(sorted(elements)))


def _octant_norms(lat: HomogeneousLattice):
    """Per single-negative sign pattern, the Hilbert basis of its octant
    as a dict from each generator to its 1-norm, in basis order."""
    return {
        s: {b: norm1(b) for b in hilbert_basis(OctantSemigroup(lat, s)).elements}
        for s in SINGLE_NEGATIVE_SIGNS
    }
