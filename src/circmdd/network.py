"""Circulant digraphs and their exact minimal-routing tables.

A network C_n(s_1, ..., s_r) has vertices Z_n and an arc i -> i + s_l
for every step. A routing to vertex i is a vector a in N^r with
sum(a_l * s_l) = i mod n; its length is the coordinate sum.

Each arity has one distance kernel, and _kernel chooses it: the
L-shaped tile of a graded basis for two steps, in one pass
(_tile_distances_and_counts), the graded staircase for three
(groebner._distances_and_counts), and a breadth-first search with a
count pass (_bfs_levels, _count_routes) for one step, for four or more
and for steps that do not generate Z_n. distances takes the same
kernels, and of the staircase its distance half alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import (
    ArityMismatchError,
    DisconnectedError,
    DuplicateStepError,
    ZeroStepError,
)
from .groebner import _buchberger, _distances_and_counts, _staircase

PathVector = tuple[int, ...]


class CirculantNetwork(NamedTuple):
    """A circulant digraph, steps stored reduced mod n in input order."""

    n: int
    steps: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return f"C{self.n}({','.join(map(str, self.steps))})"


class _CellStore(dict):
    """Routing tuples by packed code, each decoded on first use.

    Codes are laid out as packed_width says, the one layout of the
    library: one field per coordinate, first coordinate highest. The
    diagrams of build_coherent_mdd on one network share one store, and
    so do those of one enumerate_mdds result, so equal cells are one
    tuple.
    """

    def __init__(self, n: int, r: int):
        width = packed_width(n)
        self.bits = width * r  # every code lies below 1 << bits
        self.mask, self.shifts = _packed_fields(width, r)

    def __missing__(self, code: int) -> PathVector:
        fields = map(self.mask.__and__, map(code.__rshift__, self.shifts))
        cell = self[code] = tuple(fields)
        return cell


class _TableFields(NamedTuple):
    net: CirculantNetwork
    dist: tuple[int, ...]


class DistanceTable(_TableFields):
    """Distances from vertex 0, and what is derived from them on demand.

    levels (the vertices by distance), cells and the tail bits of the
    routing walk are cached on the instance when first read, in the
    __dict__ that this subclass of the two fields has, so they live and
    die with the table (and with distance_table's cache); they take no
    part in equality, which compares net and dist. routings(i) lists one
    vertex's minimal routings; no whole routing table is kept.
    """

    @cached_property
    def cells(self) -> _CellStore:
        """The routing tuples of the diagrams built on this network."""
        return _CellStore(self.net.n, self.net.r)

    def routings(self, i: int) -> tuple[PathVector, ...]:
        """The minimal routings of vertex i, sorted lexicographically.

        Two and three steps take the coset walk of _routings, which needs
        no array beside dist. Other arities walk the coordinates in order
        (_walk), guided by the tail bits.
        """
        if self.net.r in (2, 3):
            return _routings(self.net, i, self.dist[i])
        return tuple(_walk(self.net.steps, self.dist, self._tails, i, 0))

    @cached_property
    def _tails(self) -> tuple[bytes, ...]:
        """tails[m][i] is 1 when vertex i has a minimal routing over the
        steps m + 1, ..., r - 1 alone, that is a nonzero route_counts
        over those steps: r - 1 bytes objects of length n, from one count
        over the steps r - 1 down to 1 (route counts do not depend on the
        order the steps are taken in)."""
        steps, dist = self.net.steps, self.dist
        tails = []
        _count_routes(steps[:0:-1], dist, self.levels, tails)
        return tuple(reversed(tails))

    @cached_property
    def levels(self) -> list[list[int]]:
        """The vertices grouped by distance, in vertex order (_levels_of)."""
        return _levels_of(self.dist)


def _routings(net: CirculantNetwork, i: int, d: int) -> tuple[PathVector, ...]:
    """The routings of length d of vertex i of a two- or three-step
    network, sorted lexicographically; its minimal routings when d is
    its distance.

    For three steps they are the (x, y, d - x - y) that reach i, that is
    x(s0 - s2) + y(s1 - s2) = i - d s2 (mod n). For each x in 0..d the
    solutions y form one residue class mod n / g, g = gcd(s1 - s2, n),
    so the walk takes O(d) steps plus one per routing, already in
    lexicographic order. Two steps, named s1 and s2, take one such
    class: the (y, d - y) with y(s1 - s2) = i - d s2.
    """
    n = net.n
    s1, s2 = net.steps[-2:]
    b = (s1 - s2) % n
    g = math.gcd(b, n)
    m = n // g
    inv = pow(b // g, -1, m)
    rhs = (i - d * s2) % n
    if net.r == 2:
        if rhs % g:
            return ()
        return tuple((y, d - y) for y in range(rhs // g * inv % m, d + 1, m))
    a = (net.steps[0] - s2) % n
    found = []
    for x in range(d + 1):
        if not rhs % g:
            for y in range(rhs // g * inv % m, d - x + 1, m):
                found.append((x, y, d - x - y))
        rhs -= a
        if rhs < 0:
            rhs += n
    return tuple(found)


def _walk(steps, dist, tails, v: int, m: int):
    """Coordinates m, ..., r - 1 of the minimal routings of vertex v
    over the steps m, ..., r - 1, in lexicographic order.

    Coordinate m takes a = 0, 1, ... while dist[v - a * s_m] == dist[v] - a
    (a sub-routing of a minimal routing is minimal, so this fails for
    every larger a once it fails), and the walk goes deeper only where
    the tail bit says the later steps can route the rest. The last
    coordinate is the distance left.
    """
    d = dist[v]
    if m == len(tails):
        yield (d,)
        return
    n = len(dist)
    s = steps[m]
    tail = tails[m]
    for a in range(d + 1):
        u = (v - a * s) % n
        if dist[u] != d - a:
            break
        if tail[u]:
            for rest in _walk(steps, dist, tails, u, m + 1):
                yield (a, *rest)


def packed_width(n: int) -> int:
    """Bits per coordinate field of packed routing codes, first
    coordinate highest: the one code layout of the library, in which
    enumerate_mdds and is_coherent pack cells and _CellStore decodes
    them (for build_coherent_mdd and enumerate_mdds results alike).

    Coordinates of minimal routings are below n, so n.bit_length() bits
    hold them without carry and integer order is lexicographic order;
    the one spare bit lets a difference of two codes, whose fields lie
    in (-n, n), decode uniquely.
    """
    return n.bit_length() + 1


def _packed_fields(width: int, r: int) -> tuple[int, tuple[int, ...]]:
    """(mask, shifts) of packed codes of r fields of the given width:
    field j of a code c is c >> shifts[j] & mask."""
    return (1 << width) - 1, tuple(width * (r - 1 - j) for j in range(r))


def build_network(n: int, steps) -> CirculantNetwork:
    """Validate (n, steps) and return the normalized network.

    Steps are reduced mod n and must be nonzero, pairwise distinct and
    jointly coprime with n (strong connectivity).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"network size must be a positive integer, got {n!r}")
    steps = [int(s) for s in steps]
    if not steps:
        raise ValueError("at least one step is required")
    reduced = tuple(s % n for s in steps)
    for pos, (orig, red) in enumerate(zip(steps, reduced)):
        if red == 0:
            raise ZeroStepError(
                f"step {orig} is 0 mod {n}", step=orig, position=pos, n=n
            )
    seen: dict[int, int] = {}
    for pos, red in enumerate(reduced):
        if red in seen:
            raise DuplicateStepError(
                f"steps at positions {seen[red]} and {pos} are equal mod {n}",
                positions=[seen[red], pos],
                step=red,
                n=n,
            )
        seen[red] = pos
    if math.gcd(n, *reduced) != 1:
        raise DisconnectedError(
            f"gcd of steps and {n} is {math.gcd(n, *reduced)}; network is disconnected",
            gcd=math.gcd(n, *reduced),
            n=n,
        )
    return CirculantNetwork(n, reduced)


def vertex_of(net: CirculantNetwork, a) -> int:
    """The vertex reached from 0 by the routing vector a."""
    if len(a) != net.r:
        raise ArityMismatchError(
            f"vector has {len(a)} coordinates, network has {net.r} steps",
            expected=net.r,
            got=len(a),
        )
    return sum(c * s for c, s in zip(a, net.steps)) % net.n


def active_kernel(net: CirculantNetwork) -> str:
    """Which kernel lists the routings of DistanceTable for this network.

    There is one, the per-vertex walk of DistanceTable.routings, so the
    answer is always "pure-python"; the function stays for callers that
    report it.
    """
    return "pure-python"


@lru_cache(maxsize=64, typed=True)
def distance_table(net: CirculantNetwork) -> DistanceTable:
    """The distances of the network, from distances(net).

    Cached per network, with everything the table derives on demand:
    the tail bits of the routing walk, and the levels and the cell store
    that build_coherent_mdd reads. A network equals the plain tuple of
    its fields, so the cache is typed: a tuple never gets a network's
    table. No fan reads a table: its distances are normal-form degrees
    (groebner._graded_basis) and its sectors are keyed by Groebner lead
    sets, walls or not. The table is immutable and safe to share.
    """
    return DistanceTable(net, distances(net))


def distances(net: CirculantNetwork) -> tuple[int, ...]:
    """Distances from vertex 0, from the kernel _kernel picks: the
    graded staircase for three steps, without its count passes
    (groebner._staircase), the L-shaped tile for two, and the dist of
    _bfs_levels otherwise.

    O(n * r) and no routing is built; distance_table(net).dist is this,
    cached. Raises DisconnectedError when vertex 0 does not reach every
    vertex (only an unvalidated network can fail so).
    """
    if net.r == 3 and math.gcd(net.n, *net.steps) == 1:
        return tuple(_staircase(net)[0])
    return tuple(_kernel(net)[0] if net.r == 2 else _bfs_levels(net)[0])


def _kernel(net: CirculantNetwork):
    """(dist, counts) as distances and route_counts: for steps that
    generate Z_n, the staircase of three (groebner._distances_and_counts)
    or the tile of two (_tile_distances_and_counts); else _bfs_levels,
    which refuses a disconnected network, and _count_routes."""
    if math.gcd(net.n, *net.steps) == 1:
        if net.r == 2:
            return _tile_distances_and_counts(net)
        if net.r == 3:
            return _distances_and_counts(net)
    dist, levels = _bfs_levels(net)
    return dist, _count_routes(net.steps, dist, levels)


def _tile_distances_and_counts(net: CirculantNetwork):
    """(dist, counts) of a connected two-step network, as lists, as
    groebner._distances_and_counts gives them for three steps: read off
    the L-shaped tile (Wong-Coppersmith, J. ACM 1974; Fiol et al., IEEE
    Trans. Comput. 1987), the staircase of a graded basis, in one pass.

    With g = gcd(n, s_0), the vectors h_0 e_0 and h_1 e_1 - u e_0, for
    h_0 = n / g, h_1 = g / gcd(g, s_1) and the u in [0, h_0) that puts
    the second in L, generate I_L as groebner._lattice_ideal_basis's
    do; a zero third coordinate pads them for _buchberger and leads
    nothing. Name the steps x and z, z the one of larger pure-power
    lead, so that the runs are few and long. Each standard x^a starts a
    run of standard x^a z^k for k < h(a), the least l_z over the leads
    l with l_x <= a: the vertices a s_x + k s_z, at distances a + k,
    every arc tight.

    Counts follow route_counts with z taken last: count[v] is 1 when
    (dist[v], 0) reaches v, plus count[v - s_z] when that arc is tight.
    Along a run the first term is 1 where k (s_z - s_x) = 0 mod n, that
    is every m = n / gcd(n, s_z - s_x) vertices from its start. A tight
    arc into a run's start comes from a vertex at distance a - 1, whose
    run has a smaller a and is written already; a vertex not yet
    written has count 0, so its stale dist adds nothing.
    """
    n = net.n
    # first, so that an n too large to hold fails before anything else
    dist = [0] * n
    count = [0] * n
    s0, s1 = net.steps
    g = math.gcd(n, s0)
    h0, h1 = n // g, g // math.gcd(g, s1)
    u = h1 * s1 // g * pow(s0 // g, -1, h0) % h0
    leads = [e[:2] for e in _buchberger([(h0, 0, 0), (-u, h1, 0)], (-1, 1, 0))]
    pure = {j: e[j] for e in leads for j in (0, 1) if not e[1 - j]}
    iz = max(pure, key=pure.get)
    sx, sz = net.steps[1 - iz], net.steps[iz]
    leads = [(e[1 - iz], e[iz]) for e in leads]
    m = n // math.gcd(n, sz - sx)
    # v = a s_x, the start of run a; the pure power of z passes the
    # filter for every a, so min() has a list
    v = a = 0
    while h := min([lz for lx, lz in leads if lx <= a]):
        # v - s_z lies in (-n, n), and a negative index wraps
        c = count[v - sz] if dist[v - sz] == a - 1 else 0
        w = v
        # the run's start and every m-th vertex after it are on the x-chain
        for lap in range(a, a + h, m):
            c += 1
            for d in range(lap, min(lap + m, a + h)):
                dist[w] = d
                count[w] = c
                w += sz
                if w >= n:
                    w -= n
        v += sx
        if v >= n:
            v -= n
        a += 1
    return dist, count


def _bfs_levels(net: CirculantNetwork) -> tuple[list[int], list[list[int]]]:
    """(dist, levels): a breadth-first search from vertex 0, one distance
    level at a time; levels[d] lists the vertices at distance d, in the
    order the search reached them."""
    n = net.n
    dist = [-1] * n
    dist[0] = 0
    level = [0]
    levels = [level]
    reached = 1
    while True:
        d = len(levels)
        found = []
        for s in net.steps:
            # v + s - n lies in [-n, n), and a negative index wraps
            t = s - n
            for v in level:
                u = v + t
                if dist[u] < 0:
                    if u < 0:
                        u += n
                    dist[u] = d
                    found.append(u)
        if not found:
            break
        levels.append(found)
        reached += len(found)
        level = found
    if reached < n:
        raise DisconnectedError(f"vertex 0 reaches {reached} of {n} vertices", n=n)
    return dist, levels


def _count_routes(steps, dist, levels, tails=None) -> tuple[int, ...]:
    """route_counts over the given steps, from dist and its levels
    (levels[d] the vertices at distance d, in any order). With a list
    for tails, the nonzero bits of the counts after each step are
    appended to it, as bytes."""
    count = [0] * len(dist)
    count[0] = 1
    for s in steps:
        # level d + 1 after level d, so count[v] is final for this step
        for below, level in enumerate(levels[1:]):
            for i in level:
                # i - s lies in (-n, n), and a negative index wraps
                v = i - s
                if dist[v] == below:
                    count[i] += count[v]
        if tails is not None:
            tails.append(bytes(map(bool, count)))
    return tuple(count)


def _levels_of(dist) -> list[list[int]]:
    """The vertices grouped by distance, as _bfs_levels lists them but in
    vertex order within each level: one pass over the vertices."""
    levels = [[] for _ in range(max(dist) + 1)]
    add = [level.append for level in levels]
    for i, d in enumerate(dist):
        add[d](i)
    return levels


def route_counts(net: CirculantNetwork, dist) -> tuple[int, ...]:
    """The number of minimal routings of every vertex, from dist alone.

    dist is distances(net), or those of a network whose steps include
    net's (DistanceTable._tails counts so over the later steps alone).
    After the steps s_0, ..., s_m have been taken, count[i] is the
    number of minimal routings a of i with a_j = 0 for every j > m. Any
    sub-vector of a minimal routing is minimal, so the routings with
    a_m > 0 are exactly e_m plus one of those counted for i - s_m, and
    there are some only when dist[i - s_m] == dist[i] - 1. Taking the
    vertices level by level, each step adds

        count[i] += count[i - s_m]  if dist[i - s_m] == dist[i] - 1,

    from count[0] = 1 and every other count 0: r integer terms per
    vertex (_count_routes). Equal to len(distance_table(net).routings(i))
    for every vertex i. The levels come from one pass over dist
    (_levels_of); a caller that holds them (those of _bfs_levels or
    DistanceTable.levels, say) calls _count_routes with them.
    """
    return _count_routes(net.steps, dist, _levels_of(dist))


def network_stats(net: CirculantNetwork) -> tuple[int, Fraction]:
    """Diameter and exact average distance from vertex 0."""
    dist = distances(net)
    return max(dist), Fraction(sum(dist), net.n)
