"""Definition-level oracles, independent of the library's algorithms.

These recompute expected values the slow way (plain BFS, exhaustive
vector scans, product enumeration with the full down-closure check) so
the fast paths can be pinned against them.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, prod


def bfs_distances(n: int, steps) -> list[int]:
    """Plain breadth-first search on the digraph adjacency."""
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for s in steps:
            u = (v + s) % n
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def stats_by_hilbert_function(leads) -> tuple[int, int, int]:
    """(vertices, diameter, total distance) of the staircase of the
    monomial ideal of three variables generated by leads, which must
    hold a pure power of each, by degree alone: its Hilbert function
    h(d), the standard monomials of degree d, is the sum over the
    subsets S of leads of (-1)^|S| C(d - |lcm S| + 2, 2), by
    inclusion-exclusion over the monomials of degree d each lcm divides
    (Bayer-Stillman, "Computation of Hilbert functions", 1992). No
    monomial is listed, but every subset is, so keep to a few leads.
    For the leads of a graded basis of I_L these are the vertices of
    the network, its diameter and its total distance."""
    numerator = Counter()
    for k in range(len(leads) + 1):
        for subset in combinations(leads, k):
            numerator[sum(map(max, zip((0, 0, 0), *subset)))] += (-1) ** k
    terms = [(e, c) for e, c in sorted(numerator.items()) if c]
    vertices = total = d = 0
    while h := sum(c * comb(d - e + 2, 2) for e, c in terms if e <= d):
        vertices, total, d = vertices + h, total + d * h, d + 1
    return vertices, d - 1, total


def vectors_of_norm_at_most(r: int, bound: int):
    """All vectors in N^r with coordinate sum at most bound."""
    if r == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in vectors_of_norm_at_most(r - 1, bound - head):
            yield (head,) + tail


def minimal_paths_by_scan(n: int, steps):
    """Distances and complete minimal path sets via exhaustive scan."""
    dist = bfs_distances(n, steps)
    bound = max(dist)
    r = len(steps)
    by_vertex: dict[int, list] = {v: [] for v in range(n)}
    for a in vectors_of_norm_at_most(r, bound):
        v = sum(c * s for c, s in zip(a, steps)) % n
        if sum(a) == dist[v]:
            by_vertex[v].append(a)
    return dist, [sorted(by_vertex[v]) for v in range(n)]


def is_down_closed(image: set, r: int) -> bool:
    """Full definition: every coordinate-wise smaller vector is present."""
    for a in image:
        for b in product(*(range(c + 1) for c in a)):
            if b not in image:
                return False
    return True


def brute_force_mdds(n: int, steps, cap: int = 2_000_000):
    """All diagrams by filtering the full product of routing choices.

    Independent of the backtracking enumerator: candidates satisfy the
    minimality condition by construction, the image is tested against
    the literal down-closure definition.
    """
    dist, paths = minimal_paths_by_scan(n, steps)
    total = prod(len(p) for p in paths)
    if total > cap:
        raise ValueError(f"product {total} exceeds oracle cap {cap}")
    r = len(steps)
    found = []
    for choice in product(*paths):
        if is_down_closed(set(choice), r):
            found.append(tuple(choice))
    return sorted(found)


def indecomposable_filter(points):
    """Hilbert basis by definition: no splitting into two nonzero points."""
    pset = set(points)
    out = []
    for a in points:
        splittable = False
        for b in points:
            if b != a and tuple(x - y for x, y in zip(a, b)) in pset:
                splittable = True
                break
        if not splittable:
            out.append(a)
    return sorted(out)


def single_negative_octant_points(n: int, steps, signs, bound: int):
    """Nonzero points of a three-step single-negative octant, 1-norm <= bound.

    A point has the sign pattern (zeros allowed), sums to zero and
    reaches vertex 0. Its negative entry a_j is minus the sum of the
    two others, a_p = y and a_q = z, so its 1-norm is 2(y + z) and it
    reaches y(s_p - s_j) + z(s_q - s_j): scanning y and z is exhaustive.
    """
    j = signs.index(-1)
    p, q = [i for i in range(3) if i != j]
    dp, dq = steps[p] - steps[j], steps[q] - steps[j]
    out = []
    for y in range(bound // 2 + 1):
        for z in range(bound // 2 + 1 - y):
            if (y or z) and (y * dp + z * dq) % n == 0:
                a = [0, 0, 0]
                a[p], a[q], a[j] = y, z, -(y + z)
                out.append(tuple(a))
    return sorted(out)


def rays_screened_by_points(n: int, steps) -> dict:
    """Candidate rays of a three-step network by the one-sided screening.

    In each single-negative octant the Hilbert generators are the
    indecomposable points of 1-norm at most 2(c_p + c_q), where c_p is
    the least positive multiple of (s_p - s_j) that is 0 mod n: every
    generator lies in the parallelogram spanned by the two boundary
    minima. Each generator a gives the two primitive sum-zero rays
    orthogonal to it; a ray is kept when every octant point of 1-norm at
    most ||a|| has a nonnegative product with it. Returns each kept ray
    with the sorted generators that gave it.
    """
    found: dict = {}
    for j in range(3):
        signs = tuple(-1 if i == j else 1 for i in range(3))
        p, q = [i for i in range(3) if i != j]
        bound = sum(2 * n // gcd(n, steps[i] - steps[j]) for i in (p, q))
        points = single_negative_octant_points(n, steps, signs, bound)
        for a in indecomposable_filter(points):
            size = sum(map(abs, a))
            nearby = [b for b in points if sum(map(abs, b)) <= size]
            d = (a[1] - a[2], a[2] - a[0], a[0] - a[1])
            g = gcd(*d)
            d = tuple(c // g for c in d)
            for ray in (d, tuple(-c for c in d)):
                if all(sum(map(prod, zip(ray, b))) >= 0 for b in nearby):
                    found.setdefault(ray, set()).add(a)
    return {ray: tuple(sorted(sources)) for ray, sources in found.items()}


def octant_points_by_box_scan(n: int, steps, signs, bound: int):
    """Nonzero octant points of 1-norm <= bound, any sign pattern.

    Scans the whole box [-bound, bound]^r and keeps the vectors with
    the sign pattern (zeros allowed) that sum to zero and reach vertex 0.
    """
    out = []
    for a in product(range(-bound, bound + 1), repeat=len(steps)):
        if (
            any(a)
            and sum(a) == 0
            and sum(map(abs, a)) <= bound
            and all(s * c >= 0 for s, c in zip(signs, a))
            and sum(c * s for c, s in zip(a, steps)) % n == 0
        ):
            out.append(a)
    return sorted(out)


def generates(point, generators, signs) -> bool:
    """Whether a point is a nonnegative integer combination of generators.

    Memoized subtraction search staying inside the sign orthant.
    """
    seen = {}

    def inside(v):
        return all(s * c >= 0 for s, c in zip(signs, v))

    def rec(v):
        if not any(v):
            return True
        if v in seen:
            return seen[v]
        seen[v] = False
        for g in generators:
            w = tuple(x - y for x, y in zip(v, g))
            if inside(w) and rec(w):
                seen[v] = True
                break
        return seen[v]

    return rec(tuple(point))


def mdds_by_backtracking(n: int, steps):
    """All diagrams by backtracking, for networks too big for the product.

    Independent of the library's enumerator: the routing table comes
    from minimal_paths_by_scan. Vertices are taken in (distance, vertex)
    order; a routing is kept only if every vector one arc below it is
    the cell already chosen for its vertex (that vertex is nearer, so it
    was assigned first). Each complete choice is then tested against the
    literal down-closure definition.
    """
    dist, paths = minimal_paths_by_scan(n, steps)
    order = sorted(range(n), key=lambda v: (dist[v], v))
    r = len(steps)
    cells: list = [None] * n
    found = []

    def extend(pos):
        if pos == n:
            choice = tuple(cells)
            if is_down_closed(set(choice), r):
                found.append(choice)
            return
        v = order[pos]
        for a in paths[v]:
            if all(
                cells[(v - steps[j]) % n] == a[:j] + (a[j] - 1,) + a[j + 1:]
                for j in range(r)
                if a[j]
            ):
                cells[v] = a
                extend(pos + 1)
        cells[v] = None

    extend(0)
    return sorted(found)


def mdds_by_plain_dfs(net, budget=None):
    """The enumerator's search as a plain depth-first loop.

    Places are taken in (distance, vertex) order; after every leaf or
    dead end the search backtracks to the deepest place with another
    option and enters every later place afresh, recomputing its options
    from the cells one arc below. Cells are packed as the library packs
    them: n.bit_length() + 1 bits per coordinate, first coordinate
    highest. Returns (leaves in search order, each a tuple of cells by
    vertex; per leaf, its gapset: the packed differences of every option
    from the chosen cell at each place with more than one option, zero
    left out; visits: the route counts of every place entered; dead
    ends: the places entered with no option). With a budget, returns
    None as soon as the visits exceed it.
    """
    n, r = net.n, net.r
    dist, paths = minimal_paths_by_scan(n, net.steps)
    counts = list(map(len, paths))
    order = sorted(range(n), key=dist.__getitem__)
    width = n.bit_length() + 1
    mask = (1 << width) - 1
    shifts = [width * (r - 1 - j) for j in range(r)]
    checks = [(s, shift, 1 << shift) for s, shift in zip(net.steps, shifts)]
    arcs = [(s, unit, unit << width, checks[j + 1:]) for j, (s, _, unit) in enumerate(checks)]
    cells = [0] * n
    kids = [[0]] * n
    nxt = [0] * n
    forks = []
    leaves, gapsets = [], []
    visits = dead_ends = 0
    pos = 0
    while pos >= 0:
        if pos == n:
            leaves.append(tuple(tuple(c >> s & mask for s in shifts) for c in cells))
            gapsets.append({c - cells[order[p]] for p in forks for c in kids[p]} - {0})
            pos -= 1
            continue
        i = order[pos]
        k = nxt[pos]
        if not k:
            visits += counts[i]
            if budget is not None and visits > budget:
                return None
            if pos:
                below = dist[i] - 1
                options = kids[pos] = []
                for s, unit, top, later in arcs:
                    v = i - s
                    if dist[v] != below:
                        continue
                    cand = cells[v] + unit
                    if cand >= top:
                        continue
                    for t, shift, u in later:
                        if cand >> shift & mask and cells[i - t] != cand - u:
                            break
                    else:
                        options.append(cand)
                if len(options) > 1:
                    forks.append(pos)
                dead_ends += not options
        options = kids[pos]
        if k < len(options):
            nxt[pos] = k + 1
            cells[i] = options[k]
            pos += 1
        else:
            nxt[pos] = 0
            if k > 1:
                forks.pop()
            pos -= 1
    return leaves, gapsets, visits, dead_ends


def coherent_cells_by_definition(
    n: int, steps, w, tie_policy: str = "error", paths=None
):
    """Least-weight minimal routing per vertex, read off the definition.

    Weights are compared exactly and unscaled, as ints or Fractions. The
    routings of a
    vertex are taken in lexicographic order (minimal_paths_by_scan
    sorts them). With tie_policy="error", routing j of a vertex ties
    when its weight equals the least weight of routings 0..j-1; the
    first such routing, over vertices in order, is returned as
    ("tie", (vertex, earliest routing of that least weight, routing j)).
    Otherwise ("cells", cells), where each vertex takes the earliest
    routing of least weight (with "lex" this is the tie-break). paths,
    when given, must be the routing lists of minimal_paths_by_scan.
    """
    w = [x if isinstance(x, int) else Fraction(x) for x in w]
    if paths is None:
        _, paths = minimal_paths_by_scan(n, steps)
    cells = []
    for v, routes in enumerate(paths):
        weights = [sum(x * c for x, c in zip(w, a)) for a in routes]
        if tie_policy == "error":
            for j in range(1, len(routes)):
                least = min(weights[:j])
                if weights[j] == least:
                    return "tie", (v, routes[weights.index(least)], routes[j])
        cells.append(routes[weights.index(min(weights))])
    return "cells", tuple(cells)


def staircase_generators_by_box_scan(cells):
    """Minimal generators of the complement of a diagram's image.

    Scans the whole box of side one above the largest coordinate: a
    point is a generator iff it lies outside the image and each of its
    one-step decrements lies inside.
    """
    image = set(cells)
    r = len(cells[0])
    bounds = [max(cell[j] for cell in cells) + 1 for j in range(r)]
    gens = []
    for g in product(*(range(b + 1) for b in bounds)):
        if g in image:
            continue
        if all(g[:j] + (g[j] - 1,) + g[j + 1:] in image for j in range(r) if g[j]):
            gens.append(g)
    return tuple(sorted(gens))


def standard_monomial_count(leads):
    """How many monomials of three variables no lead divides.

    The standard monomials (x0, x1, t) of one column are those with t
    below the least l2 of a lead with l0 <= x0 and l1 <= x1. Columns
    are scanned over the box below the pure powers of x0 and x1, and
    that least l2 is carried from the columns (x0 - 1, x1) and
    (x0, x1 - 1). Raises ValueError when a pure power is missing, since
    then the count is infinite.
    """
    pure = []
    for j in range(3):
        powers = [l[j] for l in leads if sum(l) == l[j]]
        if not powers:
            raise ValueError(f"no pure power of x{j}: infinitely many monomials")
        pure.append(min(powers))
    b0, b1, b2 = pure
    own = {}
    for l0, l1, l2 in leads:
        own[l0, l1] = min(l2, own.get((l0, l1), b2))
    total = 0
    below = [b2] * b1  # least l2 per x1 over the columns x0' <= x0 - 1
    for x0 in range(b0):
        least = b2
        for x1 in range(b1):
            least = min(least, below[x1], own.get((x0, x1), b2))
            below[x1] = least
            total += least
    return total


def coherent_diagrams_by_sectors(n: int, steps, representatives, paths=None):
    """The cells of every coherent diagram of a three-step network, with
    no cone solver, given one weight inside each sector of its fan.

    A diagram is coherent when some weight makes each of its cells the
    strictly lightest routing of its vertex; that weight can be moved
    off the walls, into an open sector, without changing the diagram,
    and every weight of a sector gives the same diagram. So a diagram
    is coherent iff it is the least-weight diagram of one of the
    representatives, read off the definition (coherent_cells_by_definition).
    """
    if paths is None:
        _, paths = minimal_paths_by_scan(n, steps)
    found = set()
    for w in representatives:
        kind, cells = coherent_cells_by_definition(n, steps, w, paths=paths)
        assert kind == "cells", (n, steps, w)
        found.add(cells)
    return found


def enumeration_payload(net, mode: str, result) -> dict:
    """The `mdd enumerate` document as plain values, in its field order:
    the reference serialize.enumeration_json must write byte for byte
    when json.dumps encodes this with compact separators."""
    return {
        "network": {"n": net.n, "steps": list(net.steps)},
        "mode": mode,
        "mdd_count": len(result.mdds),
        "routing_choice_count": result.routing_choice_count,
        "mdds": [[list(cell) for cell in m.cells] for m in result.mdds],
    }


def net_info_payload(net, dist, counts) -> dict:
    """The `net info` document as plain values, in its field order: the
    reference serialize.net_info_json must write byte for byte when
    json.dumps encodes this with compact separators."""
    mean = Fraction(sum(dist), net.n)
    return {
        "network": {"n": net.n, "steps": list(net.steps)},
        "diameter": max(dist),
        "average_distance": {"num": mean.numerator, "den": mean.denominator},
        "dist": list(dist),
        "route_counts": list(counts),
    }


def brute_force_counts_by_decoding(net, enumerate_mdds, is_coherent) -> tuple[int, int]:
    """(all diagrams, coherent diagrams) of the network the long way:
    enumerate_mdds in mode "all", every diagram decoded, and the full
    is_coherent, witness and refutation, run on each. The library's two
    functions are passed in, as this module imports none of it.
    verify_family must count the same from one coherent_only search."""
    mdds = enumerate_mdds(net, "all").mdds
    return len(mdds), sum(1 for m in mdds if is_coherent(m).coherent)
