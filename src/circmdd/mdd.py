"""Minimum distance diagrams: construction, validation, enumeration.

A diagram assigns to every vertex one minimal routing vector such that
the image is down-closed in N^r (every coordinate-wise smaller vector is
the cell of its own vertex). Down-closed images are exactly complements
of monomial ideals, which is what the staircase generators of
staircase.py describe.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, count
from math import gcd, lcm, prod
from operator import eq, mul
from typing import NamedTuple

from .coherence import _directions, _has_solution
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    InternalInconsistencyError,
    MalformedDocumentError,
    NotDownClosedError,
    NotMinimalError,
    UnsupportedArityError,
    WeightTieError,
    WrongVertexError,
)
from .intlin import primitive, vec_scale
from .network import (
    CirculantNetwork,
    PathVector,
    _CellStore,
    _count_routes,
    _kernel,
    _levels_of,
    _packed_fields,
    _routings,
    distance_table,
    packed_width,
    vertex_of,
)

DEFAULT_ENUMERATION_BUDGET = 10_000_000


class Mdd(NamedTuple):
    """A validated minimum distance diagram, cells indexed by vertex."""

    net: CirculantNetwork
    cells: tuple[PathVector, ...]

    @property
    def image(self) -> frozenset[PathVector]:
        return frozenset(self.cells)


class _EnumerationFields(NamedTuple):
    net: CirculantNetwork
    leaves: tuple[tuple[int, ...], ...]
    routing_choice_count: int
    found: int


class EnumerationResult(_EnumerationFields):
    """Diagrams as enumerate_mdds finds them: leaves holds each one's
    cells by vertex as packed codes (see packed_width), sorted; found
    counts the search's leaves before any coherence filter. mdds, cached
    and not a field, decodes every diagram on first read, through a
    _CellStore that turns each distinct code into one shared tuple:
    enumeration_json writes the leaves without it."""

    @cached_property
    def mdds(self) -> tuple[Mdd, ...]:
        get = _CellStore(self.net.n, self.net.r).__getitem__
        return tuple(Mdd(self.net, tuple(map(get, leaf))) for leaf in self.leaves)


def build_coherent_mdd(net: CirculantNetwork, w, tie_policy: str = "error") -> Mdd:
    """Diagram selecting, per vertex, the minimal routing of least weight.

    Weights may be ints or Fractions and matter only up to positive
    scaling and shifts by multiples of (1, ..., 1). The result is
    defined by a scan of the routings of each vertex in lexicographic
    order, keeping the least weight seen so far. With tie_policy="error"
    a routing whose weight equals that running least raises
    WeightTieError, naming the routing held and the tied one, at the
    first vertex where this happens; the raise happens even when a later
    routing is lighter than both, and a routing heavier than the running
    least never raises, whatever it ties with. With "lex" the earlier
    routing wins every tie, which refines the weight order into a
    genuine graded order, so the result is always a valid diagram.

    How it is computed: "weight, then lexicographic" is a total order on
    routings that respects addition, so the least routing of a vertex
    minus one arc is the least routing of the vertex that arc leads back
    to. The least routing of every vertex therefore comes from those of
    its predecessors one level closer to 0, by dynamic programming over
    the distance levels; each routing is carried as one integer key,
    weight above the packed routing code. This is the "lex" result, and
    also the "error" result whenever that does not raise, since then
    every least weight is unique. The scan itself runs only where a tie
    can happen (see _first_tie), on routings walked per vertex, and each
    cell is decoded once per network and shared (DistanceTable.cells).
    """
    if tie_policy not in ("error", "lex"):
        raise ValueError(f"tie_policy must be 'error' or 'lex', got {tie_policy!r}")
    w, iw = _integer_weights(net, w)
    table = distance_table(net)
    if tie_policy == "error":
        tie = _first_tie(table, iw)
        if tie is not None:
            i, best, a = tie
            raise WeightTieError(
                f"weight {w} does not separate minimal routings {best} and {a} to vertex {i}",
                vertex=i, first=list(best), second=list(a),
            )
    return Mdd(net, _least_routings(table, iw))


def _integer_weights(net, w):
    """(w as a tuple, w scaled to integers by a positive scale, which
    keeps their order and ties)."""
    w = tuple(Fraction(x) if not isinstance(x, int) else x for x in w)
    if len(w) != net.r:
        raise ArityMismatchError(
            f"weight has {len(w)} entries, network has {net.r} steps", expected=net.r, got=len(w)
        )
    scale = lcm(*(x.denominator for x in w))
    return w, tuple(x.numerator * (scale // x.denominator) for x in w)


def _least_routings(table, iw) -> tuple[PathVector, ...]:
    """Per vertex, its least routing by weight, then lex.

    Dynamic programming over table.levels: the key of a routing is its
    weight shifted above its packed code, so keys add like routings and
    compare by weight, then lex, and the key of vertex i is the least
    keys[i - s_j] + key(e_j); a predecessor not one level down is still
    unset (absent). table.cells turns each code into its shared tuple.
    """
    net, dist = table
    store = table.cells
    codebits = store.bits
    units = [(x << codebits) + (1 << s) for x, s in zip(iw, store.shifts)]
    levels = table.levels
    # heavier than any key of a routing, plus any arc
    absent = (sum(map(abs, iw)) * len(levels) + 1) << codebits
    keys = [absent] * len(dist)
    keys[0] = 0
    get = keys.__getitem__
    arcs = [((-s).__add__, u.__add__) for s, u in zip(net.steps, units)]
    for level in levels[1:]:
        # i - s lies in (-n, n), and a negative index wraps
        arms = [map(add, map(get, map(back, level))) for back, add in arcs]
        # all of a level's keys are read before any of them is set
        for i, key in zip(level, list(map(min, *arms) if net.r > 1 else arms[0])):
            keys[i] = key
    code = (1 << codebits) - 1
    return tuple(map(store.__getitem__, map(code.__and__, keys)))


def _first_tie(table, iw):
    """The first raise of the lexicographic scan, or None.

    For three steps and iw not parallel to (1, 1, 1), every sum-zero
    vector orthogonal to iw is a multiple of the shortest lattice vector
    e on the line through (w1 - w2, w2 - w0, w0 - w1), so two routings
    of one vertex tie exactly when they differ by a multiple k*e. The
    proof below takes e lexicographically positive. The code need not:
    e is sum-zero and in the lattice, so e+ and e- reach one vertex in
    as many arcs, and u and |e+| are all it reads (_tie_at_u does not
    orient e). Let u = vertex(e+). Then:

    - Vertex i has two routings that differ by some k*e exactly when it
      has two that differ by e (the later one covers e+ and can trade it
      for e-), that is when dist[i] - |e+| == dist[i - u]. Only those
      vertices can raise, and none can unless e+ is minimal.
    - Some vertex raises only if u raises. A raise at a vertex i, held b
      and tied a = b + k*e with a_j and b_j both positive, gives one at
      i - s_j: a - e_j ties b - e_j there, and anything lighter before
      a - e_j would, plus e_j, be lighter than a before a. Descending,
      the raise reaches the pair (k*e-, k*e+), and then u raises:
      anything lighter than e+ before e+ would, plus (k-1)*e+, be
      lighter than k*e+ before k*e+.

    So the scan runs on u first (_tie_at_u), and only if u raises on
    every vertex with a tie pair, in vertex order. Two steps tie only if
    w0 == w1: routings of a vertex differ by multiples of (1, -1).
    Otherwise it runs on every vertex with two or more routings, by
    _kernel's counts for two steps.
    """
    net, dist = table
    if net.r == 2 and iw[0] != iw[1]:
        return None
    if net.r != 3 or iw[0] == iw[1] == iw[2]:
        counts = _kernel(net)[1] if net.r == 2 else _count_routes(net.steps, dist, table.levels)
        return _first_scan_tie(table.routings, (i for i, c in enumerate(counts) if c > 1), iw)
    tie = _tie_at_u(net, iw, lambda a: dist[vertex_of(net, a)])
    if tie is None:
        return None
    u, h = tie[0], sum(tie[1])
    shifted = dist[-u:] + dist[:-u]  # shifted[i] == dist[i - u]
    tied = compress(count(), map(eq, map((-h).__add__, dist), shifted))
    return _first_scan_tie(table.routings, tied, iw)


def _tie_at_u(net, iw, distance):
    """The tie of the lexicographic scan at u = vertex(e+), for three
    steps and the e of _first_tie: (u, routing held, tied routing), or
    None. build_coherent_mdd(net, iw) raises exactly when this finds one
    (_first_tie's proof). distance(a) is the distance of vertex(a), from
    dist or as a normal-form degree (groebner._degree, in the census).
    A weight parallel to (1, 1, 1) has no e and lies in no sector."""
    if iw[0] == iw[1] == iw[2]:
        raise InternalInconsistencyError(f"weight {iw} is parallel to (1, 1, 1)", weight=list(iw))
    w0, w1, w2 = iw
    line = primitive((w1 - w2, w2 - w0, w0 - w1))
    e = vec_scale(line, net.n // gcd(net.n, sum(map(mul, line, net.steps))))
    plus = tuple(max(c, 0) for c in e)  # e- would reach u at the same length
    h = sum(plus)
    if distance(plus) != h:
        return None
    return _first_scan_tie(lambda i: _routings(net, i, h), [vertex_of(net, plus)], iw)


def _first_scan_tie(routings, vertices, iw):
    """The first raise of the lexicographic scan over the given vertices,
    in the order given, each vertex i scanning routings(i): (vertex,
    routing held, tied routing), or None. See build_coherent_mdd for the
    rule."""
    # three steps take the inline dot, which is faster than the sum
    three = len(iw) == 3
    if three:
        w0, w1, w2 = iw
    for i in vertices:
        best = None
        for a in routings(i):
            if three:
                x, y, z = a
                val = w0 * x + w1 * y + w2 * z
            else:
                val = sum(map(mul, iw, a))
            if best is None or val < best_val:
                best, best_val = a, val
            elif val == best_val:
                return i, best, a
    return None


def validate_mdd(net: CirculantNetwork, cells) -> Mdd:
    """Check both diagram conditions and return the validated diagram.

    Reports the first violation: wrong vertex or wrong length per cell
    first, then the local down-closure check (each cell minus one arc
    must be the cell of the vertex it reaches, which by induction gives
    full down-closure of the image).
    """
    cells = tuple(tuple(int(c) for c in cell) for cell in cells)
    if len(cells) != net.n:
        raise MalformedDocumentError(
            f"expected {net.n} cells, got {len(cells)}", expected=net.n, got=len(cells)
        )
    dist = distance_table(net).dist
    for i, cell in enumerate(cells):
        if len(cell) != net.r:
            raise ArityMismatchError(
                f"cell of vertex {i} has {len(cell)} coordinates",
                expected=net.r, got=len(cell), vertex=i,
            )
        if any(c < 0 for c in cell):
            raise MalformedDocumentError(f"cell of vertex {i} has negative coordinates", vertex=i)
        if vertex_of(net, cell) != i:
            raise WrongVertexError(
                f"cell {cell} reaches vertex {vertex_of(net, cell)}, not {i}",
                vertex=i, reached=vertex_of(net, cell),
            )
        if sum(cell) != dist[i]:
            raise NotMinimalError(
                f"cell {cell} of vertex {i} has length {sum(cell)}, distance is {dist[i]}",
                vertex=i, length=sum(cell), distance=dist[i],
            )
    for i, cell in enumerate(cells):
        for j, c in enumerate(cell):
            if c == 0:
                continue
            v = (i - net.steps[j]) % net.n
            b = cell[:j] + (c - 1,) + cell[j + 1:]
            if cells[v] != b:
                raise NotDownClosedError(
                    f"removing one arc of step {net.steps[j]} from the cell of "
                    f"vertex {i} gives {b}, but vertex {v} holds {cells[v]}",
                    vertex=i, coordinate=j,
                )
    return Mdd(net, cells)


def enumerate_mdds(
    net: CirculantNetwork,
    mode: str = "all",
    budget: int | None = None,
) -> EnumerationResult:
    """All diagrams of the network by exhaustive backtracking.

    Places are the vertices in (distance, vertex) order, from the dist
    of network._kernel. A cell of vertex i minus one arc of step j is
    the cell of i - s_j, so each cell of i is cells[i - s_j] + e_j for a
    tight predecessor i - s_j (one level down), kept only if each of its
    one-arc predecessors is the cell chosen there (down-closure): at
    most r options, set by the cells of the tight predecessors (checked
    inline where three steps are all tight). Cells are packed into
    integers (see packed_width) and stay packed in the result, its leaves
    sorted by code (lexicographic order); its mdds decode on first read.

    The leaves are those of the depth-first search that takes option 0
    at each place it enters and, after each leaf or dead end, advances
    the deepest place with another option and enters every later place
    afresh; but a walk re-decides only the due places. Invariant: after
    a walk, each place before its dead end (every place, after a leaf)
    holds option choice[p] of the options the current cells give it, and
    each later place that is not due holds option 0 of those. A changed
    cell makes its tight successors due; advancing a place makes the
    later places off option 0 due. Visits are counted as the plain
    search counts them: entering a place adds its route count, as many
    routings as trying each would cost, and the budget caps the visits.
    routing_choice_count is the product of the route counts (the
    choices minimality alone allows).

    mode="coherent_only" keeps the coherent diagrams; past four steps it
    raises UnsupportedArityError before any search. The candidates at
    vertex i other than its cell D(i) are the minimal generators of the
    ideal off the image that are minimal routings of i. Any other
    minimal routing b of i is g + c for such a g of a vertex v, and
    D(v) + c is a minimal routing of i lighter than b under any weight
    preferring each D(v) to its generators; repeating reaches D(i). So
    coherence is the feasibility of the cone of these g - D(i), decided
    as in is_coherent.
    """
    if mode not in ("all", "coherent_only"):
        raise ValueError(f"mode must be 'all' or 'coherent_only', got {mode!r}")
    budget = DEFAULT_ENUMERATION_BUDGET if budget is None else budget
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    if mode == "coherent_only" and net.r > 4:
        raise UnsupportedArityError("coherence is decided for at most four steps", r=net.r)
    n, r = net.n, net.r
    dist, counts = _kernel(net)
    order = list(chain.from_iterable(_levels_of(dist)))
    pre = [0, *accumulate(map(counts.__getitem__, order))]  # visits before each place

    # one field per coordinate, first coordinate highest; fields never
    # carry, and a difference of two codes decodes (see packed_width)
    width = packed_width(n)
    mask, shifts = _packed_fields(width, r)
    checks = [(s, shift, 1 << shift) for s, shift in zip(net.steps, shifts)]
    # a candidate is taken along its first step j only, so once: its code
    # lies below unit << width, and only the fields after j need checks
    arcs = [(s, unit, unit << width, checks[j + 1:]) for j, (s, _, unit) in enumerate(checks)]
    if r == 3:  # the same checks, inline, where all three arcs are tight
        (s0, u0, _, _), (s1, u1, top1, _), (s2, u2, top2, _) = arcs
    place = [0] * n
    ins = [[] for _ in order]  # per place, the arcs from its tight predecessors
    outs = [[] for _ in order]  # per place, the places of its tight successors
    for p, i in enumerate(order):
        place[i] = p
        for arc in arcs:
            v = i - arc[0]  # in (-n, n), and a negative index wraps
            if dist[v] == dist[i] - 1:
                ins[p].append(arc)
                outs[place[v]].append(p)
        if len(ins[p]) == 3 == r:
            ins[p] = None

    cells = [0] * n  # chosen code per vertex
    kids = [[0]] * n  # options per place
    choice = [0] * n  # index of the option taken per place
    due = bytearray([0] + [1] * (n - 1))  # places to decide again; place 0 is vertex 0
    forks = []  # sorted places with more than one option
    leaves, gapsets = [], []  # gapsets: per leaf, its generators minus its cells
    visits = 0
    f = -1  # the place advanced before this walk
    while True:
        p = due.find(1, f + 1)
        while p >= 0:
            i = order[p]
            options = []
            if ins[p] is None:
                a, b, c = cells[i - s0] + u0, cells[i - s1] + u1, cells[i - s2] + u2
                if (b == a or not a >> width & mask) and (c == a or not a & mask):
                    options.append(a)
                if b < top1 and (c == b or not b & mask):
                    options.append(b)
                if c < top2:
                    options.append(c)
            else:
                for s, unit, top, later in ins[p]:
                    cand = cells[i - s] + unit
                    if cand >= top:
                        continue
                    for t, shift, u in later:
                        if cand >> shift & mask and cells[i - t] != cand - u:
                            break
                    else:
                        options.append(cand)
            if len(options) > 1 and len(kids[p]) < 2:
                insort(forks, p)
            elif len(options) < 2 and len(kids[p]) > 1:
                forks.remove(p)
            kids[p] = options
            if not options:
                break  # a dead end, left due
            due[p] = choice[p] = 0
            if cells[i] != options[0]:
                cells[i] = options[0]
                for q in outs[p]:
                    due[q] = 1
            p = due.find(1, p + 1)
        dead = n if p < 0 else p
        visits += pre[min(dead + 1, n)] - pre[f + 1]
        if visits > budget:
            raise BudgetExceededError(
                f"enumeration exceeded the budget of {budget} choices", budget=budget
            )
        if p < 0:
            leaves.append(tuple(cells))
            if mode == "coherent_only":
                gapsets.append({c - cells[order[q]] for q in forks for c in kids[q]} - {0})
        # advance the deepest fork before the dead end with an option
        # left; the forks passed over hold their last option, so are due
        k = end = bisect_left(forks, dead)
        while k and choice[forks[k - 1]] + 1 == len(kids[forks[k - 1]]):
            k -= 1
        if not k:
            break
        f = forks[k - 1]
        choice[f] += 1
        cells[order[f]] = kids[f][choice[f]]
        for q in outs[f] + forks[k:end]:
            due[q] = 1

    found = len(leaves)
    if mode == "coherent_only":
        kept = (_has_solution(_directions(gaps, r, width)[1], r) for gaps in gapsets)
        leaves = compress(leaves, kept)
    return EnumerationResult(net, tuple(sorted(leaves)), prod(counts), found)


def is_unique_mdd(net: CirculantNetwork) -> bool:
    """Whether the network has exactly one diagram.

    That holds exactly when every vertex has one minimal routing, for
    any number of steps. If so, the only choice of cells is a diagram:
    a sub-vector of a minimal routing is minimal, so it is the one
    routing of its own vertex. If a vertex has two minimal routings,
    take a weight w that separates them; the term orders "degree, then
    w, then lex" and "degree, then -w, then lex" pick different least
    routings there, and each order's least routings form a coherent
    diagram (the standard monomials of an initial ideal; Sturmfels,
    Groebner Bases and Convex Polytopes, ch. 4-5), so there are two.
    The counts are route_counts, from network._kernel, without a routing
    table or a sort.
    """
    return all(c == 1 for c in _kernel(net)[1])
