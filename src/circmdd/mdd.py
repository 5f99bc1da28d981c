"""Minimum distance diagrams: construction, validation, enumeration.

A diagram assigns to every vertex one minimal routing vector such that
the image is down-closed in N^r (every coordinate-wise smaller vector is
the cell of its own vertex). Down-closed images are exactly complements
of monomial ideals, which is what the staircase generators describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import getitem, lshift, mul

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
from .intlin import norm1
from .lattice import homogeneous_lattice
from .network import CirculantNetwork, PathVector, distance_table, vertex_of

DEFAULT_ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class Mdd:
    """A validated minimum distance diagram, cells indexed by vertex."""

    net: CirculantNetwork
    cells: tuple[PathVector, ...]

    @property
    def image(self) -> frozenset[PathVector]:
        return frozenset(self.cells)


@dataclass(frozen=True)
class EnumerationResult:
    mdds: tuple[Mdd, ...]
    routing_choice_count: int


@dataclass(frozen=True)
class Staircase:
    """Minimal generators of the monomial ideal complementing a diagram."""

    generators: tuple[PathVector, ...]


class DoubleLoopShape(str, Enum):
    RECTANGLE = "rectangle"
    L_SHAPE = "l-shape"


def build_coherent_mdd(net: CirculantNetwork, w, tie_policy: str = "error") -> Mdd:
    """Diagram selecting, per vertex, the minimal routing of least weight.

    Weights may be ints or Fractions and matter only up to positive
    scaling and shifts by multiples of (1, ..., 1). The routings of a
    vertex are scanned in lexicographic order, keeping the least weight
    seen so far. With tie_policy="error" a routing whose weight equals
    that running least raises WeightTieError, naming the routing held
    and the tied one; the raise happens even when a later routing is
    lighter than both, and a routing heavier than the running least
    never raises, whatever it ties with. With "lex" the earlier routing
    wins every tie, which refines the weight order into a genuine graded
    order, so the result is always a valid diagram.
    """
    if tie_policy not in ("error", "lex"):
        raise ValueError(f"tie_policy must be 'error' or 'lex', got {tie_policy!r}")
    w = tuple(Fraction(x) if not isinstance(x, int) else x for x in w)
    if len(w) != net.r:
        raise ArityMismatchError(
            f"weight has {len(w)} entries, network has {net.r} steps",
            expected=net.r,
            got=len(w),
        )
    # a positive scale keeps the order and the ties of the weights exactly
    scale = lcm(*(x.denominator for x in w))
    iw = tuple(x.numerator * (scale // x.denominator) for x in w)
    # the inline dot for three steps halves the census time of a fan
    # against sum(map(mul, ...))
    three = net.r == 3
    if three:
        w0, w1, w2 = iw
    raise_ties = tie_policy == "error"
    cells = []
    for i, routes in enumerate(distance_table(net).minimal_paths):
        if len(routes) == 1:
            cells.append(routes[0])
            continue
        best = None
        for a in routes:
            if three:
                x, y, z = a
                val = w0 * x + w1 * y + w2 * z
            else:
                val = sum(map(mul, iw, a))
            if best is None or val < best_val:
                best, best_val = a, val
            elif val == best_val and raise_ties:
                raise WeightTieError(
                    f"weight {w} does not separate minimal routings "
                    f"{best} and {a} to vertex {i}",
                    vertex=i,
                    first=list(best),
                    second=list(a),
                )
        cells.append(best)
    return Mdd(net, tuple(cells))


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
    table = distance_table(net)
    for i, cell in enumerate(cells):
        if len(cell) != net.r:
            raise ArityMismatchError(
                f"cell of vertex {i} has {len(cell)} coordinates",
                expected=net.r,
                got=len(cell),
                vertex=i,
            )
        if any(c < 0 for c in cell):
            raise MalformedDocumentError(
                f"cell of vertex {i} has negative coordinates", vertex=i
            )
        if vertex_of(net, cell) != i:
            raise WrongVertexError(
                f"cell {cell} reaches vertex {vertex_of(net, cell)}, not {i}",
                vertex=i,
                reached=vertex_of(net, cell),
            )
        if sum(cell) != table.dist[i]:
            raise NotMinimalError(
                f"cell {cell} of vertex {i} has length {sum(cell)}, distance is "
                f"{table.dist[i]}",
                vertex=i,
                length=sum(cell),
                distance=table.dist[i],
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
                    vertex=i,
                    coordinate=j,
                )
    return Mdd(net, cells)


def enumerate_mdds(
    net: CirculantNetwork,
    mode: str = "all",
    budget: int | None = None,
) -> EnumerationResult:
    """All diagrams of the network by exhaustive backtracking.

    Vertices are visited in (distance, vertex) order choosing one
    minimal routing each; a choice is kept only if all its one-arc
    predecessors are already chosen cells, which is exactly the
    down-closure condition. The budget caps the number of routings
    tried. The search runs on routings packed into integers, one field
    per coordinate: the predecessor of a routing along step j is its
    code minus one unit of field j, compared with the code chosen at
    vertex i - s_j, and a complete choice is read back from the table
    by routing index. routing_choice_count is the number of assignments
    satisfying the minimality condition alone (the product of the
    per-vertex routing counts). With mode="coherent_only" the
    enumerated diagrams are filtered by is_coherent.
    """
    from .coherence import is_coherent  # local import to avoid a cycle

    if mode not in ("all", "coherent_only"):
        raise ValueError(f"mode must be 'all' or 'coherent_only', got {mode!r}")
    if budget is None:
        budget = DEFAULT_ENUMERATION_BUDGET
    table = distance_table(net)
    n = net.n
    r = net.r
    steps = net.steps
    paths = table.minimal_paths
    order = sorted(range(n), key=lambda i: (table.dist[i], i))
    choice_count = prod(len(p) for p in paths)

    # one field of n.bit_length() bits per coordinate, first coordinate
    # highest; coordinates are below n, so fields never carry
    width = n.bit_length()
    mask = (1 << width) - 1
    shifts = [width * (r - 1 - j) for j in range(r)]
    codes = [[sum(map(lshift, a, shifts)) for a in routes] for routes in paths]
    arcs = [(s, shift, 1 << shift) for s, shift in zip(steps, shifts)]

    cells = [-1] * n  # chosen code per vertex, -1 when none
    chosen = [0] * n  # index of the chosen routing per vertex
    iters = [0] * n
    results: list[tuple[PathVector, ...]] = []
    visits = 0
    pos = 0
    while pos >= 0:
        if pos == n:
            results.append(tuple(map(getitem, paths, chosen)))
            pos -= 1
            continue
        i = order[pos]
        k = iters[pos]
        options = codes[i]
        if k >= len(options):
            iters[pos] = 0
            cells[i] = -1
            pos -= 1
            continue
        iters[pos] = k + 1
        code = options[k]
        visits += 1
        if visits > budget:
            raise BudgetExceededError(
                f"enumeration exceeded the budget of {budget} choices",
                budget=budget,
            )
        for s, shift, unit in arcs:
            if code >> shift & mask and cells[(i - s) % n] != code - unit:
                break
        else:
            cells[i] = code
            chosen[i] = k
            pos += 1

    mdds = tuple(Mdd(net, c) for c in sorted(results))
    if mode == "coherent_only":
        mdds = tuple(m for m in mdds if is_coherent(m).coherent)
    return EnumerationResult(mdds, choice_count)


def staircase_generators(mdd: Mdd) -> Staircase:
    """Minimal generators of the complement of the diagram image.

    Every generator has each coordinate at most one above the image
    maximum, so a box scan suffices: a point is a generator iff it is
    outside the image and all its one-step decrements are inside.
    """
    image = set(mdd.cells)
    r = mdd.net.r
    bounds = [max(cell[j] for cell in mdd.cells) + 1 for j in range(r)]
    gens = []
    for g in product(*(range(b + 1) for b in bounds)):
        if g in image:
            continue
        minimal = True
        for j in range(r):
            if g[j]:
                if g[:j] + (g[j] - 1,) + g[j + 1:] not in image:
                    minimal = False
                    break
        if minimal:
            gens.append(g)
    return Staircase(tuple(sorted(gens)))


def classify_double_loop_shape(mdd: Mdd) -> DoubleLoopShape:
    """Rectangle (two staircase generators) or L-shape (three)."""
    if mdd.net.r != 2:
        raise UnsupportedArityError(
            "shape classification applies to two-step networks", r=mdd.net.r
        )
    count = len(staircase_generators(mdd).generators)
    if count == 2:
        return DoubleLoopShape.RECTANGLE
    if count == 3:
        return DoubleLoopShape.L_SHAPE
    raise InternalInconsistencyError(
        f"a two-step diagram must have 2 or 3 staircase generators, found {count}",
        generators=count,
    )


def _lattice_ball(net: CirculantNetwork, bound: int):
    """Nonzero homogeneous-lattice points of 1-norm at most bound (r <= 3)."""
    lat = homogeneous_lattice(net)
    r = net.r
    points = []
    if r == 2:
        for x in range(-bound, bound + 1):
            if x == 0:
                continue
            b = (x, -x)
            if norm1(b) <= bound and lat.contains(b):
                points.append(b)
    else:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                b = (x, y, -x - y)
                if (x or y) and norm1(b) <= bound and lat.contains(b):
                    points.append(b)
    return points


def is_unique_mdd(net: CirculantNetwork) -> bool:
    """Whether the network has exactly one diagram.

    For up to three steps this evaluates the lattice criterion: build
    one diagram and look for a cell a and a nonzero homogeneous-lattice
    vector b with a + b still nonnegative. Such a b has 1-norm at most
    twice the diameter (its negative part is dominated by a), so the
    search ball is finite. For more steps it falls back to counting the
    enumeration.
    """
    if net.r >= 4:
        return len(enumerate_mdds(net, "all").mdds) == 1
    if net.r == 1:
        return True
    base = build_coherent_mdd(
        net, tuple(range(net.r - 1, -1, -1)), tie_policy="lex"
    )
    diameter = max(distance_table(net).dist)
    image = list(base.image)
    for b in _lattice_ball(net, 2 * diameter):
        need = tuple(max(0, -c) for c in b)
        for a in image:
            if all(x >= t for x, t in zip(a, need)):
                return False
    return True
