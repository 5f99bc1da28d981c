"""Staircases of minimum distance diagrams.

The image of a diagram is down-closed in N^r, so it is the complement
of a monomial ideal; the staircase generators are that ideal's minimal
generators. Two-step diagrams are rectangles or L-shapes by their
number of generators.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import InternalInconsistencyError, UnsupportedArityError
from .mdd import Mdd
from .network import PathVector


class Staircase(NamedTuple):
    """Minimal generators of the monomial ideal complementing a diagram."""

    generators: tuple[PathVector, ...]


class DoubleLoopShape(str, Enum):
    RECTANGLE = "rectangle"
    L_SHAPE = "l-shape"


def staircase_generators(mdd: Mdd) -> Staircase:
    """Minimal generators of the complement of the diagram image.

    A point is a generator iff it is outside the image and all its
    one-step decrements are inside. A generator is nonzero, so one of
    those decrements is a cell: every generator is some cell plus a unit
    vector, and the r * n such candidates suffice.
    """
    image = set(mdd.cells)
    r = mdd.net.r
    gens = set()
    for cell in image:
        for j in range(r):
            g = cell[:j] + (cell[j] + 1,) + cell[j + 1:]
            if g not in image and all(
                g[:i] + (g[i] - 1,) + g[i + 1:] in image for i in range(r) if g[i]
            ):
                gens.add(g)
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
