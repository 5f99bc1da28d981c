"""Text and SVG drawings of diagrams as stacks of labeled boxes."""

from __future__ import annotations

from typing import NamedTuple

from .errors import UnsupportedArityError
from .mdd import Mdd
from .serialize import encode

CELL = 32
GAP = 24
PAD = 8
PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b4",
    "#59a14f",
    "#edc949",
    "#b07aa1",
    "#ff9da7",
)


class RenderSpec(NamedTuple):
    format: str = "ascii"  # ascii | svg | json
    layer_axis: int = 2  # coordinate whose levels become svg slices (3 steps)


def render(mdd: Mdd, spec: RenderSpec) -> str:
    """Draw a diagram; ascii for up to 2 steps, svg for up to 3."""
    if spec.format == "json":
        return encode(mdd)
    if spec.format == "ascii":
        if mdd.net.r > 2:
            raise UnsupportedArityError(
                "ascii rendering handles at most two steps", r=mdd.net.r
            )
        return _ascii(mdd)
    if spec.format == "svg":
        if mdd.net.r > 3:
            raise UnsupportedArityError(
                "svg rendering handles at most three steps", r=mdd.net.r
            )
        return _svg(mdd, spec.layer_axis)
    raise ValueError(f"unknown format {spec.format!r}")


def _grid(mdd: Mdd, axes) -> dict[tuple[int, int], int]:
    cells = {}
    for vertex, cell in enumerate(mdd.cells):
        x = cell[axes[0]] if len(axes) > 0 else 0
        y = cell[axes[1]] if len(axes) > 1 else 0
        cells[(x, y)] = vertex
    return cells


def _ascii(mdd: Mdd) -> str:
    """One text row per level of the second coordinate, top row highest."""
    axes = list(range(mdd.net.r))
    cells = _grid(mdd, axes)
    width = len(str(mdd.net.n - 1))
    max_x = max(x for x, _ in cells)
    max_y = max(y for _, y in cells)
    rows = []
    for y in range(max_y, -1, -1):
        row = []
        for x in range(max_x + 1):
            v = cells.get((x, y))
            row.append(str(v).rjust(width) if v is not None else " " * width)
        rows.append(" ".join(row).rstrip())
    return "\n".join(rows)


def _svg(mdd: Mdd, layer_axis: int) -> str:
    """One slice per level of the layer coordinate, slices left to right."""
    r = mdd.net.r
    if r == 3:
        if layer_axis not in (0, 1, 2):
            raise ValueError(f"layer axis must be 0, 1 or 2, got {layer_axis}")
        flat = [i for i in range(3) if i != layer_axis]
        levels = sorted({cell[layer_axis] for cell in mdd.cells})
        slices = []
        for level in levels:
            sub = {}
            for vertex, cell in enumerate(mdd.cells):
                if cell[layer_axis] == level:
                    sub[(cell[flat[0]], cell[flat[1]])] = vertex
            slices.append(sub)
    else:
        slices = [_grid(mdd, list(range(r)))]
    max_x = max(x for s in slices for x, _ in s)
    max_y = max(y for s in slices for _, y in s)
    cols = max_x + 1
    rows = max_y + 1
    slice_w = cols * CELL
    slice_h = rows * CELL
    total_w = PAD * 2 + len(slices) * slice_w + (len(slices) - 1) * GAP
    total_h = PAD * 2 + slice_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">'
    ]
    for k, sub in enumerate(slices):
        offset = PAD + k * (slice_w + GAP)
        fill = PALETTE[k % len(PALETTE)]
        for (x, y), vertex in sorted(sub.items(), key=lambda kv: kv[1]):
            px = offset + x * CELL
            py = PAD + (max_y - y) * CELL
            parts.append(
                f'<rect x="{px}" y="{py}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}" stroke="#333333" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{px + CELL // 2}" y="{py + CELL // 2 + 4}" '
                f'font-family="monospace" font-size="12" fill="#000000" '
                f'text-anchor="middle">{vertex}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
