"""Deterministic JSON encoding of the core value types.

Field order is fixed, vectors are integer arrays, rationals are
{"num", "den"} in lowest terms, and dumps use compact separators, so
output is byte-identical across runs and platforms.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import MalformedDocumentError
from .fan import FanSummary
from .lattice import HilbertBasis, signs_str
from .mdd import Mdd
from .network import CirculantNetwork, DistanceTable, build_network


def canonical_json(payload) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=False)


def network_payload(net: CirculantNetwork) -> dict:
    return {"n": net.n, "steps": list(net.steps)}


def rational_payload(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def mdd_payload(mdd: Mdd) -> dict:
    return {
        "network": network_payload(mdd.net),
        "cells": [
            {"vertex": i, "path": list(cell)} for i, cell in enumerate(mdd.cells)
        ],
    }


def distance_table_payload(table: DistanceTable) -> dict:
    return {
        "network": network_payload(table.net),
        "dist": list(table.dist),
        "minimal_paths": [
            [list(a) for a in vecs] for vecs in table.minimal_paths
        ],
    }


def hilbert_payload(basis: HilbertBasis) -> dict:
    return {
        "network": network_payload(basis.octant.lattice.net),
        "octant": signs_str(basis.octant.signs),
        "elements": [list(a) for a in basis.elements],
    }


def fan_payload(summary: FanSummary) -> dict:
    return {
        "network": network_payload(summary.net),
        "walls": [
            {"ray": list(w.ray), "witness": list(w.witness)} for w in summary.walls
        ],
        "sector_representatives": [
            list(w) for w in summary.sector_representatives
        ],
        "mdd_count": summary.mdd_count,
    }


def encode(value) -> str:
    """Canonical JSON text for a diagram, fan, Hilbert basis or table."""
    if isinstance(value, Mdd):
        return canonical_json(mdd_payload(value))
    if isinstance(value, FanSummary):
        return canonical_json(fan_payload(value))
    if isinstance(value, HilbertBasis):
        return canonical_json(hilbert_payload(value))
    if isinstance(value, DistanceTable):
        return canonical_json(distance_table_payload(value))
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def _is_int(value) -> bool:
    """JSON integers only: bool is an int subclass but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_mdd_document(text: str):
    """Parse the diagram JSON schema back into (network, cells).

    The network is rebuilt through the normal validation path; cells
    must list every vertex exactly once. Diagram-level validation is
    left to validate_mdd.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top level must be an object")
    netspec = doc.get("network")
    if not isinstance(netspec, dict) or "n" not in netspec or "steps" not in netspec:
        raise MalformedDocumentError("missing network {n, steps}")
    if (
        not _is_int(netspec["n"])
        or not isinstance(netspec["steps"], list)
        or not all(_is_int(s) for s in netspec["steps"])
    ):
        raise MalformedDocumentError("network n must be an int and steps a list of ints")
    try:
        net = build_network(netspec["n"], netspec["steps"])
    except ValueError as exc:
        raise MalformedDocumentError(f"invalid network: {exc}") from exc
    raw = doc.get("cells")
    if not isinstance(raw, list):
        raise MalformedDocumentError("cells must be a list")
    cells: dict[int, tuple[int, ...]] = {}
    for entry in raw:
        if (
            not isinstance(entry, dict)
            or not _is_int(entry.get("vertex"))
            or not isinstance(entry.get("path"), list)
            or not all(_is_int(c) for c in entry["path"])
        ):
            raise MalformedDocumentError(
                "each cell must be {vertex: int, path: [int]}"
            )
        v = entry["vertex"]
        if v in cells:
            raise MalformedDocumentError(f"vertex {v} appears twice", vertex=v)
        cells[v] = tuple(entry["path"])
    if sorted(cells) != list(range(net.n)):
        raise MalformedDocumentError(
            f"cells must cover vertices 0..{net.n - 1} exactly once"
        )
    return net, tuple(cells[i] for i in range(net.n))
