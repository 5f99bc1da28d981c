"""Deterministic JSON encoding of the core value types.

Field order is fixed, vectors are integer arrays, rationals are
{"num", "den"} in lowest terms, and dumps use compact separators, so
output is byte-identical across runs and platforms. Two documents are
written as text here, with the bytes json.dumps would give them: `net
info` (`net_info_json`) and `mdd enumerate` (`enumeration_json`).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .coherence import CoherenceResult
from .errors import CircmddError, MalformedDocumentError
from .fan import FamilyNetwork, FamilyVerification, FanReport
from .lattice import HomogeneousLattice, signs_str
from .mdd import Mdd
from .network import CirculantNetwork, _packed_fields, build_network, packed_width


def canonical_json(payload) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=False)


def _vectors(vecs) -> list:
    return [list(a) for a in vecs]


def _octant(signs, elements) -> dict:
    return {"octant": signs_str(signs), "elements": _vectors(elements)}


def _plain(value):
    """Error details as JSON values: tuples become arrays, rationals
    {num, den}. A record is a tuple too and would lose its field names,
    so no error's details hold one."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return rational_payload(value)
    return value


def network_payload(net: CirculantNetwork) -> dict:
    return {"n": net.n, "steps": list(net.steps)}


def rational_payload(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def error_payload(exc: CircmddError) -> dict:
    return {"code": exc.code, "message": str(exc), "details": _plain(exc.details)}


def mdd_payload(mdd: Mdd) -> dict:
    return {
        "network": network_payload(mdd.net),
        "cells": [
            {"vertex": i, "path": list(cell)} for i, cell in enumerate(mdd.cells)
        ],
    }


class _CellTexts(dict):
    """JSON texts of cells by packed code (see packed_width), each made
    on first use from the code alone: the text of its leading r - 1
    fields, kept in a store of their own (closed with ","), since cells
    share it, then its last field and the closing text. For r = 1 the
    leading code is 0 and its text "["."""

    def __init__(self, width: int, r: int, close: str = "]"):
        self.width, self.close = width, close
        self.mask = _packed_fields(width, r)[0]
        self.heads = _CellTexts(width, r - 1, ",") if r > 1 else {0: "["}

    def __missing__(self, code: int) -> str:
        head = self.heads[code >> self.width]
        text = self[code] = f"{head}{code & self.mask}{self.close}"
        return text


class _IntTexts(dict):
    """Decimal texts of integers, each made on first use."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def enumeration_json(net: CirculantNetwork, mode: str, result) -> str:
    """`mdd enumerate`: the canonical JSON text of {network, mode,
    mdd_count, routing_choice_count, mdds}, each diagram its cells as
    arrays. Only result.leaves is read: diagrams share most of their
    cells, so each distinct packed code is written once, on first use,
    by _CellTexts, and each leaf joins the texts. Nothing is decoded,
    so result.mdds stays unread."""
    leaves = result.leaves
    head = canonical_json({
        "network": network_payload(net),
        "mode": mode,
        "mdd_count": len(leaves),
        "routing_choice_count": result.routing_choice_count,
    })
    text = _CellTexts(packed_width(net.n), net.r).__getitem__
    diagrams = ",".join(["[" + ",".join(map(text, leaf)) + "]" for leaf in leaves])
    return f'{head[:-1]},"mdds":[{diagrams}]}}'


def net_info_json(net: CirculantNetwork, dist, counts) -> str:
    """`net info`: the canonical JSON text of {network, diameter,
    average_distance, dist, route_counts}. Distances run over 0..D and
    most vertices share a few route counts, so each distance is
    formatted once and each distinct count once, on first use."""
    diameter = max(dist)
    head = canonical_json({
        "network": network_payload(net),
        "diameter": diameter,
        "average_distance": rational_payload(Fraction(sum(dist), net.n)),
    })
    level = list(map(str, range(diameter + 1))).__getitem__
    dist_text = ",".join(map(level, dist))
    counts_text = ",".join(map(_IntTexts().__getitem__, counts))
    return f'{head[:-1]},"dist":[{dist_text}],"route_counts":[{counts_text}]}}'


def coherence_payload(result: CoherenceResult | None) -> dict:
    """A coherence decision; all fields null when none was made (None)."""
    if result is None:
        return {"coherent": None, "witness": None, "refutation": None}
    return {
        "coherent": result.coherent,
        "witness": list(result.witness) if result.witness else None,
        "refutation": None
        if result.refutation is None
        else [
            {
                "vertex": c.vertex,
                "chosen": list(c.chosen),
                "alternative": list(c.alternative),
            }
            for c in result.refutation
        ],
    }


def mdd_check_payload(net: CirculantNetwork, coherence=None, violation=None) -> dict:
    """`mdd check`: the violation of an invalid diagram, else its coherence."""
    payload = {"network": network_payload(net), "valid": violation is None}
    if violation is None:
        return {**payload, **coherence_payload(coherence)}
    return {**payload, "violation": error_payload(violation)}


def lattice_payload(lat: HomogeneousLattice, bases) -> dict:
    return {
        "network": network_payload(lat.net),
        "basis": _vectors(lat.basis),
        "index": lat.index,
        "octants": [_octant(b.octant.signs, b.elements) for b in bases],
        "total_elements": sum(len(b.elements) for b in bases),
    }


def fan_report_payload(report: FanReport) -> dict:
    return {
        "network": network_payload(report.net),
        "candidates": [
            {"ray": list(c.ray), "sources": _vectors(c.sources)}
            for c in report.candidates
        ],
        "walls": [
            {"ray": list(w.ray), "witness": list(w.witness)} for w in report.walls
        ],
        "rejections": [
            {
                "ray": list(rej.ray),
                "failed_condition": rej.failed_condition,
                "reason": rej.reason,
            }
            for rej in report.rejections
        ],
        "sector_representatives": _vectors(report.sector_representatives),
        "mdd_count": report.mdd_count,
    }


def family_payload(fam: FamilyNetwork) -> dict:
    return {
        "q": fam.q,
        "k": fam.k,
        "t": fam.t,
        "base_network": network_payload(fam.base),
        "lifted_network": network_payload(fam.lifted),
        "predicted_hilbert": [_octant(s, e) for s, e in fam.predicted_hilbert],
        "predicted_mdd_count": fam.predicted_mdd_count,
        "hypothesis_note": fam.hypothesis_note,
    }


def family_verification_payload(verification: FamilyVerification) -> dict:
    return {
        **family_payload(verification.family),
        "octant_checks": [
            {
                "octant": signs_str(c.signs),
                "expected": _vectors(c.expected),
                "actual": _vectors(c.actual),
                "match": c.match,
            }
            for c in verification.octant_checks
        ],
        "fan_mdd_count": verification.fan_mdd_count,
        "fan_match": verification.fan_match,
        "brute_force_total_count": verification.brute_force_total_count,
        "brute_force_coherent_count": verification.brute_force_coherent_count,
        "brute_force_match": verification.brute_force_match,
        "ok": verification.ok,
    }


_PAYLOADS = {
    Mdd: mdd_payload,
    FanReport: fan_report_payload,
    FamilyNetwork: family_payload,
    FamilyVerification: family_verification_payload,
}


def encode(value) -> str:
    """The document the CLI prints for an Mdd, FanReport, FamilyNetwork
    or FamilyVerification, as canonical JSON text. These are tuples, but
    a plain tuple of the same fields is none of them."""
    for cls, payload in _PAYLOADS.items():
        if isinstance(value, cls):
            return canonical_json(payload(value))
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
