"""Command line interface.

Subcommands: net info, mdd build/enumerate/check, lattice hilbert, fan,
family build/verify. Output is canonical JSON on stdout (or a rendering
for mdd build); domain errors exit 1 with a JSON error object on
stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .coherence import is_coherent
from .errors import CircmddError, MalformedDocumentError
from .fan import build_family, fan_report, verify_family
from .lattice import (
    OctantSemigroup,
    SINGLE_NEGATIVE_SIGNS,
    hilbert_basis,
    homogeneous_lattice,
    octant,
    signs_str,
)
from .mdd import enumerate_mdds, build_coherent_mdd, validate_mdd
from .network import build_network, distances, route_counts
from .render import RenderSpec, render
from .serialize import (
    canonical_json,
    mdd_payload,
    network_payload,
    parse_mdd_document,
    rational_payload,
)


def _steps_arg(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"steps must be comma-separated integers: {text!r}")


def _weights_arg(text: str) -> list:
    out = []
    for part in text.split(","):
        try:
            value = Fraction(part.strip())
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"weights must be integers or rationals like 3/2: {text!r}"
            )
        out.append(int(value) if value.denominator == 1 else value)
    return out


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return rational_payload(value)
    return value


def _coherence_payload(mdd) -> dict:
    if mdd.net.r > 4:
        return {"coherent": None, "witness": None, "refutation": None}
    result = is_coherent(mdd)
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


def _cmd_net_info(args) -> dict:
    net = build_network(args.n, args.steps)
    dist = distances(net)
    return {
        "network": network_payload(net),
        "diameter": max(dist),
        "average_distance": rational_payload(Fraction(sum(dist), net.n)),
        "dist": list(dist),
        "route_counts": list(route_counts(net, dist)),
    }


def _cmd_mdd_build(args):
    net = build_network(args.n, args.steps)
    mdd = build_coherent_mdd(net, args.weight, tie_policy=args.tie)
    if args.format == "json":
        return mdd_payload(mdd)
    return render(mdd, RenderSpec(format=args.format, layer_axis=args.layer_axis))


def _cmd_mdd_enumerate(args) -> dict:
    net = build_network(args.n, args.steps)
    mode = "coherent_only" if args.coherent_only else "all"
    result = enumerate_mdds(net, mode, budget=args.budget)
    return {
        "network": network_payload(net),
        "mode": mode,
        "mdd_count": len(result.mdds),
        "routing_choice_count": result.routing_choice_count,
        "mdds": [[list(cell) for cell in m.cells] for m in result.mdds],
    }


def _cmd_mdd_check(args) -> dict:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedDocumentError(f"cannot read {args.file}: {exc}") from exc
    net, cells = parse_mdd_document(text)
    try:
        mdd = validate_mdd(net, cells)
    except CircmddError as exc:
        return {
            "network": network_payload(net),
            "valid": False,
            "violation": {
                "code": exc.code,
                "message": str(exc),
                "details": _jsonable(exc.details),
            },
        }
    payload = {"network": network_payload(net), "valid": True}
    payload.update(_coherence_payload(mdd))
    return payload


def _cmd_lattice_hilbert(args) -> dict:
    net = build_network(args.n, args.steps)
    lat = homogeneous_lattice(net)
    payload = {
        "network": network_payload(net),
        "basis": [list(b) for b in lat.basis],
        "index": lat.index,
        "octants": [],
        "total_elements": 0,
    }
    if net.r == 3:
        total = 0
        for signs in SINGLE_NEGATIVE_SIGNS:
            basis = hilbert_basis(OctantSemigroup(lat, signs))
            payload["octants"].append(
                {
                    "octant": signs_str(signs),
                    "elements": [list(a) for a in basis.elements],
                }
            )
            total += len(basis.elements)
        payload["total_elements"] = total
    return payload


def _cmd_fan(args) -> dict:
    net = build_network(args.n, args.steps)
    report = fan_report(net)
    return {
        "network": network_payload(net),
        "candidates": [
            {"ray": list(c.ray), "sources": [list(s) for s in c.sources]}
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
        "sector_representatives": [
            list(w) for w in report.summary.sector_representatives
        ],
        "mdd_count": report.summary.mdd_count,
    }


def _family_payload(fam) -> dict:
    return {
        "q": fam.q,
        "k": fam.k,
        "t": fam.t,
        "base_network": network_payload(fam.base),
        "lifted_network": network_payload(fam.lifted),
        "predicted_hilbert": [
            {"octant": signs_str(signs), "elements": [list(a) for a in elements]}
            for signs, elements in fam.predicted_hilbert
        ],
        "predicted_mdd_count": fam.predicted_mdd_count,
        "hypothesis_note": fam.hypothesis_note,
    }


def _cmd_family_build(args) -> dict:
    fam = build_family(args.q, k=args.k, t=args.t)
    return _family_payload(fam)


def _cmd_family_verify(args) -> dict:
    verification = verify_family(args.q, k=args.k, t=args.t)
    payload = _family_payload(verification.family)
    payload.update(
        {
            "octant_checks": [
                {
                    "octant": signs_str(c.signs),
                    "expected": [list(a) for a in c.expected],
                    "actual": [list(a) for a in c.actual],
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
    )
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circmdd",
        description="Minimum distance diagrams of multi-step circulant networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_net = sub.add_parser("net", help="network statistics")
    net_sub = p_net.add_subparsers(dest="subcommand", required=True)
    p_info = net_sub.add_parser("info", help="distances, diameter, average")
    p_info.add_argument("n", type=int)
    p_info.add_argument("steps", type=_steps_arg)
    p_info.set_defaults(handler=_cmd_net_info)

    p_mdd = sub.add_parser("mdd", help="diagram operations")
    mdd_sub = p_mdd.add_subparsers(dest="subcommand", required=True)

    p_build = mdd_sub.add_parser("build", help="diagram from a weight vector")
    p_build.add_argument("n", type=int)
    p_build.add_argument("steps", type=_steps_arg)
    p_build.add_argument("--weight", type=_weights_arg, required=True)
    p_build.add_argument("--tie", choices=("error", "lex"), default="error")
    p_build.add_argument("--format", choices=("json", "ascii", "svg"), default="json")
    p_build.add_argument("--layer-axis", type=int, default=2)
    p_build.set_defaults(handler=_cmd_mdd_build)

    p_enum = mdd_sub.add_parser("enumerate", help="all diagrams by backtracking")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("steps", type=_steps_arg)
    p_enum.add_argument("--coherent-only", action="store_true")
    p_enum.add_argument("--budget", type=int, default=None)
    p_enum.set_defaults(handler=_cmd_mdd_enumerate)

    p_check = mdd_sub.add_parser("check", help="validate a diagram JSON file")
    p_check.add_argument("file")
    p_check.set_defaults(handler=_cmd_mdd_check)

    p_lat = sub.add_parser("lattice", help="homogeneous lattice operations")
    lat_sub = p_lat.add_subparsers(dest="subcommand", required=True)
    p_hil = lat_sub.add_parser("hilbert", help="octant Hilbert bases")
    p_hil.add_argument("n", type=int)
    p_hil.add_argument("steps", type=_steps_arg)
    p_hil.set_defaults(handler=_cmd_lattice_hilbert)

    p_fan = sub.add_parser("fan", help="weight-plane fan of coherent diagrams")
    p_fan.add_argument("n", type=int)
    p_fan.add_argument("steps", type=_steps_arg)
    p_fan.set_defaults(handler=_cmd_fan)

    p_family = sub.add_parser("family", help="geometric-step families")
    family_sub = p_family.add_subparsers(dest="subcommand", required=True)
    for name, help_text, handler in (
        ("build", "construct the q-family network", _cmd_family_build),
        ("verify", "check the q-family predictions", _cmd_family_verify),
    ):
        p_fam = family_sub.add_parser(name, help=help_text)
        p_fam.add_argument("q", type=int)
        p_fam.add_argument("--k", type=int, default=None)
        p_fam.add_argument("--t", type=int, default=None)
        p_fam.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except ValueError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2
    except CircmddError as exc:
        error = {
            "error": {
                "code": exc.code,
                "message": str(exc),
                "details": _jsonable(exc.details),
            }
        }
        sys.stderr.write(canonical_json(error) + "\n")
        return 1
    if isinstance(payload, str):
        print(payload)
    else:
        print(canonical_json(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
