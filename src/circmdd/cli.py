"""Command line interface.

Subcommands: net info, mdd build/enumerate/check, lattice hilbert, fan,
family build/verify. Each prints one canonical JSON document built by
serialize on stdout (mdd build prints render's text, and net info and
mdd enumerate the text serialize writes for them); domain errors exit 1
with a JSON error object on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .coherence import is_coherent
from .errors import CircmddError, MalformedDocumentError, TooLargeError
from .fan import build_family, fan_report, verify_family
from .lattice import (
    OctantSemigroup,
    SINGLE_NEGATIVE_SIGNS,
    hilbert_basis,
    homogeneous_lattice,
)
from .mdd import enumerate_mdds, build_coherent_mdd, validate_mdd
from .network import _kernel, build_network
from .render import RenderSpec, render
from .serialize import (
    canonical_json,
    enumeration_json,
    error_payload,
    family_payload,
    family_verification_payload,
    fan_report_payload,
    lattice_payload,
    mdd_check_payload,
    net_info_json,
    parse_mdd_document,
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


def _cmd_net_info(args) -> str:
    net = build_network(args.n, args.steps)
    return net_info_json(net, *_kernel(net))


def _cmd_mdd_build(args) -> str:
    net = build_network(args.n, args.steps)
    mdd = build_coherent_mdd(net, args.weight, tie_policy=args.tie)
    return render(mdd, RenderSpec(format=args.format, layer_axis=args.layer_axis))


def _cmd_mdd_enumerate(args) -> str:
    net = build_network(args.n, args.steps)
    mode = "coherent_only" if args.coherent_only else "all"
    return enumeration_json(net, mode, enumerate_mdds(net, mode, budget=args.budget))


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
        return mdd_check_payload(net, violation=exc)
    return mdd_check_payload(net, is_coherent(mdd) if net.r <= 4 else None)


def _cmd_lattice_hilbert(args) -> dict:
    lat = homogeneous_lattice(build_network(args.n, args.steps))
    signs = SINGLE_NEGATIVE_SIGNS if lat.r == 3 else ()
    return lattice_payload(lat, [hilbert_basis(OctantSemigroup(lat, s)) for s in signs])


def _cmd_fan(args) -> dict:
    return fan_report_payload(fan_report(build_network(args.n, args.steps)))


def _cmd_family_build(args) -> dict:
    return family_payload(build_family(args.q, k=args.k, t=args.t))


def _cmd_family_verify(args) -> dict:
    return family_verification_payload(verify_family(args.q, k=args.k, t=args.t))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it as it was,
    and --help measures the terminal when it prints."""
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
    except (CircmddError, MemoryError, OverflowError) as exc:
        if not isinstance(exc, CircmddError):  # an n-sized array too large to make
            exc = TooLargeError(
                "the input is too large to hold in memory", raised=type(exc).__name__
            )
        sys.stderr.write(canonical_json({"error": error_payload(exc)}) + "\n")
        return 1
    try:
        print(payload if isinstance(payload, str) else canonical_json(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; with stdout on devnull the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
