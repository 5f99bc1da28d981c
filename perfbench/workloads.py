"""Workloads of the circmdd benchmark, made from a seed.

Each workload is a list of operations; an operation is one argv for
``circmdd.cli.main``. The seed changes the inputs but not the amount of
work, so the spread between runs with different seeds measures the
host rather than the draw:

- the seed shuffles the order of the operations, and
- every network it hands to the program is relabelled by an
  isomorphism: the steps are multiplied by a unit u (gcd(u, n) = 1)
  and put in a seeded order. Multiplying by a unit keeps the
  homogeneous lattice; permuting the steps permutes its coordinates.
  Distances, route counts, diagram counts and coherence are the same
  as for the base network, while every table, argv and stdout differs.

``summary`` extracts from an output the values that such a relabelling
keeps; they are recorded per base network in ``expected.json`` and
checked for every seed. ``rule_violation`` holds the rules that need no
recording.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

WORKLOADS = ("family-ladder", "enumerate", "sweep", "tables")
DEFAULT_SEED = 0

# q = 11 and 14 are left out: one `family verify` takes 20 s or more there.
FAMILY_QS = (2, 5, 8)

# The q = 5 and q = 6 family lifts (build_family(q).lifted) and four
# 4-step networks, which take the Fourier-Motzkin path of is_coherent and
# include incoherent diagrams with irreducible refutations.
ENUMERATE_NETWORKS = (
    (992, (33, 161, 801)),
    (1892, (45, 265, 1585)),
    (104, (5, 17, 21, 22)),
    (41, (8, 19, 23, 40)),
    (199, (40, 58, 122, 181)),
    (126, (4, 40, 58, 63)),
)

# A double loop whose table is wide and shallow, and the q = 11 and
# q = 14 family lifts (build_family(q).lifted), whose tables hold about
# 0.5 and 1.6 million routes.
TABLE_NETWORKS = (
    (30011, (7, 4003)),
    (17822, (135, 1475, 16215)),
    (44732, (213, 2969, 41553)),
)

SWEEP_SIZE = 200
SWEEP_N = (16, 64)
# The sweep's base networks are one fixed draw; the run seed relabels them.
SWEEP_BASE_SEED = 20070530


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload."""

    label: str  # the argv joined by spaces; keys the recorded digest
    argv: tuple[str, ...]
    base: str  # the base network or family; keys the recorded summary


def network_label(n: int, steps) -> str:
    return f"C{n}({','.join(map(str, steps))})"


def relabel(rng: random.Random, n: int, steps) -> tuple[int, ...]:
    """Steps of an isomorphic copy of C_n(steps): unit multiple, new order."""
    while True:
        u = rng.randrange(1, n)
        if gcd(u, n) == 1:
            break
    return tuple(u * s % n for s in rng.sample(list(steps), len(steps)))


def sweep_bases() -> list[tuple[int, tuple[int, int, int]]]:
    """The sweep's distinct base triple loops, sizes cycling over SWEEP_N."""
    rng = random.Random(SWEEP_BASE_SEED)
    lo, hi = SWEEP_N
    bases: list[tuple[int, tuple[int, int, int]]] = []
    seen = set()
    while len(bases) < SWEEP_SIZE:
        n = lo + len(bases) % (hi - lo + 1)
        steps = tuple(sorted(rng.sample(range(1, n), 3)))
        if gcd(n, *steps) == 1 and (n, steps) not in seen:
            seen.add((n, steps))
            bases.append((n, steps))
    return bases


def _network_ops(rng, networks, command, extra=()) -> list[Op]:
    ops = []
    for n, steps in networks:
        new = ",".join(map(str, relabel(rng, n, steps)))
        argv = (*command, str(n), new, *extra)
        ops.append(Op(" ".join(argv), argv, network_label(n, steps)))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The operations of a workload for a seed; equal seeds, equal lists."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "family-ladder":
        ops = []
        for q in FAMILY_QS:
            argv = ("family", "verify", str(q))
            ops.append(Op(" ".join(argv), argv, f"q={q}"))
    elif workload == "enumerate":
        ops = _network_ops(
            rng, ENUMERATE_NETWORKS, ("mdd", "enumerate"), ("--coherent-only",)
        )
    elif workload == "sweep":
        ops = _network_ops(rng, sweep_bases(), ("fan",))
    elif workload == "tables":
        ops = _network_ops(rng, TABLE_NETWORKS, ("net", "info"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def summary(workload: str, payload: dict) -> dict:
    """The part of an operation's output that relabelling leaves unchanged."""
    if workload == "family-ladder":
        return {"ok": payload["ok"], "fan_mdd_count": payload["fan_mdd_count"]}
    if workload == "enumerate":
        return {
            "mdd_count": payload["mdd_count"],
            "routing_choice_count": payload["routing_choice_count"],
        }
    if workload == "sweep":
        return {"mdd_count": payload["mdd_count"]}
    return {
        "diameter": payload["diameter"],
        "average_distance": payload["average_distance"],
        "vertices": len(payload["dist"]),
        "routes": sum(payload["route_counts"]),
    }


def rule_violation(workload: str, payload: dict) -> str | None:
    """A rule every output must meet for any seed, or None."""
    if workload == "family-ladder":
        q = payload["q"]
        if payload["ok"] is not True or payload["fan_mdd_count"] != 3 * (q + 2):
            return f"family q={q}: ok={payload['ok']}, fan_mdd_count={payload['fan_mdd_count']}"
    elif workload == "sweep" and payload["mdd_count"] < 1:
        return f"fan found {payload['mdd_count']} diagrams"
    elif workload == "enumerate" and len(payload["mdds"]) != payload["mdd_count"]:
        return "mdd_count disagrees with the diagrams listed"
    return None
