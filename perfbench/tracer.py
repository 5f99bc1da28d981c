"""Per-layer spans around circmdd's public functions, from outside the library.

``Tracer.install`` replaces every public function of every circmdd
module, under each name a circmdd module binds it to (for example
``circmdd.fan.hilbert_basis`` and ``circmdd.lattice.hilbert_basis``),
with a wrapper that records calls, self time (its time minus that of the
wrapped calls it makes) and the exceptions it raised. ``remove`` puts
the originals back. Calls resolve these names at call time, so calls
inside the library are seen too.

``circmdd.intlin`` is not wrapped: ``dot`` runs millions of times, and
its cost stays in the self time of its callers. Private modules (the
routing kernels) are not wrapped either, so the kernel's time is the
self time of ``network.distance_table``.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter
from dataclasses import dataclass, field

UNWRAPPED_MODULES = frozenset({"circmdd.intlin", "circmdd.errors"})

# Span names that differ from "<defining module>.<function>": the sector
# census is build_coherent_mdd as called from the fan, and the CLI's
# entry point is the root span of every operation.
ALIASES = {
    ("circmdd.fan", "build_coherent_mdd"): "fan.census",
    ("circmdd.cli", "canonical_json"): "cli.canonical_json",
    ("circmdd.cli", "main"): "cli",
}

# Spans whose self time is reported on its own; the rest is other.self_s.
SELF_TIMED = (
    "fan.census",
    "lattice.hilbert_basis",
    "lattice.octant_points_bounded",
    "lattice.homogeneous_lattice",
    "fan.candidate_rays",
    "fan.verify_wall",
    "coherence.is_coherent",
    "mdd.enumerate_mdds",
    "network.distance_table",
    "cli",
    "cli.canonical_json",
)

# Every per-layer metric, with its unit, in the order it is printed.
PER_LAYER = (
    *((f"{name}.self_s", "s") for name in SELF_TIMED),
    ("other.self_s", "s"),
    ("fan.census.calls", "count"),
    ("fan.census.tie_retries", "count"),
    ("lattice.hilbert_basis.calls", "count"),
    ("lattice.octant_points_bounded.points", "count"),
    ("fan.candidates", "count"),
    ("fan.walls", "count"),
    ("fan.wall_yield", "ratio"),
    ("coherence.is_coherent.calls", "count"),
    ("coherence.constraints", "count"),
    ("coherence.incoherent", "count"),
    ("mdd.diagrams", "count"),
    ("network.routes", "count"),
    ("network.compiled_tables", "count"),
    ("network.table_cache_hit_ratio", "ratio"),
    ("network.distance_table.share", "ratio"),
    ("cli.output_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    calls: int = 0
    self_ns: int = 0
    raised: Counter = field(default_factory=Counter)


def _count_candidates(tracer, fn, args, result):
    tracer.counts["fan.candidates"] += len(result)


def _count_walls(tracer, fn, args, result):
    tracer.counts["fan.walls"] += type(result).__name__ == "Wall"


def _count_points(tracer, fn, args, result):
    tracer.counts["lattice.octant_points_bounded.points"] += len(result)


def _count_coherence(tracer, fn, args, result):
    # is_coherent builds one constraint per minimal routing other than
    # the chosen one, so a diagram of n cells gives routes - n of them.
    net = args[0].net
    tracer.counts["coherence.constraints"] += tracer.routes_by_net[net] - net.n
    tracer.counts["coherence.incoherent"] += not result.coherent


def _count_diagrams(tracer, fn, args, result):
    tracer.counts["mdd.diagrams"] += len(result.mdds)


def _count_routes(tracer, fn, args, result):
    misses = fn.cache_info().misses
    net = args[0]
    if misses > tracer.table_misses:
        routes = sum(map(len, result.minimal_paths))
        tracer.routes_by_net[net] = routes
        tracer.counts["network.routes"] += routes
        tracer.kernels[tracer.active_kernel(net)] += 1
        tracer.table_misses = misses


HOOKS = {
    "fan.candidate_rays": _count_candidates,
    "fan.verify_wall": _count_walls,
    "lattice.octant_points_bounded": _count_points,
    "coherence.is_coherent": _count_coherence,
    "mdd.enumerate_mdds": _count_diagrams,
    "network.distance_table": _count_routes,
}


class Tracer:
    """Spans and counts of one traced pass over a workload."""

    def __init__(self, program, clock=time.perf_counter_ns):
        # `clock` reads nanoseconds; the run passes one that stands still
        # while the host's speed is sampled, so that no span counts it.
        self._clock = clock
        self._table_cache = program.network.distance_table
        self.active_kernel = program.network.active_kernel
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counts: Counter = Counter()
        self.kernels: Counter = Counter()
        self._stack = [0]
        self._op_start_ns = 0
        self.table_misses = 0
        self.routes_by_net: dict = {}

    def _targets(self):
        for modname, module in sorted(sys.modules.items()):
            if not modname.startswith("circmdd.") or modname in UNWRAPPED_MODULES:
                continue
            if modname.split(".")[1].startswith("_"):
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not (
                    isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                ):
                    continue
                home = getattr(obj, "__module__", "")
                if home.startswith("circmdd.") and home not in UNWRAPPED_MODULES:
                    name = ALIASES.get((modname, attr), f"{home[8:]}.{attr}")
                    yield module, attr, obj, name

    def install(self) -> None:
        """Wrap every target and start counting a new pass from zero."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.reset()
        for module, attr, obj, name in list(self._targets()):
            self._patched.append((module, attr, obj))
            setattr(module, attr, self._wrap(name, obj))

    def remove(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def removed(self) -> bool:
        """True when no circmdd name is bound to a wrapper any more."""
        return not self._patched and all(
            not hasattr(obj, "__circmdd_span__")
            for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith("circmdd")
            for obj in vars(module).values()
        )

    def _wrap(self, name, fn):
        span = self.spans.setdefault(name, Span())
        hook = HOOKS.get(name)
        clock = self._clock
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.raised[type(exc).__name__] += 1
                raise
            finally:
                total = clock() - start
                span.calls += 1
                span.self_ns += total - stack.pop()
                stack[-1] += total
            if hook is not None:
                hook(tracer, fn, args, result)
            return result

        traced.__circmdd_span__ = name
        return traced

    def self_ns(self) -> int:
        return sum(span.self_ns for span in self.spans.values())

    def begin_op(self) -> None:
        """Call after clearing the table cache, before the operation."""
        self.table_misses = 0
        self.routes_by_net = {}
        self._op_start_ns = self.self_ns()

    def end_op(self, output_bytes: int) -> float:
        """Record the operation's cache use and output; its self seconds."""
        info = self._table_cache.cache_info()
        self.counts["network.table_hits"] += info.hits
        self.counts["network.table_misses"] += info.misses
        self.counts["cli.output_bytes"] += output_bytes
        return (self.self_ns() - self._op_start_ns) / 1e9

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass; trace.* are left to the caller."""
        def span(name):
            return self.spans.get(name, Span())

        self_s = {name: s.self_ns / 1e9 for name, s in self.spans.items()}
        out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
        out["other.self_s"] = sum(self_s.values()) - sum(
            self_s.get(name, 0.0) for name in SELF_TIMED
        )
        out["fan.census.calls"] = span("fan.census").calls
        out["fan.census.tie_retries"] = span("fan.census").raised["WeightTieError"]
        out["lattice.hilbert_basis.calls"] = span("lattice.hilbert_basis").calls
        out["coherence.is_coherent.calls"] = span("coherence.is_coherent").calls
        c = self.counts
        for name in (
            "lattice.octant_points_bounded.points",
            "fan.candidates",
            "fan.walls",
            "coherence.constraints",
            "coherence.incoherent",
            "mdd.diagrams",
            "network.routes",
            "cli.output_bytes",
        ):
            out[name] = c[name]
        out["fan.wall_yield"] = (
            c["fan.walls"] / c["fan.candidates"] if c["fan.candidates"] else 0.0
        )
        out["network.compiled_tables"] = self.kernels["compiled"]
        lookups = c["network.table_hits"] + c["network.table_misses"]
        out["network.table_cache_hit_ratio"] = (
            c["network.table_hits"] / lookups if lookups else 0.0
        )
        out["network.distance_table.share"] = (
            out["network.distance_table.self_s"] / wall_s if wall_s else 0.0
        )
        return out
